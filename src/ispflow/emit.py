"""Deterministic CSV and JSON emitters for the CLI.

Identical inputs produce byte-identical files: rows are sorted, floats are
rendered by mpmath at a fixed digit count, and the JSON mirrors the CSV
content one-to-one with sorted keys.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

from .constexpr import DEFAULT_DPS, GeneratorValues

FLOAT_DIGITS = 30
RESIDUAL_DIGITS = 3  # |F| at a root is rounding noise: print its size


def fnum(x, digits=FLOAT_DIGITS) -> str:
    return mp.nstr(mp.mpmathify(x), digits)


def _write(path: Path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _emit(outdir, name, fmt, header, rows, quoted=()):
    """Write ``rows`` as outdir/name.csv under ``header``, the columns named
    in ``quoted`` in double quotes, or as outdir/name.json, one object per
    row keyed by ``header``."""
    if fmt == "csv":
        lines = [",".join(header)] + [
            ",".join(f"\"{c}\"" if h in quoted else str(c)
                     for h, c in zip(header, r)) for r in rows]
        return _write(Path(outdir) / f"{name}.csv", "\n".join(lines) + "\n")
    return _write(Path(outdir) / f"{name}.json",
                  _json([dict(zip(header, r)) for r in rows]))


def emit_coeffs(outdir, fmt, table, assignment, dps=DEFAULT_DPS):
    """The table's entries with their values at ``assignment``, all
    evaluated at ``dps`` digits against one GeneratorValues."""
    with GeneratorValues(assignment, dps) as gens:
        rows = [(table.sector_tag, p, l, str(expr), fnum(gens(expr).real))
                for p, l, expr in table.rows()]
    return _emit(outdir, f"coeffs_{table.sector_tag}", fmt,
                 ("sector", "p", "l", "constexpr", "value"), rows,
                 quoted=("constexpr",))


def emit_contour(outdir, fmt, grid):
    rows = [(fnum(ratio), b, fnum(s.g), fnum(s.residual, RESIDUAL_DIGITS),
             s.iterations)
            for b in grid.branches
            for ratio, s in zip(grid.ratios, grid.curve(b))]
    return _emit(outdir, "contour", fmt,
                 ("ratio", "branch", "g", "residual", "iterations"), rows)


def emit_beta(outdir, fmt, rows, sector):
    rows = [(fnum(g), fnum(bn), fnum(bs), fnum(abs(bn - bs)),
             fnum(abs(bn - bs) / abs(bs))) for g, bn, bs in rows]
    return _emit(outdir, f"beta_{sector}", fmt,
                 ("g", "beta_numeric", "beta_series", "abs_err", "rel_err"),
                 rows)


def emit_phase(outdir, fmt, rows):
    return _emit(outdir, "phase", fmt,
                 ("g", "p_over_lambda", "delta", "tan_form_residual",
                  "unitarity_defect"),
                 [tuple(fnum(x) for x in row) for row in rows])


def emit_divergence(outdir, fmt, reports, d):
    rows = []
    for term in sorted(reports):
        r = reports[term].row()
        rows.append((r["d"], r["term"], fnum(r["basis_1"]),
                     fnum(r["basis_log"]), fnum(r["basis_lin"]),
                     fnum(r["basis_quad"]), r["classification"],
                     fnum(r["residual"])))
    return _emit(outdir, f"divergence_d{d}", fmt,
                 ("d", "term", "basis_1", "basis_log", "basis_lin",
                  "basis_quad", "classification", "residual"), rows)


def emit_groundstate(outdir, fmt, f, beta):
    if fmt == "csv":
        rows = [("f", l, f.sectors[l]) for l in sorted(f.sectors)]
        rows += [("beta", l, beta.sectors[l]) for l in sorted(beta.sectors)]
        return _emit(outdir, "groundstate", fmt,
                     ("object", "sector", "series"), rows, quoted=("series",))
    return _write(Path(outdir) / "groundstate.json",
                  _json({"transseries": f.to_jsonable(),
                         "beta": beta.to_jsonable()}))
