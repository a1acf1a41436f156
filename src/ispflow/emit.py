"""Deterministic CSV and JSON emitters for the CLI.

Identical inputs produce byte-identical files: rows are sorted, floats are
rendered by mpmath at a fixed digit count, and the JSON mirrors the CSV
content one-to-one with sorted keys.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

FLOAT_DIGITS = 30
RESIDUAL_DIGITS = 3  # |F| at a root is rounding noise: print its size


def fnum(x, digits=FLOAT_DIGITS) -> str:
    return mp.nstr(mp.mpf(x), digits)


def _write(path: Path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    return _write(path, "\n".join(lines) + "\n")


def write_json(path, obj):
    return _write(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def coeff_rows(table, assignment):
    rows = []
    for p, l, expr in table.rows():
        val = expr.eval_mp(assignment)
        rows.append((table.sector_tag, p, l,
                     f"\"{expr}\"", fnum(val.real)))
    return rows


def emit_coeffs(outdir, fmt, table, assignment):
    rows = coeff_rows(table, assignment)
    name = f"coeffs_{table.sector_tag}"
    if fmt == "csv":
        return write_csv(Path(outdir) / f"{name}.csv",
                         ("sector", "p", "l", "constexpr", "value"), rows)
    obj = [{"sector": r[0], "p": r[1], "l": r[2],
            "constexpr": r[3].strip('"'), "value": r[4]} for r in rows]
    return write_json(Path(outdir) / f"{name}.json", obj)


def emit_contour(outdir, fmt, grid):
    rows = []
    for b in grid.branches:
        for i, ratio in enumerate(grid.ratios):
            s = grid.solutions[(b, i)]
            rows.append((fnum(ratio), b, fnum(s.g),
                         fnum(s.residual, RESIDUAL_DIGITS), s.iterations))
    if fmt == "csv":
        return write_csv(Path(outdir) / "contour.csv",
                         ("ratio", "branch", "g", "residual", "iterations"),
                         rows)
    obj = [{"ratio": r[0], "branch": r[1], "g": r[2], "residual": r[3],
            "iterations": r[4]} for r in rows]
    return write_json(Path(outdir) / "contour.json", obj)


def emit_beta(outdir, fmt, rows, sector):
    header = ("g", "beta_numeric", "beta_series", "abs_err", "rel_err")
    name = f"beta_{sector}"
    srows = [(fnum(g), fnum(bn), fnum(bs), fnum(abs(bn - bs)),
              fnum(abs(bn - bs) / abs(bs))) for g, bn, bs in rows]
    if fmt == "csv":
        return write_csv(Path(outdir) / f"{name}.csv", header, srows)
    obj = [dict(zip(header, r)) for r in srows]
    return write_json(Path(outdir) / f"{name}.json", obj)


def emit_phase(outdir, fmt, rows):
    header = ("g", "p_over_lambda", "delta", "tan_form_residual",
              "unitarity_defect")
    srows = [tuple(fnum(x) for x in row) for row in rows]
    if fmt == "csv":
        return write_csv(Path(outdir) / "phase.csv", header, srows)
    return write_json(Path(outdir) / "phase.json",
                      [dict(zip(header, r)) for r in srows])


def emit_divergence(outdir, fmt, reports, d):
    header = ("d", "term", "basis_1", "basis_log", "basis_lin", "basis_quad",
              "classification", "residual")
    rows = []
    for term in sorted(reports):
        r = reports[term].row()
        rows.append((r["d"], r["term"], fnum(r["basis_1"]),
                     fnum(r["basis_log"]), fnum(r["basis_lin"]),
                     fnum(r["basis_quad"]), r["classification"],
                     fnum(r["residual"])))
    name = f"divergence_d{d}"
    if fmt == "csv":
        return write_csv(Path(outdir) / f"{name}.csv", header, rows)
    return write_json(Path(outdir) / f"{name}.json",
                      [dict(zip(header, r)) for r in rows])


def emit_groundstate(outdir, fmt, f, beta):
    obj = {
        "transseries": f.to_jsonable(),
        "beta": beta.ts.to_jsonable(),
    }
    if fmt == "csv":
        rows = []
        for l in sorted(f.sectors):
            rows.append(("f", l, f"\"{f.sectors[l]}\""))
        for l in sorted(beta.ts.sectors):
            rows.append(("beta", l, f"\"{beta.ts.sectors[l]}\""))
        return write_csv(Path(outdir) / "groundstate.csv",
                         ("object", "sector", "series"), rows)
    return write_json(Path(outdir) / "groundstate.json", obj)
