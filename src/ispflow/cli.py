"""Command-line frontend.

Every derivation and numeric check is exposed as a file-emitting,
deterministic subcommand:

    coeffs       running-coupling coefficient tables (with --check)
    groundstate  ground-state transseries and beta series
    beta         numeric-vs-series beta sweep
    contour      multivalued running-coupling curves
    phase        phase shifts with the dual-formula residual
    divergence   transition-matrix divergence table for a dimension
    crosscheck   the full invariant battery

Configuration comes from an optional key=value file plus flags; flags win.
Exit codes: 0 success, 2 golden mismatch, 3 numeric tolerance failure,
4 input error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import mpmath as mp

EXIT_OK = 0
EXIT_GOLDEN = 2
EXIT_TOLERANCE = 3
EXIT_INPUT = 4


@dataclass
class RunConfig:
    precision: int = 60
    orders: dict = field(default_factory=lambda: {
        "g": 10, "xi": 4, "sigma": 4, "rho": 9, "sector": 8})
    branches: list = field(default_factory=lambda: [0, 1, 2, 3, 4, 5])
    out: str = "out"
    format: str = "csv"
    check: bool = False
    k_value: float = 0.0

    def validate(self):
        if self.precision < 30:
            raise ValueError("precision must be at least 30 digits")
        for k, v in self.orders.items():
            if v < 2:
                raise ValueError(f"order {k}={v} must be at least 2")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")


def _parse_orders(text: str, base: dict) -> dict:
    out = dict(base)
    for item in text.split(","):
        if not item:
            continue
        key, _, val = item.partition("=")
        if key not in out:
            raise ValueError(f"unknown order key {key!r}")
        out[key] = int(val)
    return out


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    file_vals = _load_config(getattr(args, "config", None))
    if "precision" in file_vals:
        cfg.precision = int(file_vals["precision"])
    if "format" in file_vals:
        cfg.format = file_vals["format"]
    if "out" in file_vals:
        cfg.out = file_vals["out"]
    if "orders" in file_vals:
        cfg.orders = _parse_orders(file_vals["orders"], cfg.orders)
    if "k_value" in file_vals:
        cfg.k_value = float(file_vals["k_value"])
    if getattr(args, "precision", None) is not None:
        cfg.precision = args.precision
    if getattr(args, "orders", None):
        cfg.orders = _parse_orders(args.orders, cfg.orders)
    if getattr(args, "out", None):
        cfg.out = args.out
    if getattr(args, "format", None):
        cfg.format = args.format
    if getattr(args, "check", False):
        cfg.check = True
    if getattr(args, "kval", None) is not None:
        cfg.k_value = args.kval
    cfg.validate()
    return cfg


def _assignment(cfg: RunConfig) -> dict:
    return {"n": 1, "K": mp.mpf(cfg.k_value), "L": 0, "lam": 0, "shat": 0}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_coeffs(args, cfg: RunConfig) -> int:
    from . import bound, scatter
    from .emit import emit_coeffs
    p_max = args.pmax if args.pmax is not None else 4
    l_max = args.lmax if args.lmax is not None else cfg.orders["rho"]
    if args.sector == "bound":
        table = bound.running_coupling_coeffs(p_max, l_max)
    else:
        table = scatter.scatter_coupling_coeffs(p_max, l_max)
    path = emit_coeffs(cfg.out, cfg.format, table, _assignment(cfg),
                       cfg.precision)
    print(f"wrote {path}")
    if cfg.check:
        from .golden import BOUND_TABLE, SCATTER_TABLE
        ref = BOUND_TABLE if args.sector == "bound" else SCATTER_TABLE
        bad = [key for key, expr in ref.items()
               if key[0] <= p_max and key[1] <= l_max
               and table.entry(*key) != expr]
        if bad:
            print(f"golden mismatch at {bad}")
            return EXIT_GOLDEN
        print(f"golden check passed ({sum(1 for k in ref if k[0] <= p_max and k[1] <= l_max)} entries)")
    return EXIT_OK


def cmd_groundstate(args, cfg: RunConfig) -> int:
    from .bound import (beta_transseries, build_ground_state_condition,
                        ground_state_transseries)
    from .emit import emit_groundstate
    from .transseries import Transseries
    max_sector = args.max_sector or cfg.orders["sector"] + 1
    if max_sector % 2 == 0:
        max_sector += 1
    cond = build_ground_state_condition(cfg.orders["g"],
                                        max_sector + 1, b=args.branch)
    f = ground_state_transseries(cond, max_sector)
    beta = (beta_transseries(f).ts if args.branch == 0
            else Transseries({}, args.branch, "bound", 0))
    path = emit_groundstate(cfg.out, cfg.format, f, beta)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_beta(args, cfg: RunConfig) -> int:
    from .emit import emit_beta
    from .rgnumeric import solve_running_coupling, solve_scattering_coupling
    if args.sector == "bound":
        from .bound import (beta_transseries, build_ground_state_condition,
                            ground_state_transseries)
        cond = build_ground_state_condition(max(cfg.orders["g"], 18),
                                            cfg.orders["sector"] + 3, b=0)
        f = ground_state_transseries(cond, cfg.orders["sector"] + 1)
        beta = beta_transseries(f)
        cut_lo = mp.e ** (mp.pi / mp.mpf(args.gmax) + mp.euler)
        solve = lambda cut: solve_running_coupling(cut, 0, cfg.precision)
        assignment = None
    else:
        from .scatter import scatter_beta
        beta = scatter_beta(cfg.orders["sector"] // 2 * 2,
                            g_order=max(cfg.orders["g"], 16))
        kv = mp.mpf(cfg.k_value)
        cut_lo = mp.e ** (mp.pi / mp.mpf(args.gmax) + mp.euler + kv * mp.pi)
        solve = lambda cut: solve_scattering_coupling(cut, kv, cfg.precision)
        assignment = {"K": kv}
    rows = []
    for i in range(args.points):
        cut = cut_lo * mp.mpf(10) ** (mp.mpf(i) * 3 / max(args.points - 1, 1))
        sol = solve(cut)
        rows.append((sol.g, sol.beta(cfg.precision),
                     beta.eval_mp(sol.g, assignment, dps=cfg.precision)))
    path = emit_beta(cfg.out, cfg.format, rows, args.sector)
    print(f"wrote {path}")
    tol_fail = False
    for g, bn, bs in rows:
        if abs(bn - bs) / abs(bs) > mp.mpf(args.tolerance):
            tol_fail = True
            print(f"tolerance failure at g={mp.nstr(g, 10)}: "
                  f"rel err {mp.nstr(abs(bn-bs)/abs(bs), 3)}")
    return EXIT_TOLERANCE if tol_fail else EXIT_OK


def cmd_contour(args, cfg: RunConfig) -> int:
    from .emit import emit_contour
    from .rgnumeric import contour_grid
    branches = _parse_branches(args.branches) if args.branches else cfg.branches
    grid = contour_grid(args.ratio_min, args.ratio_max, args.points,
                        branches, cfg.precision)
    path = emit_contour(cfg.out, cfg.format, grid)
    print(f"wrote {path}")
    return EXIT_OK


def _parse_branches(text: str) -> list:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(b) for b in text.split(",")]


def cmd_phase(args, cfg: RunConfig) -> int:
    from .emit import emit_phase
    from .rgnumeric import phase_shift
    rows = []
    for i in range(args.points):
        frac = mp.mpf(i) / max(args.points - 1, 1)
        p = mp.mpf(args.pmin) * (mp.mpf(args.pmax) / mp.mpf(args.pmin)) ** frac
        delta, resid, udef = phase_shift(mp.mpf(args.g), p,
                                         cfg.precision, check=True)
        rows.append((mp.mpf(args.g), p, delta, resid, udef))
    path = emit_phase(cfg.out, cfg.format, rows)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_divergence(args, cfg: RunConfig) -> int:
    from .emit import emit_divergence
    from .tmatrix import EXPECTED_TABLES, divergence_table
    reports = divergence_table(args.d)
    path = emit_divergence(cfg.out, cfg.format, reports, args.d)
    print(f"wrote {path}")
    for term in sorted(reports):
        print(f"  d={args.d} {term}: {reports[term].classification}")
    if cfg.check:
        expected = EXPECTED_TABLES[args.d]
        bad = {t: (reports[t].classification, expected[t])
               for t in reports if reports[t].classification != expected[t]}
        if bad:
            print(f"table mismatch: {bad}")
            return EXIT_GOLDEN
    return EXIT_OK


def cmd_crosscheck(args, cfg: RunConfig) -> int:
    failures = []

    from .bound import (beta_transseries, bound_resummation_report,
                        build_ground_state_condition,
                        ground_state_transseries, running_coupling_coeffs)
    from .rgnumeric import smatrix_pole_check, solve_running_coupling
    from .scatter import analytic_continuation_check

    table13 = running_coupling_coeffs(0, 13, g_order=12)
    resum = bound_resummation_report(table13, 13)
    ok = all(v[0] for v in resum.values())
    print(f"resummation columns (l <= 13): {'pass' if ok else 'FAIL'}")
    if not ok:
        failures.append("resummation")

    ok = analytic_continuation_check(5, 2)
    print(f"analytic continuation collapse: {'pass' if ok else 'FAIL'}")
    if not ok:
        failures.append("analytic-continuation")

    cond = build_ground_state_condition(18, 12, b=0)
    f = ground_state_transseries(cond, 9)
    beta = beta_transseries(f)
    worst = mp.mpf(0)
    ratio_lo = mp.e ** (mp.pi / mp.mpf("0.5") + mp.euler)
    for i in range(args.points):
        ratio = ratio_lo * mp.mpf(10) ** (mp.mpf(3 * i) / max(args.points - 1, 1))
        sol = solve_running_coupling(ratio, 0, cfg.precision)
        bn = sol.beta(cfg.precision)
        bs = beta.eval_mp(sol.g, dps=cfg.precision)
        worst = max(worst, abs(bn - bs) / abs(bs))
    ok = worst <= mp.mpf("1e-5")
    print(f"numeric-vs-symbolic beta (worst rel {mp.nstr(worst, 3)}): "
          f"{'pass' if ok else 'FAIL'}")
    if not ok:
        failures.append("beta-dual")

    worst = mp.mpf(0)
    for i in range(args.points):
        ratio = mp.mpf(10) ** (1 + mp.mpf(4 * i) / max(args.points - 1, 1))
        sol = solve_running_coupling(ratio, i % 3, cfg.precision)
        worst = max(worst, smatrix_pole_check(sol.g, sol.ratio, cfg.precision))
    ok = worst <= mp.mpf("1e-28")
    print(f"S-matrix pole residual (worst {mp.nstr(worst, 3)}): "
          f"{'pass' if ok else 'FAIL'}")
    if not ok:
        failures.append("s-matrix-pole")

    if failures:
        print("failing checks: " + ", ".join(failures))
        return EXIT_TOLERANCE
    print("all crosschecks passed")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="key=value configuration file")
    common.add_argument("--precision", type=int,
                        help="working precision in digits (>= 30)")
    common.add_argument("--orders",
                        help="comma list like g=10,xi=4,rho=9,sector=8")
    common.add_argument("--out", help="output directory")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--kval", type=float,
                        help="numeric value for the scattering datum K")
    parser = argparse.ArgumentParser(
        prog="ispflow",
        description="Transseries renormalization of the one-dimensional "
                    "inverse-square potential: exact tables, beta functions, "
                    "numeric flows, and divergence classification.",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def sub_parser(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common])

    p = sub_parser("coeffs", "running-coupling coefficient tables")
    p.add_argument("--sector", choices=("bound", "scattering"),
                   default="bound")
    p.add_argument("--pmax", type=int)
    p.add_argument("--lmax", type=int)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_coeffs)

    p = sub_parser("groundstate", "ground-state transseries")
    p.add_argument("--max-sector", type=int)
    p.add_argument("--branch", type=int, default=0)
    p.set_defaults(func=cmd_groundstate)

    p = sub_parser("beta", "numeric-vs-series beta sweep")
    p.add_argument("--sector", choices=("bound", "scattering"),
                   default="bound")
    p.add_argument("--gmax", type=float, default=0.5,
                   help="largest coupling in the sweep (the scattering "
                        "series band shrinks with K; stay below ~0.3 "
                        "there for nonzero K)")
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=cmd_beta)

    p = sub_parser("contour", "running-coupling contour data")
    p.add_argument("--ratio-min", type=float, default=10.0)
    p.add_argument("--ratio-max", type=float, default=1e6)
    p.add_argument("--points", type=int, default=24)
    p.add_argument("--branches", help="e.g. 0..5 or 0,2,4")
    p.set_defaults(func=cmd_contour)

    p = sub_parser("phase", "phase shifts with dual-formula check")
    p.add_argument("--g", type=float, default=0.7)
    p.add_argument("--pmin", type=float, default=0.05)
    p.add_argument("--pmax", type=float, default=0.9)
    p.add_argument("--points", type=int, default=16)
    p.set_defaults(func=cmd_phase)

    p = sub_parser("divergence", "transition-matrix divergence table")
    p.add_argument("--d", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_divergence)

    p = sub_parser("crosscheck", "full invariant battery")
    p.add_argument("--points", type=int, default=6)
    p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        cfg = build_config(args)
        with mp.workdps(cfg.precision):
            return args.func(args, cfg)
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
