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

Global settings come from the flags, then an optional key=value file,
then the defaults; the orders merge key by key.  The argparse namespace is
the only settings object.  Exit codes: 0 success, 2 golden mismatch,
3 numeric tolerance failure, 4 input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp

EXIT_OK = 0
EXIT_GOLDEN = 2
EXIT_TOLERANCE = 3
EXIT_INPUT = 4

# the global settings a flag or the --config file may set, with their
# defaults; a file value is read by the default's type.  ``sector`` is the
# top beta sector (even); the f transseries is built through sector + 1.
DEFAULTS = {"precision": 60, "format": "csv", "out": "out", "k_value": 0.0,
            "orders": {"g": 10, "sector": 8}}


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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: "
                         f"{exc.strerror}") from None
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def fill_settings(args) -> None:
    """Give each global setting that no flag set its --config file value,
    or else its default; merge the orders key by key (default, file, flag);
    then check every value."""
    conf = _load_config(getattr(args, "config", None))
    for key in conf:
        if key not in DEFAULTS:
            raise ValueError(f"unknown config key {key!r}; the known keys "
                             f"are {', '.join(DEFAULTS)}")
    orders = DEFAULTS["orders"]
    for text in (conf.get("orders", ""), getattr(args, "orders", "")):
        orders = _parse_orders(text, orders)
    args.orders = orders
    for key, default in DEFAULTS.items():
        if key not in args:
            setattr(args, key,
                    type(default)(conf[key]) if key in conf else default)
    if args.precision < 30:
        raise ValueError("precision must be at least 30 digits")
    for k, v in orders.items():
        if v < 2:
            raise ValueError(f"order {k}={v} must be at least 2")
    if orders["sector"] % 2:
        raise ValueError(f"order sector={orders['sector']} must be even: it "
                         f"is the top beta sector")
    if args.format not in ("csv", "json"):
        raise ValueError("format must be csv or json")


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, "
                                         f"not {n}")
    return n


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_coeffs(args) -> int:
    from . import bound, scatter
    from .emit import emit_coeffs
    p_max, l_max = args.pmax, args.lmax
    build = {"bound": bound.running_coupling_coeffs,
             "scattering": scatter.scatter_coupling_coeffs}[args.sector]
    table = build(p_max, l_max)
    at = {"n": 1, "K": mp.mpf(args.k_value), "L": 0, "lam": 0, "shat": 0}
    path = emit_coeffs(args.out, args.format, table, at, args.precision)
    print(f"wrote {path}")
    if args.check:
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


def _bound_transseries(g_order: int, sector: int, branch: int = 0):
    """The ground-state f on ``branch`` through sector + 1 and its beta
    through ``sector``.  f reads only the condition's g-order and branch:
    the solve builds E itself, and the xi-order (3 here) is not read."""
    from .bound import (beta_transseries, build_ground_state_condition,
                        ground_state_transseries)
    cond = build_ground_state_condition(g_order, 3, b=branch)
    f = ground_state_transseries(cond, sector + 1)
    return f, beta_transseries(f).ts


def cmd_groundstate(args) -> int:
    from .emit import emit_groundstate
    f, beta = _bound_transseries(args.orders["g"], args.orders["sector"],
                                 args.branch)
    path = emit_groundstate(args.out, args.format, f, beta)
    print(f"wrote {path}")
    return EXIT_OK


def _beta_sweep(args, sector: str, kv, gmax) -> list:
    """(g, numeric beta, series beta) at `args.points` cutoffs spread over three
    decades up from the one where the first-order coupling is gmax."""
    from .rgnumeric import (log_grid, solve_running_coupling,
                            solve_scattering_coupling)
    g, top, dps = args.orders["g"], args.orders["sector"], args.precision
    if sector == "bound":
        beta = _bound_transseries(max(g, 18), top)[1]
        solve = lambda cut: solve_running_coupling(cut, 0, dps)
    else:
        from .scatter import scatter_beta
        beta = scatter_beta(top, g_order=max(g, 16)).ts
        solve = lambda cut: solve_scattering_coupling(cut, kv, dps)
    # kv is 0 in the bound sector, whose beta has no K
    cut_lo = mp.e ** (mp.pi / gmax + mp.euler + kv * mp.pi)
    rows = []
    for cut in log_grid(cut_lo, cut_lo * 1000, args.points):
        sol = solve(cut)
        rows.append((sol.g, sol.beta(dps),
                     mp.re(beta.eval_mp(sol.g, {"K": kv}, dps=dps))))
    return rows


def cmd_beta(args) -> int:
    from .emit import emit_beta
    kv = mp.mpf(args.k_value if args.sector == "scattering" else 0)
    if args.gmax is None:
        # at the default orders the series meets 1e-5 below g = 1/2 at
        # K = 0; its g^n coefficients grow like (pi K)^n, so the sweep top
        # falls like 1/(6 |K|)
        gmax = 1 / (2 + 6 * abs(kv))
    else:
        gmax = mp.mpf(args.gmax)
        if gmax <= 0:
            raise ValueError(f"--gmax must be positive, not {args.gmax}")
    if not args.tolerance > 0:
        raise ValueError(f"--tolerance must be positive, not "
                         f"{args.tolerance}")
    rows = _beta_sweep(args, args.sector, kv, gmax)
    path = emit_beta(args.out, args.format, rows, args.sector)
    print(f"wrote {path}")
    tol_fail = False
    for g, bn, bs in rows:
        if abs(bn - bs) / abs(bs) > mp.mpf(args.tolerance):
            tol_fail = True
            print(f"tolerance failure at g={mp.nstr(g, 10)}: "
                  f"rel err {mp.nstr(abs(bn-bs)/abs(bs), 3)}")
    return EXIT_TOLERANCE if tol_fail else EXIT_OK


def cmd_contour(args) -> int:
    from .emit import emit_contour
    from .rgnumeric import contour_grid
    grid = contour_grid(args.ratio_min, args.ratio_max, args.points,
                        _parse_branches(args.branches), args.precision)
    path = emit_contour(args.out, args.format, grid)
    print(f"wrote {path}")
    return EXIT_OK


def _parse_branches(text: str) -> list:
    if ".." in text:
        lo, hi = text.split("..")
        branches = list(range(int(lo), int(hi) + 1))
    else:
        branches = [int(b) for b in text.split(",")]
    if not branches:
        raise ValueError(f"--branches {text} names no branch")
    if len(set(branches)) < len(branches):
        raise ValueError(f"--branches {text} names a branch twice")
    return branches


def cmd_phase(args) -> int:
    from .emit import emit_phase
    from .rgnumeric import log_grid, phase_shift
    rows = []
    for p in log_grid(mp.mpf(args.pmin), mp.mpf(args.pmax), args.points):
        delta, resid, udef = phase_shift(mp.mpf(args.g), p,
                                         args.precision, check=True)
        rows.append((mp.mpf(args.g), p, delta, resid, udef))
    path = emit_phase(args.out, args.format, rows)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_divergence(args) -> int:
    from .emit import emit_divergence
    from .tmatrix import EXPECTED_TABLES, divergence_table
    reports = divergence_table(args.d)
    path = emit_divergence(args.out, args.format, reports, args.d)
    print(f"wrote {path}")
    for term in sorted(reports):
        print(f"  d={args.d} {term}: {reports[term].classification}")
    if args.check:
        expected = EXPECTED_TABLES[args.d]
        bad = {t: (reports[t].classification, expected[t])
               for t in reports if reports[t].classification != expected[t]}
        if bad:
            print(f"table mismatch: {bad}")
            return EXIT_GOLDEN
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    failures = []

    from .bound import bound_resummation_report, running_coupling_coeffs
    from .rgnumeric import (log_grid, smatrix_pole_check,
                            solve_running_coupling)
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

    rows = _beta_sweep(args, "bound", mp.mpf(0), mp.mpf("0.5"))
    worst = max(abs(bn - bs) / abs(bs) for _, bn, bs in rows)
    ok = worst <= mp.mpf("1e-5")
    print(f"numeric-vs-symbolic beta (worst rel {mp.nstr(worst, 3)}): "
          f"{'pass' if ok else 'FAIL'}")
    if not ok:
        failures.append("beta-dual")

    worst = mp.mpf(0)
    for i, ratio in enumerate(log_grid(mp.mpf(10), mp.mpf(10) ** 5,
                                       args.points)):
        sol = solve_running_coupling(ratio, i % 3, args.precision)
        worst = max(worst, smatrix_pole_check(sol.g, sol.ratio, args.precision))
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
                        help="comma list like g=10,sector=8: the series "
                             "g-order and the top beta sector (even; f is "
                             "built through sector + 1); beta runs its "
                             "series at g-order max(g, 18) (bound) or "
                             "max(g, 16) (scattering)")
    common.add_argument("--out", help="output directory")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--kval", type=float, dest="k_value", metavar="K",
                        help="numeric value for the scattering datum K, "
                             "read as a binary double (0.1 is evaluated at "
                             "0.1000000000000000055...)")
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
    p.add_argument("--pmax", type=int, default=4)
    p.add_argument("--lmax", type=int, default=9)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_coeffs)

    p = sub_parser("groundstate", "ground-state transseries")
    p.add_argument("--branch", type=int, default=0,
                   help="branch b >= 0: f and beta carry the unit "
                        "exp(-(2b+1) pi/g - gamma)")
    p.set_defaults(func=cmd_groundstate)

    p = sub_parser("beta", "numeric-vs-series beta sweep")
    p.add_argument("--sector", choices=("bound", "scattering"),
                   default="bound")
    p.add_argument("--gmax", type=float, default=None,
                   help="largest coupling in the sweep (default "
                        "1/(2 + 6|K|): 0.5 for bound, lower for scattering "
                        "as |K| grows and the series band shrinks)")
    p.add_argument("--points", type=_positive_int, default=8)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=cmd_beta)

    p = sub_parser("contour", "running-coupling contour data")
    p.add_argument("--ratio-min", type=float, default=10.0)
    p.add_argument("--ratio-max", type=float, default=1e6)
    p.add_argument("--points", type=_positive_int, default=24)
    p.add_argument("--branches", default="0..5", help="e.g. 0..5 or 0,2,4")
    p.set_defaults(func=cmd_contour)

    p = sub_parser("phase", "phase shifts with dual-formula check")
    p.add_argument("--g", type=float, default=0.7)
    p.add_argument("--pmin", type=float, default=0.05)
    p.add_argument("--pmax", type=float, default=0.9)
    p.add_argument("--points", type=_positive_int, default=16)
    p.set_defaults(func=cmd_phase)

    p = sub_parser("divergence", "transition-matrix divergence table")
    p.add_argument("--d", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_divergence)

    p = sub_parser("crosscheck", "full invariant battery")
    p.add_argument("--points", type=_positive_int, default=6)
    p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        fill_settings(args)
        with mp.workdps(args.precision):
            return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
