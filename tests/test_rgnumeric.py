"""Numerical flow: solver residuals, monotonicity, dual-formula checks."""

import random

import mpmath as mp
import pytest

from ispflow import rgnumeric
from ispflow.bound import (beta_transseries, build_ground_state_condition,
                           ground_state_transseries)
from ispflow.rgnumeric import (SolverError, contour_grid, numeric_beta,
                               numeric_beta_scattering, phase_shift,
                               quantization_residual, scattering_residual,
                               smatrix, smatrix_pole_check,
                               solve_running_coupling,
                               solve_scattering_coupling)


@pytest.fixture(autouse=True, scope="module")
def _working_precision():
    with mp.workdps(60):
        yield


@pytest.fixture(scope="module")
def beta_series():
    # g_order 18 keeps the series tail below the 1e-5 band at g = 0.5
    cond = build_ground_state_condition(18, 12, b=0)
    return beta_transseries(ground_state_transseries(cond, 9))


def test_solver_residual_bound():
    for ratio in (10, 1e3, 1e6):
        for b in (0, 1):
            sol = solve_running_coupling(ratio, b)
            assert sol.residual < mp.mpf(10) ** -30
            assert sol.g > 0


def test_first_order_asymptote():
    sol = solve_running_coupling(mp.mpf(10) ** 12, 2)
    expect = 5 * mp.pi / (mp.log(mp.mpf(10) ** 12) - mp.euler)
    # next correction is relative O(g^2 zeta3/ln(ratio)) ~ 5e-3 here
    assert abs(sol.g - expect) / sol.g < 2e-2
    sol = solve_running_coupling(mp.mpf(10) ** 40, 2)
    expect = 5 * mp.pi / (mp.log(mp.mpf(10) ** 40) - mp.euler)
    assert abs(sol.g - expect) / sol.g < 3e-4


def test_seeded_inversion_example():
    ratio = mp.e ** (mp.pi / mp.mpf("0.5") + mp.euler)
    sol = solve_running_coupling(ratio, 0)
    # xi^2-corrections are tiny here, so g tracks the first-order inversion
    assert abs(sol.g - mp.mpf("0.5")) < 0.01


def test_invalid_inputs():
    with pytest.raises(ValueError):
        solve_running_coupling(0.5, 0)
    with pytest.raises(ValueError):
        solve_running_coupling(10.0, -1)


def test_monotonic_and_noncrossing_branches():
    grid = contour_grid(10, 1e6, 7, [0, 1, 2, 3, 4, 5], dps=40)
    for b in range(6):
        gs = [s.g for s in grid.curve(b)]
        assert all(a > b_ for a, b_ in zip(gs, gs[1:])), f"branch {b}"
    for i in range(len(grid.ratios)):
        col = [grid.solutions[(b, i)].g for b in range(6)]
        assert all(x < y for x, y in zip(col, col[1:]))
    # every curve decays toward zero coupling as the cutoff is removed,
    # tracking the first-order asymptote
    far = contour_grid(1e20, 1e24, 2, [0, 5], dps=40)
    for b in (0, 5):
        got = far.solutions[(b, 1)].g
        expect = (2 * b + 1) * mp.pi / (mp.log(mp.mpf(10) ** 24) - mp.euler)
        assert abs(got - expect) / got < 2e-2


def test_numeric_beta_leading_order():
    for ratio in (mp.e ** (mp.pi / mp.mpf("0.2") + mp.euler),
                  mp.e ** (mp.pi / mp.mpf("0.12") + mp.euler)):
        sol = solve_running_coupling(ratio, 0, dps=50)
        bn = numeric_beta(ratio, 0, dps=50)
        assert sol.g < 0.21
        assert abs(bn + sol.g ** 2 / mp.pi) < sol.g ** 5


def test_numeric_beta_matches_series(beta_series):
    worst = mp.mpf(0)
    for t in range(5):
        ratio = mp.e ** (mp.pi / mp.mpf("0.5") + mp.euler) * mp.mpf(10) ** t
        sol = solve_running_coupling(ratio, 0)
        bn = numeric_beta(ratio, 0)
        bs = beta_series.eval_mp(sol.g)
        worst = max(worst, abs(bn - bs) / abs(bs))
    assert worst < 1e-5, worst


def test_beta_negative_along_branch():
    for t in range(5):
        ratio = mp.mpf(10) * mp.mpf(10) ** t
        assert numeric_beta(ratio, 0, dps=40) < 0


def test_scattering_solver_and_beta():
    kv = mp.mpf("0.3")
    sol = solve_scattering_coupling(1e4, kv)
    assert abs(scattering_residual(sol.g, sol.ratio, kv)) < mp.mpf(10) ** -30
    from ispflow.scatter import scatter_beta
    # the K pi^2-enhanced coefficients shrink the series' useful band with
    # growing K; compare inside it (g ~ 0.25 at this K)
    beta = scatter_beta(4, g_order=16)
    sol6 = solve_scattering_coupling(1e6, kv)
    bn = numeric_beta_scattering(1e6, kv)
    bs = beta.eval_mp(sol6.g, {"K": kv})
    assert abs(bn - bs) / abs(bs) < 1e-6
    # switched-off phase datum: full band available as in the bound sector
    sol0 = solve_scattering_coupling(1e4, 0)
    bn0 = numeric_beta_scattering(1e4, 0)
    bs0 = beta.eval_mp(sol0.g, {"K": mp.mpf(0)})
    assert abs(bn0 - bs0) / abs(bs0) < 1e-7


def test_phase_shift_dual_formula_randomized():
    rng = random.Random(8)
    worst_resid = worst_unit = mp.mpf(0)
    for _ in range(100):
        g = mp.mpf(rng.uniform(0.1, 2.0))
        p = mp.mpf(rng.uniform(0.03, 0.95))
        delta, resid, udef = phase_shift(g, p, dps=45, check=True)
        worst_resid = max(worst_resid, resid)
        worst_unit = max(worst_unit, udef)
    assert worst_resid < 1e-35
    assert worst_unit < 1e-35


def test_phase_shift_weak_coupling_limit():
    # the coth factor diverges as g -> 0 while Arg J vanishes linearly, and
    # their balanced product leaves tan(delta + pi/4) -> -Y_0/J_0
    x = mp.mpf("0.6")
    limit = -mp.bessely(0, x) / mp.besselj(0, x)
    for g, tol in ((mp.mpf("1e-4"), 1e-3), (mp.mpf("1e-6"), 1e-5)):
        delta = phase_shift(g, x / 2, dps=40)
        assert abs(mp.tan(delta + mp.pi / 4) - limit) < tol
        from ispflow.specfun import bessel_j_imag
        argj = mp.arg(bessel_j_imag(g, x, dps=40).mpc)
        assert abs(argj) < 3 * g


def test_unitarity():
    rng = random.Random(9)
    for _ in range(50):
        g = mp.mpf(rng.uniform(0.1, 2.0))
        p = mp.mpf(rng.uniform(0.05, 0.9))
        s = smatrix(g, p, dps=45)
        assert abs(abs(s) - 1) < 1e-35


def test_smatrix_pole_at_bound_state():
    sol = solve_running_coupling(1e4, 0)
    assert smatrix_pole_check(sol.g, sol.ratio) < mp.mpf(10) ** -28
    assert smatrix_pole_check(sol.g + mp.mpf("1e-3"), sol.ratio) > 1e-6


def test_excited_level_scale_relation():
    sol = solve_running_coupling(1e4, 0)
    ratio2 = sol.ratio * mp.e ** (mp.pi / sol.g)
    sol2 = solve_running_coupling(ratio2, 0, n_level=2)
    assert abs(sol2.g - sol.g) / sol.g < 1e-6


def test_quantization_residual_shape():
    sol = solve_running_coupling(100.0, 0)
    assert abs(quantization_residual(sol.g, sol.ratio, 0)) < mp.mpf(10) ** -30
    assert abs(quantization_residual(sol.g * 2, sol.ratio, 0)) > 1e-3


def _bisection_root(f, lo, hi, dps):
    """Reference root: plain bisection of a sign change in [lo, hi] down to
    10^-(dps+2) relative."""
    flo = f(lo)
    assert flo * f(hi) < 0
    tol = mp.mpf(10) ** (-(dps + 2))
    while hi - lo > tol * hi:
        mid = (lo + hi) / 2
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def _solve_case(case):
    sector, log_ratio, x = case
    ratio = mp.mpf(10) ** mp.mpf(log_ratio)
    if sector == "bound":
        return solve_running_coupling(ratio, x)
    return solve_scattering_coupling(ratio, x)


def test_iterations_count_residual_evaluations(monkeypatch):
    count = {"n": 0}
    for name in ("quantization_residual", "scattering_residual"):
        original = getattr(rgnumeric, name)

        def counted(*args, _original=original, **kwargs):
            count["n"] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(rgnumeric, name, counted)
    for case in (("bound", 2, 0), ("bound", 5.5, 3), ("scatter", 3, 0.2),
                 ("scatter", 1.5, -0.3)):
        count["n"] = 0
        sol = _solve_case(case)
        assert count["n"] == sol.iterations, case


def test_solver_converges_superlinearly():
    rng = random.Random(41)
    cases = [("bound", rng.uniform(1, 6), b) for b in range(6) for _ in "ab"]
    cases += [("scatter", rng.uniform(1, 6), rng.uniform(-0.3, 0.3))
              for _ in range(8)]
    # regula falsi without the secant-step stop stalls on these two, once
    # an endpoint has converged (84 and 71 evaluations)
    cases += [("bound", 1.67, 0), ("scatter", 2.5, 0.05)]
    sols = [_solve_case(case) for case in cases]
    worst = max(sols, key=lambda s: s.iterations)
    assert worst.iterations <= 16, (worst.iterations, worst.ratio)
    for case, sol in zip(cases, sols):
        assert sol.residual < mp.mpf(10) ** -58, case
    for i in (0, 11, 12, 20, 21):
        sector, _, x = cases[i]
        sol = sols[i]
        with mp.workdps(70):
            if sector == "bound":
                def f(g):
                    return quantization_residual(g, sol.ratio, x)
            else:
                def f(g):
                    return scattering_residual(g, sol.ratio, x)
            ref = _bisection_root(f, sol.g * mp.mpf("0.999"),
                                  sol.g * mp.mpf("1.001"), 60)
            assert abs(sol.g - ref) / ref < mp.mpf(10) ** -58, cases[i]


def test_numeric_beta_matches_central_difference():
    """Implicit beta against d g/d ln Lambda from two 120-digit solves at
    ln Lambda -+ 1e-30 (truncation ~1e-60, rounding ~1e-90)."""
    h = mp.mpf("1e-30")

    def central(solve, ratio, *args):
        with mp.workdps(130):
            up = solve(ratio * mp.e ** h, *args, dps=120).g
            down = solve(ratio * mp.e ** -h, *args, dps=120).g
            return (up - down) / (2 * h)

    for b, g in ((0, "0.3"), (1, "0.45")):
        with mp.workdps(130):
            ratio = mp.e ** ((2 * b + 1) * mp.pi / mp.mpf(g) + mp.euler)
        bn = numeric_beta(ratio, b)
        ref = central(solve_running_coupling, ratio, b)
        with mp.workdps(130):
            assert abs(bn - ref) / abs(ref) < mp.mpf(10) ** -50, (b, g)
        with mp.workdps(15):
            assert numeric_beta(ratio, b) == bn
    for k in (mp.mpf("0.2"), mp.mpf("-0.2")):
        with mp.workdps(130):
            lam = mp.e ** (mp.pi / mp.mpf("0.25") + mp.euler + k * mp.pi)
        bn = numeric_beta_scattering(lam, k)
        ref = central(solve_scattering_coupling, lam, k)
        with mp.workdps(130):
            assert abs(bn - ref) / abs(ref) < mp.mpf(10) ** -50, k
        with mp.workdps(15):
            assert numeric_beta_scattering(lam, k) == bn


# (sector, cutoff ratio, branch or K, g, beta) of the root solves and
# QuantizationSolution.beta() at 60 digits (ratio and K read as 60-digit
# mpf), with the eta series summed on mpc values, printed to 66 digits
FROZEN_ROOTS = (
    ("bound", "1000", 0,
     "0.489622623550626124624093461244458476782399208185874816969298055463",
     "-0.0745200290962022247492277798037840615814191998439212692182341477323"),
    ("bound", "1e6", 2,
     "1.15704651815978414699412382154525524145482297050219575032754309447",
     "-0.0824681947677040742207028252795975897748045173687721346474286339672"),
    ("scatter", "1e4", "0.3",
     "0.398428082313275801825666277538943557027202827466124581482019584711",
     "-0.0485033541421176135869177110533531523293001200540921693830724740549"),
    ("scatter", "316", "-0.2",
     "0.543589008431762656011095890490200543284694074450250697779593800898",
     "-0.0942683674005656150319501289255030594231999228192766928886339406029"),
)


def test_roots_and_betas_match_frozen_values():
    for sector, ratio, x, g, beta in FROZEN_ROOTS:
        with mp.workdps(60):
            if sector == "bound":
                sol = solve_running_coupling(mp.mpf(ratio), x)
            else:
                sol = solve_scattering_coupling(mp.mpf(ratio), mp.mpf(x))
        got_beta = sol.beta()
        with mp.workdps(80):
            for got, ref in ((sol.g, g), (got_beta, beta)):
                ref = mp.mpf(ref)
                assert abs(got - ref) / abs(ref) < mp.mpf(10) ** -58, (
                    sector, ratio, x)


def test_bracket_widenings_are_counted():
    """Below ratio e^{gamma + 2 pi} the first-order seed falls back to 1,
    far from the root near 3 at ratio 2, and the bracket must grow; at
    ratio 1e3 the seed brackets the root at once."""
    for sol in (solve_running_coupling(2, 0),
                solve_scattering_coupling(2, mp.mpf("0.3"))):
        assert sol.g > 2
        assert sol.widenings >= 1
        assert sol.iterations >= sol.widenings + 2
    near = solve_running_coupling(1000, 0)
    assert near.widenings == 0


def test_solver_failures_raise():
    with mp.workdps(70):
        # no sign change anywhere near the seed
        with pytest.raises(SolverError, match="no sign change"):
            rgnumeric._solve(lambda g: g * g + 1, mp.mpf(1), 60)
        # a jump across zero with no root: regula falsi only closes in
        # linearly and passes its evaluation cap
        step = mp.mpf(1) / 3
        with pytest.raises(SolverError, match="evaluations"):
            rgnumeric._solve(lambda g: mp.mpf(1 if g > step else -1),
                             mp.mpf("0.3"), 60)
