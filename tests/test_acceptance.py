"""Acceptance battery.

Each criterion prints one pass/fail line.  Tolerances are pinned here:
exact symbolic equality where the sources print closed forms, and the
stated numeric bands for the dual-oracle checks.
"""

import time
import warnings

import mpmath as mp
import pytest

from ispflow import golden
from ispflow.constexpr import ConstExpr, GRat

warnings.filterwarnings("ignore")
mp.mp.dps = 60


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion:>2}] {status} {detail}")
    return ok


@pytest.fixture(scope="module")
def bound_objects():
    from ispflow.bound import (beta_transseries,
                               build_ground_state_condition,
                               ground_state_transseries)
    cond = build_ground_state_condition(18, 12, b=0)
    f = ground_state_transseries(cond, 9)
    beta = beta_transseries(f)
    return cond, f, beta


def test_criterion_1_ground_state_coefficients():
    t0 = time.time()
    from ispflow.bound import build_ground_state_condition
    cond = build_ground_state_condition(8, 8, b=0)
    ok = (cond.a_odd[1] == golden.gs_a3(8)
          and cond.a_odd[2] == golden.gs_a5(8)
          and cond.a_odd[3] == golden.gs_a7(8))
    elapsed = time.time() - t0
    assert report(1, ok and elapsed < 1.0,
                  f"a3,a5,a7 exact; {elapsed:.2f}s (< 1 s)")


def test_criterion_2_transseries_sectors(bound_objects):
    t0 = time.time()
    _, f, _ = bound_objects
    from ispflow.expansions import growth_unit_series
    e = growth_unit_series(18)
    ok = True
    for l in (1, 3, 5, 7):
        ref = (golden.f_sector_prefactor(l, 18) * e ** l).truncate(
            f.sectors[l].trunc_order)
        ok = ok and (f.sectors[l] - ref).is_zero()
    elapsed = time.time() - t0
    assert report(2, ok and elapsed < 5.0,
                  f"sectors 1,3,5,7 exact; {elapsed:.2f}s (< 5 s)")


def test_criterion_3_coupling_tables():
    t0 = time.time()
    from ispflow.bound import running_coupling_coeffs
    from ispflow.scatter import scatter_coupling_coeffs
    bt = running_coupling_coeffs(4, 9)
    st = scatter_coupling_coeffs(4, 7)
    bad = [k for k, v in golden.BOUND_TABLE.items() if bt.entry(*k) != v]
    bad += [("S",) + k for k, v in golden.SCATTER_TABLE.items()
            if st.entry(*k) != v]
    elapsed = time.time() - t0
    n = len(golden.BOUND_TABLE) + len(golden.SCATTER_TABLE)
    assert report(3, not bad and elapsed < 30,
                  f"{n} golden entries exact; {elapsed:.1f}s (< 30 s); "
                  f"mismatches={bad}")


def test_criterion_4_resummation():
    from ispflow.bound import bound_resummation_report, running_coupling_coeffs
    t13 = running_coupling_coeffs(0, 13, g_order=12)
    rep = bound_resummation_report(t13, 13)
    ok = all(v[0] for v in rep.values())
    assert report(4, ok, "four column sums, residual zero through l=13")


def test_criterion_5_beta_transseries(bound_objects):
    _, _, beta = bound_objects
    ok = all(beta.ts.sector(0).coefficient((k,)) == c
             for k, c in golden.BOUND_BETA_PERTURBATIVE.items())
    ok = ok and all(beta.ts.sector(l).coefficient((2,)) == c
                    for l, c in golden.BOUND_BETA_SECTOR_LEAD.items())
    from ispflow.scatter import scatter_beta
    sbeta = scatter_beta(4, g_order=9)
    ok = ok and all(sbeta.ts.sector(0).coefficient((k,)) == c
                    for k, c in golden.SCATTER_BETA_PERTURBATIVE.items())
    ok = ok and all(sbeta.ts.sector(l).coefficient((2,)) == c
                    for l, c in golden.SCATTER_BETA_SECTOR_LEAD.items())
    ok = ok and all(sbeta.ts.sector(l).coefficient((k,)) == c
                    for (l, k), c in golden.SCATTER_BETA_SECTOR_TERMS.items())
    assert report(5, ok, "perturbative g^2..g^9 and sector leads exact, "
                         "both sectors")


def test_criterion_6_numeric_vs_symbolic(bound_objects):
    t0 = time.time()
    from ispflow.bound import bound_structure_fit, running_coupling_coeffs
    from ispflow.rgnumeric import numeric_beta, solve_running_coupling
    _, _, beta = bound_objects

    # the xi^2 columns contribute only ~1e-7 relative beyond ratio 1e3, so
    # the pure-log tower to q = 21 carries the 1e-6 band on its own
    table = running_coupling_coeffs(0, 21, g_order=20)
    heads, fit_ok, _ = bound_structure_fit(table)
    head_vals = {k: mp.re(v.substitute("n", 1).eval_mp())
                 for k, v in heads.items()}

    def resummed(ratio):
        ratio = mp.mpf(ratio)
        xi = 1 / ratio
        dd = -mp.euler + mp.log(ratio) + xi ** 2
        return sum(hv * xi ** p / dd ** q
                   for (p, q), hv in head_vals.items())

    worst_g = mp.mpf(0)
    for i in range(50):
        ratio = mp.mpf(10) ** (3 + mp.mpf(3 * i) / 49)
        sol = solve_running_coupling(ratio, 0)
        worst_g = max(worst_g, abs(resummed(ratio) - sol.g) / sol.g)

    worst_b = mp.mpf(0)
    for i in range(12):
        ratio = mp.e ** (mp.pi / mp.mpf("0.5") + mp.euler) * mp.mpf(10) ** (
            mp.mpf(3 * i) / 11)
        sol = solve_running_coupling(ratio, 0)
        bn = numeric_beta(ratio, 0)
        worst_b = max(worst_b, abs(bn - beta.eval_mp(sol.g))
                      / abs(beta.eval_mp(sol.g)))
    elapsed = time.time() - t0
    ok = fit_ok and worst_g <= 1e-6 and worst_b <= 1e-5 and elapsed < 120
    assert report(6, ok,
                  f"worst g rel {mp.nstr(worst_g, 3)} (<=1e-6), "
                  f"worst beta rel {mp.nstr(worst_b, 3)} (<=1e-5), "
                  f"{elapsed:.0f}s (< 120 s)")


def test_criterion_7_analytic_continuation():
    from ispflow.scatter import analytic_continuation_check
    ok = analytic_continuation_check(5, 2)
    assert report(7, ok, "K,L -> -i/2, shat^2 -> -1 collapses g_S = g_B "
                         "through g_B^5, sectors <= 2")


def test_criterion_8_fixed_point():
    import random
    from ispflow.scatter import fixed_point_relation
    fp = fixed_point_relation()
    gaps = [abs(fp.delta0(mp.e ** (-mp.mpf(10) ** k)) - mp.pi / 4)
            for k in (3, 5, 7, 9)]
    ok = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 1e-8
    rng = random.Random(2)
    worst = mp.mpf(0)
    for _ in range(50):
        p0 = mp.mpf(rng.uniform(0.01, 20.0))
        p1 = mp.mpf(rng.uniform(0.01, 20.0))
        worst = max(worst, abs(fp.two_momentum_residual(p0, p1)))
    ok = ok and worst <= 1e-12
    assert report(8, ok, f"delta0 -> pi/4 gap {mp.nstr(gaps[-1], 3)} "
                         f"(<=1e-8); two-momentum residual "
                         f"{mp.nstr(worst, 3)} (<=1e-12)")


def _ckprime_window_integral(e_i, eps, p_f, p_i):
    """The d=1 ck' loop integral over the external-momentum window alone.

    The integrand is built here from the first-order d=1 vertices
    <a|c|b> = |a - b|/2 and <a|k'|b> = i (a - b)/(2 pi), in both orderings.
    For p outside [p_i, p_f] the signs of p_f - p and p - p_i differ and
    the two orderings cancel, so the full cutoff integral equals this one.
    The pole shell p = sqrt(2E) lies outside the window, so the propagator
    1/(E - p^2/2) (principal-value part) and -i eps/((E - p^2/2)^2 + eps^2)
    (Lorentzian part) are both smooth on it.
    """
    import math
    from scipy.integrate import quad

    def c(a, b):
        return abs(a - b) / 2

    def kprime(a, b):
        return 1j * (a - b) / (2 * math.pi)

    def integrand(p):
        den = e_i - p * p / 2
        return ((c(p_f, p) * kprime(p, p_i) + kprime(p_f, p) * c(p, p_i))
                * (1 / den - 1j * eps / (den * den + eps * eps)))

    kw = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    return complex(quad(lambda p: integrand(p).real, p_i, p_f, **kw)[0],
                   quad(lambda p: integrand(p).imag, p_i, p_f, **kw)[0])


def test_criterion_9_divergence_tables():
    """Every entry reproduces the published tables except d=1 ck'.

    The published ck' entry "L" is the power-counting degree of its
    integrand; the two operator orderings cancel identically outside the
    external-momentum window, so the loop is finite.  That one deviation is
    pinned together with its proof: both parts of the ck' loop classify
    finite, and its samples are independent of the cutoff and equal the
    window-only integral.
    """
    t0 = time.time()
    import numpy as np
    from ispflow.tmatrix import (DEFAULT_ENERGY, DEFAULT_MOMENTA,
                                 EXPECTED_TABLES, classify_divergence,
                                 divergence_table)
    tables = {d: divergence_table(d) for d in (1, 2, 3)}
    mismatches = []
    for d, table in tables.items():
        for term, rep in table.items():
            if rep.classification != EXPECTED_TABLES[d][term]:
                mismatches.append((d, term, rep.classification,
                                   EXPECTED_TABLES[d][term]))
    documented = [(1, "ckprime", "1", "L")]

    ckp_rep = tables[1]["ckprime"]
    ckp_pv = ckp_rep.part_classifications["pv"]
    ckp = np.array(ckp_rep.values)
    spread = float(np.max(np.abs(ckp - ckp[0])) / np.abs(ckp[0]))
    window = _ckprime_window_integral(DEFAULT_ENERGY, 1e-3 * DEFAULT_ENERGY,
                                      DEFAULT_MOMENTA[1], DEFAULT_MOMENTA[0])
    gap = float(max(np.max(np.abs(ckp.real - window.real)) / abs(window.real),
                    np.max(np.abs(ckp.imag - window.imag)) / abs(window.imag)))

    eps_ok = all(
        classify_divergence(term, d).classification
        == classify_divergence(term, d, i_epsilon=0.5e-3).classification
        for term, d in (("c2", 1), ("k2", 1), ("ck", 1), ("ckprime", 1),
                        ("c2", 2), ("k2", 2)))
    finite3 = tables[3]["c2"].classification == "1"
    elapsed = time.time() - t0
    ok = (mismatches == documented and ckp_pv == "1" and spread <= 1e-12
          and gap <= 1e-9 and eps_ok and finite3 and elapsed < 300)
    others = [m for m in mismatches if m not in documented]
    assert report(
        9, ok,
        f"tables vs published except d=1 ck'; eps-halving stable "
        f"{eps_ok}; d=3 c2 finite {finite3}; {elapsed:.0f}s (< 300 s); "
        f"other mismatches={others}; "
        f"ck' deviation: published {EXPECTED_TABLES[1]['ckprime']}, "
        f"computed {ckp_rep.classification} (principal-value part "
        f"{ckp_pv}), cutoff spread {spread:.1e} (<=1e-12), "
        f"window-integral gap {gap:.1e} (<=1e-9)")


def test_criterion_10_unitarity_and_poles():
    import random
    from ispflow.rgnumeric import (smatrix, smatrix_pole_check,
                                   solve_running_coupling)
    rng = random.Random(5)
    worst_u = mp.mpf(0)
    for _ in range(100):
        g = mp.mpf(rng.uniform(0.05, 2.0))
        p = mp.mpf(rng.uniform(0.02, 0.95))
        worst_u = max(worst_u, abs(abs(smatrix(g, p)) - 1))
    worst_p = mp.mpf(0)
    for i in range(8):
        ratio = mp.mpf(10) ** (1 + i * mp.mpf("0.7"))
        sol = solve_running_coupling(ratio, i % 3)
        worst_p = max(worst_p, smatrix_pole_check(sol.g, sol.ratio))
    ok = worst_u <= 1e-35 and worst_p <= mp.mpf(10) ** -28
    assert report(10, ok, f"|S|-1 worst {mp.nstr(worst_u, 3)} (<=1e-35); "
                          f"pole residual worst {mp.nstr(worst_p, 3)} "
                          f"(<=1e-28)")


def test_criterion_11_property_suites():
    import random
    from fractions import Fraction
    from ispflow.series import TruncSeries
    from ispflow.specfun import bessel_i_imag

    def random_expr(rng):
        out = ConstExpr.zero()
        for _ in range(3):
            coef = GRat(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                        Fraction(rng.randint(-3, 3), rng.randint(1, 5)))
            powers = {g: rng.randint(0, 3) for g in
                      rng.sample(("pi", "gamma", "zeta3", "K", "n"), 2)}
            out = out + ConstExpr.monomial(coef, **powers)
        return out

    rng = random.Random(11)
    ring_fail = 0
    for _ in range(1000):
        a, b, c = (random_expr(rng) for _ in range(3))
        if not (a * b == b * a and (a + b) * c == a * c + b * c
                and (a * b) * c == a * (b * c)):
            ring_fail += 1

    revert_fail = 0
    ident = TruncSeries.var("g", ("g",), (5,))
    for _ in range(1000):
        coeffs = {(1,): ConstExpr.number(1)}
        for k in range(2, 6):
            num = rng.randint(-5, 5)
            if num:
                coeffs[(k,)] = ConstExpr.number(
                    Fraction(num, rng.randint(1, 4)))
        f = TruncSeries(("g",), coeffs, (0,), (5,))
        if f.substitute_var("g", f.revert()) != ident:
            revert_fail += 1

    conj_fail = 0
    halving_fail = 0
    for _ in range(1000):
        g = mp.mpf(rng.uniform(0.05, 2.5))
        x = mp.mpf(rng.uniform(0.05, 4.0))
        v20 = bessel_i_imag(g, x, dps=20).mpc
        v40 = bessel_i_imag(g, x, dps=40).mpc
        if abs(v20 - v40) / abs(v40) > 1e-18:
            halving_fail += 1
        # conjugation symmetry: I_{-ig}(x) = conj I_{ig}(x), via the K
        # combination being real
        from ispflow.specfun import bessel_k_imag
        if abs(bessel_k_imag(g, x, dps=25).mpc.imag) > 1e-20:
            conj_fail += 1

    ok = ring_fail == revert_fail == conj_fail == halving_fail == 0
    assert report(11, ok,
                  f"1000-case suites: ring={ring_fail} revert={revert_fail} "
                  f"conjugation={conj_fail} halving={halving_fail} failures")
