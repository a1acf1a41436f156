"""Bound-sector derivations against their published closed forms."""

from math import factorial

import mpmath as mp
import pytest

from ispflow import coupling, golden
from ispflow.bound import (BetaTransseries, beta_exact_sector_eval,
                           beta_transseries, bound_resummation_report,
                           bound_structure_fit, build_ground_state_condition,
                           excited_state_scale, ground_state_transseries,
                           running_coupling_coeffs)
from ispflow.constexpr import ConstExpr
from ispflow.coupling import (BOUND_COLUMNS, CouplingTable, N_PI,
                              resummation_check, solve_coupling_table,
                              structure_fit)
from ispflow.bound import bound_condition_series
from ispflow.expansions import (growth_unit_series, log_growth_unit,
                                log_growth_unit_scatter, solve_sector_ansatz)
from ispflow.series import SeriesError, TruncSeries
from ispflow.transseries import Transseries

from oracles import (as_series, condition_residual_box, eval_sector_mp,
                     flow_ode_residual, ground_state_residual,
                     substitute_level, unit_in_cutoff_variables)


@pytest.fixture(autouse=True, scope="module")
def _working_precision():
    with mp.workdps(50):
        yield


@pytest.fixture(scope="module")
def cond():
    return build_ground_state_condition(10, 10, b=0)


@pytest.fixture(scope="module")
def f(cond):
    return ground_state_transseries(cond, 9)


@pytest.fixture(scope="module")
def table():
    return running_coupling_coeffs(4, 9)


@pytest.fixture(scope="module")
def beta(f):
    return beta_transseries(f)


def test_gs_coefficients_match_closed_forms(cond):
    order = cond.g_order
    assert cond.a_odd[0] == golden.rational_series([1], [], order)
    assert cond.a_odd[1] == golden.gs_a3(order)
    assert cond.a_odd[2] == golden.gs_a5(order)
    assert cond.a_odd[3] == golden.gs_a7(order)
    assert golden.gs_a7_denominator_check(order)


def test_numeric_evaluations_ignore_global_precision(f, beta):
    """beta_exact_sector_eval defaults to 60 digits, and
    excited_state_scale and the fixed point relations work at 60 digits,
    not at the global mpmath precision; every evaluation of an exact object
    and both flow residuals run at the dps they are given."""
    from ispflow.rgnumeric import quantization_residual, scattering_residual
    from ispflow.scatter import fixed_point_relation, scatter_beta
    scatter = scatter_beta(4, g_order=7)
    fp = fixed_point_relation()
    by_default = {
        "excited_state_scale": (excited_state_scale, (3, "0.4")),
        "delta0": (fp.delta0, ("0.01",)),
        "tan_delta_prime": (fp.tan_delta_prime, ("0.01",)),
    }
    with mp.workdps(60):
        ref_default = {name: fn(*args)
                       for name, (fn, args) in by_default.items()}
    entry = golden.BOUND_TABLE[(0, 4)]      # pi, gamma, zeta3 and n
    e = growth_unit_series(10)
    g, k = "0.4", "0.3"
    at_60 = {
        "ConstExpr": lambda: entry.eval_mp({"n": 1}, dps=60),
        "TruncSeries": lambda: e.eval_mp({"g": g}, dps=60),
        "Transseries": lambda: f.eval_mp(g, dps=60),
        "bound beta": lambda: beta.eval_mp(g, dps=60),
        "scattering beta": lambda: scatter.eval_mp(g, {"K": k}, dps=60),
        "bound residual": lambda: quantization_residual(g, 1000, 0, dps=60),
        "scattering residual": lambda: scattering_residual(g, 1000, k,
                                                           dps=60),
    }
    ref_beta = {s: beta_exact_sector_eval("0.4", s, dps=60)
                for s in (0, 2, 4, 6)}
    with mp.workdps(15):
        exact = {s: beta_exact_sector_eval("0.4", s) for s in (0, 2, 4, 6)}
        default = {name: fn(*args) for name, (fn, args) in by_default.items()}
        # an identity: zero to the working precision of its evaluation
        residual = fp.two_momentum_residual("0.3", "2.2")
        low = {name: fn() for name, fn in at_60.items()}
    with mp.workdps(60):
        high = {name: fn() for name, fn in at_60.items()}
        for s, ref in ref_beta.items():
            assert abs(exact[s] - ref) < 1e-50 * abs(ref)
        for name, ref in ref_default.items():
            assert abs(default[name] - ref) < 1e-50 * abs(ref), name
        assert abs(residual) < 1e-55
        for name, ref in high.items():
            assert abs(low[name] - ref) < 1e-50 * abs(ref), name


def test_arg_eta_reconciles_with_a3():
    """Leading small-argument phase of the profile: once exponentiated, its
    first coefficient reproduces a_3 = -1/(1+g^2)."""
    from ispflow.expansions import arg_eta_over_g
    w = arg_eta_over_g(6, 2)
    # (1/g) Arg eta = -xi^2/(1+g^2) + O(xi^4)
    expect = -golden.rational_series([1], [(1, 1)], 6)
    got = {e[:1]: c for e, c in w.coeffs.items() if e[1] == 2}
    from ispflow.series import TruncSeries
    got_series = TruncSeries(("g",), got, (0,), (6,))
    assert (got_series - expect).is_zero()


def test_transseries_sectors_match_prefactors(f):
    e = growth_unit_series(10)
    for l in (1, 3, 5, 7):
        ref = golden.f_sector_prefactor(l, 10) * e ** l
        assert (f.sectors[l] - ref.truncate(f.sectors[l].trunc_order)).is_zero()


def test_transseries_expanded_coefficients(f):
    for l, lead in golden.F_SECTOR_LEAD.items():
        assert f.sectors[l].coefficient((0,)) == ConstExpr.number(lead.re,
                                                                  lead.im)
    for l, coef in golden.F_SECTOR_G2.items():
        assert f.sectors[l].coefficient((2,)) == coef


def test_transseries_solves_condition(f, cond):
    resid = ground_state_residual(cond, f)
    for l, s in resid.sectors.items():
        assert s.is_zero(), f"sector {l} residual {s}"


def test_f_vanishes_at_weak_coupling(f):
    for l in f.sectors:
        val = eval_sector_mp(f, l, mp.mpf("0.05"))
        assert abs(val) < mp.e ** (-l * mp.pi / mp.mpf("0.05") / 2)


def test_coupling_table_golden_entries(table):
    for (p, l), expr in golden.BOUND_TABLE.items():
        assert table.entry(p, l) == expr, f"c_({p},{l})"


def test_table_base_invariants(table):
    table.check_base_invariants()


def test_structure_checks_raise_series_error(table, beta):
    """The result checks raise SeriesError, which python -O keeps."""
    wrong = CouplingTable("bound", {**table.entries, (0, 1): N_PI * 2},
                          table.p_max, table.l_max)
    with pytest.raises(SeriesError, match=r"c_\(0,1\)"):
        wrong.check_base_invariants()
    low = Transseries({0: beta.ts.sector(0),
                       2: TruncSeries.var("g", ("g",), (6,))})
    with pytest.raises(SeriesError, match=r"sector 2 starts at g\^1"):
        BetaTransseries(low).check_sector_structure()


def test_table_solves_condition(table):
    cond_series = bound_condition_series(max(table.l_max - 1, 3), table.p_max)
    assert condition_residual_box(cond_series, table) == []


def test_table_stores_every_cell_of_the_box(table):
    # zero cells included: the emitters read every (p, l) of the box
    assert set(table.entries) == {(p, l) for p in range(0, 5, 2)
                                  for l in range(1, 10)}


def test_branch_covariance(table):
    """Branch b is branch 0 with the level n -> 2b+1 in the table and
    pi -> (2b+1) pi in each beta coefficient; f carries the branch only in
    its unit eps, so its sectors are the same on every branch."""
    f0 = beta0 = None
    for b in (0, 1, 2):
        scaled = substitute_level(table, 2 * b + 1)
        assert scaled.entry(0, 1) == ConstExpr.monomial(2 * b + 1, pi=1)
        fb = ground_state_transseries(build_ground_state_condition(12, 8, b),
                                      7)
        beta = beta_transseries(fb).ts
        assert beta.branch == b and sorted(beta.sectors) == [0, 2, 4, 6]
        if b == 0:
            f0, beta0 = fb, beta
            continue
        assert fb.sectors == f0.sectors
        npi = ConstExpr.monomial(2 * b + 1, pi=1)
        for l, s0 in beta0.sectors.items():
            s = beta.sectors[l]
            assert s.trunc_order == s0.trunc_order, (b, l)
            assert s.coeffs == {e: c.substitute("pi", npi)
                                for e, c in s0.coeffs.items()}, (b, l)


def test_resummation_columns_through_13():
    t13 = running_coupling_coeffs(0, 13, g_order=12)
    report = bound_resummation_report(t13, 13)
    for label, (ok, residuals) in report.items():
        assert ok, f"column {label} residuals {residuals}"


def test_resummation_detects_perturbation(table):
    entries = dict(table.entries)
    entries[(0, 5)] = entries[(0, 5)] + N_PI
    bad = CouplingTable("bound", entries, table.p_max, table.l_max)
    ok, residuals = resummation_check(bad, BOUND_COLUMNS["level"], 9)
    assert not ok and 5 in residuals


def test_structure_fit_heads(table):
    heads, ok, failures = bound_structure_fit(table)
    assert ok, failures
    assert heads[(2, 4)] == ConstExpr.monomial(1, n=3, pi=3)
    assert heads[(4, 2)] == golden.npi(1) * golden._f(5, 8)
    assert heads[(0, 4)] == ConstExpr.psi(2, golden.F(1, 6)) * golden.npi(3)


@pytest.mark.parametrize("p_max, l_max", [(4, 9), (0, 14), (6, 12)])
def test_inverted_heads_match_the_cell_by_cell_fit(p_max, l_max):
    """The heads of the one inversion of C~ are those structure_fit reads
    off the table, and none carries gamma."""
    table = running_coupling_coeffs(p_max, l_max)
    assert table.heads == structure_fit(table)[0]
    assert not any("gamma" in c.generators_used()
                   for c in table.heads.values())


def test_substitute_level_carries_the_heads(table):
    level1 = substitute_level(table, 1)
    assert level1.heads == {k: c.substitute("n", 1)
                            for k, c in table.heads.items()}


def test_an_unknown_sector_tag_is_refused_before_the_inversion(monkeypatch):
    def no_inversion(*args):
        raise AssertionError("the inversion ran on an unknown sector_tag")

    monkeypatch.setattr(coupling, "lagrange_coefficients", no_inversion)
    with pytest.raises(KeyError, match="resonant"):
        solve_coupling_table(bound_condition_series(3, 4), 4, 3, "resonant")


def test_sector_reach_does_not_follow_the_xi_order():
    """f reads only the g-order, so a condition built at xi-order 3 reaches
    sector 7 and gives the sectors of the direct solve."""
    f = ground_state_transseries(build_ground_state_condition(8, 3), 7)
    direct = solve_sector_ansatz(8, 7, "bound")
    assert sorted(f.sectors) == sorted(direct.sectors) == [1, 3, 5, 7]
    for l, s in direct.sectors.items():
        assert f.sectors[l] == s, l
        assert f.sectors[l].trunc_order == s.trunc_order, l


def test_beta_perturbative_coefficients(beta):
    s0 = beta.ts.sector(0)
    for k, coef in golden.BOUND_BETA_PERTURBATIVE.items():
        assert s0.coefficient((k,)) == coef, f"g^{k}"
    # no even-order terms below g^8
    for k in (3, 4, 6):
        assert s0.coefficient((k,)).is_zero()


def test_beta_sector_leads_and_terms(beta):
    for l, coef in golden.BOUND_BETA_SECTOR_LEAD.items():
        assert beta.ts.sector(l).coefficient((2,)) == coef, f"sector {l}"
    for (l, k), coef in golden.BOUND_BETA_SECTOR_TERMS.items():
        assert beta.ts.sector(l).coefficient((k,)) == coef, f"sector {l} g^{k}"


def test_beta_sector_structure(beta):
    beta.check_sector_structure()


@pytest.mark.parametrize("b, bands", [
    (1, {"1e12": "3e-10", "1e30": "4e-18"}),
    (2, {"1e12": "1e-6", "1e30": "2e-14"}),
], ids=["b1", "b2"])
def test_beta_matches_numeric_beta_off_branch_zero(b, bands):
    """Sectors 0..6 of beta on branch b, from f at g-order 19 through sector
    7, sum to the numeric beta of the branch-b flow within about 10x the
    measured relative errors: b = 1, 2.4e-11 at ratio 1e12 (g = 0.348) and
    3.3e-19 at 1e30; b = 2, 1.1e-7 at 1e12 (g = 0.578) and 1.9e-15 at
    1e30."""
    from ispflow.rgnumeric import solve_running_coupling
    fb = ground_state_transseries(build_ground_state_condition(19, 10, b), 7)
    beta = beta_transseries(fb)
    for ratio, band in bands.items():
        sol = solve_running_coupling(mp.mpf(ratio), b)
        series = beta.eval_mp(sol.g, dps=60)
        with mp.workdps(60):
            assert abs(sol.beta() - series) <= mp.mpf(band) * abs(series), \
                (b, ratio)


def test_condition_refuses_negative_branches():
    """b = -1 would give the unit exp(+pi/g - gamma), not a branch."""
    with pytest.raises(ValueError, match="branches are labelled b >= 0"):
        build_ground_state_condition(6, 6, b=-1)


def test_table_as_series_refuses_orders_past_the_table(table):
    """A (4, 9) table gives any sub-box, and refuses a larger one instead of
    returning the table's own box under the larger name."""
    assert as_series(table, "xi", 4, 8).trunc_order == (4, 8)
    for p_max, l_max in ((6, 9), (4, 10)):
        with pytest.raises(SeriesError, match="table holds p <= 4, l <= 9"):
            as_series(table, "xi", p_max, l_max)


def test_beta_refuses_sectors_past_the_division():
    f5 = ground_state_transseries(build_ground_state_condition(8, 8), 5)
    assert beta_transseries(f5, 4).ts.max_sector == 4
    with pytest.raises(SeriesError, match="through sector 4, not 8"):
        beta_transseries(f5, 8)


def test_zeta_ladder_bounds_every_builder():
    """zeta19 tops the ladder: log E reaches g^19 and the conditions g^20;
    one order more raises instead of returning a shorter series.  The
    ground-state condition holds no zeta, so its refusal comes from the
    sector solve that builds E."""
    assert log_growth_unit(19).trunc_order == (19,)
    assert bound_condition_series(20, 2).trunc_order == (20, 2)
    assert ConstExpr.psi(18) == ConstExpr.monomial(-factorial(18), zeta19=1)
    with pytest.raises(ValueError):
        ConstExpr.psi(20)
    for build in (lambda: log_growth_unit(20),
                  lambda: log_growth_unit_scatter(20),
                  lambda: bound_condition_series(21, 2),
                  lambda: ground_state_transseries(
                      build_ground_state_condition(20, 8), 3),
                  lambda: solve_sector_ansatz(20, 3, "scattering")):
        with pytest.raises(SeriesError, match="past zeta19"):
            build()


def test_beta_exact_sector_eval_matches_series(beta):
    # perturbative sector: closed form vs series
    limit = beta_exact_sector_eval(mp.mpf("1e-6"), 0) / mp.mpf("1e-12")
    assert abs(limit + 1 / mp.pi) < 1e-10
    g = mp.mpf("0.3")
    closed0 = beta_exact_sector_eval(g, 0)
    series0 = beta.ts.sector(0).eval_mp({"g": g})
    assert abs(closed0 - series0) / abs(closed0) < 1e-6
    closed2 = beta_exact_sector_eval(g, 2)
    series2 = eval_sector_mp(beta.ts, 2, g)
    assert abs(closed2 - series2) / abs(closed2) < 1e-4
    closed4 = beta_exact_sector_eval(g, 4)
    series4 = eval_sector_mp(beta.ts, 4, g)
    assert abs(closed4 - series4) / abs(closed4) < 1e-3
    closed6 = beta_exact_sector_eval(g, 6)
    series6 = eval_sector_mp(beta.ts, 6, g)
    assert abs(closed6 - series6) / abs(closed6) < 1e-3


# sectors 0, 2, 4 from independently hand-derived closed forms, evaluated
# at 80 digits and rounded to 60
HAND_FORM_SECTORS = {
    "1e-3": ("-3.18309886102594870119540995725691154331900277416012381502677e-7",
             "3.54657539302069337161593848746723369801314423797494592291522e-2736",
             "1.48183503922256384243538069115633741182074284380076500766038e-5465"),
    "0.3": ("-2.84685184224175568714602990030316980364937488977318196263779e-2",
            "1.40376889403678763400669245759383874542262248833936856884982e-11",
            "2.85166820321295907290347041377858029825270380939120513390231e-21"),
    "1.0": ("-2.82654886186828028107713290464744736319944640931202653031867e-1",
            "2.47930478986526005613304767845967660343169653587213787038689e-4",
            "1.95255757793012309556463597740310250404258239542189591578529e-7"),
    "1.9": ("-8.30683808257469013408318847237884363158165205247103021070986e-1",
            "9.25281522741790194062492901920350643956683991379277168109023e-3",
            "2.10676669997656643100168100063273479139597388447215950910603e-4"),
}


def test_beta_exact_sector_eval_matches_hand_forms():
    for g, values in HAND_FORM_SECTORS.items():
        for sector, value in zip((0, 2, 4), values):
            got = beta_exact_sector_eval(g, sector)
            with mp.workdps(80):
                ref = mp.mpf(value)
                assert abs(got - ref) <= mp.mpf("1e-55") * abs(ref), (g, sector)


@pytest.mark.parametrize("g0", ["0.3", "0.5", "0.8"])
def test_beta_exact_sectors_through_6_match_numeric_beta(g0):
    """The closed sectors 0..6 sum to the numeric beta within 1e-3 of
    sector 6 (measured: 4e-10, 1.6e-6 and 1.5e-4 of it), so sector 6 is
    right to at least three digits."""
    from ispflow.rgnumeric import solve_running_coupling
    with mp.workdps(70):
        ratio = mp.e ** (mp.pi / mp.mpf(g0) + mp.euler)
    sol = solve_running_coupling(ratio, 0)
    sectors = [beta_exact_sector_eval(sol.g, s) for s in (0, 2, 4, 6)]
    with mp.workdps(60):
        assert abs(sol.beta() - mp.fsum(sectors)) <= 1e-3 * abs(sectors[-1])


@pytest.mark.parametrize("g0,band", [("0.8", 4.3e-19), ("1.01", 8.7e-16)])
def test_beta_exact_sectors_through_8_match_numeric_beta(g0, band):
    """With R_9 derived, the closed sectors 0..8 sum to the numeric beta
    within ``band`` of it, 10x the measured 4.3e-20 and 8.7e-17 (sectors
    0..6 alone leave 2.5e-16 and 1.1e-13); sectors 10 and 12 evaluate,
    each smaller than the one before."""
    from ispflow.rgnumeric import solve_running_coupling
    with mp.workdps(70):
        ratio = mp.e ** (mp.pi / mp.mpf(g0) + mp.euler)
    sol = solve_running_coupling(ratio, 0)
    sectors = [beta_exact_sector_eval(sol.g, s) for s in range(0, 13, 2)]
    with mp.workdps(60):
        beta = sol.beta()
        assert abs(beta - mp.fsum(sectors[:5])) <= band * abs(beta)
    assert abs(sectors[6]) < abs(sectors[5]) < abs(sectors[4])


@pytest.mark.parametrize("sector", [3, -2])
def test_beta_exact_sector_eval_rejects_unreachable_sectors(sector):
    with pytest.raises(ValueError, match=f"even sectors >= 0, not {sector}"):
        beta_exact_sector_eval("0.5", sector)


def test_excited_state_scale():
    assert excited_state_scale(1, 0.7) == 1
    assert abs(excited_state_scale(2, mp.pi) - mp.e ** -1) < 1e-45
    val = excited_state_scale(3, 0.5)
    assert abs(val - mp.e ** (-4 * mp.pi)) < 1e-40
    assert abs(val - mp.mpf("3.487e-6")) < 1e-9


@pytest.mark.parametrize("xi_order", [4, 6])
def test_unit_in_cutoff_variables_solves_its_definition(f, xi_order):
    """sum_l S_l(g) eps^l = xi through (g_order, xi_order)."""
    g_order = 8
    box = (g_order, xi_order)
    eps = unit_in_cutoff_variables(f, xi_order, g_order)
    assert eps.variables == ("g", "xi") and eps.trunc_order == box
    assert eps.coefficient((0, 1)) == ConstExpr.one()
    total = TruncSeries.zero(("g", "xi"), box)
    for l, s in f.sectors.items():
        total = total + s.extend_to(("g", "xi"), box) * eps ** l
    resid = total - TruncSeries.var("xi", ("g", "xi"), box)
    assert resid.trunc_order == box
    assert resid.is_zero(), resid


def test_flow_ode_consistency(table, f, beta):
    bad = flow_ode_residual(table, f, beta, 4, 8)
    assert bad == [], bad
