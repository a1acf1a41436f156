"""Scattering-sector derivations: phase condition, tables, beta,
cross-sector expansion, continuation, fixed point."""

from fractions import Fraction

import mpmath as mp
import pytest

from ispflow import golden
from ispflow.constexpr import DEFAULT_DPS, ConstExpr, GRat
from ispflow.coupling import structure_fit
from ispflow.expansions import (arg_eta_over_g, imaginary_argument,
                                log_growth_unit_scatter,
                                odd_coefficient_family, solve_sector_ansatz)
from ispflow.scatter import (analytic_continuation_check,
                             build_phase_condition, cross_sector_expansion,
                             fixed_point_relation, scatter_beta,
                             scatter_condition_series,
                             scatter_coupling_coeffs)
from ispflow.series import SeriesError, TruncSeries

import oracles
from oracles import (condition_residual_box, phase_condition_residual,
                     revert, substitute_level)


@pytest.fixture(autouse=True, scope="module")
def _working_precision():
    with mp.workdps(50):
        yield


@pytest.fixture(scope="module")
def table():
    return scatter_coupling_coeffs(4, 7)


@pytest.fixture(scope="module")
def phase_cond():
    return build_phase_condition(6, 6)


@pytest.fixture(scope="module")
def beta():
    return scatter_beta(4, g_order=9)


@pytest.fixture(scope="module")
def cross(request):
    """cross_sector_expansion(g_order, max_sector), (5, 2) unless a test
    passes other orders."""
    return cross_sector_expansion(*getattr(request, "param", (5, 2)))


def test_phase_condition_pole_free(phase_cond):
    phase_cond.assert_pole_free()
    lead = phase_cond.series.lead_exponents()
    assert lead[0] >= 0


def _oscillatory_eta(g_order, x_order):
    """Oracle: eta~(g, sigma) from its defining sum
    sum_m (-1)^m / m! prod_{j<m} 1/(1+ig+j) sigma^(2m), each factor
    inverted as a series in g."""
    return oracles.eta_series(g_order, x_order, "sigma", -1)


def _even_coefficients(w):
    """{i: g-series of the sigma^(2i) coefficient} of a (g, sigma) series."""
    g_order, x_order = w.trunc_order
    return {i: TruncSeries(("g",), {(t,): c for (t, m), c in w.coeffs.items()
                                    if m == 2 * i}, (0,), (g_order,))
            for i in range(x_order // 2 + 1)}


@pytest.mark.parametrize("g_order,x_order", [(9, 12), (12, 8)])
def test_scattering_profile_is_bound_profile_at_imaginary_argument(
        g_order, x_order):
    osc = _oscillatory_eta(g_order + 1, x_order)
    assert imaginary_argument(oracles.eta_series(g_order + 1, x_order),
                              "xi", "sigma") == osc
    osc_arg = osc.log().imag_part().shift("g", -1).truncate((g_order,
                                                             x_order))
    bound_arg = arg_eta_over_g(g_order, x_order)
    scat_arg = imaginary_argument(bound_arg, "xi", "sigma")
    assert scat_arg == osc_arg
    oracle = _even_coefficients(osc_arg.exp())
    bound = odd_coefficient_family(g_order, x_order)
    scat = oracles.odd_coefficient_family(scat_arg)
    assert sorted(scat) == sorted(oracle) == list(range(x_order // 2 + 1))
    for i, a in oracle.items():
        assert scat[i] == a == bound[i] * (-1) ** i, f"a~_{2 * i + 1}"


def test_imaginary_argument_rejects_odd_powers():
    x = TruncSeries.var("x", ("g", "x"), (2, 5))
    with pytest.raises(SeriesError):
        imaginary_argument(x * x * x + 1, "x", "sigma")
    assert imaginary_argument(x * x + 1, "x", "sigma") == (
        1 - TruncSeries.var("sigma", ("g", "sigma"), (2, 5), power=2))


def test_scattering_sectors_are_signed_bound_prefactors():
    """sigma(g) solves the scattering condition built from the defining
    sum of eta~, and S_l / E_hat^l = (-1)^((l-1)/2) R_l with the bound
    Lagrange prefactors R_l (the bare R_l of the bound solve)."""
    g_order, max_sector = 11, 7
    ts = solve_sector_ansatz(g_order, max_sector, "scattering")
    e_hat = log_growth_unit_scatter(g_order).exp()
    osc_log = _oscillatory_eta(g_order + 1, max_sector + 1).log()
    a_scat = _even_coefficients(osc_log.imag_part().shift("g", -1)
                                .truncate((g_order, max_sector + 1)).exp())
    assert not oracles.sector_condition_residual(e_hat, a_scat, ts).sectors
    r_bound = solve_sector_ansatz(g_order, max_sector, "bound").solved[0]
    assert sorted(ts.sectors) == sorted(r_bound) == [1, 3, 5, 7]
    for l, s_l in ts.sectors.items():
        got = (s_l * (e_hat ** l).inverse()).truncate((g_order,))
        assert got == r_bound[l] * (-1) ** ((l - 1) // 2), f"S_{l}"


def test_table_golden_entries(table):
    for (p, l), expr in golden.SCATTER_TABLE.items():
        assert table.entry(p, l) == expr, f"c_({p},{l})"


def test_table_solves_condition(table):
    cond = scatter_condition_series(max(table.l_max - 1, 3), table.p_max)
    assert condition_residual_box(cond, table) == []


def test_table_stores_every_cell_of_the_box(table):
    # zero cells (c_(2,1), c_(4,1), ...) included: the emitters read them
    assert set(table.entries) == {(p, l) for p in range(0, 5, 2)
                                  for l in range(1, 8)}


def test_sign_map_against_bound_at_k_zero(table):
    """With the phase datum switched off, scattering entries match bound
    entries up to a sign flip of the sigma^2 column: (-1)^(p/2)."""
    from ispflow.bound import running_coupling_coeffs
    bound = running_coupling_coeffs(4, 7)
    for (p, l), expr in table.entries.items():
        got = expr.substitute("K", 0)
        expect = bound.entry(p, l) * ((-1) ** (p // 2))
        assert got == expect, f"sign map at c_({p},{l})"


def test_phase_condition_residual_vanishes(phase_cond, table):
    resid = phase_condition_residual(phase_cond, table)
    assert resid.is_zero(), resid


def test_derivations_compose_no_series(monkeypatch):
    """The branch offset comes from exp/log, so the table, beta and
    cross-sector derivations make no substitute_var call."""
    calls = []
    original = TruncSeries.substitute_var

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return original(self, *args, **kwargs)
    monkeypatch.setattr(TruncSeries, "substitute_var", counted)
    scatter_coupling_coeffs(4, 7)
    scatter_beta(4, 11)
    cross_sector_expansion(5, 2)
    assert calls == []


def test_rho_series_reversion_roundtrip(table):
    """Invert the sigma=0 column of the coupling in rho, K kept formal."""
    level1 = substitute_level(table, 1)
    g_of_rho = TruncSeries(("rho",),
                           {(l,): level1.entry(0, l)
                            for l in range(1, level1.l_max + 1)},
                           (0,), (level1.l_max,))
    rho_of_g = revert(g_of_rho)
    ident = TruncSeries.var("rho", ("rho",), (level1.l_max,))
    assert g_of_rho.substitute_var("rho", rho_of_g) == ident


def test_beta_perturbative(beta):
    s0 = beta.ts.sector(0)
    for k, coef in golden.SCATTER_BETA_PERTURBATIVE.items():
        assert s0.coefficient((k,)) == coef, f"g^{k}"


def test_beta_sectors(beta):
    for l, coef in golden.SCATTER_BETA_SECTOR_LEAD.items():
        assert beta.ts.sector(l).coefficient((2,)) == coef
    for (l, k), coef in golden.SCATTER_BETA_SECTOR_TERMS.items():
        assert beta.ts.sector(l).coefficient((k,)) == coef, (l, k)


def test_both_sectors_share_leading_beta_coefficient(beta):
    from ispflow.bound import (beta_transseries,
                               build_ground_state_condition,
                               ground_state_transseries)
    bound_beta = beta_transseries(ground_state_transseries(
        build_ground_state_condition(8, 8, b=0), 5))
    lead_b = bound_beta.ts.sector(0).coefficient((2,))
    lead_s = beta.ts.sector(0).coefficient((2,))
    assert lead_b == lead_s == ConstExpr.monomial(-1, pi=-1)


def test_flow_covariance_at_sector_zero():
    """beta_S(g_S) = (dg_S/dg_B) beta_B(g_B) in the perturbative sector:
    the scattering beta composed with the cross-sector map g_S(g_B) equals
    the map's derivative times the bound beta, exactly through g_B^9."""
    from ispflow.bound import (beta_transseries,
                               build_ground_state_condition,
                               ground_state_transseries)
    g_s = cross_sector_expansion(8, 1).sector(0)
    beta_s = scatter_beta(2, 10).ts.sector(0)
    beta_b = beta_transseries(ground_state_transseries(
        build_ground_state_condition(12, 6), 3)).ts.sector(0)
    diff = beta_s.substitute_var("g", g_s) - g_s.derivative("g") * beta_b
    assert diff.trunc_order == (9,)
    assert diff.is_zero(), {e: str(c) for e, c in sorted(diff.coeffs.items())}


def test_structure_fit(table):
    heads, ok, failures = structure_fit(table)
    assert ok, failures
    assert heads[(0, 4)] == -golden.npi(3) * golden.P3 * GRat(Fraction(1, 12))
    assert heads[(2, 4)] == -golden.npi(3)
    assert heads[(4, 2)] == golden.npi(1) * GRat(Fraction(5, 8))


@pytest.mark.parametrize("p_max, l_max", [(4, 7), (4, 11)])
def test_inverted_heads_match_the_cell_by_cell_fit(p_max, l_max):
    """The heads of the one inversion of C~ are those structure_fit reads
    off the table, and none carries gamma."""
    table = scatter_coupling_coeffs(p_max, l_max)
    assert table.heads == structure_fit(table)[0]
    assert not any("gamma" in c.generators_used()
                   for c in table.heads.values())


def test_cross_sector_expansion_is_gamma_free(cross):
    assert not any("gamma" in c.generators_used()
                   for s in cross.sectors.values() for c in s.coeffs.values())


def test_cross_sector_printed_orders(cross):
    s0 = cross.sector(0)
    for k, coef in golden.CROSS_PERTURBATIVE.items():
        assert s0.coefficient((k,)) == coef, f"g_B^{k}"
    # golden's "sector 1" is the first non-perturbative order, eps^2
    s2 = cross.sector(2)
    for k, coef in golden.CROSS_SECTOR1.items():
        assert s2.coefficient((k,)) == coef, f"sector 2 g_B^{k}"


def test_cross_sector_keys_are_powers_of_eps(cross):
    """Sector l multiplies eps^l, as Transseries.eval_mp weights it: the
    (5, 2) expansion holds eps^0, eps^2 and eps^4 and nothing else."""
    assert set(cross.sectors) <= {0, 2, 4}
    assert cross.max_sector == 4


@pytest.mark.parametrize("cross", [(5, 2), (4, 3)], indirect=True,
                         ids=["5-2", "4-3"])
def test_analytic_continuation_collapse(cross):
    assert analytic_continuation_check(cross=cross)
    # term-level checks of the substitution
    half_i = GRat(0, Fraction(-1, 2))
    c2 = cross.sector(0).coefficient((2,))
    assert c2.substitute("K", half_i).substitute("L", half_i).is_zero()
    s2g2 = cross.sector(2).coefficient((2,))
    assert s2g2.substitute("shat", GRat(0, 1)).is_zero()


def test_fixed_point_relation():
    fp = fixed_point_relation()
    # delta0 -> pi/4 along a decreasing momentum sequence
    prev_gap = mp.inf
    for k in (2, 4, 6, 9):
        gap = abs(fp.delta0(mp.e ** (-mp.mpf(10) ** k)) - mp.pi / 4)
        assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-8
    # numerator zero at ln(p/Lambda_IR) = -pi/2
    assert abs(mp.tan(fp.delta0(mp.e ** (-mp.pi / 2)))) < 1e-40
    # singular denominator: e^(pi/2) rounded at the relation's own digits
    with mp.workdps(DEFAULT_DPS):
        singular = mp.e ** (mp.pi / 2)
    with pytest.raises(ZeroDivisionError):
        fp.delta0(singular)
    # two-momentum identity, the engineered pair gives exactly -2/pi
    lhs = fp.tan_delta_prime(mp.e) - fp.tan_delta_prime(1)
    assert abs(lhs + 2 / mp.pi) < 1e-45
    rng_vals = [(0.3, 2.2), (1.5, 0.02), (5.0, 11.0)]
    for p0, p1 in rng_vals:
        assert abs(fp.two_momentum_residual(p0, p1)) < 1e-40
