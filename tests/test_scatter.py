"""Scattering-sector derivations: phase condition, tables, beta,
cross-sector expansion, continuation, fixed point."""

from fractions import Fraction

import mpmath as mp
import pytest

from ispflow import golden
from ispflow.constexpr import ConstExpr, GRat
from ispflow.coupling import condition_residual_box
from ispflow.scatter import (analytic_continuation_check,
                             build_phase_condition, cross_sector_expansion,
                             fixed_point_relation, phase_condition_residual,
                             scatter_beta, scatter_condition_series,
                             scatter_coupling_coeffs, scatter_structure_fit)
from ispflow.series import TruncSeries

mp.mp.dps = 50


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
def cross():
    return cross_sector_expansion(5, 2)


def test_phase_condition_pole_free(phase_cond):
    phase_cond.assert_pole_free()
    lead = phase_cond.series.lead_exponents()
    assert lead[0] >= 0


def test_eta_variants_differ_by_alternating_signs():
    from ispflow.expansions import eta_series
    plain = eta_series(4, 6, "x", alternating=False)
    alt = eta_series(4, 6, "x", alternating=True)
    for (t, m), c in plain.coeffs.items():
        sign = (-1) ** (m // 2)
        assert alt.coefficient((t, m)) == c * sign


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


def test_rho_series_reversion_roundtrip(table):
    """Invert the sigma=0 column of the coupling in rho, K kept formal."""
    level1 = table.substitute_level(1)
    g_of_rho = TruncSeries(("rho",),
                           {(l,): level1.entry(0, l)
                            for l in range(1, level1.l_max + 1)},
                           (0,), (level1.l_max,))
    rho_of_g = g_of_rho.revert()
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


def test_structure_fit(table):
    heads, ok, failures = scatter_structure_fit(table)
    assert ok, failures
    assert heads[(0, 4)] == -golden.npi(3) * golden.P3 * GRat(Fraction(1, 12))
    assert heads[(2, 4)] == -golden.npi(3)
    assert heads[(4, 2)] == golden.npi(1) * GRat(Fraction(5, 8))


def test_cross_sector_printed_orders(cross):
    s0 = cross.sector(0)
    for k, coef in golden.CROSS_PERTURBATIVE.items():
        assert s0.coefficient((k,)) == coef, f"g_B^{k}"
    s1 = cross.sector(1)
    for k, coef in golden.CROSS_SECTOR1.items():
        assert s1.coefficient((k,)) == coef, f"sector 1 g_B^{k}"


def test_analytic_continuation_collapse(cross):
    assert analytic_continuation_check(cross=cross)
    # term-level checks of the substitution
    half_i = GRat(0, Fraction(-1, 2))
    c2 = cross.sector(0).coefficient((2,))
    assert c2.substitute("K", half_i).substitute("L", half_i).is_zero()
    s1g2 = cross.sector(1).coefficient((2,))
    assert s1g2.substitute("shat", GRat(0, 1)).is_zero()


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
    # singular denominator
    with pytest.raises(ZeroDivisionError):
        fp.delta0(mp.e ** (mp.pi / 2))
    # two-momentum identity, the engineered pair gives exactly -2/pi
    lhs = fp.tan_delta_prime(mp.e) - fp.tan_delta_prime(1)
    assert abs(lhs + 2 / mp.pi) < 1e-45
    rng_vals = [(0.3, 2.2), (1.5, 0.02), (5.0, 11.0)]
    for p0, p1 in rng_vals:
        assert abs(fp.two_momentum_residual(p0, p1)) < 1e-40
