"""The generator-free sector stage over Q against its former route in the
constants ring (``oracles``), and its loud refusals."""

from fractions import Fraction

import pytest

from ispflow import expansions, golden
from ispflow.bound import (build_ground_state_condition,
                           ground_state_transseries)
from ispflow.constexpr import ConstExpr
from ispflow.expansions import (arg_eta_over_g, imaginary_argument,
                                odd_coefficient_family, solve_sector_ansatz)
from ispflow.scatter import scatter_momentum_transseries
from ispflow.series import SeriesError, TruncSeries

import oracles


def _same(got, want):
    assert got.variables == want.variables
    assert got.trunc_order == want.trunc_order
    assert got.min_degree == want.min_degree
    assert got.coeffs == want.coeffs


def _kernel_eta(g_order, x_order, var="xi", sign=1):
    """The kernel's eta(s, y) at s = ig as a series in (g, var):
    [g^t] = i^t [s^t]; ``sign`` -1 takes the image y -> -y."""
    coeffs = {}
    for m, (nums, den) in enumerate(expansions._eta(g_order, x_order // 2)):
        for t, c in enumerate(nums):
            q = Fraction(sign ** m * c, den)
            coeffs[(t, 2 * m)] = ConstExpr.number(
                *((q, 0), (0, q), (-q, 0), (0, -q))[t % 4])
    return TruncSeries(("g", var), coeffs, (0, 0), (g_order, x_order))


@pytest.mark.parametrize("g_order,xi_order,max_sector",
                         [(14, 12, 9), (19, 14, 7)])
def test_bound_stage_equals_the_ring_route(g_order, xi_order, max_sector):
    x_order = xi_order + 1
    _same(_kernel_eta(g_order + 1, x_order),
          oracles.eta_series(g_order + 1, x_order))
    # Arg eta itself, then over g: the shift in the ring route lowers its
    # floor to g^-1, where no term sits; the kernel's floor is g^0
    _same(arg_eta_over_g(g_order, x_order).shift("g", 1),
          oracles.eta_series(g_order + 1, x_order).log().imag_part())
    ring_arg = oracles.arg_eta_over_g(g_order, x_order)
    kernel_arg = arg_eta_over_g(g_order, x_order)
    assert kernel_arg.min_degree == (0, 0)
    assert ring_arg.min_degree == (-1, 0)
    assert kernel_arg.trunc_order == ring_arg.trunc_order
    assert kernel_arg.coeffs == ring_arg.coeffs

    cond = build_ground_state_condition(g_order, xi_order)
    ring_a = oracles.odd_coefficient_family(ring_arg)
    assert sorted(cond.a_odd) == sorted(ring_a)
    for i, a in ring_a.items():
        _same(cond.a_odd[i], a)

    prefactors = ground_state_transseries(cond, max_sector).solved[0]
    ring_r = oracles.sector_prefactors(ring_a, max_sector)
    assert sorted(prefactors) == sorted(ring_r)
    for l, r in ring_r.items():
        _same(prefactors[l], r)
        if l in golden.SECTOR_PREFACTORS:
            _same(prefactors[l], golden.f_sector_prefactor(l, g_order))


def test_scattering_image_equals_the_ring_route():
    g_order, max_sector = 11, 5
    x_order = max_sector + 1
    _same(_kernel_eta(g_order + 1, x_order, "sigma", -1),
          oracles.eta_series(g_order + 1, x_order, "sigma", -1))
    ring_arg = oracles.arg_eta_over_g(g_order, x_order, "sigma", -1)
    assert imaginary_argument(arg_eta_over_g(g_order, x_order),
                              "xi", "sigma").coeffs == ring_arg.coeffs
    ring_a = oracles.odd_coefficient_family(ring_arg)
    for i, a in odd_coefficient_family(g_order, x_order).items():
        _same(a * (-1) ** i, ring_a[i])
    prefactors = scatter_momentum_transseries(g_order, max_sector).solved[0]
    ring_r = oracles.sector_prefactors(ring_a, max_sector)
    assert sorted(prefactors) == sorted(ring_r) == [1, 3, 5]
    for l, r in ring_r.items():
        _same(prefactors[l], r)


@pytest.fixture(scope="module")
def cond():
    return build_ground_state_condition(8, 8)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_a_corrupted_prefactor_is_refused(cond, monkeypatch, j):
    """One wrong R_l leaves sector l of the plug-back residual nonzero."""
    recurrence = expansions._sector_prefactors

    def corrupted(a, n):
        out = recurrence(a, n)
        nums, den = out[j]
        out[j] = [nums[0] + 1] + nums[1:], den
        return out

    monkeypatch.setattr(expansions, "_sector_prefactors", corrupted)
    with pytest.raises(SeriesError, match=rf"sectors \[{2 * j + 1}\b"):
        ground_state_transseries(cond, 7)


def test_the_solve_needs_a_finite_order_and_a_sector(cond):
    with pytest.raises(SeriesError, match="finite g-order"):
        solve_sector_ansatz(TruncSeries.const(1, ("g",), (10 ** 9,)), 3,
                            "bound")
    with pytest.raises(SeriesError, match="max_sector >= 1"):
        solve_sector_ansatz(cond.a0_scaled, 0, "bound")


def test_an_unknown_flavor_is_refused_before_the_solve(cond, monkeypatch):
    def no_stage(*args):
        raise AssertionError("the solve started on an unknown flavor")

    monkeypatch.setattr(expansions, "_arg_eta_over_g", no_stage)
    with pytest.raises(ValueError, match="unknown flavor 'resonant'"):
        solve_sector_ansatz(cond.a0_scaled, 3, "resonant")
