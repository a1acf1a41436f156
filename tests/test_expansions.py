"""The generator-free sector stage over Q against its former route in the
constants ring (``oracles``), its loud refusals, and the growth unit the
solve builds for itself and leaves for the beta."""

from fractions import Fraction

import pytest

from ispflow import expansions, golden
from ispflow.bound import (beta_transseries, build_ground_state_condition,
                           ground_state_transseries)
from ispflow.constexpr import ConstExpr
from ispflow.expansions import (arg_eta_over_g, imaginary_argument,
                                log_growth_unit_scatter,
                                odd_coefficient_family, solve_sector_ansatz)
from ispflow.scatter import scatter_beta
from ispflow.series import SeriesError, TruncSeries
from ispflow.transseries import FLAVORS

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
    prefactors = solve_sector_ansatz(g_order, max_sector,
                                     "scattering").solved[0]
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


def _no_stage(*args):
    raise AssertionError("the stage over Q started")


def test_the_solve_needs_a_sector_and_an_order_on_the_ladder(monkeypatch):
    """max_sector < 1, and a g-order whose log E needs a zeta past the
    ladder, are refused before any work over Q, in both flavors."""
    monkeypatch.setattr(expansions, "_arg_eta_over_g", _no_stage)
    for flavor in FLAVORS:
        with pytest.raises(SeriesError, match="max_sector >= 1"):
            solve_sector_ansatz(8, 0, flavor)
        with pytest.raises(SeriesError, match="past zeta19"):
            solve_sector_ansatz(20, 3, flavor)


def test_an_unknown_flavor_is_refused_before_the_solve(monkeypatch):
    for name in ("_arg_eta_over_g", "log_growth_unit"):
        monkeypatch.setattr(expansions, name, _no_stage)
    with pytest.raises(ValueError, match="unknown flavor 'resonant'"):
        solve_sector_ansatz(8, 3, "resonant")


@pytest.mark.parametrize("flavor", FLAVORS)
def test_sector_one_alone_forms_no_square_of_e(monkeypatch, flavor):
    """A solve through sector 1 returns sector 1 alone, and neither it nor
    a beta through sector 0 multiplies E by itself."""
    squares = []
    original = TruncSeries.__mul__

    def counted(self, other):
        if other is self:
            squares.append(self)
        return original(self, other)

    monkeypatch.setattr(TruncSeries, "__mul__", counted)
    f = solve_sector_ansatz(8, 1, flavor)
    assert sorted(f.sectors) == sorted(f.solved[0]) == [1]
    assert beta_transseries(f, 0).ts.sectors.keys() == {0}
    assert squares == []


def test_the_beta_takes_no_series_log(monkeypatch):
    """The solve leaves log E on f, so the beta takes no series log: none
    on the whole bound route (branch 1, sectors <= 6), and in
    scatter_beta(4, 11) only the logs of the branch offset inside
    log E_hat, which the solve builds once."""
    calls = []
    original = TruncSeries.log

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(TruncSeries, "log", counted)
    beta = beta_transseries(ground_state_transseries(
        build_ground_state_condition(19, 10, 1), 7))
    assert sorted(beta.ts.sectors) == [0, 2, 4, 6]
    assert calls == []
    log_growth_unit_scatter(11)
    offset = len(calls)
    assert offset > 0
    calls.clear()
    assert sorted(scatter_beta(4, 11).ts.sectors) == [0, 2, 4]
    assert len(calls) == offset
