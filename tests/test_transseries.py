"""Graded transseries arithmetic: sector bookkeeping, derivative, division.

The graded division -f / f' is also the independent oracle of the beta
function, which ``bound.beta_transseries`` builds by its closed-form
recurrence instead."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from ispflow.bound import (beta_transseries, build_ground_state_condition,
                           ground_state_transseries)
from ispflow.constexpr import ConstExpr
from ispflow.expansions import solve_sector_ansatz
from ispflow.scatter import scatter_beta
from ispflow.series import SeriesError, TruncSeries
from ispflow.transseries import Transseries

GV = ("g",)


@pytest.fixture(autouse=True, scope="module")
def _working_precision():
    with mp.workdps(60):
        yield


def rand_sector(rng, order=4):
    coeffs = {}
    for k in range(order + 1):
        num = rng.randint(-4, 4)
        if num:
            coeffs[(k,)] = ConstExpr.number(Fraction(num, rng.randint(1, 3)))
    return TruncSeries(GV, coeffs, (0,), (order,))


def rand_ts(rng, max_sector=6):
    sectors = {}
    for l in rng.sample(range(max_sector + 1), rng.randint(1, 3)):
        sectors[l] = rand_sector(rng)
    return Transseries(sectors, 0, "bound", max_sector)


def test_graded_product_no_leakage():
    rng = random.Random(11)
    for _ in range(1000):
        a, b = rand_ts(rng), rand_ts(rng)
        prod = a * b
        allowed = {la + lb for la in a.sectors for lb in b.sectors}
        assert set(prod.sectors) <= allowed
        # sector content is exactly the convolution of the operands
        for l in prod.sectors:
            acc = None
            for la, sa in a.sectors.items():
                lb = l - la
                if lb in b.sectors:
                    t = sa * b.sectors[lb]
                    acc = t if acc is None else acc + t
            assert (prod.sectors[l] - acc).is_zero()


def test_unit_derivative():
    one = TruncSeries.const(1, GV, (4,))
    ts = Transseries({2: one}, 0, "bound", 4)
    d = ts.derivative_g()
    # d/dg eps^2 = 2 pi g^-2 eps^2 on branch 0
    assert d.sectors[2].coefficient((-2,)) == ConstExpr.monomial(2, pi=1)


def test_division_inverts_product():
    rng = random.Random(12)
    for _ in range(200):
        sectors = {0: TruncSeries(GV, {(0,): ConstExpr.one()},
                                  (0,), (4,)) + rand_sector(rng, 4)}
        a = Transseries(sectors, 0, "bound", 4)
        b = rand_ts(rng, 4)
        q = (a * b) / a
        diff = q - b
        for l, s in diff.sectors.items():
            assert s.is_zero(), (l, s)


def test_numeric_evaluation_units():
    one = TruncSeries.const(1, GV, (2,))
    ts_b = Transseries({1: one}, 0, "bound", 1)
    ts_s = Transseries({1: one}, 0, "scattering", 1)
    g = mp.mpf("0.5")
    vb = ts_b.eval_mp(g)
    vs = ts_s.eval_mp(g, {"K": mp.mpf("0.25")})
    assert abs(vb - mp.e ** (-mp.pi / g - mp.euler)) < 1e-40
    assert abs(vs - mp.e ** (-mp.pi / g - mp.euler
                             - mp.mpf("0.25") * mp.pi)) < 1e-40


def test_to_jsonable_lists_sorted_terms():
    """The JSON form emit writes: flavor, branch, top sector and each
    stored sector's JSON form, keyed by its index as a string."""
    rng = random.Random(13)
    ts = rand_ts(rng)
    assert ts.to_jsonable() == {
        "flavor": "bound", "branch": 0, "max_sector": 6,
        "sectors": {str(l): ts.sectors[l].to_jsonable()
                    for l in sorted(ts.sectors)}}


def _graded_division(f, max_sector):
    """beta = -f / f' by graded division, through ``max_sector``."""
    beta = (-f) / f.derivative_g()
    return Transseries(beta.sectors, beta.branch, beta.flavor, max_sector)


def _assert_same_beta(got, want, g, assignment=None):
    """The same sectors, truncation orders, coefficients and eval_mp bits."""
    assert (got.flavor, got.branch, got.max_sector) == \
        (want.flavor, want.branch, want.max_sector)
    assert sorted(got.sectors) == sorted(want.sectors)
    for l, s in want.sectors.items():
        mine = got.sectors[l]
        assert mine.trunc_order == s.trunc_order, l
        assert mine.min_degree == s.min_degree, l
        assert mine.coeffs == s.coeffs, l
    assert got.eval_mp(g, assignment) == want.eval_mp(g, assignment)


@pytest.mark.parametrize("b", [0, 1, 2])
def test_bound_beta_equals_the_graded_division(b):
    """Sectors 0..6 from f at g^19 through sector 7, on branch b."""
    f = ground_state_transseries(build_ground_state_condition(19, 10, b), 7)
    beta = beta_transseries(f).ts
    assert sorted(beta.sectors) == [0, 2, 4, 6]
    assert {s.trunc_order for s in beta.sectors.values()} == {(21,)}
    _assert_same_beta(beta, _graded_division(f, 6), mp.mpf("0.3"))


def test_scatter_beta_equals_the_graded_division():
    """scatter_beta(4, 11), K symbolic: sectors 0..4 of -sigma/sigma'."""
    beta = scatter_beta(4, 11).ts
    assert sorted(beta.sectors) == [0, 2, 4]
    assert "K" in beta.sector(2).coefficient((4,)).generators_used()
    _assert_same_beta(beta, _graded_division(
        solve_sector_ansatz(11, 5, "scattering"), 4), mp.mpf("0.2"),
        {"K": mp.mpf("0.3")})


def test_beta_refuses_a_transseries_the_sector_solve_did_not_return():
    """Only the f of solve_sector_ansatz carries its R_l and E: any other
    transseries, even one with the same sectors, raises SeriesError
    rather than being divided."""
    f = ground_state_transseries(build_ground_state_condition(8, 8), 5)
    assert beta_transseries(f).ts.max_sector == 4
    for other in (-f, Transseries(f.sectors, f.branch, f.flavor,
                                  f.max_sector), f * ConstExpr.number(2)):
        with pytest.raises(SeriesError, match="solve_sector_ansatz"):
            beta_transseries(other)
