"""Graded transseries arithmetic: sector bookkeeping, derivative, division."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from ispflow.constexpr import ConstExpr
from ispflow.series import TruncSeries
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
