"""Truncated series arithmetic, composition, reversion and builders."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from ispflow.constexpr import ConstExpr, GRat
from ispflow.expansions import arg_gamma_series
from ispflow.series import (SeriesError, TruncSeries, arctan_series,
                            coth_series, exp_series, lagrange_coefficients,
                            tan_series, tanh_series)

mp.mp.dps = 50
GV = ("g",)


def g_series(order):
    return TruncSeries.var("g", GV, (order,))


def one(order):
    return TruncSeries.const(1, GV, (order,))


def random_unit_series(rng, order):
    coeffs = {(0,): ConstExpr.one()}
    for k in range(1, order + 1):
        num = rng.randint(-6, 6)
        if num:
            coeffs[(k,)] = ConstExpr.number(Fraction(num, rng.randint(1, 5)))
    return TruncSeries(GV, coeffs, (0,), (order,))


def test_product_truncation():
    g = g_series(4)
    assert str((one(4) + g) * (one(4) - g)) == "1 + -g^2"


def test_geometric_inverse():
    g = g_series(6)
    inv = (one(6) + g * g).inverse()
    expect = {(0,): 1, (2,): -1, (4,): 1, (6,): -1}
    assert inv == TruncSeries(GV, {k: ConstExpr.number(v)
                                   for k, v in expect.items()}, (0,), (6,))


def test_unit_inverse_roundtrip_randomized():
    rng = random.Random(42)
    for _ in range(1000):
        f = random_unit_series(rng, 6)
        assert (f * f.inverse() - one(6)).is_zero()


def test_product_associativity_randomized():
    rng = random.Random(43)
    for _ in range(300):
        f, g, h = (random_unit_series(rng, 5) for _ in range(3))
        lhs = ((f * g) * h).truncate((5,))
        rhs = (f * (g * h)).truncate((5,))
        assert (lhs - rhs).is_zero()


def test_exp_log_roundtrip_randomized():
    rng = random.Random(44)
    for _ in range(200):
        f = random_unit_series(rng, 6)
        assert (f.log().exp() - f).is_zero()


def test_exp_log_examples():
    zero = TruncSeries.zero(GV, (4,))
    assert zero.exp() == one(4)
    g = g_series(5)
    lg = (one(5) + g).log()
    expect = {(k,): ConstExpr.number(Fraction((-1) ** (k + 1), k))
              for k in range(1, 6)}
    assert lg == TruncSeries(GV, expect, (0,), (5,))


def test_laurent_floor_enforced():
    with pytest.raises(SeriesError):
        TruncSeries(GV, {(-3,): ConstExpr.one()}, (-2,), (4,))
    with pytest.raises(SeriesError):
        g_series(4).shift("g", -4)


def test_coth_series_example():
    ct = coth_series("g", 3)
    expect = TruncSeries(GV, {(-1,): ConstExpr.one(),
                              (1,): ConstExpr.number(Fraction(1, 3)),
                              (3,): ConstExpr.number(Fraction(-1, 45))},
                         (-2,), (3,))
    assert ct == expect
    # numeric confirmation at small argument before use; the residual is
    # the omitted x^5 term, (2/945) x^5 ~ 2e-18 at x = 1e-3
    x = mp.mpf("1e-3")
    val = ct.eval_mp({"g": x})
    assert abs(val - mp.coth(x)) < 1e-17


def test_half_coth_of_pi_g():
    from ispflow.scatter import half_coth_series
    hc = half_coth_series(3)
    assert hc.coefficient((-1,)) == ConstExpr.monomial(1, pi=-1)
    assert hc.coefficient((1,)) == ConstExpr.monomial(Fraction(1, 12), pi=1)
    assert hc.coefficient((3,)) == ConstExpr.monomial(Fraction(-1, 720), pi=3)
    x = mp.mpf("0.01")
    assert abs(hc.eval_mp({"g": x}) - mp.coth(mp.pi * x / 2) / 2) < 1e-10


def test_compose_exp_with_g_squared():
    from ispflow.series import exp_series
    g = g_series(6)
    cmp_ = exp_series("u", 6).substitute_var("u", g * g)
    assert cmp_.coefficient((0,)) == ConstExpr.one()
    assert cmp_.coefficient((2,)) == ConstExpr.one()
    assert cmp_.coefficient((4,)) == ConstExpr.number(Fraction(1, 2))


def test_compose_tan_with_sum():
    x = TruncSeries.var("x", ("x", "y"), (3, 3))
    y = TruncSeries.var("y", ("x", "y"), (3, 3))
    t = tan_series("v", 3).substitute_var("v", x + y, tail_bound="total")
    third = ConstExpr.number(Fraction(1, 3))
    assert t.coefficient((1, 0)) == ConstExpr.one()
    assert t.coefficient((0, 1)) == ConstExpr.one()
    assert t.coefficient((3, 0)) == third
    assert t.coefficient((2, 1)) == ConstExpr.one()
    assert t.coefficient((1, 2)) == ConstExpr.one()
    assert t.coefficient((0, 3)) == third


def test_compose_rejects_constant_term():
    with pytest.raises(SeriesError):
        tan_series("v", 3).substitute_var("v", one(3))


def test_arg_gamma_series_against_oracle():
    """Coefficients must match the derivative of the log-gamma expansion."""
    ag = arg_gamma_series(9)
    assert ag.coefficient((1,)) == ConstExpr.monomial(-1, gamma=1)
    assert ag.coefficient((3,)) == ConstExpr.monomial(Fraction(1, 3), zeta3=1)
    assert ag.coefficient((5,)) == ConstExpr.monomial(Fraction(-1, 5), zeta5=1)
    # numeric oracle at three points
    for gv in ("0.01", "0.05", "0.1"):
        gv = mp.mpf(gv)
        exact = mp.im(mp.loggamma(1 + mp.mpc(0, 1) * gv))
        assert abs(ag.eval_mp({"g": gv}) - exact) < gv ** 11 * 2


def test_reversion_examples():
    g = g_series(6)
    assert g.revert() == g
    f = g + g * g
    h = f.revert()
    catalan = {1: 1, 2: -1, 3: 2, 4: -5, 5: 14, 6: -42}
    for k, v in catalan.items():
        assert h.coefficient((k,)) == ConstExpr.number(v)


def test_reversion_roundtrip_randomized():
    rng = random.Random(45)
    for _ in range(1000):
        coeffs = {(1,): ConstExpr.number(1)}
        for k in range(2, 6):
            num = rng.randint(-5, 5)
            if num:
                coeffs[(k,)] = ConstExpr.number(Fraction(num,
                                                         rng.randint(1, 4)))
        f = TruncSeries(GV, coeffs, (0,), (5,))
        h = f.revert()
        assert f.substitute_var("g", h) == g_series(5)


def test_reversion_requires_linear_term():
    with pytest.raises(SeriesError):
        (g_series(4) * g_series(4)).revert()


def test_lagrange_catalan():
    # y = t (1 + y)^2 is solved by the Catalan numbers
    y = TruncSeries.var("y", ("y",), (8,))
    phi = (TruncSeries.const(1, ("y",), (8,)) + y) ** 2
    coeffs = lagrange_coefficients(phi, "y", 8)
    catalan = [1, 2, 5, 14, 42, 132, 429, 1430]
    assert sorted(coeffs) == list(range(1, 9))
    for l, c in zip(range(1, 9), catalan):
        assert coeffs[l].variables == ()
        assert coeffs[l].constant_term() == ConstExpr.number(c)


def test_lagrange_tree_function():
    # y = t e^y counts rooted labelled trees: [t^l] y = l^(l-1) / l!
    from math import factorial
    coeffs = lagrange_coefficients(exp_series("y", 9), "y", 10)
    for l in range(1, 11):
        assert coeffs[l].constant_term() == ConstExpr.number(
            Fraction(l ** (l - 1), factorial(l)))


def test_lagrange_two_variables_plug_back():
    # y = t phi(y, x) with ring coefficients, checked by substitute_var
    n = 6
    vs = ("y", "x")
    y = TruncSeries.var("y", vs, (n - 1, 4))
    x = TruncSeries.var("x", vs, (n - 1, 4))
    phi = (TruncSeries.const(1, vs, (n - 1, 4)) + x * y
           + y * y * ConstExpr.monomial(Fraction(-1, 2), pi=1)
           + x * x * y ** 3)
    coeffs = lagrange_coefficients(phi, "y", n)
    ts = ("x", "t")
    sol = TruncSeries.zero(ts, (4, n))
    for l, c in coeffs.items():
        assert c.variables == ("x",)
        sol = sol + c.extend_to(ts, (4, n)) * TruncSeries.var("t", ts, (4, n),
                                                                power=l)
    resid = sol - phi.substitute_var("y", sol).shift("t", 1)
    assert resid.trunc_order == (4, n)
    assert resid.is_zero()
    assert coeffs[2].coefficient((1,)) == ConstExpr.one()


def test_lagrange_needs_enough_orders():
    with pytest.raises(SeriesError):
        lagrange_coefficients(one(3), "g", 6)


def test_derivative_and_shift():
    g = g_series(5)
    f = g ** 3
    assert f.derivative("g") == g * g * 3
    assert f.shift("g", -2).coefficient((1,)) == ConstExpr.one()


def test_tan_tanh_arctan_values():
    x = mp.mpf("0.05")
    assert abs(tan_series("t", 9).eval_mp({"t": x}) - mp.tan(x)) < 1e-13
    assert abs(tanh_series("t", 9).eval_mp({"t": x}) - mp.tanh(x)) < 1e-13
    assert abs(arctan_series("t", 9).eval_mp({"t": x}) - mp.atan(x)) < 1e-13


def test_json_roundtrip():
    rng = random.Random(46)
    for _ in range(50):
        f = random_unit_series(rng, 5)
        assert TruncSeries.from_json(f.to_json()) == f
