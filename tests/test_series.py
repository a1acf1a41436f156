"""Truncated series arithmetic, composition, reversion and builders."""

import random
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest

from ispflow.constexpr import ConstExpr, GRat
from ispflow.expansions import arg_gamma_series
from ispflow.series import (INF_ORDER, SeriesError, TruncSeries,
                            arctan_series, coth_series, exp_series,
                            lagrange_coefficients, tan_series, tanh_series)


@pytest.fixture(autouse=True, scope="module")
def _working_precision():
    with mp.workdps(50):
        yield
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


# -- reference power sums: the closed loops inverse/exp/log once were ---------

def _power_sum(w, weight, start, min_degree):
    """sum_k weight(k) w^k, each power truncated to w's box, until a power
    vanishes."""
    out = TruncSeries.zero(w.variables, w.trunc_order, min_degree)
    term = TruncSeries.const(1, w.variables, w.trunc_order)
    k = 0
    while True:
        if k >= start:
            out = out + term * weight(k)
        term = (term * w).truncate(w.trunc_order)
        if term.is_zero():
            return out
        k += 1
        assert k <= 200, "reference power sum did not terminate"


def reference_inverse(f):
    lead = f.lead_exponents()
    c0_inv = f.coeffs[lead].inverse_monomial()
    box = tuple(t if t >= INF_ORDER else t - m
                for t, m in zip(f.trunc_order, lead))
    w = TruncSeries(f.variables,
                    {tuple(x - m for x, m in zip(e, lead)): c * c0_inv
                     for e, c in f.coeffs.items() if e != lead},
                    None, box)
    out = _power_sum(-w, lambda k: 1, 0, None) * c0_inv
    for v, m in zip(f.variables, lead):
        if m:
            out = out.shift(v, -m)
    return out


def reference_exp(f):
    return _power_sum(f, lambda k: Fraction(1, factorial(k)), 0, None)


def reference_log(f):
    return _power_sum(f - 1, lambda k: Fraction((-1) ** (k + 1), k), 1,
                      f.min_degree)


def random_ring_coefficient(rng):
    """One or two Gaussian-rational monomials in pi and K."""
    out = ConstExpr.zero()
    for _ in range(rng.randint(1, 2)):
        coef = GRat(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        out = out + ConstExpr.monomial(coef, pi=rng.randint(-1, 2),
                                       K=rng.randint(0, 2))
    return out


def random_multivariate(rng, laurent=False):
    """Seeded series in 2-3 variables: finite orders that differ per
    variable, and a last variable of exact order that only ever appears
    next to a finite one.  Plain, it has no constant term; ``laurent``
    makes it a Laurent monomial, with a monomial coefficient, times 1 + w.
    """
    nv = rng.choice((2, 3))
    orders = rng.sample(range(2, 6), nv - 1)
    variables = ("g", "s", "x")[:nv - 1] + ("n",)
    lead = (0,) * nv
    if laurent:
        lead = tuple(rng.randint(-2, 1) for _ in orders) + (rng.randint(0, 1),)
    coeffs = {}
    for _ in range(rng.randint(2, 6)):
        e = [rng.randint(0, t) for t in orders]
        if not any(e):
            e[rng.randrange(nv - 1)] = 1
        e.append(rng.randint(0, 2))
        coeffs[tuple(x + m for x, m in zip(e, lead))] = \
            random_ring_coefficient(rng)
    if laurent:
        coeffs[lead] = ConstExpr.monomial(
            GRat(rng.randint(1, 4), rng.randint(-2, 2)),
            pi=rng.randint(-1, 1), K=rng.randint(0, 1))
    box = tuple(t + m for t, m in zip(orders, lead)) + (INF_ORDER,)
    return TruncSeries(variables, coeffs, tuple(min(m, 0) for m in lead),
                       box)


def test_multivariate_inverse_exp_log_match_power_sums():
    """inverse, exp and log equal the old power sums term by term,
    truncation and floor included."""
    rng = random.Random(47)
    for _ in range(40):
        w = random_multivariate(rng)
        assert w.exp().to_jsonable() == reference_exp(w).to_jsonable()
        f = w + 1
        assert f.log().to_jsonable() == reference_log(f).to_jsonable()
        f = random_multivariate(rng, laurent=True)
        inv = f.inverse()
        assert inv.to_jsonable() == reference_inverse(f).to_jsonable()
        assert (f * inv - 1).is_zero()


def test_nonterminating_series_raise_at_once(monkeypatch):
    """A term in no finitely truncated variable (or with a negative power)
    makes the power sum endless; the kernel refuses it before any product."""
    vs = ("g", "x")
    x = TruncSeries.var("x", vs, (4, INF_ORDER))
    g = TruncSeries.var("g", vs, (4, INF_ORDER))
    laurent = TruncSeries(vs, {(-1, 1): ConstExpr.one()}, (-1, 0),
                          (4, INF_ORDER))
    endless = ((x + 1).inverse, x.exp, (x + 1).log, (g + x * x).exp,
               (g * x + x + 1).log)
    products = []
    mul = TruncSeries.__mul__
    monkeypatch.setattr(TruncSeries, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    for call in endless:
        with pytest.raises(SeriesError, match="finitely truncated"):
            call()
    for call in (laurent.exp, (laurent + 1).log):
        with pytest.raises(SeriesError, match="nonnegative"):
            call()
    assert products == []


def test_series_coefficients_take_the_ring_coercion():
    """Series constructors coerce a coefficient as ConstExpr does: exact
    numbers pass and a float raises, not silently becomes a rational."""
    half = TruncSeries.var("g", GV, (4,), coef=Fraction(1, 2))
    assert half.coeffs == {(1,): ConstExpr.number(Fraction(1, 2))}
    assert TruncSeries.const(GRat(0, 2), GV, (4,)) * 2 == TruncSeries.const(
        GRat(0, 4), GV, (4,))
    with pytest.raises(TypeError):
        TruncSeries.var("g", GV, (4,), coef=0.5)
    with pytest.raises(TypeError):
        TruncSeries.const(0.5, GV, (4,))
    with pytest.raises(TypeError):
        TruncSeries(GV, {(1,): 0.5}, None, (4,))


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


def test_compose_rejects_inner_without_grading_variable():
    """No variable of x + y is in every monomial, so the omitted tail of the
    outer series cannot be bounded by one variable's truncation."""
    x = TruncSeries.var("x", ("x", "y"), (3, 3))
    y = TruncSeries.var("y", ("x", "y"), (3, 3))
    with pytest.raises(SeriesError):
        tan_series("v", 3).substitute_var("v", x + y)


def test_inverse_keeps_exact_order_exact():
    """An exact (untruncated) order stays exact through an inverse whose
    lead carries a positive power of that variable."""
    v = ("x", "g")
    x = TruncSeries.var("x", v, (INF_ORDER, 4))
    g = TruncSeries.var("g", v, (INF_ORDER, 4))
    inv = (x * x * (g + 1)).inverse()
    assert inv.trunc_order == (INF_ORDER, 4)
    assert inv.to_jsonable()["trunc_order"] == [None, 4]


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


def test_eval_needs_no_value_for_an_unused_variable():
    f = TruncSeries(("g", "x"), {(0, 0): ConstExpr.one(),
                                 (2, 0): ConstExpr.number(3)}, None, (4, 3))
    assert f.eval_mp({"g": mp.mpf("0.5")}, dps=50) == mp.mpf("1.75")


def test_json_roundtrip():
    rng = random.Random(46)
    for _ in range(50):
        f = random_unit_series(rng, 5)
        assert TruncSeries.from_json(f.to_json()) == f
