"""Ring laws, substitution, evaluation and display of the constants ring."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from ispflow.constexpr import (GENERATORS, ConstExpr, GRat, GAMMA, K_GEN,
                               L_GEN, N_GEN, PI, ZETA3)


@pytest.fixture(autouse=True, scope="module")
def _working_precision():
    with mp.workdps(50):
        yield


def random_expr(rng, n_terms=3, max_pow=3):
    out = ConstExpr.zero()
    gens = ("pi", "gamma", "zeta3", "zeta5", "K", "n", "L")
    for _ in range(n_terms):
        coef = GRat(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 5)))
        powers = {g: rng.randint(0, max_pow) for g in
                  rng.sample(gens, rng.randint(1, 3))}
        out = out + ConstExpr.monomial(coef, **powers)
    return out


def test_commutativity_example():
    assert PI * GAMMA + GAMMA * PI == PI * GAMMA * 2


def test_ring_identity_example():
    assert (PI + GAMMA) * (PI - GAMMA) == PI ** 2 - GAMMA ** 2


def test_ring_laws_randomized():
    rng = random.Random(20260809)
    for _ in range(1000):
        a, b, c = (random_expr(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()


def test_psi_display_map():
    e = ZETA3 * (-2)
    assert e.str_psi() == "psi2(1)"
    # independently evaluated polygamma vs the zeta-basis value, 30 digits
    diff = abs(e.eval_mp() - mp.psi(2, 1))
    assert diff < mp.mpf(10) ** -30
    # every displayed psi form evaluates identically to the stored zeta form
    rng = random.Random(7)
    for _ in range(200):
        e = random_expr(rng)
        d = abs(e.eval_mp({"K": 0.3, "n": 1, "L": 0.2})
                - e.eval_psi_mp({"K": 0.3, "n": 1, "L": 0.2}))
        assert d < mp.mpf(10) ** -30


def test_substitute_continuation():
    half_i = GRat(0, Fraction(-1, 2))
    assert (K_GEN - L_GEN).substitute("K", half_i).substitute(
        "L", half_i).is_zero()


def test_substitute_level():
    assert (N_GEN * PI).substitute("n", 1) == PI


def test_float_eval_path():
    e = N_GEN * PI * GAMMA
    val = e.substitute("n", 1).eval_mp({"gamma": mp.mpf("0.5772156649")})
    assert abs(val - mp.pi * mp.mpf("0.5772156649")) < 1e-30


def test_eval_known_values():
    assert abs(PI.eval_mp(dps=50) - mp.pi) == 0
    sixth_psi2 = ConstExpr.psi(2, Fraction(1, 6))
    # frozen from the independent polygamma oracle psi(2,1)/6
    assert abs(sixth_psi2.eval_mp()
               - mp.mpf("-0.400685634386531428466579387170483")) < 1e-30
    assert abs(sixth_psi2.eval_mp() - mp.psi(2, 1) / 6) < 1e-45
    # numeric value of the l=4 table coefficient at level 1
    c04 = (N_GEN * PI * GAMMA ** 3
           + ConstExpr.psi(2, Fraction(1, 6))
           * ConstExpr.monomial(1, n=3, pi=3)).substitute("n", 1)
    expect = mp.pi * mp.euler ** 3 + mp.pi ** 3 * mp.psi(2, 1) / 6
    assert abs(c04.eval_mp() - expect) < mp.mpf(10) ** -45


def test_eval_missing_generator():
    with pytest.raises(ValueError):
        K_GEN.eval_mp()


def test_monomial_inverse_and_negative_powers():
    e = ConstExpr.monomial(Fraction(2, 3), pi=2, n=1)
    assert (e * e.inverse_monomial()) == ConstExpr.one()
    with pytest.raises(ValueError):
        (PI + GAMMA).inverse_monomial()


def test_json_roundtrip():
    rng = random.Random(99)
    for _ in range(100):
        e = random_expr(rng)
        assert ConstExpr.from_json(e.to_json()) == e


def test_real_imag_parts():
    e = ConstExpr.monomial(GRat(1, 2), pi=1)
    assert e.real_part() == PI
    assert e.imag_part() == PI * 2
    assert e.conjugate() == ConstExpr.monomial(GRat(1, -2), pi=1)


def test_generator_set():
    assert set(GENERATORS) >= {"pi", "gamma", "zeta3", "zeta5", "zeta7",
                               "K", "n", "L"}


# -- the Gaussian-rational representation --------------------------------

def _pair(z):
    """Reference (re, im) Fraction pair of a GRat."""
    return (z.re, z.im)


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _random_parts(rng):
    """Fraction parts built from non-reduced, possibly negative inputs."""
    def part():
        k = rng.choice((1, 2, 6))
        return Fraction(rng.randint(-40, 40) * k, rng.choice((-1, 1))
                        * rng.randint(1, 12) * k)
    return part(), part()


def _assert_normal(z):
    a, b, d = z._a, z._b, z._d
    assert d > 0
    assert math.gcd(a, b, d) == 1
    assert z or (a, b, d) == (0, 0, 1)


def test_grat_matches_fraction_pair_reference():
    rng = random.Random(20261018)
    for _ in range(2000):
        xr, xi = _random_parts(rng)
        yr, yi = _random_parts(rng)
        x, y = GRat(xr, xi), GRat(yr, yi)
        for z in (x, y):
            _assert_normal(z)
        assert _pair(x) == (xr, xi)
        for got, want in ((x + y, (xr + yr, xi + yi)),
                          (x - y, (xr - yr, xi - yi)),
                          (x * y, _ref_mul((xr, xi), (yr, yi))),
                          (-x, (-xr, -xi)),
                          (x.conjugate(), (xr, -xi))):
            _assert_normal(got)
            assert _pair(got) == want
        if y:
            q = x / y
            _assert_normal(q)
            assert _pair(q) == _ref_mul((xr, xi), _ref_inverse((yr, yi)))
            assert _pair(y.inverse()) == _ref_inverse((yr, yi))
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        same = GRat(Fraction(xr.numerator * 3, xr.denominator * 3), xi)
        assert same == x and hash(same) == hash(x)
        assert (x == y) == ((xr, xi) == (yr, yi))
        e = ConstExpr.monomial(x, pi=1) + ConstExpr.monomial(y, K=2)
        assert ConstExpr.from_jsonable(e.to_jsonable()) == e


def test_grat_integer_and_zero_forms():
    assert (GRat(6, 4)._a, GRat(6, 4)._b, GRat(6, 4)._d) == (6, 4, 1)
    z = GRat(Fraction(2, 4), Fraction(-3, 6))
    assert (z._a, z._b, z._d) == (1, -1, 2)
    zero = GRat(3, 1) - GRat(3, 1)
    assert (zero._a, zero._b, zero._d) == (0, 0, 1) and not zero
    assert GRat(Fraction(3, -4)).re == Fraction(-3, 4)
    assert GRat(0.5, "1/3") == GRat(Fraction(1, 2), Fraction(1, 3))
    assert repr(GRat(Fraction(1, 2), Fraction(-1, 3))) == "(1/2-1/3i)"


def test_grat_equality_with_foreign_types():
    one = GRat(1)
    assert one != None  # noqa: E711
    assert one != 1.5 and one != "1"
    assert (one == None) is False  # noqa: E711
    assert one == 1 and one == Fraction(1) and 1 == one
    assert GRat(1, 1) != 1
    assert one == ConstExpr.one() and ConstExpr.one() == one


def test_grat_defers_to_constexpr_and_series_operands():
    """A GRat left of a ConstExpr or TruncSeries returns NotImplemented, so
    the reflected operation of the other type runs."""
    from ispflow.series import TruncSeries
    two = GRat(2)
    assert two * PI == PI * two and two + PI == PI + two
    assert two - PI == -(PI - two)
    s = TruncSeries.var("g", ("g",), (3,)) + PI
    assert two * s == s * two and two + s == s + two
    with pytest.raises(TypeError):
        two + 1.5
    with pytest.raises(TypeError):
        two / PI


def test_coerce_rejects_floats():
    """Only exact numbers enter the ring: ints, Fractions and GRats."""
    from ispflow.constexpr import _coerce
    assert _coerce(Fraction(1, 2)) == ConstExpr.number(Fraction(1, 2))
    assert _coerce(GRat(0, 3)) == ConstExpr.number(0, 3)
    for bad in (0.5, 1j, "1/2"):
        with pytest.raises(TypeError):
            _coerce(bad)


def test_real_grat_hashes_like_its_number():
    lookup = {GRat(1): "one", GRat(Fraction(-3, 4)): "minus three quarters"}
    assert lookup.get(1) == "one"
    assert lookup.get(Fraction(-3, 4)) == "minus three quarters"
    assert hash(GRat(Fraction(6, 8))) == hash(Fraction(3, 4))
    assert {GRat(2), 2, Fraction(2)} == {2}


def test_constexpr_stores_no_zero_coefficient():
    rng = random.Random(4242)
    half_i = GRat(0, Fraction(-1, 2))
    for _ in range(300):
        a, b = random_expr(rng), random_expr(rng)
        for e in (a + b, a - b, a * b, a - a, a * (b - b),
                  (a * b).substitute("K", half_i), (a - b).substitute("pi", 0),
                  (a + b).substitute("n", K_GEN - 1)):
            assert all(e.terms.values())
            for c in e.terms.values():
                _assert_normal(c)


def test_substitute_groups_powers_without_changing_result():
    """One pass over the powers equals the term-by-term substitution."""
    rng = random.Random(31)
    half_i = ConstExpr.number(0, Fraction(-1, 2))
    for _ in range(100):
        e = random_expr(rng, n_terms=5) * random_expr(rng)
        for value in (half_i, K_GEN + PI, ConstExpr.monomial(3, n=-1)):
            want = ConstExpr.zero()
            for exp, c in e.terms.items():
                i = GENERATORS.index("K")
                k = exp[i]
                rest = ConstExpr({exp[:i] + (0,) + exp[i + 1:]: c})
                want = want + rest * (value ** k if k >= 0 else
                                      value.inverse_monomial() ** (-k))
            assert e.substitute("K", value).to_json() == want.to_json()
