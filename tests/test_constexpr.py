"""Ring laws, substitution, evaluation and display of the constants ring."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from ispflow import constexpr
from ispflow.constexpr import (EXP_MAX, EXP_MIN, GENERATORS, ConstExpr,
                               GRat, GAMMA, K_GEN, L_GEN, N_GEN, PI, ZETA3)
from ispflow.golden import BOUND_TABLE


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


def test_printed_forms():
    """Both display bases print through one formatter: bare numbers, unit
    and minus-unit coefficients, complex ones and negative powers."""
    c04 = BOUND_TABLE[(0, 4)]
    assert str(c04) == "pi*gamma^3*n - 1/3*pi^3*zeta3*n^3"
    assert c04.str_psi() == "pi*gamma^3*n + 1/6*pi^3*n^3*psi2(1)"
    e = (ConstExpr.monomial(GRat(Fraction(1, 2), -3), pi=-2, zeta3=1)
         - K_GEN + 5)
    assert str(e) == "(1/2-3i)*pi^-2*zeta3 + 5 - K"
    assert e.str_psi() == "(-1/4+3/2i)*pi^-2*psi2(1) + 5 - K"
    e = ConstExpr.monomial(Fraction(-2, 3), L=-1, zeta5=2) - K_GEN + PI
    assert str(e) == "-K - 2/3*zeta5^2*L^-1 + pi"
    assert e.str_psi() == "-K - 1/864*L^-1*psi4(1)^2 + pi"
    e = ConstExpr.number(Fraction(-7, 2))
    assert str(e) == e.str_psi() == "-7/2"
    assert str(ConstExpr.number(0, 1)) == "(0+1i)"
    assert str(ConstExpr.zero()) == ConstExpr.zero().str_psi() == "0"


def test_eval_psi_mp_ignores_the_global_precision():
    c04 = BOUND_TABLE[(0, 4)]
    with mp.workdps(15):
        psi_value = c04.eval_psi_mp({"n": 1})
    assert abs(psi_value - c04.eval_mp({"n": 1})) < mp.mpf(10) ** -50


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


def test_zero_divisor_raises_zero_division_error():
    """Every way of dividing by an exact zero, a series divided by a zero
    number of any type included, raises the one ZeroDivisionError."""
    from ispflow.series import TruncSeries
    s = TruncSeries.var("g", ("g",), (3,)) + PI
    zero_divisions = [
        lambda: s / 0,
        lambda: s / Fraction(0),
        lambda: s / GRat(0),
        lambda: s / ConstExpr.zero(),
        lambda: ConstExpr.zero().inverse_monomial(),
        lambda: ConstExpr.zero() ** -2,
        lambda: ConstExpr.monomial(1, pi=-1).substitute("pi", 0),
    ]
    for divide in zero_divisions:
        with pytest.raises(ZeroDivisionError):
            divide()


def test_power_equals_repeated_product_with_fewest_products(monkeypatch):
    """x ** k is the k-fold product for k = 0..6, and x ** -k the k-fold
    product of the inverse of a monomial; binary powering starts from x, so
    it forms floor(log2 k) squarings and popcount(k) - 1 further products
    (none for k = 0 or 1)."""
    x = ConstExpr.monomial(GRat(Fraction(2, 3), 1), pi=1) + GAMMA * N_GEN
    m = ConstExpr.monomial(GRat(-3, Fraction(1, 2)), pi=2, zeta3=-1, K=1)
    cases = [(x, k) for k in range(7)] + [(m, k) for k in range(-6, 7)]
    want = []
    for base, k in cases:
        unit = base if k >= 0 else base.inverse_monomial()
        prod = ConstExpr.one()
        for _ in range(abs(k)):
            prod = prod * unit
        want.append(prod)
    products = []
    original = ConstExpr.__mul__

    def counted(self, other):
        products.append(1)
        return original(self, other)
    monkeypatch.setattr(ConstExpr, "__mul__", counted)
    for (base, k), expect in zip(cases, want):
        products.clear()
        assert base ** k == expect, (base, k)
        n = abs(k)
        assert len(products) == (n.bit_length() - 1 + bin(n).count("1") - 1
                                 if n else 0), (k, len(products))


def test_to_jsonable_lists_sorted_terms():
    """The JSON form emit writes: each term's exponent list and the two
    parts of its coefficient, in sorted_terms order."""
    rng = random.Random(99)
    for _ in range(100):
        e = random_expr(rng) * ConstExpr.monomial(GRat(-1, 2), L=-1)
        assert e.to_jsonable() == [[list(exp), [str(c.re), str(c.im)]]
                                   for exp, c in e.sorted_terms()]
    assert ConstExpr.zero().to_jsonable() == []
    assert ConstExpr.number(Fraction(-3, 4), 2).to_jsonable() == [
        [[0] * len(GENERATORS), ["-3/4", "2"]]]


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


def _number_pair(e):
    """The (re, im) pair of a constant ConstExpr, read back through
    sorted_terms(), whose one GRat must be in normal form; zero has no
    term and reads (0, 0)."""
    terms = e.sorted_terms()
    if not terms:
        return (0, 0)
    (exp, c), = terms
    assert not any(exp)
    _assert_normal(c)
    return _pair(c)


def test_grat_matches_fraction_pair_reference():
    """GRat's normal form, and the ring's arithmetic on numbers, which
    hands its results back as normal-form GRats, match Fraction pairs."""
    rng = random.Random(20261018)
    for _ in range(2000):
        xr, xi = _random_parts(rng)
        yr, yi = _random_parts(rng)
        x, y = GRat(xr, xi), GRat(yr, yi)
        for z in (x, y):
            _assert_normal(z)
        assert _pair(x) == (xr, xi)
        u, v = ConstExpr.number(xr, xi), ConstExpr.number(yr, yi)
        for got, want in ((u + v, (xr + yr, xi + yi)),
                          (u - v, (xr - yr, xi - yi)),
                          (u * v, _ref_mul((xr, xi), (yr, yi))),
                          (-u, (-xr, -xi)),
                          (u.conjugate(), (xr, -xi))):
            assert _number_pair(got) == want
        if y:
            q = u * v.inverse_monomial()
            assert _number_pair(q) == _ref_mul((xr, xi),
                                               _ref_inverse((yr, yi)))
            assert _number_pair(v.inverse_monomial()) == _ref_inverse(
                (yr, yi))
        else:
            with pytest.raises(ZeroDivisionError):
                v.inverse_monomial()
        same = GRat(Fraction(xr.numerator * 3, xr.denominator * 3), xi)
        assert same == x and hash(same) == hash(x)
        assert (x == y) == ((xr, xi) == (yr, yi))
        e = ConstExpr.monomial(x, pi=1) + ConstExpr.monomial(y, K=2)
        assert ConstExpr(dict(e.sorted_terms())) == e


def test_grat_integer_and_zero_forms():
    assert (GRat(6, 4)._a, GRat(6, 4)._b, GRat(6, 4)._d) == (6, 4, 1)
    z = GRat(Fraction(2, 4), Fraction(-3, 6))
    assert (z._a, z._b, z._d) == (1, -1, 2)
    x = (Fraction(3), Fraction(1))
    zero = GRat(x[0] - x[0], x[1] - x[1])
    assert (zero._a, zero._b, zero._d) == (0, 0, 1) and not zero
    assert GRat(Fraction(3, -4)).re == Fraction(-3, 4)
    with pytest.raises(TypeError):
        GRat(0.5, "1/3")
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
    # the ring's is the one arithmetic: a GRat has none of its own
    for op in (lambda: two + two, lambda: two * two, lambda: -two):
        with pytest.raises(TypeError):
            op()


def test_coerce_rejects_floats():
    """Only exact numbers enter the ring: ints, Fractions and GRats, by
    coercion or by a constructor."""
    from ispflow.constexpr import _coerce
    assert _coerce(Fraction(1, 2)) == ConstExpr.number(Fraction(1, 2))
    assert _coerce(GRat(0, 3)) == ConstExpr.number(0, 3)
    for bad in (0.5, 1j, "1/2"):
        with pytest.raises(TypeError):
            _coerce(bad)
    refusals = (lambda: ConstExpr.number(0.1),
                lambda: ConstExpr.number(1, 0.1),
                lambda: ConstExpr.monomial(0.1, pi=1),
                lambda: GRat(0.5),
                lambda: GRat(1, "1/3"))
    for refuse in refusals:
        with pytest.raises(TypeError):
            refuse()


def test_real_grat_hashes_like_its_number():
    lookup = {GRat(1): "one", GRat(Fraction(-3, 4)): "minus three quarters"}
    assert lookup.get(1) == "one"
    assert lookup.get(Fraction(-3, 4)) == "minus three quarters"
    assert hash(GRat(Fraction(6, 8))) == hash(Fraction(3, 4))
    assert {GRat(2), 2, Fraction(2)} == {2}


def test_constant_constexpr_hashes_like_its_number():
    """A constant ConstExpr equals its number, so it hashes like it: like
    its GRat, and zero like 0."""
    for x in (5, -1, Fraction(-3, 4), GRat(Fraction(1, 3)), GRat(2, 1)):
        g = x if isinstance(x, GRat) else GRat(x)
        c = ConstExpr.number(g.re, g.im)
        assert c == x and hash(c) == hash(x)
        assert x in {c} and c in {x}
    zero = PI - PI
    assert zero == 0 and hash(zero) == hash(0) and 0 in {zero}
    assert {ConstExpr.number(2), 2, GRat(2), Fraction(2)} == {2}
    assert len({PI, PI * 1, GAMMA}) == 2


def _assert_canonical(e):
    """One shared denominator over integer (re, im) pairs: den > 0, no
    (0, 0) pair, gcd(den, every part) == 1, zero as ({}, 1)."""
    assert e.den > 0
    assert (0, 0) not in e.terms.values()
    parts = (p for pair in e.terms.values() for p in pair)
    assert math.gcd(e.den, *parts) == 1
    assert e or (e.terms, e.den) == ({}, 1)
    for _, c in e.sorted_terms():
        _assert_normal(c)


def test_constexpr_stores_no_zero_coefficient():
    rng = random.Random(4242)
    half_i = GRat(0, Fraction(-1, 2))
    for _ in range(300):
        a, b = random_expr(rng), random_expr(rng)
        for e in (a + b, a - b, a * b, a - a, a * (b - b),
                  (a * b).substitute("K", half_i), (a - b).substitute("pi", 0),
                  (a + b).substitute("n", K_GEN - 1)):
            _assert_canonical(e)


def test_canonical_form_edge_cases(monkeypatch):
    sixth, third = (ConstExpr.monomial(Fraction(1, k), pi=1) for k in (6, 3))
    half = ConstExpr.monomial(Fraction(1, 2), pi=1)
    total = sixth + third
    assert total == half and total.den == half.den == 2
    assert hash(total) == hash(half)
    third_pi = PI * Fraction(1, 3)
    zero = third_pi - third_pi
    assert zero.den == 1 and zero == 0 and hash(zero) == hash(0)
    assert ConstExpr.number(Fraction(1, 2)) * (PI * 2) == PI
    i_half = ConstExpr.number(0, Fraction(1, 2))
    assert i_half * i_half == Fraction(-1, 4)
    # distinct keys over different denominators: the sum takes no gcd pass
    # and is canonical as it stands
    x = ConstExpr.monomial(Fraction(2, 3), pi=1)
    y = ConstExpr.monomial(GRat(Fraction(1, 4), Fraction(3, 2)), K=1)
    monkeypatch.setattr(constexpr, "_reduced", None)
    e = x + y
    monkeypatch.undo()
    assert e.den == 12
    assert e.sorted_terms() == (x.sorted_terms() + y.sorted_terms())[::-1]
    _assert_canonical(e)
    for e in (total, zero, e, e * e.conjugate(), (e - e.conjugate()) * e,
              e.real_part(), e.imag_part(), e.scalar_mul(GRat(0, 6)),
              ConstExpr.monomial(GRat(4, 6), pi=-2).inverse_monomial()):
        _assert_canonical(e)


def test_substitute_groups_powers_without_changing_result():
    """One pass over the powers equals the term-by-term substitution."""
    rng = random.Random(31)
    half_i = ConstExpr.number(0, Fraction(-1, 2))
    for _ in range(100):
        e = random_expr(rng, n_terms=5) * random_expr(rng)
        for value in (half_i, K_GEN + PI, ConstExpr.monomial(3, n=-1)):
            want = ConstExpr.zero()
            for exp, c in e.sorted_terms():
                i = GENERATORS.index("K")
                k = exp[i]
                rest = ConstExpr({exp[:i] + (0,) + exp[i + 1:]: c})
                want = want + rest * (value ** k if k >= 0 else
                                      value.inverse_monomial() ** (-k))
            assert e.substitute("K", value) == want


def _tuple_mul(x, y):
    """Reference product over tuple-keyed term dicts, on (re, im) Fraction
    pairs of the GRat coefficients."""
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            re, im = out.get(e, (0, 0))
            p = _ref_mul(_pair(c1), _pair(c2))
            out[e] = (re + p[0], im + p[1])
    return {e: GRat(*c) for e, c in out.items() if any(c)}


def _random_exponents(rng):
    """Exponents on every generator, negative ones included; a few reach
    half the range, so any product of two stays in it."""
    half = (EXP_MAX + 1) // 2
    return tuple(rng.choice((0, 0, rng.randint(-4, 4),
                             rng.randint(-half, half - 1)))
                 for _ in GENERATORS)


def test_packed_keys_match_a_tuple_reference():
    rng = random.Random(2323)
    first, last = [], []
    for _ in range(300):
        x, y = ({_random_exponents(rng): GRat(rng.randint(-9, 9),
                                              rng.randint(-2, 2))
                 for _ in range(rng.randint(1, 4))} for _ in range(2))
        first.extend(e[0] for e in x)
        last.extend(e[-1] for e in x)
        a, b = ConstExpr(x), ConstExpr(y)
        assert a.sorted_terms() == sorted((e, c) for e, c in x.items() if c)
        assert (a * b).sorted_terms() == sorted(_tuple_mul(x, y).items())
        for e in (a, b, a * b):
            assert ConstExpr(dict(e.sorted_terms())) == e
        for e, c in x.items():
            if c:
                inv = ConstExpr({e: c}).inverse_monomial()
                assert inv.sorted_terms() == [
                    (tuple(-p for p in e), GRat(*_ref_inverse(_pair(c))))]
                assert ConstExpr({e: c}) * inv == 1
    # negative powers on the first (pi) and the last (shat) field
    assert min(first) < 0 and min(last) < 0


def test_exponents_outside_the_packed_range_are_refused():
    zeros = (0,) * (len(GENERATORS) - 2)
    edge = (EXP_MAX,) + zeros + (EXP_MIN,)
    m = ConstExpr.monomial(3, pi=EXP_MAX, shat=EXP_MIN)
    assert m.sorted_terms() == [(edge, GRat(3))]
    assert ConstExpr({edge: 3}) == m
    assert m * PI.inverse_monomial() * PI == m
    assert ConstExpr.monomial(1, K=-2 ** 15) ** (2 ** 15) == (
        ConstExpr.monomial(1, K=EXP_MIN))
    assert ConstExpr.monomial(1, shat=EXP_MIN + 1).inverse_monomial() == (
        ConstExpr.monomial(1, shat=EXP_MAX))
    refusals = [
        lambda: ConstExpr({(EXP_MAX + 1,) + zeros + (0,): 1}),
        lambda: ConstExpr({(0,) + zeros + (EXP_MIN - 1,): 1}),
        lambda: ConstExpr({(1, 2): 1}),
        lambda: ConstExpr.monomial(1, pi=EXP_MAX + 1),
        lambda: ConstExpr.monomial(1, shat=EXP_MIN - 1),
        # a power: k times the extreme exponent leaves the range
        lambda: ConstExpr.monomial(1, K=2 ** 15) ** (2 ** 15),
        lambda: ConstExpr.monomial(1, K=-2 ** 15) ** -(2 ** 15),
        lambda: (PI + ConstExpr.monomial(1, pi=2 ** 29)) ** 2,
        # a product would carry into the next generator's field
        lambda: ConstExpr.monomial(1, zeta3=EXP_MAX) * ZETA3,
        lambda: ConstExpr.monomial(1, shat=EXP_MIN) * m,
        lambda: ConstExpr.monomial(1, shat=EXP_MIN).inverse_monomial(),
    ]
    for refuse in refusals:
        with pytest.raises(ValueError):
            refuse()
