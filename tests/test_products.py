"""The fused products against the pairwise loops they replaced.

A series coefficient is a dot product: ``constexpr._dot`` sums the ring
products of many pairs over one common denominator with one content gcd,
and ``series._products`` groups the term pairs of one or more series
products by output exponent.  The references below are the loops they
replaced: every ring product formed and reduced on its own, then added
into the running sum.  The fused kernels must give the same values, the
same canonical denominators and the same JSON, cancellations included.
The order of terms and coefficients carries no meaning: ``eval_mp`` adds
them in key and exponent order, so equal values built in different
orders evaluate to the same bits.
"""

import random
from fractions import Fraction

import pytest

from ispflow import constexpr, series
from ispflow.constexpr import EXP_MAX, EXP_MIN, PI, ConstExpr, GRat
from ispflow.series import INF_ORDER, SeriesError, TruncSeries
from ispflow.transseries import Transseries


def _pairwise_ring_mul(x, y):
    """x * y by one loop over the pair, dropping keys that cancel, with
    its own range check and content gcd: the ring product before the
    fused kernel."""
    out = {}
    for e1, (a, b) in x.terms.items():
        for e2, (c, d) in y.terms.items():
            e = e1 + e2
            re, im = a * c - b * d, a * d + b * c
            s = out.get(e)
            if s is not None:
                re += s[0]
                im += s[1]
                if not (re or im):
                    del out[e]
                    continue
            out[e] = (re, im)
    constexpr._check_keys(out)
    return constexpr._reduced(out, x.den * y.den)


def _pairwise_sum(values):
    total = ConstExpr.zero()
    for v in values:
        total = total + v
    return total


def _pairwise_series_add(a, b):
    """Coefficient dicts added as TruncSeries.__add__ adds them."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _pairwise_series_mul(a, b, to):
    """The coefficients through ``to`` of a * b (coefficient dicts): each
    ring product formed, then added into its coefficient."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if any(x > t for x, t in zip(e, to)):
                continue
            if any(x < series.HARD_MIN_DEGREE for x in e):
                raise SeriesError(f"product exponent {e} below hard floor")
            c = _pairwise_ring_mul(c1, c2)
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _scaled(coeffs, k):
    k = ConstExpr.number(k)
    return {e: _pairwise_ring_mul(c, k) for e, c in coeffs.items()}


def _pairwise_unit_function(kind, variables, w, box):
    """The graded recurrences of (1+w)^-1, exp(w) and log(1+w) with one
    series product per j, each truncated to the box, then added."""
    finite = [i for i, t in enumerate(box) if t < INF_ORDER]
    parts = {}
    for e, c in w.items():
        parts.setdefault(sum(e[i] for i in finite), {})[e] = c
    factors = {j: _scaled(p, j) if kind == "exp" else
               {e: -c for e, c in p.items()} for j, p in parts.items()}
    zero = (0,) * len(variables)
    done = {} if kind == "log" else {0: {zero: ConstExpr.one()}}
    for n in range(1, sum(box[i] for i in finite) + 1):
        acc = _scaled(parts[n], n) if kind == "log" and n in parts else {}
        for j, f in factors.items():
            if n - j in done:
                acc = _pairwise_series_add(
                    acc, _pairwise_series_mul(f, done[n - j], box))
        if kind == "exp":
            acc = _scaled(acc, Fraction(1, n))
        if acc:
            done[n] = acc
    out = {}
    for n, part in done.items():
        out.update(_scaled(part, Fraction(1, n)) if kind == "log" else part)
    return out


def _assert_same(got, want):
    """Equal values over the same denominator, the same JSON."""
    assert got == want
    assert got.den == want.den
    assert got.to_jsonable() == want.to_jsonable()


def _assert_same_coeffs(got, want):
    assert got.keys() == want.keys()
    for e in want:
        _assert_same(got[e], want[e])


# a few monomials and small coefficients, so that keys of different pairs
# meet and cancel often
_MONOMIALS = ({}, {"pi": 1}, {"pi": -1}, {"K": 1}, {"pi": 1, "K": 1},
              {"zeta3": 1, "pi": -2})


def _random_coefficient(rng):
    while True:
        out = ConstExpr.zero()
        for _ in range(rng.randint(1, 3)):
            coef = GRat(Fraction(rng.choice((-2, -1, 1, 2)),
                                 rng.choice((1, 2, 3))),
                        Fraction(rng.choice((0, 0, -1, 1)),
                                 rng.choice((1, 4))))
            out = out + ConstExpr.monomial(coef, **rng.choice(_MONOMIALS))
        if out:
            return out


def _random_series(rng, low):
    """A series in (g, x) with up to six terms, g from ``low`` (down to
    the floor), orders 3 and 2."""
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        coeffs[(rng.randint(low, 3), rng.randint(0, 2))] = \
            _random_coefficient(rng)
    return TruncSeries(("g", "x"), coeffs, (min(low, 0), 0), (3, 2))


def _mirrored(rng, regrow):
    """a = c (g + x) and b = d (g - x): the g*x coefficient of a * b is
    c d - c d, so it cancels as a whole.  With ``regrow``, a also has
    c' g x and b a constant d', whose product is the last pair at g*x:
    that coefficient vanishes after two pairs and grows again."""
    c, d = _random_coefficient(rng), _random_coefficient(rng)
    vs, to = ("g", "x"), (3, 2)
    a = {(1, 0): c, (0, 1): c}
    b = {(1, 0): d, (0, 1): -d}
    if regrow:
        a[(1, 1)] = _random_coefficient(rng)
        b[(0, 0)] = _random_coefficient(rng)
    return TruncSeries(vs, a, None, to), TruncSeries(vs, b, None, to)


def _product_order(a, b):
    """The truncation of a * b: each factor's order plus the other's lead
    exponent."""
    la, lb = a.lead_exponents(), b.lead_exponents()
    return tuple(min(ta + mb, tb + ma) for ta, tb, ma, mb in
                 zip(a.trunc_order, b.trunc_order, la, lb))


def test_series_product_matches_the_pairwise_loop():
    rng = random.Random(3131)
    for i in range(300):
        if i % 3 == 0:
            a, b = _mirrored(rng, regrow=i % 2)
            # a cancelled coefficient is absent, not stored as zero
            assert ((1, 1) in (a * b).coeffs) == bool(i % 2)
        else:
            a = _random_series(rng, rng.choice((-2, -1, 0)))
            b = _random_series(rng, rng.choice((-1, 0)) if i % 2 else 0)
        try:
            want = _pairwise_series_mul(a.coeffs, b.coeffs,
                                        _product_order(a, b))
        except SeriesError:
            with pytest.raises(SeriesError, match="below hard floor"):
                a * b
            continue
        got = a * b
        assert got.trunc_order == _product_order(a, b)
        _assert_same_coeffs(got.coeffs, want)
        assert got.to_jsonable() == TruncSeries(
            got.variables, want, got.min_degree,
            got.trunc_order).to_jsonable()
        assert all(got.coeffs.values())


def test_dot_matches_the_pairwise_sum():
    """_dot of any pairs is the sum of their pairwise products."""
    rng = random.Random(3232)
    for _ in range(300):
        pairs = [(_random_coefficient(rng), _random_coefficient(rng))
                 for _ in range(rng.randint(1, 6))]
        products = [_pairwise_ring_mul(x, y) for x, y in pairs]
        _assert_same(constexpr._dot(pairs), _pairwise_sum(products))
        # the one-pair case is the ring product
        x, y = pairs[0]
        _assert_same(x * y, products[0])


def _plain_coefficient(rng):
    """A sum of up to three of 1, pi and K with coefficients in
    {-1, 1, 2, 1/2, i}: few enough values that the recurrences cancel."""
    while True:
        out = ConstExpr.zero()
        for _ in range(rng.randint(1, 3)):
            out = out + ConstExpr.monomial(
                rng.choice((-1, 1, 2, Fraction(1, 2), GRat(0, 1))),
                **rng.choice(({}, {"pi": 1}, {"K": 1})))
        if out:
            return out


@pytest.mark.parametrize("kind", ["inverse", "exp", "log"])
def test_unit_function_matches_the_pairwise_recurrence(kind):
    rng = random.Random({"inverse": 41, "exp": 42, "log": 43}[kind])
    vs = ("g", "x")
    for i in range(120):
        box = (rng.randint(2, 4), rng.randint(1, 3)) if i % 2 else \
            (rng.randint(3, 5), INF_ORDER)
        w = {}
        for _ in range(rng.randint(2, 6)):
            e = (rng.randint(1, box[0]), rng.randint(0, min(box[1], 2)))
            w[e] = _plain_coefficient(rng) if i % 3 else \
                _random_coefficient(rng)
        got = series._unit_function(kind, vs, w, box)
        _assert_same_coeffs(got, _pairwise_unit_function(kind, vs, w, box))
        assert all(got.values())


def test_public_inverse_exp_log_match_the_pairwise_recurrence():
    """Through the public methods, the kernel's output is unchanged."""
    rng = random.Random(44)
    vs, box = ("g", "x"), (4, 2)
    for _ in range(30):
        w = {e: c for e, c in _random_series(rng, 0).coeffs.items() if any(e)}
        if not w:
            continue
        s = TruncSeries(vs, w, None, box)
        _assert_same_coeffs(
            s.exp().coeffs, _pairwise_unit_function("exp", vs, w, box))
        _assert_same_coeffs(
            (s + 1).log().coeffs, _pairwise_unit_function("log", vs, w, box))
        _assert_same_coeffs((s + 1).inverse().coeffs,
                            _pairwise_unit_function("inverse", vs, w, box))


def test_substitute_matches_the_pairwise_sum():
    """substitute is one _dot over the power groups: the same value as
    one product per group added up."""
    rng = random.Random(45)
    for _ in range(200):
        e = _random_coefficient(rng) * _random_coefficient(rng) + \
            _random_coefficient(rng)
        groups = {}
        for key, pair in e.terms.items():
            k = constexpr._unpack(key)[0]
            # pi is the lowest field of a packed key
            groups.setdefault(k, {})[key - k] = pair
        value = _random_coefficient(rng)
        if min(groups) < 0:
            value = ConstExpr.monomial(GRat(2, -1), K=1)
        want = _pairwise_sum(
            _pairwise_ring_mul(constexpr._make(rest, e.den),
                               value ** k if k > 0 else
                               value.inverse_monomial() ** -k if k < 0 else
                               ConstExpr.one())
            for k, rest in groups.items())
        _assert_same(e.substitute("pi", value), want)


def _pi(k):
    return ConstExpr.monomial(1, pi=k)


def test_series_product_refuses_exponents_outside_the_range():
    """A series product whose ring products leave [EXP_MIN, EXP_MAX]
    raises ValueError, also when the out-of-range terms of two pairs
    cancel each other, as the pairwise products did."""
    g, to = ("g",), (1,)
    top = TruncSeries(g, {(0,): _pi(EXP_MAX)}, None, to)
    bottom = TruncSeries(g, {(0,): _pi(EXP_MIN)}, None, to)
    with pytest.raises(ValueError):
        top * TruncSeries.const(PI, g, to)
    with pytest.raises(ValueError):
        bottom * TruncSeries.const(PI.inverse_monomial(), g, to)
    # g^1: pi^(MAX - 5) pi^6 - pi^MAX pi = 0, both terms out of range;
    # g^0 is pi^(MAX - 4), in range; g^2 lies past the truncation
    a = TruncSeries(g, {(0,): _pi(EXP_MAX - 5), (1,): -_pi(EXP_MAX)},
                    None, to)
    b = TruncSeries(g, {(1,): _pi(6), (0,): _pi(1)}, None, to)
    with pytest.raises(ValueError):
        a * b
    # the same shape in range: g^1 cancels and is absent
    a = TruncSeries(g, {(0,): _pi(10), (1,): -_pi(15)}, None, to)
    assert (a * b).coeffs == {(0,): _pi(11)}
    # a graded recurrence squares its term: pi^MAX leaves the range
    with pytest.raises(ValueError):
        TruncSeries(g, {(1,): _pi(EXP_MAX)}, None, (2,)).exp()


def test_dot_refuses_cancelling_terms_outside_the_range():
    pairs = [(_pi(EXP_MAX - 5), _pi(6)), (-_pi(EXP_MAX), _pi(1))]
    with pytest.raises(ValueError):
        constexpr._dot(pairs)
    assert constexpr._dot([(_pi(10), _pi(6)), (-_pi(15), _pi(1))]) == 0


def test_equal_values_built_in_any_order_evaluate_to_the_same_bits():
    """eval_mp depends only on the value: a ConstExpr summed from the
    same monomials forwards and backwards, a series and a transseries with
    their coefficients inserted in the two orders, all give bit-identical
    60-digit values, though the dicts hold their keys in different
    orders."""
    rng = random.Random(3301)
    assignment = {"K": Fraction(3, 7)}
    reordered = 0
    for _ in range(300):
        monomials = [ConstExpr.monomial(
            GRat(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                 Fraction(rng.randint(-3, 3), rng.randint(1, 5))),
            **{name: rng.randint(-2, 3) for name in
               rng.sample(("pi", "gamma", "zeta3", "K"), 2)})
            for _ in range(6)]
        forwards = _pairwise_sum(monomials)
        backwards = _pairwise_sum(reversed(monomials))
        assert forwards == backwards
        reordered += list(forwards.terms) != list(backwards.terms)
        assert forwards.eval_mp(assignment) == backwards.eval_mp(assignment)

        coeffs = {(k,): _random_coefficient(rng) for k in range(5)}
        a = TruncSeries(("g",), coeffs, None, (4,))
        b = TruncSeries(("g",), dict(reversed(coeffs.items())), None, (4,))
        assert a == b and list(a.coeffs) != list(b.coeffs)
        g = Fraction(rng.randint(1, 9), 10)
        assert a.eval_mp({"g": g}, assignment) == \
            b.eval_mp({"g": g}, assignment)
        sectors = {2 * l: a.shift("g", l) for l in range(3)}
        ts = [Transseries(dict(items), 0, "scattering")
              for items in (sectors.items(), reversed(sectors.items()))]
        assert ts[0].eval_mp(g, assignment) == ts[1].eval_mp(g, assignment)
    assert reordered > 200
