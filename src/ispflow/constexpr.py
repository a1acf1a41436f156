"""Exact constants ring.

A ``ConstExpr`` is a Laurent polynomial in a fixed set of transcendental
generators with Gaussian-rational coefficients.  The generators are treated
as algebraically independent; nothing is ever rewritten between them except
through explicit substitution.  All symbolic derivations in this package
(running-coupling tables, beta transseries, cross-sector expansions) use
this ring as their coefficient field, so every printed table entry is exact.

A ``ConstExpr`` keeps all its coefficients over one shared denominator:
integer ``(re, im)`` numerator pairs per term and one integer ``den``, in
a canonical form (see the class).  Every product is a fused dot product,
``_dot``: the sum of ``x * y`` over many pairs is integer arithmetic over
the lcm of the pairs' denominators and one content gcd, and ``x * y`` is
its one-pair case, so a series coefficient or a substitution reduces once,
not once per product and again per sum.  A sum rescales to the lcm of the
denominators and needs the content gcd only when the two operands share a
key.  ``GRat`` is the
single-coefficient value that display and serialization hand out and
that the ring takes as a coefficient; it does no arithmetic of its own,
so all Gaussian-rational arithmetic is the ring's.

Generators
----------
pi      : the circle constant
gamma   : Euler-Mascheroni constant
zeta3.. : odd zeta values zeta(3) through zeta(19)
K       : half-tangent of the shifted phase shift, (1/2) tan(delta + pi/4)
n       : level label (odd integer 2b+1 on branch b), kept formal
L       : (1/pi) ln(Lambda_IR / p)
lam     : ln(Lambda / p), used by the scattering phase condition
shat    : the momentum ratio p / Lambda_IR, formal in the cross-sector map

Polygamma values psi^(2k)(1) are display-only; they are stored in the
zeta basis via psi^(m)(1) = (-1)^(m+1) m! zeta(m+1).
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import factorial, gcd, lcm

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_rational

# digits of every numeric evaluation that is not given its own precision
DEFAULT_DPS = 60

# the zeta ladder, odd arguments; Arg Gamma(1+ig) needs zeta(k) at g^k
ZETA_ARGS = tuple(range(3, 20, 2))
GENERATORS = ("pi", "gamma", *(f"zeta{k}" for k in ZETA_ARGS), "K", "n", "L",
              "lam", "shat")
_GIDX = {g: i for i, g in enumerate(GENERATORS)}
_NGEN = len(GENERATORS)
_new = object.__new__

# A term's exponent vector (e_0, e_1, ...) over GENERATORS is stored as
# one int, the key sum(e_i << (_W * i)): a signed W-bit digit per
# generator, so negative powers work.  A monomial product is then k1 + k2
# and an inverse is -k.  Exponents lie in [EXP_MIN, EXP_MAX], half of what
# a field holds, so the sum of two keys never carries between fields and
# a sum that leaves the range shows in the field's top (guard) bit.  The
# ring raises ValueError for any exponent outside the range.
_W = 32
EXP_MAX = (1 << (_W - 2)) - 1
EXP_MIN = -1 << (_W - 2)
_ZERO_EXP = 0
# _OFFSET maps [EXP_MIN, EXP_MAX] onto [0, 2^(W-1)) in each field, below
# the field's guard bit in _GUARD
_OFFSET = sum(1 << (_W * i + _W - 2) for i in range(_NGEN))
_GUARD = _OFFSET << 1
_NBYTES = _W * _NGEN // 8
_FIELDS = struct.Struct(f"<{_NGEN}i")     # "i": a signed field of _W = 32 bits

# zeta generators by odd argument, for the psi display map
_ZETA_ARG = {f"zeta{k}": k for k in ZETA_ARGS}


class GRat:
    """Gaussian rational ``(a + b*i)/d`` over one integer denominator.

    Stored in normal form: ``d > 0``, ``gcd(a, b, d) == 1``, zero is
    ``(0, 0, 1)``; ``re`` and ``im`` are read-only Fraction views of the
    two parts, which must be ints or Fractions (TypeError otherwise: a
    float or string is not an exact number).  A GRat is a value to read,
    compare, hash, print and hand to the ring as a coefficient; it defines
    no arithmetic, which is all done in ConstExpr
    (``ConstExpr.number(re, im)`` lifts one into it).
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"a Gaussian rational takes ints and "
                                f"Fractions, not {type(part).__name__}")
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # with both parts reduced, the lcm of their denominators is normal
        d = q * s // gcd(q, s)
        self._a = p * (d // q)
        self._b = r * (d // s)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __bool__(self):
        return bool(self._a) or bool(self._b)

    def __eq__(self, other):
        if isinstance(other, GRat):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        if not self._b:
            # equal to an int or Fraction, so hash like one
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        return f"({re}{'+' if im >= 0 else '-'}{abs(im)}i)"

    def to_mp(self):
        re, im = self.re, self.im
        return mp.mpc(mp.mpf(re.numerator) / re.denominator,
                      mp.mpf(im.numerator) / im.denominator)


def _normal(a, b, d) -> GRat:
    """A GRat from parts already in normal form."""
    z = _new(GRat)
    z._a = a
    z._b = b
    z._d = d
    return z


def _grat(a, b, d) -> GRat:
    """A GRat from any integer parts with ``d != 0``: one gcd."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _normal(a, b, d)


def as_grat(x) -> GRat:
    if isinstance(x, GRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GRat(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Gaussian rational")


ONE_G = GRat(1)


class ConstExpr:
    """Exact Laurent polynomial over the generator set with Gaussian-rational
    coefficients.

    Stored as ``(terms, den)``: ``terms`` maps packed exponent keys (one int
    per exponent vector over GENERATORS, negative powers allowed) to integer
    ``(re, im)`` numerator pairs, and ``den`` is the one denominator they
    share, so the term at key ``e`` is ``(re + im*i)/den``.  The form is
    canonical: ``den > 0``, no ``(0, 0)`` pair, ``gcd(den, every part) ==
    1``, and zero is ``({}, 1)``; equality is structural on it.  Products
    and real or imaginary parts divide out the content gcd; a sum does only
    when its operands share a key, since a sum with no shared key is
    canonical as it stands.  The constructor takes exponent tuples and
    exact numbers; ``sorted_terms()`` gives the tuples and GRat
    coefficients back.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms=None):
        coefs = {_pack(e): as_grat(c) for e, c in (terms or {}).items() if c}
        # each GRat is in normal form, so over the lcm of their
        # denominators no prime divides the lcm and every part
        den = lcm(*(c._d for c in coefs.values()))
        self.terms = {e: (c._a * (den // c._d), c._b * (den // c._d))
                      for e, c in coefs.items()}
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def number(cls, re, im=0) -> "ConstExpr":
        return _single(_ZERO_EXP, GRat(re, im))

    @classmethod
    def generator(cls, name: str) -> "ConstExpr":
        return _make({1 << (_W * _GIDX[name]): (1, 0)}, 1)

    @classmethod
    def monomial(cls, coef, **powers) -> "ConstExpr":
        key = 0
        for name, p in powers.items():
            key += _checked(p) << (_W * _GIDX[name])
        return _single(key, coef if isinstance(coef, GRat) else GRat(coef))

    @classmethod
    def zero(cls) -> "ConstExpr":
        return _make({}, 1)

    @classmethod
    def one(cls) -> "ConstExpr":
        return cls.number(1)

    @classmethod
    def psi(cls, m: int, coef=1) -> "ConstExpr":
        """psi^(m)(1) for even m >= 2, stored as a zeta-basis monomial."""
        if m + 1 not in ZETA_ARGS:
            raise ValueError(f"psi^({m})(1) not supported")
        return cls.monomial(as_grat(coef), **{f"zeta{m + 1}": 1}).scalar_mul(
            (-1) ** (m + 1) * factorial(m))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, ConstExpr):
            if not isinstance(other, (int, Fraction, GRat)):
                return NotImplemented
            other = _coerce(other)
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and _ZERO_EXP in terms:
            # equal to its GRat, which hashes like its int or Fraction
            return hash(_normal(*terms[_ZERO_EXP], self.den))
        return hash((frozenset(terms.items()), self.den))

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ConstExpr):
            other = _coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        d, f = self.den, other.den
        g = gcd(d, f)
        u, v = f // g, d // g
        if u == 1:
            out = dict(self.terms)
        else:
            # a loop, not a comprehension: most sums have only a few terms
            out = {}
            for e, (a, b) in self.terms.items():
                out[e] = (a * u, b * u)
        get = out.get
        collided = False
        for e, (a, b) in other.terms.items():
            if v != 1:
                a *= v
                b *= v
            s = get(e)
            if s is None:
                out[e] = (a, b)
                continue
            collided = True
            a += s[0]
            b += s[1]
            if a or b:
                out[e] = (a, b)
            else:
                del out[e]
        # with no key shared, the sum is canonical as it stands: a prime
        # dividing the lcm d*u and every part would divide d and all of
        # self's parts, or f and all of other's parts
        if collided:
            return _reduced(out, d * u)
        return _make(out, d * u)

    __radd__ = __add__

    def __neg__(self):
        return _make({e: (-a, -b) for e, (a, b) in self.terms.items()},
                     self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, ConstExpr):
            other = _coerce(other)
        return _dot(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        # no range check of its own: an exponent of the power is at most k
        # times an extreme one, and the products below reach that bound
        # (leading terms never cancel), so their check refuses exactly the
        # powers that leave the range
        if k < 0:
            return self.inverse_monomial() ** (-k)
        if k == 0:
            return ConstExpr.one()
        return _power(self, k)

    def scalar_mul(self, c) -> "ConstExpr":
        c = as_grat(c)
        if not c:
            return ConstExpr()
        p, q = c._a, c._b
        return _reduced({e: (a * p - b * q, a * q + b * p)
                         for e, (a, b) in self.terms.items()},
                        self.den * c._d)

    def inverse_monomial(self) -> "ConstExpr":
        """Exact inverse, defined only for a single-term expression."""
        if not self.terms:
            raise ZeroDivisionError("inverse of zero")
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible exactly")
        (e, (a, b)), = self.terms.items()
        _check_keys((-e,))
        # den/(a + b i) = den (a - b i)/(a^2 + b^2)
        return _single(-e, _grat(self.den * a, -self.den * b, a * a + b * b))

    def conjugate(self) -> "ConstExpr":
        """Complex conjugate assuming all generators are real-valued."""
        return _make({e: (a, -b) for e, (a, b) in self.terms.items()},
                     self.den)

    def real_part(self) -> "ConstExpr":
        return _reduced({e: (a, 0) for e, (a, b) in self.terms.items() if a},
                        self.den)

    def imag_part(self) -> "ConstExpr":
        return _reduced({e: (b, 0) for e, (a, b) in self.terms.items() if b},
                        self.den)

    # -- substitution and evaluation -------------------------------------

    def substitute(self, name: str, value) -> "ConstExpr":
        """Exact substitution of a generator by a ConstExpr or Gaussian rational.

        Terms are grouped by the power ``k`` of the generator, so each
        ``value**k`` is built once, and the sum over the groups of group
        times power is one ``_dot``.
        """
        idx = _GIDX[name]
        shift = _W * idx
        value = _coerce(value)
        groups = {}
        for e, c in self.terms.items():
            k = _unpack(e)[idx]
            groups.setdefault(k, {})[e - (k << shift)] = c
        if groups.keys() <= {0}:
            return self             # the generator does not occur
        one = ConstExpr.one()
        return _dot([(_make(rest, self.den),
                      value ** k if k > 0 else
                      value.inverse_monomial() ** -k if k else one)
                     for k, rest in groups.items()])

    def eval_mp(self, assignment: dict | None = None,
                dps: int = DEFAULT_DPS):
        """Evaluate to an mpmath complex at ``dps`` digits, whatever the
        global precision.  ``assignment`` supplies values for K, n, L, lam
        as needed; the transcendental generators take their true values."""
        with GeneratorValues(assignment, dps) as values:
            return values(self)

    def generators_used(self):
        used = set()
        for e in self.terms:
            for i, k in enumerate(_unpack(e)):
                if k:
                    used.add(GENERATORS[i])
        return used

    # -- display ----------------------------------------------------------

    def sorted_terms(self):
        """The terms as (exponent tuple, GRat) pairs, sorted by tuple."""
        den = self.den
        return sorted((_unpack(e), _grat(a, b, den))
                      for e, (a, b) in self.terms.items())

    def __str__(self):
        return _format_terms(
            (c, [(GENERATORS[i], k) for i, k in enumerate(e) if k])
            for e, c in self.sorted_terms())

    __repr__ = __str__

    def to_psi_terms(self):
        """Rewrite zeta monomials into psi^(2k)(1) powers.

        Returns a list of (GRat coefficient, psi-power dict, other-generator
        exponent dict).  Exact: zeta(m+1) = (-1)^(m+1) psi^(m)(1) / m!.
        """
        out = []
        for e, c in self.sorted_terms():
            psi_pows = {}
            scale = Fraction(1)
            rest = {}
            for i, k in enumerate(e):
                if not k:
                    continue
                name = GENERATORS[i]
                if name in _ZETA_ARG:
                    m = _ZETA_ARG[name] - 1
                    if k < 0:
                        raise ValueError("negative zeta power has no psi form")
                    scale *= Fraction((-1) ** (m + 1), factorial(m)) ** k
                    psi_pows[m] = psi_pows.get(m, 0) + k
                else:
                    rest[name] = k
            p, q = scale.numerator, scale.denominator
            out.append((_grat(c._a * p, c._b * p, c._d * q), psi_pows, rest))
        return out

    def str_psi(self) -> str:
        """Human-readable string in the psi^(2k)(1) display basis."""
        return _format_terms(
            (coef, [*rest.items(),
                    *((f"psi{m}(1)", psi_pows[m]) for m in sorted(psi_pows))])
            for coef, psi_pows, rest in self.to_psi_terms())

    def eval_psi_mp(self, assignment: dict | None = None):
        """Evaluate the psi-basis form numerically (via mpmath polygamma).

        Independent route from eval_mp: used to verify the display map.
        Works at DEFAULT_DPS digits, whatever the global precision.
        """
        assignment = assignment or {}
        with mp.workdps(DEFAULT_DPS):
            total = mp.mpc(0)
            for coef, psi_pows, rest in self.to_psi_terms():
                term = coef.to_mp()
                for m, k in psi_pows.items():
                    term *= mp.psi(m, 1) ** k
                for name, k in rest.items():
                    if name == "pi":
                        v = +mp.pi
                    elif name == "gamma":
                        v = +mp.euler
                    else:
                        v = mp.mpmathify(assignment[name])
                    term *= v ** k
                total += term
        return total

    # -- serialization ------------------------------------------------------

    def to_jsonable(self):
        return [[list(e), [_frac_str(c.re), _frac_str(c.im)]]
                for e, c in self.sorted_terms()]


class GeneratorValues:
    """The numbers of one evaluation at ``dps`` digits.

    Used as ``with GeneratorValues(assignment, dps) as values:``, which
    works at ``dps`` digits inside the block.  ``values[name]`` is the only
    map from generator names to numbers: pi, gamma and zeta(3..19) by
    default, the rest from the assignment (which may override any).
    ``values(expr)`` is a ConstExpr's mpc value, its terms added in key
    order, so equal ConstExprs give the same bits however they were built.
    Each value and each power of it is built once, when first used."""

    def __init__(self, assignment: dict | None = None,
                 dps: int = DEFAULT_DPS):
        self._assignment = assignment or {}
        self._workdps = mp.workdps(dps)
        self._prec = dps_to_prec(dps)
        self._values = {}       # generator name -> value
        self._powers = {}       # (generator index, exponent) -> power

    def __getitem__(self, name: str):
        v = self._values.get(name)
        if v is None:
            if name in self._assignment:
                v = mp.mpmathify(self._assignment[name])
            elif name == "pi":
                v = +mp.pi
            elif name == "gamma":
                v = +mp.euler
            elif name in _ZETA_ARG:
                v = mp.zeta(_ZETA_ARG[name])
            else:
                raise ValueError(f"no value supplied for generator '{name}'")
            self._values[name] = v
        return v

    def __enter__(self):
        self._workdps.__enter__()
        return self

    def __exit__(self, *exc):
        return self._workdps.__exit__(*exc)

    def __call__(self, expr: ConstExpr):
        prec, powers, den = self._prec, self._powers, expr.den
        total = mp.mpc(0)
        for e, (a, b) in sorted(expr.terms.items()):
            # the coefficient correctly rounded to the working precision
            term = mp.make_mpc((from_rational(a, den, prec, "n"),
                                from_rational(b, den, prec, "n")))
            for i, k in enumerate(_unpack(e)):
                if k:
                    v = powers.get((i, k))
                    if v is None:
                        v = powers[(i, k)] = self[GENERATORS[i]] ** k
                    term *= v
            total += term
        return total


def _checked(p: int) -> int:
    """``p`` if it lies in the exponent range, else ValueError."""
    if not EXP_MIN <= p <= EXP_MAX:
        raise ValueError(f"exponent {p} outside [{EXP_MIN}, {EXP_MAX}]")
    return p


def _check_keys(keys):
    """ValueError unless every exponent of every key lies in the range.

    Each key must be a sum or negation of keys in range, so that each of
    its fields is exact; a field is in range exactly when adding _OFFSET
    leaves its guard bit clear."""
    offset, guard = _OFFSET, _GUARD
    for key in keys:
        if (key + offset) & guard:
            raise ValueError(f"a product or inverse has an exponent outside "
                             f"[{EXP_MIN}, {EXP_MAX}]")


def _pack(e) -> int:
    """The packed key of an exponent tuple over GENERATORS."""
    if len(e) != _NGEN:
        raise ValueError(f"exponent tuple of length {len(e)}, not {_NGEN}")
    key = 0
    for i, p in enumerate(e):
        key += _checked(p) << (_W * i)
    return key


def _unpack(key: int) -> tuple:
    """The exponent tuple over GENERATORS of a packed key."""
    # adding _GUARD makes each field non-negative with no borrow between
    # fields; XOR with it again leaves the field's two's complement
    return _FIELDS.unpack(((key + _GUARD) ^ _GUARD).to_bytes(_NBYTES,
                                                              "little"))


def _make(terms, den) -> ConstExpr:
    """A ConstExpr over ``terms`` and ``den`` as they are: canonical, or an
    operand of a product, which divides out the content gcd."""
    z = _new(ConstExpr)
    z.terms = terms
    z.den = den
    return z


def _reduced(terms, den) -> ConstExpr:
    """The canonical ConstExpr over ``terms`` and ``den > 0``, where
    ``terms`` holds no (0, 0) pair: the content gcd divided out."""
    g = den
    for a, b in terms.values():
        if g == 1:
            break
        g = gcd(g, a, b)
    if g != 1:
        terms = {e: (a // g, b // g) for e, (a, b) in terms.items()}
        den //= g
    return _make(terms, den)


def _dot(pairs) -> ConstExpr:
    """The canonical sum of ``x * y`` over a sequence of ConstExpr
    ``pairs``: one common denominator, one content gcd.

    Each pair's numerators are scaled to the lcm of the ``x.den * y.den``
    (one pair needs no lcm) and accumulated in one dict.  Every key formed
    is range-checked, cancelled or not, since out-of-range terms of two
    pairs can cancel.  The order of the terms carries no meaning:
    ``eval_mp`` adds them in key order.
    """
    if len(pairs) == 1:
        x, y = pairs[0]
        den = x.den * y.den
    else:
        dens = [x.den * y.den for x, y in pairs]
        den = lcm(*dens)
        # x over the denominator den // y.den, so that x.den * y.den == den
        pairs = [(x, y) if d == den else
                 (_make({e: (a * (den // d), b * (den // d))
                         for e, (a, b) in x.terms.items()}, den // y.den), y)
                 for (x, y), d in zip(pairs, dens)]
    out = {}
    setdefault = out.setdefault
    cancelled = ()
    for x, y in pairs:
        terms = y.terms.items()
        for e1, (a, b) in x.terms.items():
            for e2, (c, d) in terms:
                e = e1 + e2
                if b:
                    t = (a * c - b * d, a * d + b * c)
                else:
                    t = (a * c, a * d)
                # one lookup stores a new key; an old one is summed
                s = setdefault(e, t)
                if s is not t:
                    re = s[0] + t[0]
                    im = s[1] + t[1]
                    if re or im:
                        out[e] = (re, im)
                    else:
                        del out[e]
                        cancelled += (e,)
    _check_keys(out)
    if cancelled:
        _check_keys(cancelled)
    return _reduced(out, den)


def _single(key, c: GRat) -> ConstExpr:
    """The one-term ConstExpr ``c`` times the monomial ``key``: a GRat's
    normal form is the canonical form of one term."""
    return _make({key: (c._a, c._b)}, c._d) if c else _make({}, 1)


def _power(base, k: int):
    """``base ** k`` for ``k >= 1`` by square-and-multiply: floor(log2 k)
    squarings and popcount(k) - 1 further products, for any type with
    ``*``."""
    out = None
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _coerce(x) -> ConstExpr:
    if isinstance(x, ConstExpr):
        return x
    if isinstance(x, (int, Fraction, GRat)):
        return _single(_ZERO_EXP, as_grat(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to ConstExpr")


def _format_terms(terms) -> str:
    """``c*x + ...`` from (GRat coefficient, [(factor name, power)]) pairs,
    or "0" if there are none: the one format of both display bases."""
    parts = []
    for c, factors in terms:
        body = "*".join(name if k == 1 else f"{name}^{k}"
                        for name, k in factors)
        if not body:
            parts.append(repr(c))
        elif c == ONE_G:
            parts.append(body)
        elif c == GRat(-1):
            parts.append(f"-{body}")
        else:
            parts.append(f"{c!r}*{body}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


# generator handles: the derivation modules use PI, the tests the rest
PI = ConstExpr.generator("pi")
GAMMA = ConstExpr.generator("gamma")
ZETA3 = ConstExpr.generator("zeta3")
K_GEN = ConstExpr.generator("K")
N_GEN = ConstExpr.generator("n")
L_GEN = ConstExpr.generator("L")
