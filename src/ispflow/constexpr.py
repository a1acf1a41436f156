"""Exact constants ring.

A ``ConstExpr`` is a Laurent polynomial in a fixed set of transcendental
generators with Gaussian-rational coefficients.  The generators are treated
as algebraically independent; nothing is ever rewritten between them except
through explicit substitution.  All symbolic derivations in this package
(running-coupling tables, beta transseries, cross-sector expansions) use
this ring as their coefficient field, so every printed table entry is exact.

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

import json
from fractions import Fraction
from math import factorial, gcd
from operator import add

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_rational

# digits of every numeric evaluation that is not given its own precision
DEFAULT_DPS = 60

GENERATORS = ("pi", "gamma", "zeta3", "zeta5", "zeta7", "zeta9", "zeta11",
              "zeta13", "zeta15", "zeta17", "zeta19", "K", "n", "L", "lam",
              "shat")
_GIDX = {g: i for i, g in enumerate(GENERATORS)}
_NGEN = len(GENERATORS)
_ZERO_EXP = (0,) * _NGEN
_new = object.__new__

# zeta generators by odd argument, for the psi display map
_ZETA_ARG = {"zeta3": 3, "zeta5": 5, "zeta7": 7, "zeta9": 9, "zeta11": 11,
             "zeta13": 13, "zeta15": 15, "zeta17": 17, "zeta19": 19}


class GRat:
    """Gaussian rational ``(a + b*i)/d`` over one integer denominator.

    Stored in normal form: ``d > 0``, ``gcd(a, b, d) == 1``, zero is
    ``(0, 0, 1)``.  Each ring operation builds its result with integer
    arithmetic and a single gcd; ``re`` and ``im`` are read-only Fraction
    views of the two parts.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if not isinstance(re, (int, Fraction)):
            re = Fraction(re)
        if not isinstance(im, (int, Fraction)):
            im = Fraction(im)
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

    def __add__(self, other):
        if not isinstance(other, GRat):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GRat(other)
        d, f = self._d, other._d
        if d == f:
            return _grat(self._a + other._a, self._b + other._b, d)
        return _grat(self._a * f + other._a * d, self._b * f + other._b * d,
                     d * f)

    __radd__ = __add__

    def __neg__(self):
        return _normal(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if not isinstance(other, GRat):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GRat(other)
        return self + (-other)

    def __rsub__(self, other):
        return as_grat(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, GRat):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GRat(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if not b and not e:
            n = a * c
            g = gcd(n, d)
            return _normal(n // g, 0, d // g)
        return _grat(a * c - b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def inverse(self):
        a, b = self._a, self._b
        if not a and not b:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        # d/(a + b i) = d (a - b i)/(a^2 + b^2)
        return _grat(self._d * a, -self._d * b, a * a + b * b)

    def __truediv__(self, other):
        if not isinstance(other, GRat):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GRat(other)
        return self * other.inverse()

    def conjugate(self):
        return _normal(self._a, -self._b, self._d)

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
    """Exact Laurent polynomial over the generator set with GRat coefficients.

    Stored in canonical form: a dict mapping exponent vectors (tuples over
    GENERATORS, negative powers allowed) to nonzero GRat coefficients.
    Equality is structural on this form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def number(cls, re, im=0) -> "ConstExpr":
        c = GRat(re, im)
        return cls({_ZERO_EXP: c}) if c else cls()

    @classmethod
    def generator(cls, name: str, power: int = 1) -> "ConstExpr":
        e = [0] * _NGEN
        e[_GIDX[name]] = power
        return cls({tuple(e): ONE_G})

    @classmethod
    def monomial(cls, coef, **powers) -> "ConstExpr":
        e = [0] * _NGEN
        for name, p in powers.items():
            e[_GIDX[name]] = p
        c = coef if isinstance(coef, GRat) else GRat(coef)
        return cls({tuple(e): c}) if c else cls()

    @classmethod
    def zero(cls) -> "ConstExpr":
        return cls()

    @classmethod
    def one(cls) -> "ConstExpr":
        return cls.number(1)

    @classmethod
    def psi(cls, m: int, coef=1) -> "ConstExpr":
        """psi^(m)(1) for even m >= 2, stored as a zeta-basis monomial."""
        if m % 2 or m < 2 or m > 18:
            raise ValueError(f"psi^({m})(1) not supported")
        zeta_name = f"zeta{m + 1}"
        factor = Fraction((-1) ** (m + 1) * factorial(m))
        return cls.monomial(GRat(factor) * as_grat(coef), **{zeta_name: 1})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GRat)):
            other = ConstExpr({_ZERO_EXP: as_grat(other)})
        if not isinstance(other, ConstExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        _add_into(out, _coerce(other).terms)
        return _from_terms(out)

    __radd__ = __add__

    def __neg__(self):
        return _from_terms({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other).terms
        out = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                s = get(e)
                if s is not None:
                    c = s + c
                    if not c:
                        del out[e]
                        continue
                out[e] = c
        return _from_terms(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse_monomial() ** (-k)
        out = ConstExpr.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def scalar_mul(self, c) -> "ConstExpr":
        c = as_grat(c)
        if not c:
            return ConstExpr()
        return _from_terms({e: v * c for e, v in self.terms.items()})

    def inverse_monomial(self) -> "ConstExpr":
        """Exact inverse, defined only for a single-term expression."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible exactly")
        (e, c), = self.terms.items()
        return _from_terms({tuple(-x for x in e): c.inverse()})

    def conjugate(self) -> "ConstExpr":
        """Complex conjugate assuming all generators are real-valued."""
        return _from_terms({e: c.conjugate() for e, c in self.terms.items()})

    def real_part(self) -> "ConstExpr":
        return ConstExpr({e: GRat(c.re) for e, c in self.terms.items() if c.re})

    def imag_part(self) -> "ConstExpr":
        return ConstExpr({e: GRat(c.im) for e, c in self.terms.items() if c.im})

    # -- substitution and evaluation -------------------------------------

    def substitute(self, name: str, value) -> "ConstExpr":
        """Exact substitution of a generator by a ConstExpr or Gaussian rational.

        Terms are grouped by the power ``k`` of the generator, so each
        ``value**k`` is built once and multiplies its whole group.
        """
        idx = _GIDX[name]
        value = _coerce(value)
        groups = {}
        for e, c in self.terms.items():
            k = e[idx]
            groups.setdefault(k, {})[e[:idx] + (0,) + e[idx + 1:]] = c
        out = {}
        for k, rest in groups.items():
            part = _from_terms(rest)
            if k:
                part = part * (value ** k if k > 0
                               else value.inverse_monomial() ** (-k))
            _add_into(out, part.terms)
        return _from_terms(out)

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
            for i, k in enumerate(e):
                if k:
                    used.add(GENERATORS[i])
        return used

    # -- display ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            gens = "*".join(
                (GENERATORS[i] if k == 1 else f"{GENERATORS[i]}^{k}")
                for i, k in enumerate(e) if k)
            if not gens:
                parts.append(repr(c))
            elif c == ONE_G:
                parts.append(gens)
            elif c == GRat(-1):
                parts.append(f"-{gens}")
            else:
                parts.append(f"{c!r}*{gens}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__

    def to_psi_terms(self):
        """Rewrite zeta monomials into psi^(2k)(1) powers.

        Returns a list of (GRat coefficient, psi-power dict, other-generator
        exponent dict).  Exact: zeta(m+1) = (-1)^(m+1) psi^(m)(1) / m!.
        """
        out = []
        for e, c in self.sorted_terms():
            psi_pows = {}
            coef = c
            rest = {}
            for i, k in enumerate(e):
                if not k:
                    continue
                name = GENERATORS[i]
                if name in _ZETA_ARG:
                    m = _ZETA_ARG[name] - 1
                    if k < 0:
                        raise ValueError("negative zeta power has no psi form")
                    coef = coef * GRat(Fraction((-1) ** (m + 1),
                                                factorial(m)) ** k)
                    psi_pows[m] = psi_pows.get(m, 0) + k
                else:
                    rest[name] = k
            out.append((coef, psi_pows, rest))
        return out

    def str_psi(self) -> str:
        """Human-readable string in the psi^(2k)(1) display basis."""
        terms = self.to_psi_terms()
        if not terms:
            return "0"
        parts = []
        for coef, psi_pows, rest in terms:
            factors = []
            for name, k in rest.items():
                factors.append(name if k == 1 else f"{name}^{k}")
            for m in sorted(psi_pows):
                k = psi_pows[m]
                base = f"psi{m}(1)"
                factors.append(base if k == 1 else f"{base}^{k}")
            body = "*".join(factors)
            if not body:
                parts.append(repr(coef))
            elif coef == ONE_G:
                parts.append(body)
            elif coef == GRat(-1):
                parts.append(f"-{body}")
            else:
                parts.append(f"{coef!r}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def eval_psi_mp(self, assignment: dict | None = None):
        """Evaluate the psi-basis form numerically (via mpmath polygamma).

        Independent route from eval_mp: used to verify the display map.
        """
        assignment = assignment or {}
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

    @classmethod
    def from_jsonable(cls, data) -> "ConstExpr":
        terms = {}
        for e, (re_s, im_s) in data:
            terms[tuple(e)] = GRat(Fraction(re_s), Fraction(im_s))
        return cls(terms)

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, s: str) -> "ConstExpr":
        return cls.from_jsonable(json.loads(s))


class GeneratorValues:
    """The numbers of one evaluation at ``dps`` digits.

    Used as ``with GeneratorValues(assignment, dps) as values:``, which
    works at ``dps`` digits inside the block.  ``values[name]`` is the only
    map from generator names to numbers: pi, gamma and zeta(3..19) by
    default, the rest from the assignment (which may override any).
    ``values(expr)`` is a ConstExpr's mpc value.  Each value and each power
    of it is built once, when first used."""

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
        prec, powers = self._prec, self._powers
        total = mp.mpc(0)
        for e, c in expr.terms.items():
            # c correctly rounded to the working precision
            term = mp.make_mpc((from_rational(c._a, c._d, prec, "n"),
                                from_rational(c._b, c._d, prec, "n")))
            for i, k in enumerate(e):
                if k:
                    v = powers.get((i, k))
                    if v is None:
                        v = powers[(i, k)] = self[GENERATORS[i]] ** k
                    term *= v
            total += term
        return total


def _from_terms(terms) -> ConstExpr:
    """A ConstExpr over ``terms``, which must hold no zero coefficient."""
    z = _new(ConstExpr)
    z.terms = terms
    return z


def _add_into(out, terms):
    """Add ``terms`` into the term dict ``out`` in place, dropping zeros."""
    for e, c in terms.items():
        s = out.get(e)
        if s is not None:
            c = s + c
            if not c:
                del out[e]
                continue
        out[e] = c


def _coerce(x) -> ConstExpr:
    if isinstance(x, ConstExpr):
        return x
    if isinstance(x, (int, Fraction, GRat)):
        c = as_grat(x)
        return ConstExpr({_ZERO_EXP: c}) if c else ConstExpr()
    raise TypeError(f"cannot coerce {type(x).__name__} to ConstExpr")


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


# convenience handles used across the derivation modules
PI = ConstExpr.generator("pi")
GAMMA = ConstExpr.generator("gamma")
ZETA3 = ConstExpr.generator("zeta3")
K_GEN = ConstExpr.generator("K")
N_GEN = ConstExpr.generator("n")
L_GEN = ConstExpr.generator("L")
