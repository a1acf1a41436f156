"""Truncated multivariate power series with exact ConstExpr coefficients.

A ``TruncSeries`` is a Laurent-capable formal series in named small
variables (g, xi, rho, sigma, ...).  Each instance carries, per variable,
a hard lower-degree floor ``min_degree`` (capped at -2: only the coth pole
and the transseries derivative ever need negative powers) and an inclusive
truncation order ``trunc_order``.  Arithmetic propagates truncation
metadata conservatively, so a coefficient is stored only when it is
actually determined by the inputs.

A series product groups its term pairs by output exponent and forms each
coefficient as one ring dot product (``_products`` over ``constexpr._dot``):
one common denominator and one content gcd per coefficient, and no ring
product for a pair past the truncation.

Inverse, exp and log share one kernel (``_unit_function``): the first-order
coefficient recurrences of (1+w)^-1, exp(w) and log(1+w) over the parts of
w of equal total degree in the finitely truncated variables.  Each step
sum_j w_j b_(n-j) is one ``_products`` call over all its series products,
so only the terms inside the box are formed.

``lagrange_coefficients`` (Lagrange-Buermann inversion) solves
y = t phi(y) in closed form for reversion, the coupling tables and the
flow-ODE unit.  The transseries sectors do not come through here: their
rational prefactors R_l = (1/l) [y^k] exp(-l log a(y)), k = (l-1)/2,
carry no generator (the profile eta has rational coefficients in s = ig,
and conj eta(g) = eta(-g) for real g), so ``expansions`` runs that stage
over Q in dense integer polynomials and lifts it into the ring once.
There are no tables
of elementary functions: their users build them from exp and log, e.g.
tan w = Im e^(iw) / Re e^(iw) and arctan w = Im log(1 + iw) for real w.

Truncation orders are explicit everywhere; there is no global default.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le

import mpmath as mp

from .constexpr import (DEFAULT_DPS, ConstExpr, GeneratorValues, GRat,
                        _coerce, _dot, _power)

INF_ORDER = 10 ** 9  # sentinel: exact in this variable (polynomial)

HARD_MIN_DEGREE = -2


class SeriesError(ValueError):
    pass


class TruncSeries:
    __slots__ = ("variables", "coeffs", "min_degree", "trunc_order")

    def __init__(self, variables, coeffs=None, min_degree=None, trunc_order=None):
        self.variables = tuple(variables)
        nv = len(self.variables)
        if len(set(self.variables)) != nv:
            raise SeriesError("duplicate variable names")
        self.min_degree = tuple(min_degree if min_degree is not None else (0,) * nv)
        if trunc_order is None:
            raise SeriesError("trunc_order is required")
        self.trunc_order = tuple(trunc_order)
        if len(self.min_degree) != nv or len(self.trunc_order) != nv:
            raise SeriesError("metadata length mismatch")
        for m in self.min_degree:
            if m < HARD_MIN_DEGREE:
                raise SeriesError(f"min_degree {m} below hard cap {HARD_MIN_DEGREE}")
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(c, ConstExpr):
                    c = _coerce(c)
                if not c:
                    continue
                if any(x < m for x, m in zip(e, self.min_degree)):
                    raise SeriesError(f"exponent {e} below min_degree {self.min_degree}")
                if all(x <= t for x, t in zip(e, self.trunc_order)):
                    self.coeffs[tuple(e)] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables, trunc_order, min_degree=None):
        return cls(variables, {}, min_degree, trunc_order)

    @classmethod
    def const(cls, value, variables, trunc_order):
        nv = len(tuple(variables))
        return cls(variables, {(0,) * nv: _coerce(value)}, None, trunc_order)

    @classmethod
    def var(cls, name, variables, trunc_order, power=1, coef=1):
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = power
        md = tuple(min(0, power) for _ in variables)
        return cls(variables, {tuple(e): _coerce(coef)}, md, trunc_order)

    # -- bookkeeping helpers -----------------------------------------------

    def _vidx(self, name):
        return self.variables.index(name)

    def lead_exponents(self):
        """Componentwise minimal exponent over stored terms (INF if empty)."""
        if not self.coeffs:
            return (INF_ORDER,) * len(self.variables)
        return tuple(min(e[i] for e in self.coeffs)
                     for i in range(len(self.variables)))

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, exponents) -> ConstExpr:
        e = tuple(exponents)
        for x, t in zip(e, self.trunc_order):
            if x > t:
                raise SeriesError(f"coefficient {e} beyond truncation "
                                  f"{self.trunc_order}")
        return self.coeffs.get(e, ConstExpr.zero())

    def constant_term(self) -> ConstExpr:
        return self.coeffs.get((0,) * len(self.variables), ConstExpr.zero())

    def extend_to(self, variables, trunc_order=None):
        """Embed into a larger variable space (new variables get order INF
        unless given)."""
        variables = tuple(variables)
        mapping = []
        for v in self.variables:
            if v not in variables:
                raise SeriesError(f"variable {v} missing from target space")
            mapping.append(variables.index(v))
        nv = len(variables)
        md = [0] * nv
        to = [INF_ORDER] * nv
        for i, v in enumerate(self.variables):
            md[mapping[i]] = self.min_degree[i]
            to[mapping[i]] = self.trunc_order[i]
        if trunc_order is not None:
            to = [min(a, b) for a, b in zip(to, trunc_order)]
        coeffs = {}
        for e, c in self.coeffs.items():
            ne = [0] * nv
            for i, x in enumerate(e):
                ne[mapping[i]] = x
            coeffs[tuple(ne)] = c
        return TruncSeries(variables, coeffs, md, to)

    def truncate(self, trunc_order):
        to = tuple(min(a, b) for a, b in zip(self.trunc_order, trunc_order))
        return TruncSeries(self.variables, self.coeffs, self.min_degree, to)

    # -- arithmetic -----------------------------------------------------------

    def _aligned(self, other):
        if isinstance(other, TruncSeries):
            if other.variables == self.variables:
                return self, other
            space = tuple(dict.fromkeys(self.variables + other.variables))
            return self.extend_to(space), other.extend_to(space)
        return self, TruncSeries.const(other, self.variables,
                                       (INF_ORDER,) * len(self.variables))

    def __add__(self, other):
        a, b = self._aligned(other)
        md = tuple(min(x, y) for x, y in zip(a.min_degree, b.min_degree))
        to = tuple(min(x, y) for x, y in zip(a.trunc_order, b.trunc_order))
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return TruncSeries(a.variables, out, md, to)

    __radd__ = __add__

    def __neg__(self):
        return _from_coeffs(self.variables,
                            {e: -c for e, c in self.coeffs.items()},
                            self.min_degree, self.trunc_order)

    def __sub__(self, other):
        a, b = self._aligned(other)
        return a + (-b)

    def __rsub__(self, other):
        a, b = self._aligned(other)
        return b + (-a)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GRat, ConstExpr)):
            c = _coerce(other)
            if not c:
                return TruncSeries.zero(self.variables, self.trunc_order,
                                        self.min_degree)
            return _from_coeffs(self.variables,
                                {e: v * c for e, v in self.coeffs.items()},
                                self.min_degree, self.trunc_order)
        a, b = self._aligned(other)
        la, lb = a.lead_exponents(), b.lead_exponents()
        to = tuple(min(_sat_add(ta, mb), _sat_add(tb, ma))
                   for ta, tb, ma, mb in zip(a.trunc_order, b.trunc_order, la, lb))
        md = tuple(ma + mb if ma < INF_ORDER and mb < INF_ORDER else 0
                   for ma, mb in zip(la, lb))
        md = tuple(max(m, HARD_MIN_DEGREE) if m < 0 else min(m, 0) for m in md)
        out = _products(((a.coeffs, b.coeffs),), to)
        return _from_coeffs(a.variables, out, md, to)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return TruncSeries.const(1, self.variables,
                                     (INF_ORDER,) * len(self.variables))
        return _power(self, k)

    def shift(self, name, k):
        """Multiply by (variable)^k with Laurent bookkeeping."""
        i = self._vidx(name)
        coeffs = {}
        for e, c in self.coeffs.items():
            ne = e[:i] + (e[i] + k,) + e[i + 1:]
            if ne[i] < HARD_MIN_DEGREE:
                raise SeriesError(f"shift pushes exponent below {HARD_MIN_DEGREE}")
            coeffs[ne] = c
        md = list(self.min_degree)
        md[i] = max(HARD_MIN_DEGREE, md[i] + k) if k < 0 else md[i]
        to = list(self.trunc_order)
        to[i] = _sat_add(to[i], k)
        return TruncSeries(self.variables, coeffs, md, to)

    def derivative(self, name):
        i = self._vidx(name)
        coeffs = {}
        for e, c in self.coeffs.items():
            k = e[i]
            if k == 0:
                continue
            ne = e[:i] + (k - 1,) + e[i + 1:]
            coeffs[ne] = coeffs.get(ne, ConstExpr.zero()) + c * k
        md = list(self.min_degree)
        md[i] = max(HARD_MIN_DEGREE, md[i] - 1)
        to = list(self.trunc_order)
        to[i] = _sat_add(to[i], -1)
        return TruncSeries(self.variables, coeffs, md, to)

    # -- inversion, division --------------------------------------------------

    def inverse(self):
        """Inverse of c*mono*(1 + w); the componentwise-minimal monomial must
        carry a term with an invertible (monomial) ConstExpr coefficient."""
        if self.is_zero():
            raise SeriesError("inverse of zero series")
        lead = self.lead_exponents()
        c0 = self.coeffs.get(lead)
        if c0 is None:
            raise SeriesError("no term at the componentwise-minimal exponent; "
                              "cannot invert")
        c0_inv = c0.inverse_monomial()
        w = {}
        for e, c in self.coeffs.items():
            rel = tuple(x - m for x, m in zip(e, lead))
            if any(rel):
                w[rel] = c * c0_inv
        box = tuple(_sat_add(t, -m) for t, m in zip(self.trunc_order, lead))
        out = TruncSeries(self.variables,
                          _unit_function("inverse", self.variables, w, box),
                          None, box) * c0_inv
        for i, m in enumerate(lead):
            if m:
                out = out.shift(self.variables[i], -m)
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GRat, ConstExpr)):
            return self * _coerce(other).inverse_monomial()
        a, b = self._aligned(other)
        return a * b.inverse()

    # -- composition and functional ops ----------------------------------------

    def substitute_var(self, name, inner: "TruncSeries"):
        """Substitute a variable by a series with no constant term.

        The omitted tail of ``self`` (orders beyond trunc in ``name``) maps to
        composition error.  Some variable of ``inner`` must appear in every
        one of its monomials, which lets the error be excluded by that
        variable's truncation alone.
        """
        i = self._vidx(name)
        if inner.constant_term():
            raise SeriesError(f"substitution for {name} has a nonzero "
                              "constant term")
        by_power = {}
        max_k = 0
        for e, c in self.coeffs.items():
            k = e[i]
            if k < 0:
                raise SeriesError("cannot compose into a negative power; "
                                  "shift first")
            max_k = max(max_k, k)
            rest = e[:i] + e[i + 1:]
            by_power.setdefault(k, {})[rest] = c
        rest_vars = self.variables[:i] + self.variables[i + 1:]
        rest_md = self.min_degree[:i] + self.min_degree[i + 1:]
        rest_to = self.trunc_order[:i] + self.trunc_order[i + 1:]
        out_vars = tuple(dict.fromkeys(rest_vars + inner.variables))
        lead_u = dict(zip(inner.variables, inner.lead_exponents()))
        N = self.trunc_order[i]

        result = None
        for k in range(max_k, -1, -1):
            if result is None:
                result = TruncSeries.zero(out_vars,
                                          (INF_ORDER,) * len(out_vars))
            else:
                result = result * inner
            if k in by_power:
                piece = TruncSeries(rest_vars, by_power[k], rest_md, rest_to)
                result = result + piece.extend_to(
                    tuple(dict.fromkeys(rest_vars + result.variables)))
        if result is None:
            result = TruncSeries.zero(out_vars, (INF_ORDER,) * len(out_vars))
        result = result.extend_to(
            tuple(dict.fromkeys(result.variables + inner.variables)))

        # cap by the omitted-tail bound when the truncation in `name` is finite
        if N < INF_ORDER and not inner.is_zero():
            grading = [w for w in inner.variables
                       if 1 <= lead_u.get(w, 0) < INF_ORDER]
            if grading:
                to = list(result.trunc_order)
                for w in grading:
                    j = result.variables.index(w)
                    to[j] = min(to[j], (N + 1) * lead_u[w] - 1)
                result = result.truncate(to)
            else:
                raise SeriesError("inner series has no grading variable")
        return result

    def exp(self):
        """exp of a series with zero constant term (exact, terminating)."""
        if self.constant_term():
            raise SeriesError("exp requires zero constant term")
        return TruncSeries(self.variables,
                           _unit_function("exp", self.variables, self.coeffs,
                                          self.trunc_order),
                           None, self.trunc_order)

    def log(self):
        """log of a series with constant term exactly 1."""
        if not self.constant_term() == ConstExpr.one():
            raise SeriesError("log requires constant term exactly 1")
        w = {e: c for e, c in self.coeffs.items() if any(e)}
        return TruncSeries(self.variables,
                           _unit_function("log", self.variables, w,
                                          self.trunc_order),
                           self.min_degree, self.trunc_order)

    def real_part(self):
        return self.map_coeffs(ConstExpr.real_part)

    def imag_part(self):
        return self.map_coeffs(ConstExpr.imag_part)

    def map_coeffs(self, fn):
        return TruncSeries(self.variables,
                           {e: fn(c) for e, c in self.coeffs.items()},
                           self.min_degree, self.trunc_order)

    def revert(self):
        """Compositional inverse of a univariate series with f(0)=0 and
        invertible linear coefficient.

        h = f^(-1) solves h = t phi(h) with phi(y) = y / f(y), so by Lagrange
        inversion [t^l] h = (1/l) [y^(l-1)] phi^l.
        """
        if len(self.variables) != 1:
            raise SeriesError("reversion is univariate")
        v = self.variables[0]
        if self.constant_term() or self.min_degree[0] < 0 and any(
                e[0] < 0 for e in self.coeffs):
            raise SeriesError("reversion requires f(0) = 0")
        if (1,) not in self.coeffs:
            raise SeriesError("reversion requires a nonzero linear term")
        N = self.trunc_order[0]
        if N >= INF_ORDER:
            raise SeriesError("reversion needs a finite truncation order")
        phi = self.shift(v, -1).inverse()
        coeffs = {(l,): c.constant_term()
                  for l, c in lagrange_coefficients(phi, v, N).items()}
        return TruncSeries((v,), coeffs, (0,), (N,))

    # -- evaluation / output ---------------------------------------------------

    def eval_mp(self, values: dict, assignment: dict | None = None,
                dps: int = DEFAULT_DPS):
        """Numeric evaluation at ``dps`` digits: values maps variable name
        -> number; all coefficients are evaluated by one GeneratorValues."""
        with GeneratorValues(assignment, dps) as gens:
            return self._eval(values, gens)

    def _eval(self, values: dict, gens: GeneratorValues):
        """The series at ``values``, its coefficients evaluated by gens;
        a variable no term uses needs no value."""
        xs = {}     # variable index -> value, converted when first used
        total = mp.mpc(0)
        # in exponent order, so equal series give the same bits
        for e in sorted(self.coeffs):
            term = gens(self.coeffs[e])
            for i, k in enumerate(e):
                if k:
                    x = xs.get(i)
                    if x is None:
                        x = xs[i] = mp.mpmathify(values[self.variables[i]])
                    term *= x ** k
            total += term
        return total

    def sorted_terms(self):
        return sorted(self.coeffs.items())

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                (self.variables[i] if k == 1 else f"{self.variables[i]}^{k}")
                for i, k in enumerate(e) if k)
            cs = str(c)
            if mono:
                cs = f"({cs})*{mono}" if ("+" in cs or " - " in cs) else \
                    (mono if cs == "1" else f"-{mono}" if cs == "-1"
                     else f"{cs}*{mono}")
            parts.append(cs)
        return " + ".join(parts)

    __repr__ = __str__

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        a, b = self._aligned(other)
        return a.coeffs == b.coeffs

    def to_jsonable(self):
        return {
            "variables": list(self.variables),
            "min_degree": list(self.min_degree),
            "trunc_order": [None if t >= INF_ORDER else t
                            for t in self.trunc_order],
            "coeffs": [[list(e), c.to_jsonable()]
                       for e, c in self.sorted_terms()],
        }


def _from_coeffs(variables, coeffs, min_degree, trunc_order) -> TruncSeries:
    """A TruncSeries over ``coeffs``, which must already satisfy every
    condition ``TruncSeries.__init__`` enforces: nonzero ConstExpr
    coefficients at exponent tuples within the floor and the truncation."""
    z = TruncSeries.__new__(TruncSeries)
    z.variables, z.coeffs = variables, coeffs
    z.min_degree, z.trunc_order = min_degree, trunc_order
    return z


def _sat_add(a, b):
    """Order sum in which an exact order (INF_ORDER) stays exact."""
    if a >= INF_ORDER or b >= INF_ORDER:
        return INF_ORDER
    return min(a + b, INF_ORDER)


def _unit_function(kind, variables, w, box) -> dict:
    """Coefficients of (1+w)^-1, exp(w) or log(1+w) (``kind`` "inverse",
    "exp" or "log") in the box ``box``, for w = {exponent: ConstExpr} with
    no constant term.

    w is graded by total degree over the finitely truncated variables, and
    its homogeneous parts w_j give those of the result by the first-order
    recurrences of the Euler operator E = sum_i x_i d/dx_i (Knuth, TAOCP
    Vol. 2, 4.7):

        inverse  b_n = -sum_{j=1..n} w_j b_{n-j}                  (b_0 = 1)
        exp      n h_n = sum_{j=1..n} j w_j h_{n-j}               (h_0 = 1)
        log      d_n = n w_n - sum_{j=1..n-1} w_j d_{n-j},  l_n = d_n / n

    (d = E log(1+w) = Ew / (1+w)).  Every exponent is nonnegative, so no
    monomial outside the box multiplies back into it: each step is one
    ``_products`` call over its pairs (w_j, b_(n-j)), which forms only the
    terms inside the box.  w must lie in the box.
    """
    finite = [i for i, t in enumerate(box) if t < INF_ORDER]
    parts = {}
    for e, c in w.items():
        if min(e) < 0:
            raise SeriesError(f"{kind} needs nonnegative exponents, got {e}")
        n = sum(e[i] for i in finite)
        if not n:
            raise SeriesError(f"{kind}: term {e} has no positive degree in a "
                              "finitely truncated variable, so the series "
                              "does not terminate")
        parts.setdefault(n, {})[e] = c
    factors = {j: {e: c.scalar_mul(j) if kind == "exp" else -c
                   for e, c in p.items()} for j, p in parts.items()}
    zero = (0,) * len(variables)
    done = {} if kind == "log" else {0: {zero: ConstExpr.one()}}
    for n in range(1, sum(box[i] for i in finite) + 1):
        pairs = [(f, done[n - j]) for j, f in factors.items() if n - j in done]
        if kind == "log" and n in parts:
            pairs.insert(0, (parts[n], {zero: ConstExpr.number(n)}))
        acc = _products(pairs, box)
        if kind == "exp":
            acc = {e: c.scalar_mul(Fraction(1, n)) for e, c in acc.items()}
        if acc:
            done[n] = acc
    out = {}
    for n, part in done.items():
        if kind == "log":
            part = {e: c.scalar_mul(Fraction(1, n)) for e, c in part.items()}
        out.update(part)
    return out


def _products(pairs, to) -> dict:
    """The nonzero coefficients through ``to`` of the sum of ``a * b`` over
    ``pairs`` of coefficient dicts on one variable tuple.

    The term pairs are grouped by output exponent, and each coefficient is
    one ``_dot``: one common denominator and one content gcd.  A pair past
    ``to`` is dropped before its ring product is formed; a kept exponent
    below the hard floor raises SeriesError.
    """
    groups = {}     # exponent -> its term pairs
    get = groups.get
    for a, b in pairs:
        b = b.items()
        for e1, c1 in a.items():
            for e2, c2 in b:
                e = tuple(map(add, e1, e2))
                if not all(map(le, e, to)):
                    continue
                group = get(e)
                if group is None:
                    if any(x < HARD_MIN_DEGREE for x in e):
                        raise SeriesError(f"product exponent {e} below hard "
                                          "floor")
                    groups[e] = [(c1, c2)]
                else:
                    group.append((c1, c2))
    out = {}
    for e, group in groups.items():
        c = _dot(group)
        if c:
            out[e] = c
    return out


def lagrange_coefficients(phi: TruncSeries, var: str, n: int) -> dict:
    """Coefficients of t^l, l = 1..n, in the solution y(t) of y = t phi(y).

    By Lagrange-Buermann inversion (Flajolet & Sedgewick, Analytic
    Combinatorics, Thm A.2) they are {l: [var^(l-1)] phi^l / l}, each a
    TruncSeries in phi's other variables.  phi must be a power series in
    ``var`` known through var^(n-1); the cost is n-1 truncated products.
    """
    i = phi._vidx(var)
    if phi.trunc_order[i] < n - 1:
        raise SeriesError(f"phi known through {var}^{phi.trunc_order[i]}, "
                          f"needs {var}^{n - 1}")
    if any(e[i] < 0 for e in phi.coeffs):
        raise SeriesError(f"phi has a negative power of {var}")
    to = phi.trunc_order[:i] + (n - 1,) + phi.trunc_order[i + 1:]
    phi = phi.truncate(to)
    rest = phi.variables[:i] + phi.variables[i + 1:]
    out = {}
    power = phi
    for l in range(1, n + 1):
        if l > 1:
            power = (power * phi).truncate(to)
        coeffs = {e[:i] + e[i + 1:]: c.scalar_mul(Fraction(1, l))
                  for e, c in power.coeffs.items() if e[i] == l - 1}
        out[l] = TruncSeries(rest, coeffs,
                             power.min_degree[:i] + power.min_degree[i + 1:],
                             power.trunc_order[:i] + power.trunc_order[i + 1:])
    return out

