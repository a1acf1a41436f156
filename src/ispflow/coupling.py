"""Running-coupling coefficient tables and their resummation structure.

The cutoff-condition of either sector, written as a power series in the
coupling g, has the shape

    0 = n pi + a_1(x) g + a_3(x) g^3 + ...   minus   g / rho ,

where x is the small momentum ratio of the sector (xi = Lambda_IR/Lambda or
sigma = p/Lambda) and rho = 1/ln(Lambda/...) tracks the reciprocal log.
Writing the rho-free part as C(g, x), the condition reads g = rho C(g, x).
With D = 1/rho - ladder + s x^2 (``LADDERS``: ladder gamma and s = +1 in the
bound sector, gamma + K pi and s = -1 in the scattering sector) that is the
same equation as g = C~(g, x) / D, C~ = C - ladder g + s g x^2, so
Lagrange-Buermann inversion in 1/D gives the resummed coupling exactly:

    g = sum head x^p0 / D^q ,   head(p0, q) = (1/q) [g^(q-1) x^p0] C~^q .

C's gamma sits in its g^1 term alone, so C~ and the heads carry none.
Expanding D^(-q) in rho (``predicted_entry``) gives each table cell c_{p,l};
``structure_fit``, which reads the heads off a table cell by cell, is the
independent oracle they are held to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb

from .constexpr import GENERATORS, ConstExpr
from .series import SeriesError, TruncSeries, lagrange_coefficients

N_PI = ConstExpr.monomial(1, n=1, pi=1)
LADDERS = {"bound": (ConstExpr.generator("gamma"), +1),
           "scattering": (ConstExpr.generator("gamma")
                          + ConstExpr.monomial(1, K=1, pi=1), -1)}


@dataclass
class CouplingTable:
    """Doubly indexed coefficients c_{p,l} of a running-coupling ansatz."""

    sector_tag: str                     # "bound" or "scattering"
    entries: dict = field(default_factory=dict)  # (p, l) -> ConstExpr
    p_max: int = 0
    l_max: int = 0
    heads: dict = field(default_factory=dict)  # (p0, q) -> nonzero ConstExpr

    def entry(self, p: int, l: int) -> ConstExpr:
        if (p, l) not in self.entries and (p > self.p_max or l > self.l_max):
            raise KeyError(f"c_({p},{l}) beyond solved box "
                           f"({self.p_max},{self.l_max})")
        return self.entries.get((p, l), ConstExpr.zero())

    def check_base_invariants(self):
        """SeriesError unless c_(0,1) = n pi and c_(2,1), c_(4,1) vanish."""
        if self.entry(0, 1) != N_PI:
            raise SeriesError("c_(0,1) must be n*pi")
        if self.p_max >= 2 and not self.entry(2, 1).is_zero():
            raise SeriesError("c_(2,1) must vanish")
        if self.p_max >= 4 and not self.entry(4, 1).is_zero():
            raise SeriesError("c_(4,1) must vanish")

    def substitute_level(self, value) -> "CouplingTable":
        """Exact substitution of the level generator n (branch covariance)."""
        entries, heads = ({k: v.substitute("n", value) for k, v in d.items()}
                          for d in (self.entries, self.heads))
        return replace(self, entries=entries, heads=heads)

    def as_series(self, x_var: str, p_max=None, l_max=None) -> TruncSeries:
        p_max = self.p_max if p_max is None else p_max
        l_max = self.l_max if l_max is None else l_max
        if p_max > self.p_max or l_max > self.l_max:
            raise SeriesError(f"table holds p <= {self.p_max}, l <= "
                              f"{self.l_max}; cannot give p <= {p_max}, "
                              f"l <= {l_max}")
        coeffs = {(p, l): c for (p, l), c in self.entries.items()
                  if p <= p_max and l <= l_max}
        return TruncSeries((x_var, "rho"), coeffs, (0, 0), (p_max, l_max))

    def rows(self):
        for (p, l) in sorted(self.entries):
            yield p, l, self.entries[(p, l)]


def solve_coupling_table(condition: TruncSeries, p_max: int, l_max: int,
                         sector_tag: str) -> CouplingTable:
    """One inversion of the gamma-free C~ = C - ladder g + s g x^2, with
    (ladder, s) = ``LADDERS[sector_tag]``, gives the nonzero heads
    (1/q) [g^(q-1) x^p0] C~^q (stored on ``heads``); ``predicted_entry``
    gives from them every cell c_{p,l} of the box (even p <= p_max,
    1 <= l <= l_max), zero cells included.

    ``condition`` is the rho-free part C(g, x) of the cutoff condition and
    must be known through g^(l_max - 1) and x^p_max.
    """
    ladder, x2_sign = LADDERS[sector_tag]
    g_trunc, x_trunc = condition.trunc_order
    if g_trunc < l_max - 1:
        raise SeriesError(f"condition g-order {g_trunc} too low for "
                          f"l_max={l_max}")
    if x_trunc < p_max:
        raise SeriesError(f"condition x-order {x_trunc} too low for "
                          f"p_max={p_max}")
    to = (l_max - 1, p_max)
    c_tilde = condition.truncate(to) + TruncSeries(
        condition.variables, {(1, 0): -ladder, (1, 2): x2_sign}, None, to)
    lagrange = lagrange_coefficients(c_tilde, "g", l_max)
    heads = {(p0, q): c for q, h in lagrange.items()
             for (p0,), c in h.coeffs.items()}
    entries = {(p, l): predicted_entry(heads, p, l, ladder, x2_sign)
               for l in range(1, l_max + 1) for p in range(0, p_max + 1, 2)}
    table = CouplingTable(sector_tag, entries, p_max, l_max, heads)
    table.check_base_invariants()
    return table


def _condition_residual(condition: TruncSeries, entries: dict, x_var: str,
                        p_max: int, l_max: int) -> TruncSeries:
    g_ansatz = TruncSeries((x_var, "rho"), dict(entries), (0, 0),
                           (p_max, l_max))
    composed = condition.substitute_var("g", g_ansatz)
    return composed - g_ansatz.shift("rho", -1)


def condition_residual_box(condition: TruncSeries,
                           table: CouplingTable) -> list:
    """Nonzero residual cells after plugging the solved table back in."""
    x_var = condition.variables[1]
    resid = _condition_residual(condition, table.entries, x_var,
                                table.p_max, table.l_max)
    bad = []
    for l in range(1, table.l_max + 1):
        for p in range(0, table.p_max + 1, 2):
            c = resid.coefficient((p, l - 1))
            if not c.is_zero():
                bad.append((p, l - 1, c))
    return bad


# ---------------------------------------------------------------------------
# Resummation columns and the closed-form structure.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResummedColumn:
    """One gamma-ladder column  head * x^p0 / D^q  of the resummed coupling."""

    label: str
    p0: int
    q: int
    head: ConstExpr


def _n_pi_pow(k: int) -> ConstExpr:
    return ConstExpr.monomial(1, n=k, pi=k)


# the four columns with printed closed-form sums
BOUND_COLUMNS = {
    "level": ResummedColumn("level", 0, 1, N_PI),
    "psi2": ResummedColumn("psi2", 0, 4,
                           ConstExpr.psi(2, Fraction(1, 6)) * _n_pi_pow(3)),
    "psi4": ResummedColumn("psi4", 0, 6,
                           ConstExpr.psi(4, Fraction(-1, 120)) * _n_pi_pow(5)),
    "psi2sq": ResummedColumn(
        "psi2sq", 0, 7,
        ConstExpr.psi(2) * ConstExpr.psi(2, Fraction(1, 12)) * _n_pi_pow(5)),
}


def resummation_check(table: CouplingTable, column: ResummedColumn,
                      l_max: int):
    """Compare a column's gamma ladder against the matching signature terms
    of the solved (bound-sector) table.

    The signature of a (single-monomial head, pure-gamma ladder) column is
    the head's exponent pattern with the gamma slot left free; columns of a
    sector differ in their zeta/level content, so extraction is unambiguous.
    Returns (ok, residuals) where residuals maps l -> ConstExpr difference.
    """
    head = column.head.sorted_terms()
    if len(head) != 1:
        raise ValueError("signature extraction needs a single-monomial head; "
                         "use structure_fit instead")
    (head_exp, _), = head
    gidx = GENERATORS.index("gamma")
    residuals = {}
    ok = True
    for l in range(1, l_max + 1):
        entry = table.entry(column.p0, l)
        extracted = ConstExpr(
            {e: c for e, c in entry.sorted_terms()
             if e[:gidx] == head_exp[:gidx] and e[gidx + 1:] == head_exp[gidx + 1:]})
        diff = extracted - predicted_entry(
            {(column.p0, column.q): column.head}, column.p0, l,
            *LADDERS["bound"])
        if not diff.is_zero():
            ok = False
            residuals[l] = diff
    return ok, residuals


def predicted_entry(heads: dict, p: int, l: int, ladder: ConstExpr,
                    x2_sign: int) -> ConstExpr:
    """Predicted c_{p,l} from a set of heads {(p0,q): ConstExpr} under
    D = 1/rho - ladder + x2_sign * x^2."""
    out = ConstExpr.zero()
    for (p0, q), head in heads.items():
        t2 = p - p0
        if t2 < 0 or t2 % 2:
            continue
        t = t2 // 2
        if q + t > l:
            continue
        coef = Fraction((-x2_sign) ** t) * comb(q + t - 1, t) * comb(l - 1, q + t - 1)
        out = out + head * coef * ladder ** (l - q - t)
    return out


def structure_fit(table: CouplingTable):
    """Read the heads of sum_{p0,q} head * x^p0 / D^q off the table.

    Cell by cell, each head is the gamma-free part of what the known heads
    fail to explain (D from ``LADDERS[table.sector_tag]``), and a gamma
    remainder is a failure: the oracle of ``solve_coupling_table``'s heads.
    Returns (heads, ok, failures).
    """
    ladder, x2_sign = LADDERS[table.sector_tag]
    heads = {}
    failures = []
    ok = True
    for l in range(1, table.l_max + 1):
        for p in range(0, table.p_max + 1, 2):
            diff = table.entry(p, l) - predicted_entry(heads, p, l, ladder,
                                                       x2_sign)
            if diff.is_zero():
                continue
            if "gamma" in diff.generators_used():
                ok = False
                failures.append((p, l, diff))
            else:
                heads[(p, l)] = diff
    return heads, ok, failures
