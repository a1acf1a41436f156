"""Core exact expansions shared by the bound and scattering derivations.

Everything here is a formal series with exact coefficients:

* the odd-zeta expansion of Arg Gamma(1 + i g),
* the phase-shift branch offset arctan(-2 K tanh(pi g / 2)),
* the map x -> i sigma that carries a bound series built from the
  small-argument profile eta(g, xi) to the scattering one built from
  eta~(g, sigma) = eta(g, i sigma),
* the generator-free stage: (1/g) Arg eta, the odd-coefficient family
  a_1, a_3, a_5, ... of exp((1/g) Arg eta), and the rational prefactors
  R_l of the transseries sectors,
* the sector solve of -E(g) eps + sum_i a_{2i+1} X^{2i+1} = 0, which
  builds its growth unit E from log E and its odd family, both by flavor,
  and whose sectors are rational prefactors R_l(g) times E(g)^l.

The generator-free stage runs over Q in dense integer polynomials and is
lifted into the constants ring once, at its boundary.  In s = ig the
profile eta(s, y) = sum_m y^m prod_(j<=m) 1/(j (j+s)), y = xi^2, has
rational coefficients, and for real g conj eta(g) = eta(-g), so
Arg eta = sum_(t odd) (-1)^((t-1)/2) [s^t] log eta g^t.  log and exp are
first-order recurrences in y, and R_l = (1/l) [y^k] exp(-l log a(y)),
k = (l-1)/2, with a(y) = sum_i a_{2i+1} y^i.  Each polynomial keeps one
common denominator and takes its content gcd once per operation (Knuth,
TAOCP Vol. 2, 4.5.1 and 4.7).  The scattering family is the image
y -> -y: a~_{2i+1} = (-1)^i a_{2i+1}.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .constexpr import PI, ZETA_ARGS, ConstExpr, GRat
from .series import SeriesError, TruncSeries
from .transseries import FLAVORS, Transseries


def arg_gamma_series(g_order: int) -> TruncSeries:
    """Arg Gamma(1+ig) = -gamma g + zeta3 g^3/3 - zeta5 g^5/5 + ..."""
    if g_order > ZETA_ARGS[-1] + 1:
        raise SeriesError(
            f"Arg Gamma(1+ig) to g^{g_order} needs zeta values past "
            f"zeta{ZETA_ARGS[-1]}, the top of the constants ring's ladder")
    coeffs = {(1,): ConstExpr.monomial(-1, gamma=1)}
    k = 1
    while 2 * k + 1 <= g_order:
        sign = (-1) ** (k + 1)
        coeffs[(2 * k + 1,)] = ConstExpr.monomial(
            Fraction(sign, 2 * k + 1), **{f"zeta{2 * k + 1}": 1})
        k += 1
    return TruncSeries(("g",), coeffs, (0,), (g_order,))


def log_growth_unit(g_order: int) -> TruncSeries:
    """log E = gamma + Arg Gamma(1+ig)/g, a series in g^2 with zero constant.

    E is the residual growth factor of the leading transseries sector after
    exp(-(2b+1) pi/g - gamma) has been split off.
    """
    ag = arg_gamma_series(g_order + 1)
    out = ag.shift("g", -1) + ConstExpr.generator("gamma")
    return out.truncate((g_order,))


def growth_unit_series(g_order: int) -> TruncSeries:
    """E(g) = exp(gamma + Arg Gamma(1+ig)/g) = 1 + zeta3 g^2/3 + ..."""
    return log_growth_unit(g_order).exp()


def phase_branch_offset(g_order: int) -> TruncSeries:
    """arctan(-2 K tanh(pi g / 2)) as a g-series with K-polynomial coefficients:
    Im log(1 + i w) with w = -2K (e^(pi g) - 1)/(e^(pi g) + 1), exact because
    w is real."""
    e = TruncSeries.var("g", ("g",), (g_order,), coef=PI).exp()
    w = (e - 1) / (e + 1) * ConstExpr.monomial(-2, K=1)
    return (1 + w * GRat(0, 1)).log().imag_part()


def log_growth_unit_scatter(g_order: int) -> TruncSeries:
    """log E_hat = gamma + K pi + Arg Gamma(1+ig)/g + arctan(-2K tanh(pi g/2))/g."""
    out = (log_growth_unit(g_order)
           + phase_branch_offset(g_order + 1).shift("g", -1)
           + ConstExpr.monomial(1, K=1, pi=1))
    if out.constant_term():
        raise SeriesError("scattering growth-unit exponent has a constant "
                          "term; branch-offset normalization is broken")
    return out.truncate((g_order,))


def imaginary_argument(s: TruncSeries, x_var: str,
                       sigma_var: str) -> TruncSeries:
    """x -> i sigma on a series even in x: x^(2m) -> (-1)^m sigma^(2m).

    It commutes with products, log, exp, Re and Im, so it carries each
    bound series built from eta(g, x) to the scattering one built from
    eta~(g, sigma) = eta(g, i sigma).  An odd power of x raises.
    """
    k = s.variables.index(x_var)
    if any(e[k] % 2 for e in s.coeffs):
        raise SeriesError(f"an odd power of {x_var} has no real image under "
                          f"{x_var} -> i {sigma_var}")
    coeffs = {e: -c if e[k] % 4 else c for e, c in s.coeffs.items()}
    variables = s.variables[:k] + (sigma_var,) + s.variables[k + 1:]
    return TruncSeries(variables, coeffs, s.min_degree, s.trunc_order)


# ---------------------------------------------------------------------------
# The generator-free stage, over Q.  A g-polynomial truncated at g^n is a
# pair (nums, den): n+1 integer numerators over one denominator den > 0,
# with the content gcd divided out.  A series in (g, y = xi^2) is a list of
# such pairs indexed by the power of y.
# ---------------------------------------------------------------------------

def _poly(nums, den=1):
    """(nums, den) with the content gcd divided out and den > 0."""
    c = gcd(den, *nums)
    if den < 0:
        c = -c
    if c != 1:
        nums = [x // c for x in nums]
        den //= c
    return nums, den


def _const(c, n):
    return [c] + [0] * n, 1


def _dot(terms, n, divisor=1):
    """The sum of k p q over ``terms`` of (int k, poly p, poly q), to g^n
    and divided by ``divisor``: one common denominator, one content gcd."""
    den = lcm(*(p[1] * q[1] for _, p, q in terms))
    out = [0] * (n + 1)
    for k, (a, da), (b, db) in terms:
        k *= den // (da * db)
        b = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                x *= k
                for j, y in b:
                    if i + j > n:
                        break
                    out[i + j] += x * y
    return _poly(out, den * divisor)


def _ymul(p, q, n, k):
    """The product of two (g, y) series to y^k."""
    return [_dot([(1, p[i], q[m - i]) for i in range(m + 1)
                  if i < len(p) and m - i < len(q)], n) for m in range(k + 1)]


def _log(w, n):
    """log w for w_0 = 1: m L_m = m w_m - sum_(0<j<m) j L_j w_(m-j)."""
    out = [_const(0, n)]
    for m in range(1, len(w)):
        out.append(_dot([(m, w[m], _const(1, n))] + [(-j, out[j], w[m - j])
                                                for j in range(1, m)],
                        n, m))
    return out


def _exp(w, n, c=1):
    """exp(c w) for w_0 = 0: m h_m = sum_(0<j<=m) c j w_j h_(m-j)."""
    out = [_const(1, n)]
    for m in range(1, len(w)):
        out.append(_dot([(c * j, w[j], out[m - j]) for j in range(1, m + 1)],
                        n, m))
    return out


def _eta(n, k):
    """eta(s, y) = sum_m y^m prod_(j<=m) 1/(j (j+s)) to s^n and y^k: the
    profile at s = ig, where its coefficients are rational; 1/(j (j+s))
    = sum_t (-1)^t s^t / j^(t+2)."""
    out = [_const(1, n)]
    for m in range(1, k + 1):
        r = [(-1) ** t * m ** (n - t) for t in range(n + 1)], m ** (n + 2)
        out.append(_dot([(1, out[-1], r)], n))
    return out


def _arg_eta_over_g(n, k):
    """(1/g) Arg eta to g^n and y^k.  For real g, conj eta(g) = eta(-g), so
    Arg eta = Im log eta = sum_(t odd) (-1)^((t-1)/2) [s^t] log eta g^t."""
    return [_poly([(-1) ** (t // 2) * nums[t + 1] if t % 2 == 0 else 0
                   for t in range(n + 1)], den)
            for nums, den in _log(_eta(n + 1, k), n + 1)]


def _coeffs(p):
    nums, den = p
    return {t: Fraction(c, den) for t, c in enumerate(nums) if c}


def _series(p, n) -> TruncSeries:
    """The g-polynomial p as a TruncSeries truncated at g^n."""
    return TruncSeries(("g",), {(t,): c for t, c in _coeffs(p).items()},
                       (0,), (n,))


def _sector_prefactors(a, n):
    """R_l = (1/l) [y^j] exp(-l log a(y)), l = 2j+1, for j < len(a), with
    a(y) = sum_i a_(2i+1) y^i: Lagrange-Buermann inversion with
    A^(-l) = exp(-l log A) (Flajolet & Sedgewick, Analytic Combinatorics,
    Thm A.2)."""
    log_a = _log(a, n)
    out = []
    for j in range(len(a)):
        nums, den = _exp(log_a[:j + 1], n, -(2 * j + 1))[j]
        out.append(_poly(nums, den * (2 * j + 1)))
    return out


def arg_eta_over_g(g_order: int, x_order: int) -> TruncSeries:
    """(1/g) Arg eta in (g, xi), an even g-series whose xi-expansion starts
    at xi^2, lifted once from the stage over Q."""
    coeffs = {(t, 2 * m): c for m, p in
              enumerate(_arg_eta_over_g(g_order, x_order // 2))
              for t, c in _coeffs(p).items()}
    return TruncSeries(("g", "xi"), coeffs, (0, 0), (g_order, x_order))


def odd_coefficient_family(g_order: int, x_order: int) -> dict:
    """Coefficients a_{2i+1}(g) of x e^{A(g, x)} = sum a_{2i+1} x^{2i+1} for
    A = (1/g) Arg eta, i = 0..x_order//2, with a_1 = 1 exactly: the stage
    runs over Q and each a_{2i+1} is lifted once.  ``solve_sector_ansatz``
    builds the same family itself, unlifted."""
    a = _exp(_arg_eta_over_g(g_order, x_order // 2), g_order)
    return {i: _series(p, g_order) for i, p in enumerate(a)}


def solve_sector_ansatz(g_order: int, max_sector: int, flavor: str,
                        branch: int = 0) -> Transseries:
    """Solve  -E(g) eps + sum_{i>=0} a_{2i+1} X^{2i+1} = 0  for the transseries

        X = sum_{l odd} S_l(g) eps^l ,   S_l = R_l(g) E(g)^l ,

    to g^g_order.  With u = E eps, y = X^2 and a(y) = sum a_{2i+1} y^i the
    condition reads X = u / a(X^2), so Lagrange inversion gives the
    rational prefactors

        R_l = (1/l) [y^k] exp(-l log a(y)) ,   k = (l-1)/2 .

    Both inputs are built here by flavor.  The growth exponent log E is
    ``log_growth_unit`` for the bound flavor and
    ``log_growth_unit_scatter`` for the scattering one, and E is its exp;
    E^2 is formed only when a sector past 1 is asked for.  The odd family
    is built over Q in dense integer polynomials, as far as a_{max_sector}:
    the bound one of ``odd_coefficient_family``, or for the scattering
    flavor its image a~_{2i+1} = (-1)^i a_{2i+1}.  Each R_l is lifted into the
    ring once, then multiplied by E^l.  An unknown flavor raises
    ValueError, and max_sector < 1 or a g_order past the zeta ladder
    raises SeriesError, each before any work over Q.  The solve fails
    loudly if the R_l, plugged back into the condition with E = 1 in the
    same arithmetic, leave a nonzero sector.  The returned transseries
    carries ({l: R_l}, log E, E) as ``solved``, from which
    ``bound.beta_transseries`` builds the beta.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if max_sector < 1:
        raise SeriesError("the sector solve needs max_sector >= 1")
    log_e = (log_growth_unit_scatter if flavor == "scattering"
             else log_growth_unit)(g_order)
    e = log_e.exp()
    n = g_order
    k = (max_sector - 1) // 2
    a = _exp(_arg_eta_over_g(n, k), n)
    if flavor == "scattering":
        a = [([-x for x in nums], den) if i % 2 else (nums, den)
             for i, (nums, den) in enumerate(a)]
    r = _sector_prefactors(a, n)
    # sum_i a_i x^(2i+1) = u at x = u rho(u^2), rho = sum_j R_(2j+1) y^j,
    # is rho(y) sum_i a_i z^i = 1 with z = y rho^2, by Horner in z
    z = [_const(0, n)] + _ymul(r, r, n, k - 1)
    acc = [a[k]]
    for i in range(k - 1, -1, -1):
        acc = _ymul(z, acc, n, k)
        acc[0] = a[i]
    resid = _ymul(r, acc, n, k)
    bad = [2 * j + 1 for j, p in enumerate(resid)
           if p != _const(int(j == 0), n)]
    if bad:
        raise SeriesError(f"sectors {bad} of the rational prefactor "
                          "residual do not vanish")
    prefactors = {2 * j + 1: _series(p, n) for j, p in enumerate(r)}
    sectors = {}
    e_pow, e_sq = e, (e * e if max_sector >= 3 else None)
    for l, p in prefactors.items():
        if l > 1:
            e_pow = e_pow * e_sq
        sectors[l] = p * e_pow
    out = Transseries(sectors, branch, flavor, max_sector)
    out.solved = (prefactors, log_e, e)
    return out
