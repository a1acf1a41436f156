"""Core exact expansions shared by the bound and scattering derivations.

Everything here is a formal series with exact coefficients:

* the odd-zeta expansion of Arg Gamma(1 + i g),
* the small-argument profile eta of the imaginary-order Bessel series,
  and the map x -> i sigma that gives its oscillatory kind eta~ from it,
* the odd-coefficient families a_1, a_3, a_5, ... obtained by
  exponentiating (1/g) Arg eta,
* the phase-shift branch offset arctan(-2 K tanh(pi g / 2)),
* the generic solver for transseries ansaetze of the form
  -E(g) eps + sum_i a_{2i+1} X^{2i+1} = 0, whose sectors are rational
  prefactors R_l(g) times E(g)^l.
"""

from __future__ import annotations

from fractions import Fraction

from .constexpr import PI, ZETA_ARGS, ConstExpr, GRat
from .series import SeriesError, TruncSeries, lagrange_coefficients
from .transseries import Transseries


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


def eta_series(g_order: int, x_order: int) -> TruncSeries:
    """The small-argument profile in (g, xi)

        eta(g, xi) = 1 + sum_{m>=1} (1/m!) prod_{j=0}^{m-1} 1/(1+ig+j) xi^{2m}

    with the rational factors expanded exactly in g.
    """
    vars_ = ("g", "xi")
    to = (g_order, x_order)
    out = TruncSeries.const(1, vars_, to)
    term = TruncSeries.const(1, ("g",), (g_order,))
    for m in range(1, x_order // 2 + 1):
        term = term * _inv_linear(m - 1, g_order) * GRat(Fraction(1, m))
        out = out + term.extend_to(vars_, to).shift("xi", 2 * m)
    return out


def _inv_linear(j: int, g_order: int) -> TruncSeries:
    """1/(1 + ig + j) expanded in g: sum_t (-i)^t g^t / (j+1)^(t+1)."""
    coeffs = {}
    for t in range(g_order + 1):
        re, im = ((1, 0), (0, -1), (-1, 0), (0, 1))[t % 4]    # (-i)^t
        q = Fraction(1, (j + 1) ** (t + 1))
        coeffs[(t,)] = ConstExpr.number(re * q, im * q)
    return TruncSeries(("g",), coeffs, (0,), (g_order,))


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


def arg_eta_over_g(g_order: int, x_order: int) -> TruncSeries:
    """(1/g) Arg eta, an even g-series whose xi-expansion starts at xi^2."""
    eta = eta_series(g_order + 1, x_order)
    arg = eta.log().imag_part()
    lead = arg.lead_exponents()
    if not arg.is_zero() and lead[0] < 1:
        raise SeriesError("Arg eta has a g-independent term; conjugation "
                          "symmetry is broken")
    return arg.shift("g", -1).truncate((g_order, x_order))


def odd_coefficient_family(arg_over_g: TruncSeries) -> dict:
    """Coefficients a_{2i+1}(g) of x e^{A(g, x)} = sum a_{2i+1} x^{2i+1},
    for A = (1/g) Arg eta or its image x -> i sigma (a~ = (-1)^i a).

    Returns {i: TruncSeries in g}, i = 0..x_order//2, with a_1 = 1 exactly.
    """
    w = arg_over_g.exp()
    g_order, x_order = w.trunc_order
    out = {i: {} for i in range(x_order // 2 + 1)}
    for (t, m), c in w.coeffs.items():
        if m % 2:
            raise SeriesError("odd x-power in an even profile")
        out[m // 2][(t,)] = c
    return {i: TruncSeries(("g",), coeffs, (0,), (g_order,))
            for i, coeffs in out.items()}


def solve_sector_ansatz(e_series: TruncSeries, a_odd: dict, max_sector: int,
                        flavor: str, branch: int = 0) -> Transseries:
    """Solve  -E(g) eps + sum_{i>=0} a_{2i+1} X^{2i+1} = 0  for the transseries

        X = sum_{l odd} S_l(g) eps^l ,   S_l = R_l(g) E(g)^l .

    With u = E eps and A(g, X) = sum a_{2i+1} X^(2i) the condition reads
    X = u / A(g, X), so Lagrange inversion gives the rational prefactors
    R_l = (1/l) [X^(l-1)] A^(-l).  The a_{2i+1} carry no transcendental
    generator, so the R_l are computed over Q[g] and each sector is then
    multiplied by E^l once.  a_1 must be exactly 1.  The solve fails loudly
    if the R_l, plugged back into the condition with E = 1, leave a nonzero
    sector.  The returned transseries carries ({l: R_l}, E) as ``solved``,
    from which ``bound.beta_transseries`` builds the beta.
    """
    if 0 not in a_odd or a_odd[0] != TruncSeries.const(
            1, ("g",), a_odd[0].trunc_order):
        raise SeriesError("a_1 must be exactly 1")
    terms = {(t, 2 * i): c for i, a in a_odd.items() if 2 * i < max_sector
             for (t,), c in a.coeffs.items()}
    g_trunc = min(a.trunc_order[0] for a in a_odd.values())
    a_series = TruncSeries(("g", "X"), terms, None, (g_trunc, max_sector - 1))
    prefactors = lagrange_coefficients(a_series.inverse(), "X", max_sector)
    prefactors = {l: prefactors[l] for l in range(1, max_sector + 1, 2)}
    rational = Transseries(prefactors, branch, flavor, max_sector)
    unit = TruncSeries.const(1, ("g",), e_series.trunc_order)
    resid = sector_condition_residual(unit, a_odd, rational)
    if resid.sectors:
        raise SeriesError(f"sectors {sorted(resid.sectors)} of the rational "
                          "prefactor residual do not vanish")
    sectors = {}
    e_pow, e_sq = e_series, e_series * e_series
    for l, r in prefactors.items():
        if l > 1:
            e_pow = e_pow * e_sq
        sectors[l] = r * e_pow
    out = Transseries(sectors, branch, flavor, max_sector)
    out.solved = (prefactors, e_series)
    return out


def sector_condition_residual(e_series: TruncSeries, a_odd: dict,
                              x: Transseries) -> Transseries:
    """Plug a candidate solution x back into the condition of
    solve_sector_ansatz."""
    out = Transseries({1: -e_series}, x.branch, x.flavor, x.max_sector)
    power = None
    x2 = x * x
    for i in sorted(a_odd):
        if 2 * i + 1 > x.max_sector:
            break
        power = x if power is None else power * x2
        out = out + power * a_odd[i]
    return out