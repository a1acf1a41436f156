"""Test-side oracles: routes that the library no longer takes, kept to
check the routes it does take.

The generator-free sector stage (``expansions``) runs over Q in dense
integer polynomials.  Here is its former route in the constants ring:
the profile eta as a product of the series inverses 1/(1+ig+j), Arg eta
as ``log().imag_part()``, the odd family by ``exp()``, and the rational
prefactors R_l by a series inverse and ``series.lagrange_coefficients``;
and the plug-back residual of the sector condition as a ``Transseries``
sum.

The flow-ODE cross-check of the table, f and beta, and the unit
eps(g, xi) it is built on, have no caller in the library either and live
here too.
"""

from fractions import Fraction
from math import factorial

from ispflow.constexpr import GRat
from ispflow.expansions import growth_unit_series
from ispflow.series import SeriesError, TruncSeries, lagrange_coefficients
from ispflow.transseries import Transseries


def eta_series(g_order, x_order, var="xi", sign=1):
    """eta(g, xi) = sum_m (1/m!) prod_(j<m) 1/(1+ig+j) xi^(2m), each factor
    inverted as a series in g; ``sign`` -1 gives the oscillatory profile
    eta~(g, sigma) = eta(g, i sigma) from its own defining sum."""
    vars_, to = ("g", var), (g_order, x_order)
    i_g = TruncSeries.var("g", ("g",), (g_order,), coef=GRat(0, 1))
    out = TruncSeries.const(1, vars_, to)
    prod = TruncSeries.const(1, ("g",), (g_order,))
    for m in range(1, x_order // 2 + 1):
        prod = prod * (i_g + m).inverse()
        coef = GRat(Fraction(sign ** m, factorial(m)))
        out = out + prod.extend_to(vars_, to).shift(var, 2 * m) * coef
    return out


def arg_eta_over_g(g_order, x_order, var="xi", sign=1):
    """(1/g) Arg eta as Im log eta, divided by g with a shift."""
    arg = eta_series(g_order + 1, x_order, var, sign).log().imag_part()
    if arg.lead_exponents()[0] < 1:
        raise SeriesError("Arg eta has a g-independent term")
    return arg.shift("g", -1).truncate((g_order, x_order))


def odd_coefficient_family(arg_over_g):
    """{i: [x^(2i)] exp(arg_over_g)}, each a TruncSeries in g."""
    w = arg_over_g.exp()
    g_order, x_order = w.trunc_order
    out = {i: {} for i in range(x_order // 2 + 1)}
    for (t, m), c in w.coeffs.items():
        if m % 2:
            raise SeriesError("odd x-power in an even profile")
        out[m // 2][(t,)] = c
    return {i: TruncSeries(("g",), coeffs, (0,), (g_order,))
            for i, coeffs in out.items()}


def sector_prefactors(a_odd, max_sector):
    """{l: R_l} for odd l <= max_sector: R_l = (1/l) [X^(l-1)] A^(-l) with
    A = sum_i a_(2i+1) X^(2i), by a series inverse and Lagrange-Buermann
    inversion."""
    terms = {(t, 2 * i): c for i, a in a_odd.items() if 2 * i < max_sector
             for (t,), c in a.coeffs.items()}
    g_trunc = min(a.trunc_order[0] for a in a_odd.values())
    a_series = TruncSeries(("g", "X"), terms, None, (g_trunc, max_sector - 1))
    out = lagrange_coefficients(a_series.inverse(), "X", max_sector)
    return {l: out[l] for l in range(1, max_sector + 1, 2)}


def sector_condition_residual(e_series, a_odd, x):
    """-E u + sum_i a_(2i+1) x^(2i+1) for a candidate solution x of
    ``expansions.solve_sector_ansatz``, sector by sector."""
    out = Transseries({1: -e_series}, x.branch, x.flavor, x.max_sector)
    power = None
    x2 = x * x
    for i in sorted(a_odd):
        if 2 * i + 1 > x.max_sector:
            break
        power = x if power is None else power * x2
        out = out + power * a_odd[i]
    return out


def ground_state_residual(cond, f):
    """The residual of f in the ground-state condition ``cond``, with the
    growth unit E at the condition's g-order."""
    return sector_condition_residual(growth_unit_series(cond.g_order),
                                     cond.a_odd, f)


def unit_in_cutoff_variables(f, xi_order, g_order):
    """The non-perturbative unit eps as a series in (g, xi) along the flow.

    xi = sum_l S_l(g) eps^l = eps D(g, eps) with D(g, y) = sum_l S_l y^(l-1),
    so eps = xi phi(eps) with phi = 1/D, and by Lagrange inversion
    [xi^k] eps = (1/k) [y^(k-1)] phi^k.
    """
    g_order = min([g_order] + [s.trunc_order[0] for s in f.sectors.values()])
    d = TruncSeries(("g", "y"),
                    {(e[0], l - 1): c for l, s in f.sectors.items()
                     for e, c in s.coeffs.items()},
                    None, (g_order, xi_order - 1))
    return TruncSeries(("g", "xi"),
                       {(e[0], k): c for k, s in
                        lagrange_coefficients(d.inverse(), "y",
                                              xi_order).items()
                        for e, c in s.coeffs.items()},
                       None, (g_order, xi_order))


def flow_ode_residual(table, f, beta, p_max, l_max):
    """Cells where  Lambda d g(Lambda)/d Lambda  differs from  beta(g(Lambda)).

    Both sides are expanded in (xi, rho); the left side is
    -rho^2 dG/drho - xi dG/dxi on the solved table G.
    """
    table = table.substitute_level(2 * f.branch + 1)
    g_series = table.as_series("xi", p_max, l_max)
    lhs = (-(g_series.derivative("rho").shift("rho", 2))
           - g_series.derivative("xi").shift("xi", 1))

    g_order = min(s.trunc_order[0] for s in beta.ts.sectors.values())
    eps_gxi = unit_in_cutoff_variables(f, p_max, g_order)
    rhs = None
    for l, s in beta.ts.sectors.items():
        term = s.extend_to(("g", "xi"), (g_order, p_max))
        if l:
            term = term * eps_gxi ** l
        rhs = term if rhs is None else rhs + term
    rhs = rhs.substitute_var("g", g_series)

    bad = []
    for p in range(0, p_max + 1, 2):
        for l in range(2, l_max + 1):
            diff = lhs.coefficient((p, l)) - rhs.coefficient((p, l))
            if not diff.is_zero():
                bad.append((p, l, diff))
    return bad
