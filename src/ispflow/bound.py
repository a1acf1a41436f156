"""Bound-sector renormalization: ground-state transseries, running-coupling
table, resummation checks, and the beta function.

Conventions.  The non-perturbative unit of every transseries here is
eps = exp(-(2b+1) pi/g - gamma); sector l carries eps^l.  The leading
growth factor E(g) = exp(gamma + Arg Gamma(1+ig)/g) is a clean power series
in g^2 with zeta-polynomial coefficients, so all sector series stay inside
the exact constants ring.  The exponentiated quantization condition is

    a0 e^{-(2b+1)pi/g} + sum_i a_{2i+1} (Lambda_IR/Lambda)^{2i+1} = 0 ,

with a0 = -e^{-gamma} E(g); we store E and keep the e^{-gamma} in the unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .constexpr import DEFAULT_DPS, ConstExpr, GeneratorValues
from .coupling import (BOUND_COLUMNS, BOUND_COLUMN_IDS, GAMMA_LADDER,
                       CouplingTable, N_PI, resummation_check,
                       solve_coupling_table, structure_fit)
from .expansions import (ARG_GAMMA_MAX_ORDER, arg_eta_over_g,
                         arg_gamma_series, growth_unit_series, eta_series,
                         odd_coefficient_family, sector_condition_residual,
                         solve_sector_ansatz)
from .series import SeriesError, TruncSeries, lagrange_coefficients
from .transseries import Transseries


@dataclass
class GroundStateCondition:
    """Exponentiated quantization condition in polynomial form.

    a0_scaled is E(g) = -a0 * e^gamma (unit constant term); a_odd[i] is the
    coefficient a_{2i+1}(g) of (Lambda_IR/Lambda)^{2i+1}, with a_odd[0] = 1.
    """

    a0_scaled: TruncSeries
    a_odd: dict
    branch: int
    g_order: int
    x_order: int

    def a0_value(self, g, dps: int = DEFAULT_DPS):
        """Numeric a0(g) = -e^{-gamma} E(g) at ``dps`` digits;
        a0(0) = -e^{-gamma}."""
        with GeneratorValues(dps=dps) as gens:
            return -mp.e ** (-gens["gamma"]) * self.a0_scaled._eval(
                {"g": g}, gens)


def build_ground_state_condition(g_order: int, xi_order: int,
                                 b: int = 0) -> GroundStateCondition:
    if g_order < 3 or xi_order < 3:
        raise SeriesError("orders must be at least 3")
    e = growth_unit_series(g_order)
    a_odd = odd_coefficient_family(arg_eta_over_g(g_order, xi_order + 1))
    return GroundStateCondition(e, a_odd, b, g_order, xi_order)


def ground_state_transseries(cond: GroundStateCondition,
                             max_sector: int) -> Transseries:
    """Transseries solution Lambda_IR/Lambda = f(g), sectors 1,3,..,max_sector."""
    if max_sector > 2 * max(cond.a_odd) + 1:
        raise SeriesError(f"condition holds a-coefficients only up to index "
                          f"{2 * max(cond.a_odd) + 1}; cannot reach sector "
                          f"{max_sector}")
    return solve_sector_ansatz(cond.a0_scaled, cond.a_odd, max_sector,
                               "bound", cond.branch)


def ground_state_residual(cond: GroundStateCondition,
                          f: Transseries) -> Transseries:
    return sector_condition_residual(cond.a0_scaled, cond.a_odd, f)


# ---------------------------------------------------------------------------
# Running-coupling table.
# ---------------------------------------------------------------------------

def bound_condition_series(g_order: int, xi_order: int) -> TruncSeries:
    """rho-free part of the running-coupling condition:
    n pi - Arg Gamma(1+ig) + Arg eta(g, xi), as a series in (g, xi)."""
    ag = arg_gamma_series(min(g_order, ARG_GAMMA_MAX_ORDER))
    arg_eta = eta_series(g_order, xi_order, "xi").log().imag_part()
    vars_ = ("g", "xi")
    out = (TruncSeries.const(N_PI, vars_, (g_order, xi_order))
           - ag.extend_to(vars_) + arg_eta)
    return out.truncate((g_order, xi_order))


def running_coupling_coeffs(p_max: int, l_max: int,
                            g_order: int | None = None) -> CouplingTable:
    """Solve the bound-sector table c_{p,l} for p <= p_max, l <= l_max."""
    if g_order is None:
        g_order = max(l_max - 1, 3)
    cond = bound_condition_series(g_order, p_max)
    return solve_coupling_table(cond, p_max, l_max, "bound")


def bound_resummation_report(table: CouplingTable, l_max: int | None = None):
    """Run the four closed-form column checks; returns {label: (ok, residuals)}."""
    l_max = table.l_max if l_max is None else l_max
    return {label: resummation_check(table, BOUND_COLUMNS[label], l_max)
            for label in BOUND_COLUMN_IDS}


def bound_structure_fit(table: CouplingTable):
    return structure_fit(table, GAMMA_LADDER, +1)


# ---------------------------------------------------------------------------
# Beta function.
# ---------------------------------------------------------------------------

@dataclass
class BetaTransseries:
    ts: Transseries

    def check_sector_structure(self):
        """Every sector must start at g^2; the perturbative one at -g^2/pi."""
        for l, s in self.ts.sectors.items():
            lead = min(e[0] for e in s.coeffs)
            assert lead >= 2, f"beta sector {l} starts at g^{lead}"
        c2 = self.ts.sector(0).coefficient((2,))
        assert c2 == ConstExpr.monomial(-1, pi=-1), \
            f"leading perturbative coefficient is {c2}"

    def eval_mp(self, g, assignment=None, dps: int = DEFAULT_DPS):
        """Real part of ``Transseries.eval_mp``."""
        return mp.re(self.ts.eval_mp(g, assignment, dps))


def beta_transseries(f: Transseries, max_sector: int | None = None) -> BetaTransseries:
    """beta = -f / (df/dg) by graded division.

    Requires branch b = 0 (the level substitutes to 1, so the coefficients
    stay free of the formal level generator).
    """
    if f.branch != 0:
        raise ValueError("beta is derived on branch 0; rescale the level "
                         "via the table's branch covariance instead")
    fp = f.derivative_g()
    beta = (-f) / fp
    if max_sector is not None:
        # the constructor drops the sectors beyond max_sector
        beta = Transseries(beta.sectors, beta.branch, beta.flavor, max_sector)
    out = BetaTransseries(beta)
    out.check_sector_structure()
    return out


def _arg_gamma_mp(g):
    return mp.im(mp.loggamma(1 + mp.mpc(0, 1) * g))


def _w_mp(g):
    """W(g) = d/dg [Arg Gamma(1+ig) / g]."""
    return (g * mp.re(mp.psi(0, 1 + mp.mpc(0, 1) * g)) - _arg_gamma_mp(g)) / g ** 2


def beta_exact_sector_eval(g, sector: int, dps: int = DEFAULT_DPS):
    """Closed-form numeric evaluation of beta sector ``sector`` (branch 0),
    including its non-perturbative factor u^sector, u = E eps
    = exp((Arg Gamma(1+ig) - pi)/g).

    With the exact sector prefactors R_l of ``golden.SECTOR_PREFACTORS``,
    f = u sum_i R_{2i+1} t^i and f' = u sum_i b_i t^i in t = u^2, where
    b_i = R_l' + l V R_l (l = 2i+1) and V = (log u)' = pi/g^2 + W.  The
    graded division beta = -f/f' = -sum_j q_j t^j gives

        q_j = (R_{2j+1} - sum_{i<j} q_i b_{j-i}) / b_0 ,

    and sector 2j is -q_j u^{2j}: one sector per known prefactor.

    Evaluated at ``dps`` digits, whatever the global mpmath precision.
    """
    # imported here: building golden's tables would slow every import of bound
    from .golden import SECTOR_PREFACTORS
    top = max(SECTOR_PREFACTORS) - 1
    if sector % 2 or not 0 <= sector <= top:
        raise ValueError(f"closed forms are available for the even sectors "
                         f"0..{top}")
    with mp.workdps(dps):
        g = mp.mpf(g)
        if not 0 < g < 2:
            raise ValueError("g must lie in (0, 2)")
        v = mp.pi / g ** 2 + _w_mp(g)
        t = g ** 2
        b, q = [], []
        for j in range(sector // 2 + 1):
            l = 2 * j + 1
            num, den, scale = SECTOR_PREFACTORS[l]
            # R = N(t)/(scale D(t)) and, by the quotient rule with
            # d/dg = 2g d/dt, R' = 2g (N_t - N D_t/D)/(scale D)
            n, n_t = mp.polyval(num[::-1], t, derivative=True)
            d = scale * mp.fprod(a + c * t for a, c in den)
            dlog_d = mp.fsum(c / (a + c * t) for a, c in den)
            r = n / d
            b.append(2 * g * (n_t - n * dlog_d) / d + l * v * r)
            q.append((r - mp.fsum(q[i] * b[j - i] for i in range(j))) / b[0])
        return -q[-1] * mp.e ** (sector * (_arg_gamma_mp(g) - mp.pi) / g)


def excited_state_scale(n_level: int, g):
    """Scale ratio Lambda_n / Lambda_IR = exp(-(n_level - 1) pi / g)."""
    if n_level < 1:
        raise ValueError("levels are labelled from 1")
    g = mp.mpf(g)
    if g <= 0:
        raise ValueError("g must be positive")
    return mp.e ** (-(n_level - 1) * mp.pi / g)


# ---------------------------------------------------------------------------
# Cross-consistency: the table, f, and beta satisfy the defining flow ODE.
# ---------------------------------------------------------------------------

def unit_in_cutoff_variables(f: Transseries, xi_order: int,
                             g_order: int) -> TruncSeries:
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


def flow_ode_residual(table: CouplingTable, f: Transseries,
                      beta: BetaTransseries, p_max: int, l_max: int) -> list:
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
