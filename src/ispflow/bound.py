"""Bound-sector renormalization: ground-state transseries, running-coupling
table, resummation checks, and the beta function.

Conventions.  The non-perturbative unit of every transseries here is
eps = exp(-(2b+1) pi/g - gamma); sector l carries eps^l.  The leading
growth factor E(g) = exp(gamma + Arg Gamma(1+ig)/g) is a clean power series
in g^2 with zeta-polynomial coefficients, so all sector series stay inside
the exact constants ring.  The exponentiated quantization condition is

    a0 e^{-(2b+1)pi/g} + sum_i a_{2i+1} (Lambda_IR/Lambda)^{2i+1} = 0 ,

with a0 = -e^{-gamma} E(g).  The e^{-gamma} stays in the unit, and the
sector solve (``expansions.solve_sector_ansatz``) builds E itself from
log E, which the beta reads back.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .constexpr import DEFAULT_DPS, ConstExpr
from .coupling import (BOUND_COLUMNS, CouplingTable, N_PI, resummation_check,
                       solve_coupling_table, structure_fit)
from .expansions import (arg_eta_over_g, arg_gamma_series,
                         odd_coefficient_family, solve_sector_ansatz)
from .series import SeriesError, TruncSeries
from .specfun import arg_gamma, re_digamma
from .transseries import Transseries


@dataclass
class GroundStateCondition:
    """Exponentiated quantization condition in polynomial form, on branch b.

    a_odd[i] is the coefficient a_{2i+1}(g) of (Lambda_IR/Lambda)^{2i+1},
    with a_odd[0] = 1.  The growth unit E(g) = -a0 e^gamma is not held:
    the sector solve builds it to g^g_order.
    """

    a_odd: dict
    branch: int
    g_order: int
    x_order: int


def build_ground_state_condition(g_order: int, xi_order: int,
                                 b: int = 0) -> GroundStateCondition:
    if g_order < 3 or xi_order < 3:
        raise SeriesError("orders must be at least 3")
    if b < 0:
        raise ValueError("branches are labelled b >= 0")
    a_odd = odd_coefficient_family(g_order, xi_order + 1)
    return GroundStateCondition(a_odd, b, g_order, xi_order)


def ground_state_transseries(cond: GroundStateCondition,
                             max_sector: int) -> Transseries:
    """Transseries solution Lambda_IR/Lambda = f(g), sectors 1,3,..,max_sector,
    to the condition's g-order and on its branch."""
    return solve_sector_ansatz(cond.g_order, max_sector, "bound",
                               cond.branch)


# ---------------------------------------------------------------------------
# Running-coupling table.
# ---------------------------------------------------------------------------

def bound_condition_series(g_order: int, xi_order: int) -> TruncSeries:
    """rho-free part of the running-coupling condition:
    n pi - Arg Gamma(1+ig) + Arg eta(g, xi), as a series in (g, xi)."""
    ag = arg_gamma_series(g_order)
    arg_eta = arg_eta_over_g(g_order - 1, xi_order).shift("g", 1)
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
    return {label: resummation_check(table, column, l_max)
            for label, column in BOUND_COLUMNS.items()}


def bound_structure_fit(table: CouplingTable):
    return structure_fit(table)


# ---------------------------------------------------------------------------
# Beta function.
# ---------------------------------------------------------------------------

def _beta_quotients(prefactors, v, inv_v) -> list:
    """q_j = (R_(2j+1) - sum_(i<j) q_i b_(j-i)) (1/V), b_k = R_l' + l V R_l
    (l = 2k+1), from the pairs (R_l, R_l') of l = 1, 3, ..: one loop for
    ``beta_transseries`` on series and ``beta_exact_sector_eval`` on
    numbers."""
    b, q = [], []
    for j, (r, dr) in enumerate(prefactors):
        b.append(dr + v * r * (2 * j + 1))
        acc = r
        for i in range(j):
            acc = acc - q[i] * b[j - i]
        q.append(acc * inv_v)
    return q


@dataclass
class BetaTransseries:
    ts: Transseries

    def check_sector_structure(self):
        """Every sector must start at g^2; the perturbative one on branch b
        at -g^2/((2b+1) pi), which is -g^2/pi on branch 0."""
        for l, s in self.ts.sectors.items():
            lead = min(e[0] for e in s.coeffs)
            if lead < 2:
                raise SeriesError(f"beta sector {l} starts at g^{lead}")
        c2 = self.ts.sector(0).coefficient((2,))
        if c2 * (2 * self.ts.branch + 1) != ConstExpr.monomial(-1, pi=-1):
            raise SeriesError(f"leading perturbative coefficient is {c2}")

    def eval_mp(self, g, assignment=None, dps: int = DEFAULT_DPS):
        """Real part of ``Transseries.eval_mp``."""
        return mp.re(self.ts.eval_mp(g, assignment, dps))


def beta_transseries(f: Transseries, max_sector: int | None = None) -> BetaTransseries:
    """beta = -f / (df/dg), sector by sector in closed form, on the branch
    and flavor of f.

    f must come from ``solve_sector_ansatz``, which leaves its prefactors
    R_l, log E and the growth unit E on it; any other transseries raises
    SeriesError.  With u = E eps, f = sum_l R_l u^l and V = (log u)' =
    (2b+1) pi/g^2 + (log E)', so f' = u sum_k b_k u^(2k) with
    b_k = R_l' + l V R_l for l = 2k+1.  Then beta = -sum_j q_j u^(2j), where

        q_0 = 1/V ,   q_j = (R_(2j+1) - sum_(i<j) q_i b_(j-i)) / V ,

    and sector 2j is -q_j E^(2j).  1/V = g^2/((2b+1) pi + g^2 (log E)')
    is one series inverse of the log E that f carries, and E^2 is formed
    only when sector 2 is asked for.  Both flavors take this one loop,
    ``_beta_quotients``: the scattering signs are in the R_l, and the
    branch enters only through (2b+1) pi.  The sectors and their
    truncation orders are those of the graded division
    (-f) / f.derivative_g(), which the tests hold this to.

    Sector f.max_sector - 1 is the last; a ``max_sector`` past it raises
    ``SeriesError``.
    """
    if f.solved is None:
        raise SeriesError("beta needs the prefactors R_l and the growth unit "
                          "that solve_sector_ansatz leaves on its f")
    top = f.max_sector - 1
    if max_sector is None:
        max_sector = top
    elif max_sector > top:
        raise SeriesError(f"f gives beta only through sector {top}, "
                          f"not {max_sector}")
    prefactors, log_e, e = f.solved
    g2_v = (log_e.derivative("g").shift("g", 2)
            + ConstExpr.monomial(2 * f.branch + 1, pi=1))
    q = _beta_quotients([(prefactors[l], prefactors[l].derivative("g"))
                         for l in range(1, max_sector + 2, 2)],
                        g2_v.shift("g", -2), g2_v.inverse().shift("g", 2))
    e_sq = e * e if max_sector >= 2 else None
    e_pow = None
    sectors = {0: -q[0]}
    for j in range(1, len(q)):
        e_pow = e_sq if e_pow is None else e_pow * e_sq
        sectors[2 * j] = -(q[j] * e_pow)
    out = BetaTransseries(Transseries(sectors, f.branch, f.flavor,
                                      max_sector))
    out.check_sector_structure()
    return out


def beta_exact_sector_eval(g, sector: int, dps: int = DEFAULT_DPS):
    """Closed-form numeric evaluation of beta sector ``sector`` (branch 0),
    including its non-perturbative factor u^sector, u = E eps
    = exp((Arg Gamma(1+ig) - pi)/g).

    With the exact sector prefactors R_l of ``golden.SECTOR_PREFACTORS``,
    f = u sum_i R_{2i+1} t^i and f' = u sum_i b_i t^i in t = u^2, where
    b_i = R_l' + l V R_l (l = 2i+1) and V = (log u)' = pi/g^2 + W, with
    W = (Arg Gamma(1+ig)/g)' = (g Re psi(1+ig) - Arg Gamma(1+ig))/g^2;
    Arg Gamma(1+ig) is evaluated once, for W and u.  The graded division
    beta = -f/f' = -sum_j q_j t^j gives

        q_j = (R_{2j+1} - sum_{i<j} q_i b_{j-i}) / V ,

    by ``_beta_quotients``, the loop ``beta_transseries`` runs on series,
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
        a = arg_gamma(g)
        v = mp.pi / g ** 2 + (g * re_digamma(g) - a) / g ** 2
        t = g ** 2
        prefactors = []
        for l in range(1, sector + 2, 2):
            num, den, scale = SECTOR_PREFACTORS[l]
            # R = N(t)/(scale D(t)), D(t) = prod (c0 + c1 t), and by the
            # quotient rule with d/dg = 2g d/dt,
            # R' = 2g (N_t - N D_t/D)/(scale D)
            n, n_t = mp.polyval(num[::-1], t, derivative=True)
            d = scale * mp.fprod(c0 + c1 * t for c0, c1 in den)
            dlog_d = mp.fsum(c1 / (c0 + c1 * t) for c0, c1 in den)
            prefactors.append((n / d, 2 * g * (n_t - n * dlog_d) / d))
        q = _beta_quotients(prefactors, v, 1 / v)
        return -q[-1] * mp.e ** (sector * (a - mp.pi) / g)


def excited_state_scale(n_level: int, g):
    """Scale ratio Lambda_n / Lambda_IR = exp(-(n_level - 1) pi / g), at
    DEFAULT_DPS digits."""
    if n_level < 1:
        raise ValueError("levels are labelled from 1")
    with mp.workdps(DEFAULT_DPS):
        g = mp.mpf(g)
        if g <= 0:
            raise ValueError("g must be positive")
        return mp.e ** (-(n_level - 1) * mp.pi / g)
