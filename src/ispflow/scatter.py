"""Scattering-sector renormalization.

The phase condition

    K + (1/2) coth(pi g / 2) tan[ g ln(p/Lambda) - Arg Gamma(1+ig)
                                  + Arg eta~(p/Lambda) ] = 0

plays the role the quantization condition plays for bound states.  Solving
the tangent for its argument turns it into the same polynomial shape as the
bound condition, with the branch offset arctan(-2 K tanh(pi g/2)) carrying
all K dependence.  Since eta~(g, sigma) = eta(g, i sigma), the condition
and the tangent argument are the bound ones carried through
``expansions.imaginary_argument``, and the sector solve takes the
scattering odd family by flavor; coupling table, sector ansatz and the
closed-form beta recurrence then run unchanged, with
eps = exp(-n pi/g - gamma - K pi).

The cross-sector expansion rewrites the scattering coupling in terms of the
bound coupling by substituting p/Lambda -> shat * f(g_B) and
ln(Lambda/p) -> pi L - ln f(g_B) into its columns head sigma^p0 / D^q.  As
ln f = -(pi/g_B + gamma) + ln(f/eps), that gamma cancels the ladder's, so
D = pi/g_B + pi (L - K) - ln(f/eps) - sigma^2; the result is free of gamma
and graded by even powers of eps = exp(-(pi/g_B + gamma)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .bound import BetaTransseries, beta_transseries, bound_condition_series
from .constexpr import DEFAULT_DPS, PI, ConstExpr, GRat
from .coupling import (CouplingTable, N_PI, coupling_heads,
                       solve_coupling_table)
from .expansions import (imaginary_argument, phase_branch_offset,
                         solve_sector_ansatz)
from .series import SeriesError, TruncSeries
from .transseries import Transseries


# ---------------------------------------------------------------------------
# Phase condition.
# ---------------------------------------------------------------------------

@dataclass
class PhaseCondition:
    """Assembled phase condition as a formal series.

    ``series`` is K + (1/2)coth(pi g/2) tan(g u) in (g, sigma) with the
    cutoff log ln(Lambda/p) carried by the polynomial generator ``lam``
    (u = -lam + gamma - zeta3 g^2/3 + ... + (1/g) Arg eta~).  The tangent is
    expanded about zero, so this object is the formal identity used to
    exhibit the cancellation of the coth pole.
    """

    series: TruncSeries
    g_order: int
    sigma_order: int

    def assert_pole_free(self):
        lead = self.series.lead_exponents()
        if not self.series.is_zero() and lead[0] < 0:
            raise SeriesError("phase condition keeps a 1/g pole; the coth "
                              "pole failed to cancel")


def half_coth_series(g_order: int) -> TruncSeries:
    """(1/2) coth(pi g / 2) = 1/(pi g) + pi g/12 - ... as a Laurent series,
    (1/2)(e^(pi g) + 1)/(e^(pi g) - 1); dividing by e^(pi g) - 1 = pi g + ...
    costs two orders of the exponential."""
    e = TruncSeries.var("g", ("g",), (g_order + 2,), coef=PI).exp()
    return ((e + 1) / (e - 1) * Fraction(1, 2)).truncate((g_order,))


def _tan(w: TruncSeries) -> TruncSeries:
    """tan w = Im e^(iw) / Re e^(iw) for w with real coefficients."""
    e = (w * GRat(0, 1)).exp()
    return e.imag_part() / e.real_part()


def _tan_argument_over_g(g_order: int, sigma_order: int) -> TruncSeries:
    """u = ln(p/Lambda) - Arg Gamma(1+ig)/g + (1/g) Arg eta~(sigma), i.e.
    (bound condition - n pi)/g at xi -> i sigma, less lam = ln(Lambda/p)."""
    c = bound_condition_series(g_order + 1, sigma_order) - N_PI
    u = imaginary_argument(c, "xi", "sigma").shift("g", -1)
    return (u - ConstExpr.generator("lam")).truncate((g_order, sigma_order))


def build_phase_condition(g_order: int, sigma_order: int) -> PhaseCondition:
    if g_order < 3 or sigma_order < 3:
        raise SeriesError("orders must be at least 3")
    u = _tan_argument_over_g(g_order + 1, sigma_order)
    gu = u.shift("g", 1)
    tan_gu = _tan(gu)
    hc = half_coth_series(g_order + 1)
    series = (TruncSeries.const(ConstExpr.generator("K"), ("g", "sigma"),
                                (g_order, sigma_order))
              + (hc.extend_to(("g", "sigma")) * tan_gu
                 ).truncate((g_order, sigma_order)))
    pc = PhaseCondition(series, g_order, sigma_order)
    pc.assert_pole_free()
    return pc


# ---------------------------------------------------------------------------
# Coupling table.
# ---------------------------------------------------------------------------

def scatter_condition_series(g_order: int, sigma_order: int) -> TruncSeries:
    """rho-free part of the scattering running-coupling condition:
    n pi - Arg Gamma(1+ig) + Arg eta~(g, sigma) - arctan(-2K tanh(pi g/2)),
    i.e. the bound condition at xi -> i sigma less the branch offset."""
    return imaginary_argument(bound_condition_series(g_order, sigma_order),
                              "xi", "sigma") - phase_branch_offset(g_order)


def scatter_coupling_coeffs(p_max: int, l_max: int) -> CouplingTable:
    cond = scatter_condition_series(max(l_max - 1, 3), p_max)
    return solve_coupling_table(cond, p_max, l_max, "scattering")


# ---------------------------------------------------------------------------
# Scattering transseries and beta.
# ---------------------------------------------------------------------------

def scatter_beta(max_sector: int, g_order: int = 10) -> BetaTransseries:
    """Scattering beta = -sigma(g)/sigma'(g), sectors 0..max_sector, by
    ``bound.beta_transseries``'s recurrence.  p/Lambda = sigma(g) =
    sum_l S_l(g) eps^l, eps = exp(-n pi/g - gamma - K pi), is the
    scattering sector solve: the odd family is the bound one at
    xi -> i sigma, so S_l = (-1)^((l-1)/2) R_l E_hat^l with the bound
    prefactors R_l, and E_hat is its growth unit."""
    f_s = solve_sector_ansatz(g_order, max_sector + 1, "scattering")
    return beta_transseries(f_s, max_sector)


# ---------------------------------------------------------------------------
# Cross-sector expansion and the analytic continuation check.
# ---------------------------------------------------------------------------

def cross_sector_expansion(g_order: int, max_sector: int) -> Transseries:
    """The scattering coupling expanded in the bound coupling g_B (n = 1,
    branch 0).

    Sector l of the returned (bound-flavored) transseries multiplies
    eps^l = exp(-l (pi/g_B + gamma)), as ``Transseries.eval_mp`` weights
    it, and only even l occur; its series carry the generators K, L and
    shat = p/Lambda_IR.  ``max_sector`` counts the even non-perturbative
    orders, so sectors 0, 2, .., 2 max_sector are returned.
    """
    eps_max = 2 * max_sector
    # sigma^p0 starts at eps^p0, so the heads reach p0 = eps_max
    heads = coupling_heads(scatter_condition_series(max(g_order, 3), eps_max),
                           eps_max, g_order + 1, "scattering")

    vars_ = ("g", "eps")
    to = (g_order + 2, eps_max)
    f = solve_sector_ansatz(g_order + 2, eps_max + 1, "bound")
    f_series = None
    for l, s in f.sectors.items():
        term = s.extend_to(vars_, to).shift("eps", l)
        f_series = term if f_series is None else f_series + term

    # f/eps = E(1 + u) has constant term 1, so its log is one step
    sigma = f_series * ConstExpr.generator("shat")
    sigma_sq = (sigma * sigma).truncate(to)
    d = (TruncSeries.var("g", vars_, to, power=-1,
                         coef=ConstExpr.generator("pi"))
         + ConstExpr.monomial(1, pi=1, L=1) - ConstExpr.monomial(1, pi=1, K=1)
         - f_series.shift("eps", -1).log() - sigma_sq)
    inv_d = d.inverse()

    inv_d_pow = {0: TruncSeries.const(1, vars_, to)}
    sig_pow = {0: TruncSeries.const(1, vars_, to)}
    for q in range(1, g_order + 2):
        inv_d_pow[q] = (inv_d_pow[q - 1] * inv_d).truncate(to)
    for p in range(2, eps_max + 1, 2):
        sig_pow[p] = (sig_pow[p - 2] * sigma_sq).truncate(to)
    out = None
    for (p0, q), head in heads.items():
        term = (sig_pow[p0] * inv_d_pow[q]) * head.substitute("n", 1)
        out = term if out is None else out + term
    out = out.truncate((g_order, eps_max))

    sectors = {}
    for (gk, ek), c in out.coeffs.items():
        if ek % 2:
            raise SeriesError("odd non-perturbative order in the cross-"
                              "sector expansion")
        sectors.setdefault(ek, {})[(gk,)] = c
    g_trunc = out.trunc_order[0]
    return Transseries(
        {l: TruncSeries(("g",), coeffs, (0,), (g_trunc,))
         for l, coeffs in sectors.items()},
        0, "bound", eps_max)


def analytic_continuation_check(g_order: int = 5, max_sector: int = 2,
                                cross: Transseries | None = None) -> bool:
    """Substituting K -> -i/2, L -> -i/2, shat^2 -> -1 must collapse the
    cross-sector expansion to the identity g_S = g_B, sector by sector."""
    if cross is None:
        cross = cross_sector_expansion(g_order, max_sector)
    half_i = GRat(0, Fraction(-1, 2))

    def continue_coeff(c: ConstExpr) -> ConstExpr:
        return (c.substitute("K", half_i)
                .substitute("L", half_i)
                .substitute("shat", GRat(0, 1)))

    for l, s in cross.sectors.items():
        mapped = s.map_coeffs(continue_coeff)
        if l == 0:
            expect = TruncSeries.var("g", ("g",), s.trunc_order)
            if not (mapped - expect).is_zero():
                return False
        elif not mapped.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Fixed point in physical observables.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointRelation:
    """tan(delta0) = (ln(p/Lambda_IR) + pi/2) / (ln(p/Lambda_IR) - pi/2),
    equivalently tan(delta + pi/4) = (2/pi) ln(Lambda_IR / p), and across
    two momenta tan(delta'(p1)) = tan(delta'(p0)) - (2/pi) ln(p1/p0).  Each
    relation is evaluated at DEFAULT_DPS digits."""

    def delta0(self, p_over_lambda_ir):
        with mp.workdps(DEFAULT_DPS):
            x = mp.log(mp.mpf(p_over_lambda_ir))
            den = x - mp.pi / 2
            if den == 0:
                raise ZeroDivisionError("singular at ln(p/Lambda_IR) = pi/2")
            return mp.atan((x + mp.pi / 2) / den)

    def tan_delta_prime(self, p_over_lambda_ir):
        """tan(delta + pi/4) at the fixed point: (2/pi) ln(Lambda_IR/p)."""
        with mp.workdps(DEFAULT_DPS):
            return -(2 / mp.pi) * mp.log(mp.mpf(p_over_lambda_ir))

    def two_momentum_residual(self, p0, p1):
        with mp.workdps(DEFAULT_DPS):
            lhs = self.tan_delta_prime(p1)
            rhs = self.tan_delta_prime(p0) - (2 / mp.pi) * mp.log(
                mp.mpf(p1) / mp.mpf(p0))
            return lhs - rhs


def fixed_point_relation() -> FixedPointRelation:
    return FixedPointRelation()
