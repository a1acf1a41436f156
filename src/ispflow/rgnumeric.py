"""Numerical renormalization: exact-condition root solving, contour data,
implicit-differentiation beta, phase shifts, and S-matrix pole checks.

The running coupling g_b(Lambda) on branch b solves

    g ln(Lambda_IR/Lambda) + Arg I-tilde_{ig}(2 Lambda_IR/Lambda)
        + (2b+1) pi = 0 ,

with Arg I-tilde = -Arg Gamma(1+ig) + Arg eta(Lambda_IR/Lambda).  Both it
and the scattering phase condition read F(g, L) = 0, L = ln(cutoff ratio),

    F = n pi - g L - Im ln Gamma(1+ig) + Arg eta_+-(e^-L) + extra(g),

with eta_+ = eta, extra = 0 (bound) or the alternating eta_- = eta~,
extra = -arctan(-2K tanh(pi g/2)) (scattering).  All numerics run at a
configurable mpmath precision (default 60 digits).  Root brackets are
seeded from the first-order running formula, widened geometrically, then
refined by Anderson-Bjorck regula falsi (BIT 13 (1973) 253) inside the
bracket.  beta = -(dF/dL)/(dF/dg) comes from the exact partials of F at
the root, never from the series expansions it is checked against.

eta_+- is summed by the fixed-point loop ``specfun._eta_terms``, the same
code that sums the Bessel series.  A residual takes eta alone
(``specfun._eta``); only the beta of a solved root asks for d eta/dg and
z d eta/dz as well (``specfun._eta_partials``, from the terms of that one
loop).  A ``QuantizationSolution``
knows which condition it solves, so its ``beta`` needs no second root
solve; it also records its residual evaluations and bracket widenings.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import mpmath as mp

from .specfun import (DEFAULT_DPS, SpecFunError, _eta, _eta_partials,
                      arg_i_unwrapped, bessel_j_imag, hankel1_imag,
                      hankel2_imag)

# residual evaluations that regula falsi may spend after the bracket; a
# simple root takes about seven at 60 digits, bisection alone about 200
MAX_REFINE_EVALS = 100


class SolverError(RuntimeError):
    pass


@dataclass
class QuantizationSolution:
    g: mp.mpf
    branch: int
    ratio: mp.mpf          # Lambda / Lambda_IR, or Lambda/p when scattering
    residual: mp.mpf
    n_level: int = 1
    iterations: int = 0    # residual evaluations, bracket included
    widenings: int = 0     # steps that grew the bracket around the seed
    # scattering datum K of the solved condition; None for the bound one
    k_value: object = None

    def beta(self, dps: int = DEFAULT_DPS):
        """Lambda dg/dLambda at this root by implicit differentiation of the
        condition it solves (see numeric_beta); no further root solve."""
        if self.k_value is None:
            return _implicit_beta(self.g, self.ratio, 1, 0, dps)
        return _implicit_beta(self.g, self.ratio, -1, self.k_value, dps)


@dataclass
class ContourGrid:
    ratios: list
    branches: list
    solutions: dict = field(default_factory=dict)  # (branch, i) -> solution
    dps: int = DEFAULT_DPS

    def curve(self, branch):
        return [self.solutions[(branch, i)] for i in range(len(self.ratios))]


@contextmanager
def _eta_failure():
    """An eta series that does not converge fails the solve."""
    try:
        yield
    except SpecFunError as exc:
        raise SolverError(f"eta series: {exc}") from exc


def _residual(g, ratio, n, sign, k_value, dps):
    """F(g, ln ratio) of the module docstring at dps + 10 digits."""
    with mp.workdps(dps + 10):
        g = mp.mpf(g)
        ratio = mp.mpf(ratio)
        with _eta_failure():
            eta = _eta(g, 1 / ratio, sign, dps + 15)
        f = (n * mp.pi - g * mp.log(ratio)
             - mp.im(mp.loggamma(mp.mpc(1, g))) + mp.arg(eta))
        if k_value:
            f += mp.atan(2 * mp.mpf(k_value) * mp.tanh(mp.pi * g / 2))
        return f


def _implicit_beta(g, ratio, sign, k_value, dps):
    """-(dF/dL)/(dF/dg) at (g, ln ratio); see numeric_beta*."""
    with mp.workdps(dps + 10):
        with _eta_failure():
            eta, eta_g, z_eta_z = _eta_partials(g, 1 / ratio, sign, dps + 15)
        f_g = (-mp.log(ratio) - mp.re(mp.digamma(mp.mpc(1, g)))
               + mp.im(eta_g / eta))
        if k_value:
            k = mp.mpf(k_value)
            th = mp.tanh(mp.pi * g / 2)
            f_g += k * mp.pi * (1 - th ** 2) / (1 + 4 * k ** 2 * th ** 2)
        f_l = -g - mp.im(z_eta_z / eta)
        return +(-f_l / f_g)


def quantization_residual(g, ratio, b, n_level: int = 1,
                          dps: int = DEFAULT_DPS):
    """Residual of the running-coupling condition at coupling g, at
    dps + 10 digits."""
    return _residual(g, ratio, 2 * b + n_level, 1, 0, dps)


def scattering_residual(g, lam_over_p, k_value, n_level: int = 1,
                        dps: int = DEFAULT_DPS):
    """Branch-resolved residual of the scattering phase condition:
    n pi + g ln(p/Lambda) - Arg Gamma(1+ig) + Arg eta~(p/Lambda)
    - arctan(-2K tanh(pi g/2)), at dps + 10 digits."""
    return _residual(g, lam_over_p, n_level, -1, k_value, dps)


def _bracket(f, seed):
    """(lo, f(lo), hi, f(hi), widenings): a sign change in [seed 0.9,
    seed 1.1], widened by a factor 1.3 at the end with the smaller residual
    until there is one."""
    lo = seed * mp.mpf("0.9")
    hi = seed * mp.mpf("1.1")
    flo, fhi = f(lo), f(hi)
    iters = 2
    width = mp.mpf("1.3")
    while flo * fhi > 0:
        if mp.fabs(flo) < mp.fabs(fhi):
            lo /= width
            flo = f(lo)
        else:
            hi *= width
            fhi = f(hi)
        iters += 1
        if iters > 200 or hi > 50:
            raise SolverError(f"no sign change found near seed {seed}; "
                              f"bracket [{lo}, {hi}]")
    return lo, flo, hi, fhi, iters - 2


def _solve(f, seed, dps):
    """(g, f(g), evaluations, widenings) at a root of f: a sign-change
    bracket grown around seed by `widenings` steps, refined by
    Anderson-Bjorck regula falsi until the bracket or the secant step is
    below 10^-(dps+2) of the last point evaluated.
    The secant step also ends a run where one end has converged and the far
    end is stale; a secant point that rounding puts outside the bracket is
    replaced by the midpoint."""
    evals = 0

    def counted(g):
        nonlocal evals
        evals += 1
        return f(g)

    a, fa, b, fb, widenings = _bracket(counted, seed)
    if mp.fabs(fa) < mp.fabs(fb):
        a, fa, b, fb = b, fb, a, fa
    cap = evals + MAX_REFINE_EVALS
    tol = mp.mpf(10) ** (-(dps + 2))
    while fb != 0:
        c = b - fb * (b - a) / (fb - fa)
        if mp.fabs(c - b) < tol * b or mp.fabs(b - a) < tol * b:
            break
        if not min(a, b) < c < max(a, b):
            c = (a + b) / 2
        if evals == cap:
            raise SolverError(f"regula falsi passed {MAX_REFINE_EVALS} "
                              f"evaluations; bracket [{a}, {b}]")
        fc = counted(c)
        if (fc > 0) == (fb > 0):
            # b is replaced on its own side: damp the retained end
            m = 1 - fc / fb
            fa *= m if m > 0 else mp.mpf("0.5")
        else:
            a, fa = b, fb
        b, fb = c, fc
    return b, fb, evals, widenings


def _seed(ratio, n, k_value):
    """First-order running coupling n pi/(ln ratio - gamma - K pi), or 1
    where that is not positive or the denominator is below 1/2."""
    denom = mp.log(ratio) - mp.euler - mp.mpf(k_value) * mp.pi
    seed = n * mp.pi / denom if denom > mp.mpf("0.5") else mp.mpf(1)
    return seed if seed > 0 else mp.mpf(1)


def solve_running_coupling(ratio, b: int = 0, dps: int = DEFAULT_DPS,
                           n_level: int = 1) -> QuantizationSolution:
    """Solve the quantization condition for g at cutoff ratio Lambda/Lambda_IR."""
    if b < 0:
        raise ValueError("branches are labelled b >= 0")
    with mp.workdps(dps + 10):
        ratio = mp.mpf(ratio)
        if ratio <= 1:
            raise ValueError("ratio = Lambda/Lambda_IR must exceed 1")
        g, resid, evals, widenings = _solve(
            lambda g: quantization_residual(g, ratio, b, n_level, dps),
            _seed(ratio, 2 * b + n_level, 0), dps)
        return QuantizationSolution(+g, b, +ratio, +mp.fabs(resid), n_level,
                                    evals, widenings)


def solve_scattering_coupling(lam_over_p, k_value, dps: int = DEFAULT_DPS,
                              n_level: int = 1) -> QuantizationSolution:
    """Solve the scattering-sector running coupling at cutoff Lambda/p."""
    with mp.workdps(dps + 10):
        lam_over_p = mp.mpf(lam_over_p)
        if lam_over_p <= 1:
            raise ValueError("Lambda/p must exceed 1")
        g, resid, evals, widenings = _solve(
            lambda g: scattering_residual(g, lam_over_p, k_value, n_level,
                                          dps),
            _seed(lam_over_p, n_level, k_value), dps)
        return QuantizationSolution(+g, 0, +lam_over_p, +mp.fabs(resid),
                                    n_level, evals, widenings, k_value)


def numeric_beta(ratio, b: int = 0, dps: int = DEFAULT_DPS):
    """beta = Lambda dg/dLambda on branch b at cutoff ratio Lambda/Lambda_IR.

    One root solve of the quantization condition F(g, L) = 0, L = ln ratio,
    then implicit differentiation at the root:

        beta = -(dF/dL)/(dF/dg),
        dF/dg = -L - Re psi(1+ig) + Im(eta_g/eta),
        dF/dL = -g - Im(z eta_z/eta),   z = 1/ratio,

    with eta_g = d eta/dg and z eta_z = z d eta/dz summed from the terms of
    eta.  Accurate to the working precision."""
    return solve_running_coupling(ratio, b, dps).beta(dps)


def numeric_beta_scattering(lam_over_p, k_value, dps: int = DEFAULT_DPS):
    """Scattering-sector beta = Lambda dg/dLambda at cutoff Lambda/p, as
    numeric_beta with L = ln(Lambda/p), eta~ in place of eta, and
    dF/dg gaining -U'/(1+U^2), U = -2K tanh(pi g/2)."""
    return solve_scattering_coupling(lam_over_p, k_value, dps).beta(dps)


def contour_grid(ratio_min, ratio_max, n_points: int, branches,
                 dps: int = DEFAULT_DPS) -> ContourGrid:
    """Solve the running coupling on a log-spaced cutoff grid per branch."""
    if not mp.mpf(ratio_min) > 1:
        raise ValueError("ratio_min must exceed 1")
    with mp.workdps(dps + 10):
        ratios = [mp.mpf(ratio_min) * (mp.mpf(ratio_max) / mp.mpf(ratio_min))
                  ** (mp.mpf(i) / max(n_points - 1, 1))
                  for i in range(n_points)]
    with mp.workdps(dps):
        grid = ContourGrid([+r for r in ratios], list(branches), {}, dps)
    for b in branches:
        for i, r in enumerate(grid.ratios):
            grid.solutions[(b, i)] = solve_running_coupling(r, b, dps)
    return grid


def phase_shift(g, p_over_lambda, dps: int = DEFAULT_DPS, check: bool = False):
    """delta = -pi/4 - Arg H1_{ig}(2p/Lambda) (principal branch).

    With check=True the tangent form of the phase condition is evaluated as
    well and the residual |2K + coth(pi g/2) tan(Arg J)| is returned along
    with delta; the two agree modulo pi.
    """
    with mp.workdps(dps + 10):
        g = mp.mpf(g)
        x = 2 * mp.mpf(p_over_lambda)
        if not 0 < mp.mpf(p_over_lambda) < 1:
            raise ValueError("p/Lambda must lie in (0, 1)")
        h1 = hankel1_imag(g, x, dps).mpc
        delta = -mp.pi / 4 - mp.arg(h1)
        if not check:
            return +delta
        h2 = hankel2_imag(g, x, dps).mpc
        s = -mp.mpc(0, 1) * h2 / h1 * mp.e ** (mp.pi * g)
        j = bessel_j_imag(g, x, dps).mpc
        resid = (mp.tan(delta + mp.pi / 4)
                 + mp.coth(mp.pi * g / 2) * mp.tan(mp.arg(j)))
        return +delta, +mp.fabs(resid), +mp.fabs(mp.fabs(s) - 1)


def smatrix(g, p_over_lambda, dps: int = DEFAULT_DPS):
    """S = -i H2_{ig}(2p/Lambda) / H1_{ig}(2p/Lambda) e^{pi g}."""
    with mp.workdps(dps + 10):
        g = mp.mpf(g)
        x = 2 * mp.mpf(p_over_lambda)
        h1 = hankel1_imag(g, x, dps).mpc
        h2 = hankel2_imag(g, x, dps).mpc
        return +( -mp.mpc(0, 1) * h2 / h1 * mp.e ** (mp.pi * g))


def smatrix_pole_check(g, ratio, dps: int = DEFAULT_DPS):
    """|sin(arg I_{ig}(2 Lambda_IR/Lambda))| at coupling g; vanishes exactly
    on a bound state (the pole condition of the continued S-matrix)."""
    with mp.workdps(dps + 10):
        x = 2 / mp.mpf(ratio)
        total = arg_i_unwrapped(mp.mpf(g), x, dps)
        return +mp.fabs(mp.sin(total))
