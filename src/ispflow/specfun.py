"""High-precision special functions for pure imaginary order.

Bessel and Hankel functions of order nu = i g (g > 0 real) evaluated at
real positive argument, a complex gamma wrapper, and a continuity-tracked
total argument of I_{ig}.  Everything runs on mpmath with guard digits at
the precision passed per call (DEFAULT_DPS when none is), whatever the
process-global mp.mp.dps; inputs are converted at that precision too.

Both Bessel series are the one small-argument series

    eta_+-(g, z) = 1 + sum_{m>=1} (+-1)^m c_m z^(2m),
    c_m = prod_{k<=m} 1/(k(k+ig)),

times (x/2)^{ig}/Gamma(1+ig) at z = x/2 (DLMF 10.25.2 for I with +,
10.2.2 for J with -).  ``_eta`` is the only place in the package that sums
it; the flow solver in ``rgnumeric`` calls it for its residuals and builds
the beta derivatives from the terms it returns.

The modified/oscillatory series converge for every argument, so they are
the default route.  The classical large-argument expansions are exposed as
well and are selected automatically once their smallest-term error floor
(~e^{-2x}) beats the requested precision; at low precision that crossover
sits at x = 30, which is where the two routes are cross-validated.
"""

from __future__ import annotations

import mpmath as mp

DEFAULT_DPS = 60

ASYMPTOTIC_MIN_X = 30.0


class SpecFunError(ValueError):
    pass


class ComplexHP:
    """Validated high-precision complex value with its precision tag."""

    __slots__ = ("re", "im", "dps")

    def __init__(self, value, dps=None):
        self.dps = dps or DEFAULT_DPS
        z = mp.mpc(value)
        if not (mp.isfinite(z.real) and mp.isfinite(z.imag)):
            raise SpecFunError(f"non-finite value {z}")
        self.re = z.real
        self.im = z.imag

    @property
    def mpc(self):
        return mp.mpc(self.re, self.im)

    def __abs__(self):
        return mp.fabs(self.mpc)

    def arg(self):
        return mp.arg(self.mpc)

    def conjugate(self):
        return ComplexHP(mp.mpc(self.re, -self.im), self.dps)

    def __repr__(self):
        return f"ComplexHP({mp.nstr(self.mpc, 12)}, dps={self.dps})"


def _work(dps, guard):
    return mp.workdps(int(dps + guard))


def complex_gamma(z, dps=None) -> ComplexHP:
    """Gamma(z) for complex z away from the non-positive integers."""
    dps = dps or DEFAULT_DPS
    with _work(dps, 10):
        z = mp.mpc(z)
        if z.imag == 0 and z.real <= 0 and z.real == mp.floor(z.real):
            raise SpecFunError(f"gamma pole at {z}")
        return ComplexHP(mp.gamma(z), dps)


def _eta(g, z, sign, digits):
    """(eta, terms): eta_+-(g, z) of the module docstring for sign = +-1 and
    its terms t_m = (+-1)^m c_m z^(2m), m >= 1, summed at the working
    precision until m > max(z, 3) and |t_m| < 10^-digits max(|eta|, 1)."""
    g = mp.mpf(g)
    z = mp.mpf(z)
    tol2 = mp.mpf(10) ** (-2 * digits)
    w = sign * z * z
    g2 = g * g
    term = eta = mp.mpc(1)
    terms = []
    m = 0
    while True:
        m += 1
        d = m * m + g2
        term *= mp.mpc(m / d, -g / d) * (w / m)     # 1/(m+ig) = (m-ig)/d
        eta += term
        terms.append(term)
        if m > z and m > 3:
            # the stop test on squared moduli, which need no square root
            size = term.real * term.real + term.imag * term.imag
            if size < tol2 * max(eta.real * eta.real + eta.imag * eta.imag, 1):
                return eta, terms
        if m > 100000:
            raise SpecFunError("series did not converge")


def _series_sum(g, x, alternating, dps):
    """eta_+-(g, x/2)/Gamma(1+ig)
    = sum_m (+-)^m (x/2)^{2m} / (m! Gamma(m+1+ig)); the alternating sum
    cancels, so it carries 0.9x more guard digits."""
    guard = int(0.9 * float(x)) + 15 if alternating else 15
    with _work(dps, guard):
        eta = _eta(g, mp.mpf(x) / 2, -1 if alternating else 1, dps + 10)[0]
        return eta / mp.gamma(mp.mpc(1, g))


def _hankel_asym(nu, z, kind, dps):
    """Large-argument Hankel expansion, truncated at its smallest term.

    Returns (value, relative error floor)."""
    with _work(dps, 10):
        nu = mp.mpc(nu)
        z = mp.mpc(z)
        sgn = 1 if kind == 1 else -1
        total = mp.mpc(1)
        term = mp.mpc(1)
        best = mp.inf
        n = 0
        while True:
            n += 1
            term = term * (4 * nu ** 2 - (2 * n - 1) ** 2) / (n * 8) / z \
                * (sgn * mp.mpc(0, 1))
            size = mp.fabs(term)
            if size >= best:
                err = best
                break
            best = size
            total += term
            if size < mp.mpf(10) ** (-(dps + 8)):
                err = size
                break
            if n > 4 * abs(z) + 50:
                err = size
                break
        pref = mp.sqrt(2 / (mp.pi * z)) * mp.e ** (
            sgn * mp.mpc(0, 1) * (z - nu * mp.pi / 2 - mp.pi / 4))
        return pref * total, err


def _asym_crossover(dps):
    """Smallest x where the asymptotic error floor e^{-2x} meets dps digits."""
    return max(ASYMPTOTIC_MIN_X, (dps + 6) * mp.log(10) / 2)


def bessel_i_imag(g, x, dps=None, force=None) -> ComplexHP:
    """I_{ig}(x) for g > 0, x > 0."""
    return _bessel_imag(g, x, dps, force, 1)


def bessel_j_imag(g, x, dps=None, force=None) -> ComplexHP:
    """J_{ig}(x) for g > 0, x > 0."""
    return _bessel_imag(g, x, dps, force, -1)


def _bessel_imag(g, x, dps, force, sign):
    """I_{ig}(x) for sign = +1, J_{ig}(x) for sign = -1: the eta_+- series,
    or beyond the crossover the Hankel mean at z = ix (times e^{-i pi nu/2},
    for I) or z = x (for J)."""
    dps = dps or DEFAULT_DPS
    g, x = _check_gx(g, x, dps)
    route = force or ("asymptotic" if x > _asym_crossover(dps) else "series")
    with _work(dps, 15):
        if route == "series":
            phase = mp.e ** (mp.mpc(0, 1) * g * mp.log(x / 2))
            val = phase * _series_sum(g, x, sign < 0, dps)
        else:
            nu = mp.mpc(0, 1) * g
            z = mp.mpc(0, 1) * x if sign > 0 else x
            h1, _ = _hankel_asym(nu, z, 1, dps)
            h2, _ = _hankel_asym(nu, z, 2, dps)
            pref = mp.e ** (-nu * mp.pi * mp.mpc(0, 1) / 2) if sign > 0 else 1
            val = pref * (h1 + h2) / 2
        return ComplexHP(val, dps)


def bessel_k_imag(g, x, dps=None) -> ComplexHP:
    """K_{ig}(x) = (pi/2)(I_{-ig} - I_{ig})/sin(i pi g); real for real input."""
    dps = dps or DEFAULT_DPS
    g, x = _check_gx(g, x, dps)
    with _work(dps, 15):
        ip = bessel_i_imag(g, x, dps + 10).mpc
        im_ = ip.conjugate()          # I_{-ig}(x) = conj I_{ig}(x) for x real
        val = mp.pi / 2 * (im_ - ip) / mp.sin(mp.pi * mp.mpc(0, 1) * mp.mpf(g))
        return ComplexHP(val, dps)


def hankel1_imag(g, x, dps=None) -> ComplexHP:
    """H^(1)_{ig}(x) = J_{ig} + i Y_{ig}."""
    return _hankel_imag(g, x, dps, 1)


def hankel2_imag(g, x, dps=None) -> ComplexHP:
    """H^(2)_{ig}(x) = J_{ig} - i Y_{ig}."""
    return _hankel_imag(g, x, dps, 2)


def _hankel_imag(g, x, dps, kind):
    """H^(kind)_{ig}(x): the large-argument expansion beyond the crossover,
    else J_{ig} +- i Y_{ig}, with Y from J_{ig} and J_{-ig} = conj J_{ig}."""
    dps = dps or DEFAULT_DPS
    g, x = _check_gx(g, x, dps)
    with _work(dps, 15):
        nu = mp.mpc(0, 1) * g
        if x > _asym_crossover(dps):
            val, _ = _hankel_asym(nu, x, kind, dps)
            return ComplexHP(val, dps)
        j = bessel_j_imag(g, x, dps + 10).mpc
        y = (j * mp.cos(mp.pi * nu) - j.conjugate()) / mp.sin(mp.pi * nu)
        return ComplexHP(j + mp.mpc(0, 1 if kind == 1 else -1) * y, dps)


def _check_gx(g, x, dps):
    with _work(dps, 15):
        g = mp.mpf(g)
        x = mp.mpf(x)
    if g <= 0 or x <= 0:
        raise SpecFunError("imaginary-order evaluators need g > 0 and x > 0")
    return g, x


# ---------------------------------------------------------------------------
# Continuity-tracked argument of I_{ig}.
# ---------------------------------------------------------------------------

def arg_i_tilde_principal(g, x, dps=None):
    """Principal argument of I-tilde_{ig}(x) = (x/2)^{-ig} I_{ig}(x)."""
    dps = dps or DEFAULT_DPS
    g, x = _check_gx(g, x, dps)
    with _work(dps, 15):
        return mp.arg(_series_sum(g, x, False, dps))


def arg_i_unwrapped(g, x, dps=None):
    """Total argument of I_{ig}(x), continuous in x from x -> 0+.

    Decomposition: arg I = g ln(x/2) + theta(x), where theta is the
    argument of I-tilde tracked continuously from theta(0) =
    -Arg Gamma(1+ig) (the unwound value, from the continuous log-gamma).
    The step along the path is halved until consecutive principal
    arguments move by less than pi/2.
    """
    dps = dps or DEFAULT_DPS
    g, x = _check_gx(g, x, dps)
    with _work(dps, 15):
        # unwound value at x -> 0+ comes from the continuous log-gamma;
        # at a small enough start point the branch has not moved yet
        theta0 = -mp.im(mp.loggamma(1 + mp.mpc(0, 1) * mp.mpf(g)))
        x0 = min(mp.mpf(x), mp.mpf("0.25") / (1 + mp.mpf(g)))
        prev = arg_i_tilde_principal(g, x0, dps)
        theta = prev + _round_to_branch(theta0 - prev)
        cur_x = x0
        while cur_x < x:
            step = min(cur_x * mp.mpf("1.5") + mp.mpf("0.5"), mp.mpf(x))
            prev, delta = _advance(g, cur_x, step, prev, dps)
            theta += delta
            cur_x = step
        return mp.mpf(g) * mp.log(mp.mpf(x) / 2) + theta


def _advance(g, x_from, x_to, prev_principal, dps):
    """One adaptive step of the argument tracker; returns (principal at
    x_to, accumulated continuous increment)."""
    cur = arg_i_tilde_principal(g, x_to, dps)
    delta = _principal_delta(cur, prev_principal)
    if abs(delta) < mp.pi / 2:
        return cur, delta
    mid = (x_from + x_to) / 2
    mid_p, d1 = _advance(g, x_from, mid, prev_principal, dps)
    end_p, d2 = _advance(g, mid, x_to, mid_p, dps)
    return end_p, d1 + d2


def _principal_delta(cur, prev):
    d = cur - prev
    two_pi = 2 * mp.pi
    while d > mp.pi:
        d -= two_pi
    while d < -mp.pi:
        d += two_pi
    return d


def _round_to_branch(offset):
    return 2 * mp.pi * mp.nint(offset / (2 * mp.pi))


def arg_i_branch_residue(g, x, dps=None):
    """(unwound - principal) difference of Arg I-tilde in units of 2 pi;
    an integer up to rounding error."""
    dps = dps or DEFAULT_DPS
    with _work(dps, 10):
        total = arg_i_unwrapped(g, x, dps)
        principal = arg_i_tilde_principal(g, x, dps)
        resid = total - mp.mpf(g) * mp.log(mp.mpf(x) / 2) - principal
        return resid / (2 * mp.pi)
