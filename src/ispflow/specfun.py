"""High-precision special functions for pure imaginary order.

Bessel and Hankel functions of order nu = i g (g > 0 real) evaluated at
real positive argument, a complex gamma wrapper, the gamma phase, and a
continuity-tracked total argument of I_{ig}.  Everything runs on mpmath
with guard digits at the precision passed per call (DEFAULT_DPS when none
is), whatever the process-global mpmath precision; inputs are converted
at that precision too.

Both Bessel series are the one small-argument series

    eta_+-(g, z) = 1 + sum_{m>=1} (+-1)^m c_m z^(2m),
    c_m = prod_{k<=m} 1/(k(k+ig)),

times (x/2)^{ig}/Gamma(1+ig) at z = x/2 (DLMF 10.25.2 for I with +,
10.2.2 for J with -).  ``_eta_terms`` is the only loop in the package that
sums it: a fixed-point recurrence on Python ints with 20 bits beyond the
working precision, whose terms and partial sums become mpc values only at
the end.  ``_eta`` returns the sum, and ``_eta_partials`` the sum with its
g and z derivatives, summed from the terms of the same loop; the flow
solver in ``rgnumeric`` calls the first for its residuals and the second
for its beta.

The series converge for every argument, and they are the only route:
I and J are the two sums, K is a difference of I and its conjugate, and
``bessel_j_hankels`` builds H^(1) and H^(2) from one J through
Y = (J cos(pi nu) - conj J)/sin(pi nu).  The alternating sum cancels by
about x/ln 10 digits, so it carries 0.9x guard digits and J slows as x
grows; the package itself evaluates at x <= 2.

``arg_gamma`` and ``re_digamma`` are the package's only evaluations of
Arg Gamma(1+ig) and Re psi(1+ig).  The phase does not depend on x, so
``arg_i_unwrapped`` tracks the argument of eta alone and subtracts it once.
"""

from __future__ import annotations

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_neg, to_fixed

from .constexpr import DEFAULT_DPS

# fractional bits of the fixed-point eta sum beyond the working precision
ETA_GUARD_BITS = 20


class SpecFunError(ValueError):
    pass


class ComplexHP:
    """Validated high-precision complex value with its precision tag."""

    __slots__ = ("mpc", "dps")

    def __init__(self, value, dps=DEFAULT_DPS):
        self.dps = dps
        with mp.workdps(self.dps):
            z = mp.mpc(value)
        if not (mp.isfinite(z.real) and mp.isfinite(z.imag)):
            raise SpecFunError(f"non-finite value {z}")
        self.mpc = z

    @property
    def re(self):
        return self.mpc.real

    @property
    def im(self):
        return self.mpc.imag

    def conjugate(self):
        # exact negation: unary minus would round at the global precision
        re, im = self.mpc._mpc_
        return ComplexHP(mp.make_mpc((re, mpf_neg(im))), self.dps)

    def __repr__(self):
        return f"ComplexHP({mp.nstr(self.mpc, 12)}, dps={self.dps})"


def _work(dps, guard):
    return mp.workdps(int(dps + guard))


def complex_gamma(z, dps=DEFAULT_DPS) -> ComplexHP:
    """Gamma(z) for complex z away from the non-positive integers."""
    with _work(dps, 10):
        z = mp.mpc(z)
        if z.imag == 0 and z.real <= 0 and z.real == mp.floor(z.real):
            raise SpecFunError(f"gamma pole at {z}")
        return ComplexHP(mp.gamma(z), dps)


def _eta_terms(g, z, sign, digits):
    """The sum eta_+-(g, z) of the module docstring for sign = +-1, in fixed
    point with wp = working precision + ETA_GUARD_BITS fractional bits:
    yields (t_re, t_im, s_re, s_im), the term t_m = (+-1)^m c_m z^(2m) and
    the partial sum 1 + t_1 + ... + t_m as Python ints scaled by 2^wp, for
    m = 1, 2, ... until m > max(z, 3) and |t_m| < 10^-digits max(|eta|, 1).
    The recurrence is t_m = t_{m-1} (m - ig) w / (m (m^2 + g^2)),
    w = +-z^2, and both moduli of the stop test stay squared integers (the
    scheme of mpmath's own hypergeometric summators, libmp.libhyper)."""
    wp = mp.mp.prec + ETA_GUARD_BITS
    one = 1 << wp
    z = mp.mpf(z)
    gf = to_fixed(mp.mpf(g)._mpf_, wp)
    zf = to_fixed(z._mpf_, wp)
    w = sign * (zf * zf >> wp)
    g2 = gf * gf >> wp
    # |t|^2 < 10^-2digits max(|eta|^2, 1), both sides times 10^2digits
    scale = 10 ** (2 * digits)
    one2 = one * one
    tested = max(int(z), 3)         # m > z and m > 3 for integer m
    tr, ti = sr, si = one, 0
    for m in range(1, 100002):
        d = m * ((m * m << wp) + g2)
        tr, ti = ((tr * m + (ti * gf >> wp)) * w // d,
                  (ti * m - (tr * gf >> wp)) * w // d)
        sr += tr
        si += ti
        yield tr, ti, sr, si
        if m > tested and \
                (tr * tr + ti * ti) * scale < max(sr * sr + si * si, one2):
            return
    raise SpecFunError("series did not converge")


def _from_fixed(re, im):
    """The mpc of a fixed-point pair of _eta_terms at the same working
    precision, rounded to it."""
    prec = mp.mp.prec
    wp = prec + ETA_GUARD_BITS
    return mp.make_mpc((from_man_exp(re, -wp, prec, "n"),
                        from_man_exp(im, -wp, prec, "n")))


def _eta(g, z, sign, digits):
    """eta_+-(g, z) at the working precision: the last partial sum of
    _eta_terms."""
    for _, _, sr, si in _eta_terms(g, z, sign, digits):
        pass
    return _from_fixed(sr, si)


def _eta_partials(g, z, sign, digits):
    """(eta, d eta/dg, z d eta/dz) at the working precision, the partials
    summed from the terms t_m of the same loop as eta:
    d log c_m/dg = -sum_{k<=m} i/(k+ig), and z d t_m/dz = 2m t_m."""
    g = mp.mpf(g)
    g2 = g * g
    eta_g = z_eta_z = dlog = mp.mpc(0)
    for m, (tr, ti, sr, si) in enumerate(_eta_terms(g, z, sign, digits), 1):
        term = _from_fixed(tr, ti)
        d = m * m + g2
        dlog -= mp.mpc(g / d, m / d)                # i/(m+ig)
        eta_g += term * dlog
        z_eta_z += (2 * m) * term
    return _from_fixed(sr, si), eta_g, z_eta_z


def _series_sum(g, x, alternating, dps):
    """eta_+-(g, x/2)/Gamma(1+ig)
    = sum_m (+-)^m (x/2)^{2m} / (m! Gamma(m+1+ig)); the alternating sum
    cancels, so it carries 0.9x more guard digits."""
    guard = int(0.9 * float(x)) + 15 if alternating else 15
    with _work(dps, guard):
        eta = _eta(g, mp.mpf(x) / 2, -1 if alternating else 1, dps + 10)
        return eta / mp.gamma(mp.mpc(1, g))


def bessel_i_imag(g, x, dps=DEFAULT_DPS) -> ComplexHP:
    """I_{ig}(x) for g > 0, x > 0."""
    return _bessel_imag(g, x, dps, False)


def bessel_j_imag(g, x, dps=DEFAULT_DPS) -> ComplexHP:
    """J_{ig}(x) for g > 0, x > 0."""
    return _bessel_imag(g, x, dps, True)


def _bessel_imag(g, x, dps, alternating):
    """(x/2)^{ig} eta_+-(g, x/2)/Gamma(1+ig): I_{ig}(x) with the + sum,
    J_{ig}(x) with the alternating one."""
    g, x = _check_gx(g, x, dps)
    with _work(dps, 15):
        phase = mp.e ** (mp.mpc(0, 1) * g * mp.log(x / 2))
        return ComplexHP(phase * _series_sum(g, x, alternating, dps), dps)


def bessel_k_imag(g, x, dps=DEFAULT_DPS) -> ComplexHP:
    """K_{ig}(x) = (pi/2)(I_{-ig} - I_{ig})/sin(i pi g); real for real input.

    The two I ~ e^x/sqrt(2 pi x) cancel to K ~ e^{-x}, so I is taken and
    differenced with 2x/ln 10 more digits."""
    g, x = _check_gx(g, x, dps)
    idps = dps + 10 + int(mp.ceil(2 * x / mp.log(10)))
    with mp.workdps(idps):
        ip = bessel_i_imag(g, x, idps).mpc
        im_ = ip.conjugate()          # I_{-ig}(x) = conj I_{ig}(x) for x real
        val = mp.pi / 2 * (im_ - ip) / mp.sin(mp.pi * mp.mpc(0, 1) * mp.mpf(g))
        return ComplexHP(val, dps)


def bessel_j_hankels(g, x, dps=DEFAULT_DPS):
    """(J_{ig}(x), H^(1)_{ig}(x), H^(2)_{ig}(x)) from one J_{ig} at dps + 10:
    H^(1,2) = J +- i Y with Y = (J cos(pi nu) - J_{-ig})/sin(pi nu),
    nu = ig, and J_{-ig} = conj J_{ig}."""
    g, x = _check_gx(g, x, dps)
    with _work(dps, 15):
        nu = mp.mpc(0, 1) * g
        j = bessel_j_imag(g, x, dps + 10).mpc
        iy = mp.mpc(0, 1) * (
            (j * mp.cos(mp.pi * nu) - j.conjugate()) / mp.sin(mp.pi * nu))
        return ComplexHP(j, dps), ComplexHP(j + iy, dps), ComplexHP(j - iy, dps)


def hankel1_imag(g, x, dps=DEFAULT_DPS) -> ComplexHP:
    """H^(1)_{ig}(x) = J_{ig} + i Y_{ig}."""
    return bessel_j_hankels(g, x, dps)[1]


def hankel2_imag(g, x, dps=DEFAULT_DPS) -> ComplexHP:
    """H^(2)_{ig}(x) = J_{ig} - i Y_{ig}."""
    return bessel_j_hankels(g, x, dps)[2]


def _check_gx(g, x, dps):
    with _work(dps, 15):
        g = mp.mpf(g)
        x = mp.mpf(x)
    if g <= 0 or x <= 0:
        raise SpecFunError("imaginary-order evaluators need g > 0 and x > 0")
    return g, x


# ---------------------------------------------------------------------------
# The gamma phase: the only evaluations of Arg Gamma(1+ig) and Re psi(1+ig).
# ---------------------------------------------------------------------------

def arg_gamma(g):
    """Arg Gamma(1+ig) = Im log Gamma(1+ig) at the working precision, on
    mpmath's log-gamma branch, continuous in g."""
    return mp.im(mp.loggamma(mp.mpc(1, g)))


def re_digamma(g):
    """Re psi(1+ig) = d/dg Arg Gamma(1+ig) at the working precision."""
    return mp.re(mp.digamma(mp.mpc(1, g)))


# ---------------------------------------------------------------------------
# Continuity-tracked argument of I_{ig}.
# ---------------------------------------------------------------------------

def arg_i_tilde_principal(g, x, dps=DEFAULT_DPS):
    """Principal argument of I-tilde_{ig}(x) = (x/2)^{-ig} I_{ig}(x)."""
    g, x = _check_gx(g, x, dps)
    with _work(dps, 15):
        return mp.arg(_series_sum(g, x, False, dps))


def arg_i_unwrapped(g, x, dps=DEFAULT_DPS):
    """Total argument of I_{ig}(x), continuous in x from x -> 0+.

    Decomposition: arg I = g ln(x/2) - Arg Gamma(1+ig) + theta(x), where
    theta is the argument of eta_+(g, x/2) tracked continuously from
    theta(0) = 0 (eta(g, 0) = 1).  Gamma(1+ig) does not change along the
    path, so only eta is summed there; the step is halved until
    consecutive principal arguments of eta move by less than pi/2.
    """
    g, x = _check_gx(g, x, dps)
    with _work(dps, 15):
        # eta is within 0.02 of 1 at the start point, so its principal
        # argument is the continuous one
        x0 = min(x, mp.mpf("0.25") / (1 + g))
        theta = prev = mp.arg(_eta(g, x0 / 2, 1, dps + 10))
        cur_x = x0
        while cur_x < x:
            step = min(cur_x * mp.mpf("1.5") + mp.mpf("0.5"), x)
            prev, delta = _advance(g, cur_x, step, prev, dps)
            theta += delta
            cur_x = step
        return g * mp.log(x / 2) - arg_gamma(g) + theta


def _advance(g, x_from, x_to, prev_principal, dps):
    """One adaptive step of the argument tracker; returns (principal Arg eta
    at x_to, accumulated continuous increment)."""
    cur = mp.arg(_eta(g, x_to / 2, 1, dps + 10))
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


def arg_i_branch_residue(g, x, dps=DEFAULT_DPS):
    """(unwound - principal) difference of Arg I-tilde in units of 2 pi;
    an integer up to rounding error."""
    with _work(dps, 10):
        total = arg_i_unwrapped(g, x, dps)
        principal = arg_i_tilde_principal(g, x, dps)
        resid = total - mp.mpf(g) * mp.log(mp.mpf(x) / 2) - principal
        return resid / (2 * mp.pi)
