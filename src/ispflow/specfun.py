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
10.2.2 for J with -), where 1/Gamma(1+ig) is e^{-i Arg Gamma(1+ig)}
sqrt(sinh(pi g)/(pi g)) (DLMF 5.4.3).  ``_eta_terms`` is the only loop in
the package that sums it: a fixed-point recurrence on Python ints with 20
bits beyond the working precision, whose terms and partial sums become mpc
values only at the end.  ``_eta`` returns the sum, and ``_eta_partials``
the sum with its g and z derivatives, summed from the terms of the same
loop; the flow solver in ``rgnumeric`` calls the first for its residuals
and the second for its beta.

The series converge for every argument, and they are the only route:
I and J are the two sums, K is a difference of I and its conjugate, and
``bessel_j_hankels`` builds H^(1) and H^(2) from one J through
Y = (J cos(pi nu) - conj J)/sin(pi nu).  The alternating sum cancels by
about x/ln 10 digits, so it carries 0.9x guard digits and J slows as x
grows; the package itself evaluates at x <= 2.

``arg_gamma`` and ``re_digamma`` are the package's only evaluations of
Arg Gamma(1+ig) and Re psi(1+ig), for the flow residuals, the numeric and
closed-form betas, the Bessel series and the argument tracker.  The phase
does not depend on x, so ``arg_i_unwrapped`` tracks the argument of eta
alone and subtracts it once.  Both are one fixed-point kernel on Python
ints, ``_gamma_phase``: the recurrence shifts g to w = N+1+ig with
N+1 >= 0.3 prec (DLMF 5.5.1), the shift's phase sum_{k<=N} atan(g/k) is
one atan2 of the product prod (k+ig) built in blocks of 8 factors from
integer elementary symmetric polynomials (a per-precision plan,
``_stirling_plan``, built at the first call), and the Stirling tails of
Im log Gamma(w) and Re psi(w) (DLMF 5.11.1-2) are Clenshaw sums along a
real three-term recurrence in 1/w, with K terms fixed beforehand from the
remainder bound and Bernoulli numbers from mpmath's mpf_bernoulli.  The
kernel carries 16 + log2(K+N+1) guard bits, plus -log2 g bits for g < 1/2
so that Arg Gamma(1+ig) ~ -euler g keeps its relative precision, and
rounds once to the working precision: a result is within one unit of its
last bit (10^-dps relative against mpmath at dps + 20 from 30 to 100
digits, tests/test_specfun.py).
"""

from __future__ import annotations

import functools
import itertools
import math

import mpmath as mp
from mpmath.libmp import (from_int, from_man_exp, mpf_atan2, mpf_bernoulli,
                          mpf_log, mpf_neg, mpf_pi, to_fixed)

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
    = sum_m (+-)^m (x/2)^{2m} / (m! Gamma(m+1+ig)) for g > 0; the
    alternating sum cancels, so it carries 0.9x more guard digits.
    1/Gamma(1+ig) = e^{-i Arg Gamma(1+ig)} sqrt(sinh(pi g)/(pi g)), from
    |Gamma(1+ig)|^2 = pi g/sinh(pi g) (DLMF 5.4.3)."""
    guard = int(0.9 * float(x)) + 15 if alternating else 15
    with _work(dps, guard):
        eta = _eta(g, mp.mpf(x) / 2, -1 if alternating else 1, dps + 10)
        pi_g = mp.pi * g
        return eta * mp.expj(-arg_gamma(g)) * mp.sqrt(mp.sinh(pi_g) / pi_g)


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
    the principal log-gamma branch (continuous in g, zero at g = 0, odd in
    g)."""
    return _gamma_phase(g, False)


def re_digamma(g):
    """Re psi(1+ig) = d/dg Arg Gamma(1+ig) at the working precision (even
    in g, -euler at g = 0)."""
    return _gamma_phase(g, True)


# one plan per working precision; the Bessel series' guard digits grow
# with x, so a long run meets many precisions
@functools.lru_cache(maxsize=64)
def _stirling_plan(prec):
    """(N, K, guard bits, blocks) of the gamma-phase kernel at precision
    prec, built at the first call at that precision: the shift
    w = N+1+ig, N the least positive multiple of 8 with
    N+1 >= 0.3 prec; the number K of Stirling terms; the guard bits; and
    per block of factors k..k+7 (k = 1, 9, ..., N-7) the signed elementary
    symmetric polynomials e_j of k..k+7, so that
    prod_j (k+j+ig) = sum_m e_(8-m) (ig)^m splits into
    (e_8, -e_6, e_4, -e_2, e_0) against g^0, g^2, ..., g^8 (real part) and
    (e_7, -e_5, e_3, -e_1) against g, g^3, g^5, g^7 (imaginary part).

    The remainder after k Stirling terms is below the next term times
    sec^(2k)(ph w/2) (DLMF 5.11(ii)).  With a = N+1 = Re w, |w| = a/cos ph w
    and cos ph w <= cos^2(ph w/2), so that is at most sqrt 2 times
    |B_2k|/(2k(2k-1)) a^(1-2k) for log Gamma and |B_2k|/(2k) a^(-2k) for
    psi, whatever g.  K is the first k at which both fall below
    2^-(prec+12), in doubles, with |B_2k| = 2 (2k)! zeta(2k)/(2 pi)^(2k)
    less its factor zeta(2k) <= 1.65, which the 12 bits cover.  The
    16 + log2(K+N+1) guard bits cover the rounding of the K + N + 1
    fixed-point steps and the factor N+1/2 on ph w."""
    n = 8 * max(1, math.ceil((0.3 * prec - 1) / 8))
    log2_a = math.log2(n + 1)
    k = 0
    while True:
        k += 1
        log2_d = (1 + (math.lgamma(2 * k + 1) - 2 * k * math.log(2 * math.pi))
                  / math.log(2) - math.log2(2 * k))
        if max(log2_d - math.log2(2 * k - 1) + 0.5 + log2_a, log2_d) \
                - 2 * k * log2_a < -(prec + 12):
            break
    blocks = []
    for first in range(1, n, 8):
        e = [1] + [0] * 8
        for j in range(first, first + 8):
            for i in range(8, 0, -1):
                e[i] += j * e[i - 1]
        blocks.append(((e[8], -e[6], e[4], -e[2], e[0]),
                       (e[7], -e[5], e[3], -e[1])))
    return n, k, 16 + math.ceil(math.log2(k + n + 1)), tuple(blocks)


def _gamma_phase(g, digamma):
    """Im log Gamma(1+ig), or Re psi(1+ig) for digamma=True, at the working
    precision, in fixed point with wp = prec + guard fractional bits.
    Both are taken at |g|: Im log Gamma(1+ig) is odd in g, Re psi(1+ig)
    even.

    Recurrence shift (DLMF 5.5.1) to w = N+1+ig, u = 1/w:
      Im log Gamma(1+ig) = Im log Gamma(w) - sum_{k<=N} atan(g/k),
      Re psi(1+ig) = Re psi(w) - sum_{k<=N} k/(k^2+g^2),
    and the Stirling series (DLMF 5.11.1-2) at w,
      Im log Gamma(w) = (N+1/2) ph w + g ln|w| - g
                        + sum_{k<=K} B_2k/(2k(2k-1)) Im u^(2k-1),
      Re psi(w) = ln|w| - Re u/2 - sum_{k<=K} B_2k/(2k) Re u^(2k).
    Both tails are sums c_k x_k with x_k = Im u^(2k-1) or Re u^(2k), which
    obey the real recurrence x_(k+1) = 2 Re z x_k - |z|^2 x_(k-1), z = u^2,
    from x_0 = Im(u/z) = g or 1.  Clenshaw's backward sum along it,
    b_k = c_k + 2 Re z b_(k+1) - |z|^2 b_(k+2), tail = b_1 x_1 - |z|^2 b_2 x_0,
    keeps each rounding error at one unit of 2^-wp, however large the
    Bernoulli coefficient it is added to (|B_2K| passes 2^90 at 70 digits);
    a forward recurrence would multiply the rounding of x_k by c_k.  The
    Bernoulli numbers come from mpmath's own store, mpf_bernoulli."""
    prec = mp.mp.prec
    g = mp.mpf(g)
    negative = g < 0
    g = abs(g)
    n, terms, guard, blocks = _stirling_plan(prec)
    _, man, exp, bc = g._mpf_
    # Arg Gamma(1+ig) ~ -euler g: a small g keeps its relative precision
    wp = prec + guard + (max(0, -(exp + bc)) if man else 0)
    a = n + 1
    gf = to_fixed(g._mpf_, wp)
    g2 = gf * gf >> wp
    w2 = (a * a << wp) + g2                    # |w|^2
    ur = (a << 2 * wp) // w2
    ui = -(gf << wp) // w2
    zr2 = (ur * ur - ui * ui) >> (wp - 1)      # 2 Re z
    z2 = (ur * ur + ui * ui) ** 2 >> 3 * wp    # |z|^2 = |u|^4
    log_w = to_fixed(mpf_log(from_man_exp(w2, -wp), wp), wp) >> 1
    coeffs = [to_fixed(mpf_bernoulli(2 * k, wp), wp)
              // (2 * k if digamma else 2 * k * (2 * k - 1))
              for k in range(1, terms + 1)]
    b1 = b2 = 0
    for c in reversed(coeffs):
        b1, b2 = c + (zr2 * b1 >> wp) - (z2 * b2 >> wp), b1
    if digamma:
        tail = (b1 * zr2 >> 1) - z2 * b2
        total = log_w - (ur >> 1) - (tail >> wp) - sum(
            (k << 2 * wp) // ((k * k << wp) + g2) for k in range(1, a))
    else:
        tail = b1 * ui - (z2 * b2 >> wp) * gf
        ph_w = to_fixed(mpf_atan2(g._mpf_, from_int(a), wp), wp)
        total = ((2 * a - 1) * ph_w >> 1) + (gf * log_w >> wp) - gf \
            + (tail >> wp) - _shift_phase(g, gf, blocks, wp)
        if negative:
            total = -total
    return mp.make_mpf(from_man_exp(total, -wp, prec, "n"))


def _shift_phase(g, gf, blocks, wp):
    """sum_{k<=N} atan(g/k) in fixed point, N = 8 len(blocks): the
    argument of prod_{k<=N} (k+ig), one atan2 of an integer product built
    block by block from the coefficients of ``_stirling_plan`` and cut back
    to wp bits after each, put on its branch by the same sum in doubles."""
    one = 1 << wp
    g2 = gf * gf >> wp
    g3 = g2 * gf >> wp
    g4 = g2 * g2 >> wp
    g5 = g4 * gf >> wp
    g6 = g4 * g2 >> wp
    g7 = g6 * gf >> wp
    g8 = g4 * g4 >> wp
    pr, pi = one, 0
    for (c0, c2, c4, c6, c8), (c1, c3, c5, c7) in blocks:
        qr = c0 * one + c2 * g2 + c4 * g4 + c6 * g6 + c8 * g8
        qi = c1 * gf + c3 * g3 + c5 * g5 + c7 * g7
        pr, pi = pr * qr - pi * qi, pr * qi + pi * qr
        shift = max(pr.bit_length(), pi.bit_length()) - wp
        pr >>= shift
        pi >>= shift
    arg = to_fixed(mpf_atan2(from_int(pi), from_int(pr), wp), wp)
    n = 8 * len(blocks)
    approx = math.fsum(map(math.atan2, itertools.repeat(float(g), n),
                           range(1, n + 1)))
    turns = round((approx - arg / one) / (2 * math.pi))
    return arg + turns * to_fixed(mpf_pi(wp), wp + 1)


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
