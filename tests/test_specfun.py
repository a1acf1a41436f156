"""Special-function evaluators against independent oracles."""

import random

import mpmath as mp
import pytest

from ispflow.specfun import (ComplexHP, SpecFunError, _asym_crossover, _eta,
                             _eta_terms, _series_sum, arg_i_branch_residue,
                             arg_i_tilde_principal, arg_i_unwrapped,
                             bessel_i_imag, bessel_j_imag, bessel_k_imag,
                             complex_gamma, hankel1_imag, hankel2_imag)


@pytest.fixture(autouse=True, scope="module")
def _working_precision():
    with mp.workdps(60):
        yield


def stirling_gamma(z, dps=80):
    """Independent gamma oracle: Stirling series after upward recurrence."""
    with mp.workdps(dps):
        z = mp.mpc(z)
        shift = 40
        w = z + shift
        s = (w - mp.mpf(1) / 2) * mp.log(w) - w + mp.log(2 * mp.pi) / 2
        for k in range(1, 21):
            s += mp.bernoulli(2 * k) / (2 * k * (2 * k - 1) * w ** (2 * k - 1))
        val = mp.e ** s
        for j in range(shift):
            val /= (z + j)
        return val


def series_i_oracle(g, x, dps=120):
    """Direct doubled-precision summation of the modified series."""
    with mp.workdps(dps):
        g, x = mp.mpf(g), mp.mpf(x)
        nu = mp.mpc(0, 1) * g
        total = mp.mpc(0)
        for m in range(200):
            total += (x / 2) ** (2 * m + nu) / (mp.factorial(m)
                                                * mp.gamma(m + 1 + nu))
        return +total


def test_gamma_basics():
    assert abs(complex_gamma(1).mpc - 1) < 1e-55
    assert abs(complex_gamma(mp.mpf(1) / 2).mpc - mp.sqrt(mp.pi)) < 1e-55


def test_gamma_pole():
    with pytest.raises(SpecFunError):
        complex_gamma(-2)


def test_gamma_against_independent_oracle():
    z = mp.mpc(1, 1)
    mine = complex_gamma(z).mpc
    assert abs(mine - stirling_gamma(z)) < 1e-45
    # |Gamma(1+i)| has the closed form sqrt(pi/sinh(pi)); digits frozen
    # from that expression at 60-digit precision
    assert abs(abs(mine) - mp.sqrt(mp.pi / mp.sinh(mp.pi))) < 1e-50
    assert abs(abs(mine) - mp.mpf("0.521564046864939841158180269628")) < 1e-29


def test_bessel_i_against_oracles():
    mine = bessel_i_imag(1.0, 1.0).mpc
    assert abs(mine - series_i_oracle(1.0, 1.0)) < 1e-55
    assert abs(mine - mp.besseli(mp.mpc(0, 1), 1)) < 1e-55


def test_bessel_j_against_mpmath():
    for g, x in ((0.4, 0.7), (1.3, 2.2), (2.7, 0.05)):
        mine = bessel_j_imag(g, x).mpc
        ref = mp.besselj(mp.mpc(0, 1) * mp.mpf(g), mp.mpf(x))
        assert abs(mine - ref) / abs(ref) < 1e-50


def test_eta_series_against_mpmath_bessel():
    """eta_+-(g, x/2) = Gamma(1+ig) (x/2)^{-ig} I_{ig}(x) (+) or J_{ig}(x) (-),
    from mpmath's own Bessel functions at 120 digits, against the shared
    series at 60 digits up to just below the asymptotic crossover, where the
    alternating sum cancels most and needs its guard digits."""
    top = float(_asym_crossover(60)) - 0.5
    rng = random.Random(4711)
    points = [(0.1, top), (2.5, top), (1.0, 0.3)] + [
        (rng.uniform(0.1, 2.5), rng.uniform(0.5, top)) for _ in range(9)]
    for g, x in points:
        mine = {alt: _series_sum(g, x, alt, 60) for alt in (False, True)}
        with mp.workdps(120):
            g, x = mp.mpf(g), mp.mpf(x)
            nu = mp.mpc(0, 1) * g
            split = mp.gamma(1 + nu) * (x / 2) ** (-nu)
            for alt, bessel in ((False, mp.besseli), (True, mp.besselj)):
                ref = split * bessel(nu, x)
                got = mine[alt] * mp.gamma(1 + nu)
                assert abs(got - ref) / abs(ref) < 1e-50, (g, x, alt)


def mpc_eta_oracle(g, z, sign, digits):
    """(eta, term count): the eta_+- recurrence on mpc values at the working
    precision, with the stop rule of specfun._eta."""
    g = mp.mpf(g)
    z = mp.mpf(z)
    tol2 = mp.mpf(10) ** (-2 * digits)
    w = sign * z * z
    g2 = g * g
    term = eta = mp.mpc(1)
    m = 0
    while True:
        m += 1
        d = m * m + g2
        term *= mp.mpc(m / d, -g / d) * (w / m)     # 1/(m+ig) = (m-ig)/d
        eta += term
        if m > z and m > 3:
            size = term.real * term.real + term.imag * term.imag
            if size < tol2 * max(eta.real * eta.real + eta.imag * eta.imag, 1):
                return eta, m


def test_fixed_point_eta_against_mpc_recurrence():
    """The fixed-point kernel sums as many terms as the mpc recurrence and
    agrees with it to 10^-digits relative, at the working precision and
    digits _series_sum asks for, from z = 1e-6 to just below the dps-60
    crossover."""
    top = float(_asym_crossover(60)) / 2 - 0.25
    rng = random.Random(2718)
    # at z = 1e-6 and 30 digits t_3 is below the tolerance already, and
    # only the rule's m > 3 keeps the fourth term
    points = [(0.05, 1e-6, -1, 60), (0.5, 1e-6, 1, 20), (3.0, top, -1, 60),
              (3.0, top, 1, 60)]
    points += [(rng.uniform(0.05, 3.0), 10 ** rng.uniform(-6, mp.log10(top)),
                rng.choice((1, -1)), rng.choice((20, 40, 60)))
               for _ in range(27)]
    for g, z, sign, dps in points:
        digits = dps + 10
        guard = int(1.8 * z) + 15 if sign < 0 else 15
        with mp.workdps(dps + guard):
            ref, count = mpc_eta_oracle(g, z, sign, digits)
            got = _eta(g, z, sign, digits)
            terms = list(_eta_terms(g, z, sign, digits))
            assert len(terms) == count, (g, z, sign, dps)
            assert abs(got - ref) / abs(ref) < mp.mpf(10) ** -digits, (
                g, z, sign, dps)


def test_eta_reads_only_the_working_precision():
    """Inside mp.workdps(dps) the kernel's result is the same whatever the
    precision outside it."""
    for g, z, sign in ((0.41, "1e-3", 1), (0.7, "12.3", 1), (2.2, "30.5", -1)):
        got = []
        for outer in (15, 60, 200):
            with mp.workdps(outer):
                with mp.workdps(75):
                    got.append(_eta(g, z, sign, 70))
        assert got[0] == got[1] == got[2], (g, z, sign)


def test_default_precision_ignores_global_dps():
    """The default dps is DEFAULT_DPS (60), whatever the global precision."""
    g, x = 0.7, 2.5
    with mp.workdps(15):
        j = bessel_j_imag(g, x)
        total = arg_i_unwrapped(g, x)
        gam = complex_gamma(1 + 1j)
        # reading the stored value must not round it to the global precision
        j_val, j_conj, gam_val = j.mpc, j.conjugate().mpc, gam.mpc
    with mp.workdps(60):
        ref = bessel_j_imag(g, x, dps=60).mpc
        assert j.dps == 60
        assert abs(j_val - ref) / abs(ref) < 1e-50
        assert abs(j_conj - mp.conj(ref)) / abs(ref) < 1e-50
        assert abs(total - arg_i_unwrapped(g, x, dps=60)) < 1e-50
        assert abs(gam_val - complex_gamma(1 + 1j, dps=60).mpc) < 1e-50


def test_conjugation_symmetry_randomized():
    rng = random.Random(20260101)
    for _ in range(1000):
        g = mp.mpf(rng.uniform(0.05, 3.0))
        x = mp.mpf(rng.uniform(0.05, 5.0))
        i_val = bessel_i_imag(g, x, dps=30).mpc
        j_val = bessel_j_imag(g, x, dps=30).mpc
        # J_{-ig}(x) = conj J_{ig}(x); |I| even and arg odd in g
        ref = mp.besselj(mp.mpc(0, -1) * g, x)
        assert abs(j_val.conjugate() - ref) / abs(ref) < 1e-25
        assert abs(abs(i_val) ** 2 - (i_val * i_val.conjugate()).real) < 1e-25


def test_k_reality():
    for g, x in ((0.8, 1.3), (1.7, 0.4), (0.2, 2.5)):
        val = bessel_k_imag(g, x).mpc
        assert abs(val.imag) < 1e-35
        ref = mp.besselk(mp.mpc(0, 1) * mp.mpf(g), mp.mpf(x))
        assert abs(val - ref) / abs(ref) < 1e-50
    # at moderate x the two I ~ e^x cancel to K ~ e^-x: every digit asked
    # for must survive the cancellation
    for g, x, dps in ((0.8, 40, 30), (0.8, 80, 30), (0.8, 40, 60)):
        val = bessel_k_imag(g, x, dps).mpc
        with mp.workdps(dps + 80):
            ref = mp.besselk(mp.mpc(0, 1) * mp.mpf(g), mp.mpf(x))
            assert abs(val - ref) < mp.mpf(10) ** -(dps - 2) * abs(ref), (x, dps)


def test_hankel_reflection_relation():
    g = mp.mpf("0.7")
    nu = mp.mpc(0, 1) * g
    h1 = hankel1_imag(g, 2.0).mpc
    ref = mp.hankel1(-nu, mp.mpf(2))
    assert abs(ref - mp.e ** (mp.mpc(0, 1) * mp.pi * nu) * h1) < 1e-50


def test_hankel_from_j_combination():
    """H1_{ig} = (1 + coth(pi g)) J_{ig} - J_{-ig}/sinh(pi g)."""
    g, x = mp.mpf("0.9"), mp.mpf("1.7")
    j = bessel_j_imag(g, x).mpc
    h1 = hankel1_imag(g, x).mpc
    combo = (1 + mp.coth(mp.pi * g)) * j - j.conjugate() / mp.sinh(mp.pi * g)
    assert abs(h1 - combo) / abs(h1) < 1e-50
    h2 = hankel2_imag(g, x).mpc
    assert abs(h2 - (mp.e ** (-mp.pi * g)) * h1.conjugate()) / abs(h2) < 1e-50


def test_precision_halving_randomized():
    rng = random.Random(31415)
    for _ in range(1000):
        g = mp.mpf(rng.uniform(0.1, 2.5))
        x = mp.mpf(rng.uniform(0.1, 4.0))
        lo = bessel_i_imag(g, x, dps=20).mpc
        hi = bessel_i_imag(g, x, dps=40).mpc
        assert abs(lo - hi) / abs(hi) < 1e-18


def test_series_asymptotic_overlap_window():
    """The two evaluation routes agree in the 25..35 crossover window at the
    precision where the asymptotic floor allows it."""
    for x in (25.0, 28.0, 30.0, 33.0, 35.0):
        s = bessel_i_imag(0.9, x, dps=15, force="series").mpc
        a = bessel_i_imag(0.9, x, dps=15, force="asymptotic").mpc
        assert abs(s - a) / abs(s) < 1e-15
        sj = bessel_j_imag(0.6, x, dps=15, force="series").mpc
        aj = bessel_j_imag(0.6, x, dps=15, force="asymptotic").mpc
        assert abs(sj - aj) / abs(sj) < 1e-13


def test_automatic_asymptotic_route():
    # far beyond the crossover the automatic route is the expansion
    val = bessel_i_imag(0.5, 220.0, dps=40).mpc
    ref = mp.besseli(mp.mpc(0, 0.5), 220.0)
    assert abs(val - ref) / abs(ref) < 1e-38


def test_arg_unwrapped_small_argument_limit():
    g = mp.mpf("0.6")
    x = mp.mpf("1e-9")
    got = arg_i_unwrapped(g, x)
    expect = g * mp.log(x / 2) - mp.im(mp.loggamma(1 + mp.mpc(0, 1) * g))
    assert abs(got - expect) < 1e-17


def test_arg_unwrapped_equals_oracle_mod_branch():
    for g, x in ((1.0, 1.0), (0.5, 8.0), (2.0, 20.0), (0.25, 3.0)):
        tot = arg_i_unwrapped(mp.mpf(g), mp.mpf(x))
        orac = mp.arg(mp.besseli(mp.mpc(0, 1) * mp.mpf(g), mp.mpf(x)))
        k = (tot - orac) / (2 * mp.pi)
        assert abs(k - mp.nint(k)) < 1e-45


def test_decomposition_residue_randomized():
    rng = random.Random(777)
    for _ in range(100):
        g = mp.mpf(rng.uniform(0.1, 2.0))
        x = mp.mpf(rng.uniform(0.05, 12.0))
        r = arg_i_branch_residue(g, x, dps=40)
        assert abs(r - mp.nint(r)) < 1e-30


def test_complexhp_validation():
    with pytest.raises(SpecFunError):
        ComplexHP(mp.mpc(mp.inf, 0))
    v = ComplexHP(mp.mpc(1, 2), dps=33)
    assert v.dps == 33 and v.conjugate().im == -2


def test_domain_errors():
    with pytest.raises(SpecFunError):
        bessel_i_imag(-1.0, 1.0)
    with pytest.raises(SpecFunError):
        bessel_j_imag(1.0, 0.0)
