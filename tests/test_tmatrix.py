"""Transition-matrix elements against quadrature oracles, and the
divergence classifier."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from ispflow.tmatrix import (EXPECTED_TABLES, DivergenceReport,
                             MatrixElementSpec, TMatrixError,
                             classify_divergence, divergence_table,
                             first_order_element, second_order_integral,
                             solid_angle)


# ---------------------------------------------------------------------------
# First-order closed forms vs adaptive quadrature of the regulated Fourier
# integrals (the module's oracle).
# ---------------------------------------------------------------------------

def oracle_d1_isp(q, coupling=1.0):
    """(coupling/2)|q| from the odd-regulated transform of 1/x:
    element = (c/pi) * |q| * integral_0^inf sin(|q|x)/x dx."""
    val = quad(lambda x: 1.0 / x, 1e-10, np.inf, weight="sin",
               wvar=abs(q), limit=400)[0]
    return coupling * abs(q) * val / math.pi


def oracle_d1_kprime(q, coupling=1.0):
    """ik'(p_f - p_i)/(2 pi): the delta-prime transform, regulated by a
    narrow gaussian representation of delta'."""
    eps = 1e-4

    def dprime(x):
        return (-x / eps ** 3 / math.sqrt(2 * math.pi)
                * math.exp(-x * x / (2 * eps * eps)))

    re = quad(lambda x: dprime(x) * math.cos(q * x), -8 * eps, 8 * eps,
              limit=200)[0]
    im = quad(lambda x: dprime(x) * -math.sin(q * x), -8 * eps, 8 * eps,
              limit=200)[0]
    return coupling * complex(re, im) / (2 * math.pi)


def oracle_d2_isp_log_slope(lam0, lam1, q, coupling=1.0):
    """The d=2 element's cutoff dependence: numerically integrate the
    radial Bessel profile between the two wall scales; the difference of
    elements must be -(c/2pi) ln(lam1/lam0)."""
    lo0, lo1 = 2 * q / lam1, 2 * q / lam0

    def j0_over_u(u):
        from scipy.special import j0
        return j0(u) / u

    val = quad(j0_over_u, lo0, lo1, limit=400)[0]
    return -coupling * val / (2 * math.pi)


# the oracle's own weight="sin" quadrature of 1/x down to 1e-10 warns
@pytest.mark.filterwarnings(
    "ignore:Bad integrand behavior:scipy.integrate.IntegrationWarning")
def test_d1_isp_matches_oracle():
    el = first_order_element(MatrixElementSpec(1, "c", p_f=3.0, p_i=0.0,
                                               coupling=2.0))
    assert el.evaluate(1e4) == pytest.approx(3.0)
    assert el.evaluate(1e4) == pytest.approx(oracle_d1_isp(3.0, 2.0),
                                             rel=1e-6)


def test_d1_isp_forward_zero():
    el = first_order_element(MatrixElementSpec(1, "c", p_f=1.0, p_i=1.0))
    assert el.evaluate(10.0) == 0


def test_d1_kprime_matches_oracle():
    el = first_order_element(MatrixElementSpec(1, "kprime", p_f=1.3,
                                               p_i=0.7, coupling=1.0))
    got = el.evaluate(100.0)
    want = oracle_d1_kprime(1.3 - 0.7)
    assert got.imag == pytest.approx(want.imag, rel=1e-4)
    assert abs(got.real) < 1e-8 and abs(want.real) < 1e-8


def test_d1_delta_linear_coefficient():
    el = first_order_element(MatrixElementSpec(1, "k"))
    assert el.pieces["L"] == pytest.approx(-1 / (4 * math.pi))
    assert el.classification() == "L"


def test_d2_isp_log_coefficient_matches_oracle():
    q = 0.6
    el = first_order_element(MatrixElementSpec(2, "c", p_f=q, p_i=0.0))
    diff = el.evaluate(1e5) - el.evaluate(1e3)
    want = oracle_d2_isp_log_slope(1e3, 1e5, q)
    assert diff == pytest.approx(want, rel=1e-4)


def test_d3_isp_element():
    el = first_order_element(MatrixElementSpec(3, "c", p_f=1.5, p_i=0.5))
    assert el.evaluate(10.0) == pytest.approx(-1.0 / (solid_angle(3) * 1.0))
    el5 = first_order_element(MatrixElementSpec(5, "c", p_f=1.5, p_i=0.5))
    assert el5.evaluate(10.0) == pytest.approx(
        -1.0 / (3 * solid_angle(5) * 1.0 ** 3))


def test_d3_delta_vanishes_exactly():
    el = first_order_element(MatrixElementSpec(3, "k"))
    assert el.pieces == {}
    assert el.evaluate(123.0) == 0


def test_parity():
    plus = first_order_element(MatrixElementSpec(1, "c", p_f=1.3, p_i=0.7))
    minus = first_order_element(MatrixElementSpec(1, "c", p_f=-1.3,
                                                  p_i=-0.7))
    assert plus.evaluate(10.0) == minus.evaluate(10.0)
    plus = first_order_element(MatrixElementSpec(1, "kprime", p_f=1.3,
                                                 p_i=0.7))
    minus = first_order_element(MatrixElementSpec(1, "kprime", p_f=-1.3,
                                                  p_i=-0.7))
    assert plus.evaluate(10.0) == -minus.evaluate(10.0)


def test_unsupported_pairs():
    with pytest.raises(TMatrixError):
        first_order_element(MatrixElementSpec(2, "kprime"))
    with pytest.raises(TMatrixError):
        second_order_integral("ck", 3, 1e3)


# ---------------------------------------------------------------------------
# Second order.
# ---------------------------------------------------------------------------

def test_c2_linear_coefficient_stabilizes():
    vals = [second_order_integral("c2", 1, lam).real
            for lam in (1e2, 1e3, 1e4)]
    slopes = [(vals[i + 1] - vals[i]) / (10 ** (i + 3) - 10 ** (i + 2))
              for i in range(2)]
    assert slopes[0] == pytest.approx(slopes[1], rel=1e-3)
    # large-momentum region contributes -2m per unit momentum on each side
    assert slopes[1] == pytest.approx(-4.0 * 0.25, rel=1e-3)


def test_classifier_on_synthetic_shapes():
    lams = np.geomspace(1e2, 1e4, 8)
    from ispflow.tmatrix import _classify_part
    ln = np.log(lams)
    assert _classify_part(lams, np.full(8, 3.0)) == "1"
    assert _classify_part(lams, -12.5 * ln - 20) == "lnL"
    assert _classify_part(lams, 4 * lams - 8 * ln) == "L"
    assert _classify_part(lams, -2 * lams ** 2 + 3 * lams) == "L^2"
    assert _classify_part(lams, lams * (-8 * ln - 13)) == "L"
    assert _classify_part(lams, -4 * math.pi * ln ** 2 - 5 * ln - 30) == "1"
    assert _classify_part(lams, -(4 * math.pi / 3) * ln ** 3 + 10 * ln ** 2) == "1"
    assert _classify_part(lams, np.zeros(8)) == "1"


def test_divergence_tables_match_published_except_ckprime():
    """All entries reproduce the published tables except d=1 ck', whose two
    orderings cancel identically outside the external-momentum window; the
    honest classification is finite."""
    for d in (1, 2, 3):
        table = divergence_table(d)
        for term, report in table.items():
            if (d, term) == (1, "ckprime"):
                assert report.classification == "1"
            else:
                assert report.classification == EXPECTED_TABLES[d][term], \
                    (d, term)


def test_ckprime_integrand_cancels_outside_window():
    f = lambda p: (abs(1.3 - p) * (p - 0.7) + (1.3 - p) * abs(p - 0.7))
    for p in (2.0, 17.0, -3.0, -40.0):
        assert f(p) == 0
    assert f(1.0) != 0


def test_ckprime_classifies_by_principal_value(monkeypatch):
    """A ck' copy with one ordering's sign flipped no longer cancels outside
    the window; its principal value grows as ln L and the table entry must
    say so (the k' vertex's i would put that growth in the imaginary part
    of the samples)."""
    from ispflow import tmatrix
    real_d1 = tmatrix._second_order_d1

    def flipped(term, p_f, p_i):
        if term != "ckprime":
            return real_d1(term, p_f, p_i)
        return lambda p: (1 / (4 * math.pi)) * (abs(p_f - p) * (p - p_i)
                                                - (p_f - p) * abs(p - p_i))

    monkeypatch.setattr(tmatrix, "_second_order_d1", flipped)
    rep = classify_divergence("ckprime", 1)
    assert rep.part_classifications["pv"] == "lnL"
    assert rep.classification == "lnL"


@pytest.mark.parametrize("e_i, eps", [(1.0, 1e-3), (1.0, 5e-4), (1.0, 1e-4),
                                      (150.0, 0.15)])
def test_ckprime_equals_window_integral(e_i, eps):
    """The ck' loop equals its window-only integral at every i_epsilon, and
    with the pole shell far from the window: the quadrature breaks at the
    integrand's kinks p_i and p_f."""
    from test_acceptance import _ckprime_window_integral
    window = _ckprime_window_integral(e_i, eps, 1.3, 0.7)
    for lam in np.geomspace(1e2, 1e4, 8):
        got = second_order_integral("ckprime", 1, lam, e_i, i_epsilon=eps)
        assert got.real == pytest.approx(window.real, rel=1e-12, abs=0)
        assert got.imag == pytest.approx(window.imag, rel=1e-12, abs=0)


@pytest.mark.parametrize("lam", [1e2, 1e4])
def test_d3_c2_principal_value_against_subtraction(lam):
    """PV of the d=3 c2 loop against the subtracted form
    int [g(r) - g(a)]/D dr + g(a) ln((L + a)/(L - a))/a, D = E - r^2/2,
    a = sqrt(2E); g has a log singularity at r = p_f inside the shell."""
    p_f, e_i = 1.3, 1.0
    a = math.sqrt(2 * e_i)

    def g(r):
        # r^2/Omega_3^2 times the sphere integral of 1/|p_f - p|^2
        return (r * r / (4 * math.pi) ** 2 * 2 * math.pi / (r * p_f)
                * math.log(abs((r + p_f) / (r - p_f))))

    ga = g(a)
    ref = sum(quad(lambda r: (g(r) - ga) / (e_i - r * r / 2), x0, x1,
                   limit=500, epsabs=0, epsrel=1e-13)[0]
              for x0, x1 in ((0, p_f), (p_f, a), (a, 2 * a), (2 * a, lam)))
    ref += ga * math.log((lam + a) / (lam - a)) / a
    got = second_order_integral("c2", 3, lam, e_i, p_f=p_f).real
    assert got == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("lam", [1e2, 1e4, 1e5, 1e6])
def test_d1_k2_tail_against_closed_form_and_mpmath(lam):
    """The d=1 k2 loop at large cutoffs: its principal value is
    (2c/a) ln((L + a)/(L - a)), c = 1/(4 pi)^2, and its Lorentzian is
    checked against a 30-digit quadrature broken at the shell points."""
    e_i, eps = 1.0, 1e-4
    a = math.sqrt(2 * e_i)
    c = 1 / (4 * math.pi) ** 2
    got = second_order_integral("k2", 1, lam, e_i, i_epsilon=eps) / lam ** 2
    assert got.real == pytest.approx(2 * c / a * math.log((lam + a)
                                                          / (lam - a)),
                                     rel=1e-9, abs=0)
    with mp.workdps(30):
        e, ep = mp.mpf(e_i), mp.mpf(eps)
        shell = [mp.sqrt(2 * e) + s * x * ep for x in (0, 10, 1000)
                 for s in (-1, 1)]
        lorentzian = mp.quad(
            lambda p: -ep * 2 * c / ((e - p * p / 2) ** 2 + ep * ep),
            [0] + sorted(set(shell)) + [mp.mpf(lam)])
    assert got.imag == pytest.approx(float(lorentzian), rel=1e-9, abs=0)


def test_classification_raises_no_integration_warning():
    """Every second-order loop of the three tables, at three i_epsilon
    and on the wide cutoff grid, integrates without an IntegrationWarning
    (the shell pair is a bounded difference quotient)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for d in (1, 2, 3):
            for eps in (1e-3, 5e-4, 1e-4):
                divergence_table(d, i_epsilon=eps)
            divergence_table(d, np.geomspace(1e2, 1e6, 8))


def test_d2_c2_angular_mean_closed_form():
    """The closed-form circle mean of ln(L/|q - p_f|) ln(L/|q - p_i|)
    against adaptive quadrature, at the kinks r = p_i, r = p_f and around."""
    from ispflow.tmatrix import _second_order_d2
    lam, p_f, p_i = 100.0, 1.3, 0.7
    radial = _second_order_d2("c2", lam, p_f, p_i)

    def ln_ratio(r, th, p):
        dist2 = (r - p) ** 2 + 4 * r * p * math.sin(th / 2) ** 2
        return math.log(lam / math.sqrt(dist2))

    for r in (0.1, p_i, 0.705, 1.0, p_f, 1.31, 5.0, 40.0):
        want = quad(lambda th: ln_ratio(r, th, p_f) * ln_ratio(r, th, p_i),
                    0, math.pi, epsabs=0, epsrel=1e-13, limit=200)[0] / math.pi
        assert radial(r) * 2 * math.pi / r == pytest.approx(want, rel=1e-11)


def test_classification_stability_range_and_epsilon():
    for term, d in (("c2", 1), ("k2", 1), ("ck", 1), ("k2", 2), ("c2", 2)):
        base = classify_divergence(term, d, np.geomspace(1e2, 1e4, 8))
        wide = classify_divergence(term, d, np.geomspace(1e2, 1e6, 8))
        eps2 = classify_divergence(term, d, i_epsilon=0.5e-3)
        eps10 = classify_divergence(term, d, i_epsilon=1e-4)
        assert (base.classification == wide.classification
                == eps2.classification == eps10.classification), (term, d)


def test_report_row_schema():
    rep = classify_divergence("k2", 2)
    row = rep.row()
    assert set(row) == {"d", "term", "basis_1", "basis_log", "basis_lin",
                        "basis_quad", "classification", "residual"}
    assert isinstance(rep, DivergenceReport)


def test_needs_enough_samples():
    with pytest.raises(TMatrixError):
        classify_divergence("c2", 1, np.geomspace(1e2, 1e4, 4))


def test_d3_finite():
    rep = classify_divergence("c2", 3)
    assert rep.classification == "1"
    vals = [abs(v) for v in rep.values]
    assert max(vals) > 0
    assert abs(vals[-1] - vals[-2]) / vals[-1] < 1e-6
