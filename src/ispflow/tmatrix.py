"""Perturbative transition-matrix elements and cutoff-divergence degrees.

First-order momentum-space matrix elements of the inverse-square and
contact interactions in d = 1, 2 and d >= 3 are carried as explicit
(basis, coefficient) pairs over {1, ln L, L, L^2} so divergent pieces are
never evaluated blindly.  Second-order elements are genuine cutoff
integrals done by adaptive quadrature (units hbar = m = 1), and their
growth is classified on the same basis.

The divergence degree of a term is the explicit cutoff power carried by
its contact vertices times the classified growth of its loop integral.
The loop's principal-value (real) part is classified in two stages: the
cutoff power from the tail log-log slope (log factors cannot move a
rounded power), then, for bounded powers, a significance-thresholded fit
on {1, ln L} separating a clean logarithm from no divergence.  This is a
superficial degree count by construction: slow ln^k (k >= 2) accumulations
fail the 10^3 threshold and classify as finite, and a positive power
absorbs log factors.  Per-part classifications and four-basis
least-squares diagnostics stay in the report.

The d=1 ck' loop is reported finite because its two operator orderings
cancel identically outside the external momentum window, so the loop only
integrates over [p_i, p_f] and cannot depend on the cutoff.  (Its k'
vertex carries a factor i, so its principal-value part is the imaginary
part of the samples, ``part_classifications["loop_imag"]``.)  The published
table lists ck' as "L", which is the power-counting degree of the
integrand; power counting cannot see the cancellation.  ``EXPECTED_TABLES``
is kept unedited as the published record, and acceptance criterion 9 pins
this one deviation together with its proof: cutoff-independent samples
equal to the window-only integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

BASIS_NAMES = ("1", "lnL", "L", "L^2")

FIRST_ORDER_TERMS = {
    1: ("c", "k", "kprime"),
    2: ("c", "k"),
    3: ("c", "k"),
}
SECOND_ORDER_TERMS = {
    1: ("c2", "k2", "kprime2", "ck", "ckprime"),
    2: ("c2", "k2", "ck"),
    3: ("c2",),
}

DEFAULT_MOMENTA = (0.7, 1.3)
DEFAULT_ENERGY = 1.0
SIGNIFICANCE = 1e3

# explicit cutoff powers carried by momentum-independent contact vertices
VERTEX_POWERS = {(1, "k2"): 2, (1, "ck"): 1}


class TMatrixError(ValueError):
    pass


def solid_angle(d: int) -> float:
    return 2 * math.pi ** (d / 2) / math.gamma(d / 2)


@dataclass(frozen=True)
class MatrixElementSpec:
    d: int
    term: str                  # "c" | "k" | "kprime"
    p_f: float = DEFAULT_MOMENTA[1]
    p_i: float = DEFAULT_MOMENTA[0]
    coupling: float = 1.0


@dataclass
class FirstOrderElement:
    """Closed-form first-order element as basis pieces; ``pieces[b]`` is the
    (possibly complex) coefficient of basis function b of the cutoff."""

    spec: MatrixElementSpec
    pieces: dict

    def evaluate(self, lam: float) -> complex:
        fns = {"1": 1.0, "lnL": math.log(lam), "L": lam, "L^2": lam * lam}
        return sum(c * fns[b] for b, c in self.pieces.items())

    def classification(self) -> str:
        for b in reversed(BASIS_NAMES):
            if self.pieces.get(b, 0):
                return b
        return "1"


def first_order_element(spec: MatrixElementSpec) -> FirstOrderElement:
    """Momentum-space matrix element <p_f|V_term|p_i> at first order."""
    d, term = spec.d, spec.term
    q = abs(spec.p_f - spec.p_i)
    cpl = spec.coupling
    if d == 1:
        if term == "c":
            pieces = {"1": cpl * q / 2}
        elif term == "k":
            pieces = {"L": -cpl / (4 * math.pi)}
        elif term == "kprime":
            pieces = {"1": 1j * cpl * (spec.p_f - spec.p_i) / (2 * math.pi)}
        else:
            raise TMatrixError(f"unsupported term {term} in d=1")
    elif d == 2:
        if term == "c":
            if q == 0:
                raise TMatrixError("d=2 inverse-square element needs "
                                   "p_f != p_i")
            pieces = {"lnL": -cpl / (2 * math.pi),
                      "1": cpl * math.log(q) / (2 * math.pi)}
        elif term == "k":
            pieces = {"1": -cpl / (2 * math.pi)}
        else:
            raise TMatrixError(f"unsupported term {term} in d=2")
    elif d >= 3:
        if term == "c":
            if q == 0:
                raise TMatrixError("forward element diverges; use p_f != p_i")
            pieces = {"1": -cpl / ((d - 2) * solid_angle(d) * q ** (d - 2))}
        elif term == "k":
            pieces = {}        # the radial contact term vanishes identically
        else:
            raise TMatrixError(f"unsupported term {term} in d>=3")
    else:
        raise TMatrixError("d must be a positive integer")
    return FirstOrderElement(spec, pieces)


# ---------------------------------------------------------------------------
# Second-order cutoff integrals.
# ---------------------------------------------------------------------------

def _denominator_parts(e_i: float, eps: float):
    def re_part(p2):
        den = e_i - p2 / 2
        return den / (den * den + eps * eps)

    def im_part(p2):
        den = e_i - p2 / 2
        return -eps / (den * den + eps * eps)

    return re_part, im_part


def _shell_points(e_i: float, eps: float):
    a = math.sqrt(2 * e_i)
    return [a - 1000 * eps, a - 10 * eps, a, a + 10 * eps, a + 1000 * eps]


def _integrate_against_denominator(f, lo, hi, e_i, eps):
    """integral of f(p)/(E - p^2/2 + i eps) over [lo, hi] for real-valued f.

    The real part is the principal value, computed by symmetric subtraction
    around each pole shell p = +-sqrt(2E): paired samples cancel the
    antisymmetric spike exactly, leaving a bounded integrand.  (The
    Lorentzian real part would differ from the PV only by an O(eps)
    shell term, which is noise for the divergence fits.)  The imaginary
    Lorentzian keeps the finite i-eps width and is integrated with explicit
    shell break points.
    """
    a = math.sqrt(2 * e_i)
    w = min(0.5 * a, 0.25 * (hi - a)) if hi > a else 0.0
    _, im_d = _denominator_parts(e_i, eps)

    def re_d(p2):
        return 1.0 / (e_i - p2 / 2)

    kw = dict(limit=300, epsabs=1e-12, epsrel=1e-12)

    def re_piece(x0, x1):
        if x1 <= x0:
            return 0.0
        return quad(lambda p: f(p) * re_d(p * p), x0, x1, **kw)[0]

    def re_shell(center):
        sgn = 1.0 if center > 0 else -1.0
        inner = [p for p in (10 * eps, 1000 * eps) if p < w]
        return quad(lambda u: (f(center + sgn * u) * re_d((center + sgn * u) ** 2)
                               + f(center - sgn * u) * re_d((center - sgn * u) ** 2)),
                    0, w, points=inner or None, **kw)[0]

    total_re = 0.0
    shells = []
    if hi > a and w > 0:
        shells.append(a)
    if lo < -a and w > 0:
        shells.append(-a)
    segs = []
    if a in shells and -a in shells:
        segs = [(lo, -a - w), (-a + w, a - w), (a + w, hi)]
    elif a in shells:
        segs = [(lo, a - w), (a + w, hi)]
    else:
        segs = [(lo, hi)]
    for x0, x1 in segs:
        total_re += re_piece(x0, x1)
    for c in shells:
        total_re += re_shell(c)

    pts = [p for p in _shell_points(e_i, eps) if lo < p < hi]
    pts += [-p for p in _shell_points(e_i, eps) if lo < -p < hi]
    total_im = quad(lambda p: f(p) * im_d(p * p), lo, hi,
                    points=sorted(pts) or None, **kw)[0]
    return total_re, total_im


def second_order_integral(term: str, d: int, lam: float,
                          e_i: float = DEFAULT_ENERGY,
                          i_epsilon: float | None = None,
                          p_f: float = DEFAULT_MOMENTA[1],
                          p_i: float = DEFAULT_MOMENTA[0]) -> complex:
    """Cutoff loop integral of the second-order T-matrix term.

    Returns the complex value (the i-epsilon prescription feeds an
    imaginary part that carries the k^2 divergence in d=1).  Couplings are
    set to 1; vertex cutoff factors are included.
    """
    eps = (1e-3 * e_i) if i_epsilon is None else i_epsilon
    if lam < 10 * max(abs(p_f), abs(p_i)):
        raise TMatrixError("cutoff must dominate the external momenta")
    if d == 1:
        factor, f = _second_order_d1(term, p_f, p_i)
        re, im = _integrate_against_denominator(f, -lam, lam, e_i, eps)
        power = VERTEX_POWERS.get((1, term), 0)
        return factor * complex(re, im) * lam ** power
    if d == 2:
        return _second_order_d2(term, lam, e_i, eps, p_f, p_i)
    if d == 3:
        return _second_order_d3(term, lam, e_i, eps, p_f)
    raise TMatrixError(f"no second-order integrals in d={d}")


def _second_order_d1(term, p_f, p_i):
    """(constant factor, real integrand) of a d=1 loop: the factor is the i
    of the k' vertex for ck', 1 for every other term."""
    factor = 1
    if term == "c2":
        f = lambda p: 0.25 * abs(p_f - p) * abs(p - p_i)
    elif term == "k2":
        f = lambda p: 1.0 / (4 * math.pi) ** 2
    elif term == "kprime2":
        f = lambda p: -(p_f - p) * (p - p_i) / (4 * math.pi ** 2)
    elif term == "ck":
        f = lambda p: -(abs(p_f - p) + abs(p - p_i)) / (8 * math.pi)
    elif term == "ckprime":
        # i k'/(2pi) vertex against c/2 vertex, both orderings
        factor = 1j
        f = lambda p: (1 / (4 * math.pi)) * (abs(p_f - p) * (p - p_i)
                                             + (p_f - p) * abs(p - p_i))
    else:
        raise TMatrixError(f"unsupported d=1 second-order term {term}")
    return factor, f


def _second_order_d2(term, lam, e_i, eps, p_f, p_i):
    if term == "k2":
        radial = lambda r: 2 * math.pi * r / (4 * math.pi ** 2)
    elif term == "ck":
        # exact angular mean of ln|q - p| over the circle is ln max(r, q)
        radial = lambda r: (2 * math.pi * r / (4 * math.pi ** 2)
                            * (math.log(lam / max(r, p_f))
                               + math.log(lam / max(r, p_i))))
    elif term == "c2":
        nodes, weights = np.polynomial.legendre.leggauss(64)
        th = math.pi * (nodes + 1) / 2
        wth = weights * math.pi / 2
        cth = np.cos(th)

        def radial(r):
            q1 = np.sqrt(np.maximum(r * r + p_f * p_f - 2 * r * p_f * cth,
                                    1e-300))
            q2 = np.sqrt(np.maximum(r * r + p_i * p_i - 2 * r * p_i * cth,
                                    1e-300))
            ang = 2 * float(np.sum(wth * np.log(lam / q1)
                                   * np.log(lam / q2))) / (2 * math.pi)
            return 2 * math.pi * r * ang / (4 * math.pi ** 2)
    else:
        raise TMatrixError(f"unsupported d=2 second-order term {term}")
    re, im = _integrate_against_denominator(radial, 0.0, lam, e_i, eps)
    return complex(re, im)


def _second_order_d3(term, lam, e_i, eps, p_f):
    if term != "c2":
        raise TMatrixError("only the inverse-square term survives in d=3")
    omega = solid_angle(3)
    pref = 1.0 / (omega * omega)

    def radial(r):
        # forward kinematics: angular integral of 1/|p_f - p|^2 is analytic
        if abs(r - p_f) < 1e-12:
            return 0.0
        ang = (2 * math.pi / (2 * r * p_f)) * math.log(
            ((r + p_f) ** 2) / ((r - p_f) ** 2))
        return pref * r * r * ang

    re, im = _integrate_against_denominator(radial, 0.0, lam, e_i, eps)
    return complex(re, im)


def second_order_odd_piece(lam: float, e_i: float = DEFAULT_ENERGY,
                           i_epsilon: float | None = None) -> float:
    """The p^1 piece of the d=1 c^2 integrand over the symmetric window;
    vanishes by parity."""
    eps = (1e-3 * e_i) if i_epsilon is None else i_epsilon
    re_d, _ = _denominator_parts(e_i, eps)
    pts = [p for p in _shell_points(e_i, eps) if 0 < p < lam]
    val = quad(lambda p: p * re_d(p * p) + (-p) * re_d(p * p), 0, lam,
               points=pts or None, limit=200)[0]
    return val


# ---------------------------------------------------------------------------
# Divergence classification.
# ---------------------------------------------------------------------------

@dataclass
class DivergenceReport:
    term: str
    d: int
    lambdas: list
    values: list                       # complex samples
    fit_coefficients: dict             # basis -> float (dominант part)
    fit_residual: float
    classification: str
    part_classifications: dict = field(default_factory=dict)

    def row(self):
        return {
            "d": self.d, "term": self.term,
            "basis_1": self.fit_coefficients["1"],
            "basis_log": self.fit_coefficients["lnL"],
            "basis_lin": self.fit_coefficients["L"],
            "basis_quad": self.fit_coefficients["L^2"],
            "classification": self.classification,
            "residual": self.fit_residual,
        }


def _lstsq_basis(lams, ys):
    b = np.stack([np.ones_like(lams), np.log(lams), lams, lams ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(b, ys, rcond=None)
    resid = ys - b @ coef
    return dict(zip(BASIS_NAMES, coef)), float(np.sqrt(np.mean(resid ** 2)))


def _compose_degree(loop_class: str, vertex_power: int) -> str:
    """Total degree: vertex cutoff power plus the loop's power; a positive
    total power absorbs log factors."""
    loop_power = {"1": 0, "lnL": 0, "L": 1, "L^2": 2}[loop_class]
    total = min(loop_power + vertex_power, 2)
    if total == 0:
        return loop_class
    return "L" if total == 1 else "L^2"


def _classify_part(lams, ys, slope_pts=3):
    scale = float(np.max(np.abs(ys))) if len(ys) else 0.0
    if scale == 0.0 or scale < 1e-300:
        return "1"
    ay = np.maximum(np.abs(ys), 1e-300)
    lt = np.log(lams[-slope_pts:])
    slope = np.polyfit(lt, np.log(ay[-slope_pts:]), 1)[0]
    power = int(np.clip(round(slope), 0, 2))
    if power == 2:
        return "L^2"
    if power == 1:
        return "L"
    b = np.stack([np.ones_like(lams), np.log(lams)], axis=1)
    norms = np.sqrt((b ** 2).mean(axis=0))
    coef, *_ = np.linalg.lstsq(b / norms, ys, rcond=None)
    resid = ys - (b / norms) @ coef
    rms = max(float(np.sqrt(np.mean(resid ** 2))),
              1e-9 * float(np.sqrt(np.mean(ys ** 2))))
    return "lnL" if abs(coef[1]) > SIGNIFICANCE * rms else "1"


def classify_divergence(term: str, d: int, lambdas=None,
                        e_i: float = DEFAULT_ENERGY,
                        i_epsilon: float | None = None,
                        first_order: bool = False) -> DivergenceReport:
    """Sample the term over log-spaced cutoffs and classify its growth."""
    if lambdas is None:
        lambdas = np.geomspace(1e2, 1e4, 8)
    lambdas = np.asarray([float(x) for x in lambdas])
    if len(lambdas) < 6:
        raise TMatrixError("need at least 6 cutoff samples")
    if first_order:
        el = first_order_element(MatrixElementSpec(d, term))
        vals = np.array([el.evaluate(l) for l in lambdas], dtype=complex)
    else:
        vals = np.array([second_order_integral(term, d, l, e_i, i_epsilon)
                         for l in lambdas], dtype=complex)

    power = VERTEX_POWERS.get((d, term), 0) if not first_order else 0
    loops = vals / lambdas ** power
    loop_class = _classify_part(lambdas, loops.real)
    classification = _compose_degree(loop_class, power)
    coefs, resid = _lstsq_basis(lambdas, np.abs(vals))
    return DivergenceReport(term, d, list(lambdas), list(vals), coefs, resid,
                            classification,
                            {"loop_real": loop_class,
                             "loop_imag": _classify_part(lambdas, loops.imag),
                             "vertex_power": power})


def divergence_table(d: int, lambdas=None, e_i: float = DEFAULT_ENERGY,
                     i_epsilon: float | None = None) -> dict:
    """Full classification table for a dimension; keys are term labels."""
    if d not in FIRST_ORDER_TERMS:
        raise TMatrixError(f"no table for d={d}")
    out = {}
    for term in FIRST_ORDER_TERMS[d]:
        out[term] = classify_divergence(term, d, lambdas, e_i, i_epsilon,
                                        first_order=True)
    for term in SECOND_ORDER_TERMS[d]:
        out[term] = classify_divergence(term, d, lambdas, e_i, i_epsilon)
    return out


EXPECTED_TABLES = {
    1: {"c": "1", "k": "L", "kprime": "1", "c2": "L", "k2": "L^2",
        "kprime2": "L", "ck": "L", "ckprime": "L"},
    2: {"c": "lnL", "k": "1", "ck": "1", "c2": "1", "k2": "lnL"},
    3: {"c": "1", "k": "1", "c2": "1"},
}
