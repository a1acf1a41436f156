"""Reference values for the exact derivations.

These are the independently known closed forms the derivation modules must
reproduce: the ground-state condition coefficients, the transseries sector
prefactors, both running-coupling tables, and the printed beta and
cross-sector coefficients.  Three printed results are corrected, with the
corrections forced by internal consistency (the binomial column ladder,
flow covariance and the beta transseries); see the repository notes:

* the gamma^5 psi2-part of c_(0,9) is 56/6 (not 46/6), as the column sum
  C(8,3)/6 requires and the plug-back residual confirms;
* the g_B^4 cross-sector coefficient carries pi^2/12 (not 1/12), and the
  g_B^5 one an extra (K-L) psi2/(3 pi) term, both fixed by requiring
  beta_S(g_S) = (dg_S/dg_B) beta_B(g_B);
* the printed closed form of beta sector 4 carries a spurious global factor
  (1+g^2)^4/(4+g^2)^2: its weak-coupling limit 3/(32 pi) g^2 contradicts
  the printed transseries lead 3/(2 pi) g^2.  ``bound.beta_exact_sector_eval``
  generates the sector from derived R_l, equal to SECTOR_PREFACTORS, instead.
"""

from __future__ import annotations

from fractions import Fraction as F

from .constexpr import ConstExpr, GRat
from .series import TruncSeries

PSI2 = ConstExpr.psi(2)
PSI4 = ConstExpr.psi(4)
PSI6 = ConstExpr.psi(6)
GAM = ConstExpr.generator("gamma")
K = ConstExpr.generator("K")
L = ConstExpr.generator("L")
SHAT = ConstExpr.generator("shat")
GAMS = GAM + ConstExpr.monomial(1, K=1, pi=1)          # gamma + K pi
P3 = (ConstExpr.monomial(1, K=1, pi=3)
      + ConstExpr.monomial(4, K=3, pi=3) - PSI2 * 2)    # K pi^3 + 4K^3 pi^3 - 2 psi2
P5 = (ConstExpr.monomial(1, K=1, pi=5)
      + ConstExpr.monomial(10, K=3, pi=5)
      + ConstExpr.monomial(24, K=5, pi=5) - PSI4)


def npi(k: int) -> ConstExpr:
    return ConstExpr.monomial(1, n=k, pi=k)


def _f(a, b) -> GRat:
    return GRat(F(a, b))


BOUND_TABLE = {
    (0, 1): npi(1),
    (0, 2): npi(1) * GAM,
    (0, 3): npi(1) * GAM ** 2,
    (0, 4): npi(1) * GAM ** 3 + npi(3) * PSI2 * _f(1, 6),
    (0, 5): npi(1) * GAM ** 4 + npi(3) * PSI2 * GAM * _f(4, 6),
    (0, 6): (npi(1) * GAM ** 5 + npi(3) * PSI2 * GAM ** 2 * _f(10, 6)
             - npi(5) * PSI4 * _f(1, 120)),
    (0, 7): (npi(1) * GAM ** 6 + npi(3) * PSI2 * GAM ** 3 * _f(20, 6)
             - npi(5) * PSI4 * GAM * _f(6, 120)
             + npi(5) * PSI2 ** 2 * _f(1, 12)),
    (0, 8): (npi(1) * GAM ** 7 + npi(3) * PSI2 * GAM ** 4 * _f(35, 6)
             - npi(5) * PSI4 * GAM ** 2 * _f(21, 120)
             + npi(5) * PSI2 ** 2 * GAM * _f(7, 12)
             + npi(7) * PSI6 * _f(1, 5040)),
    # gamma^5 psi2 coefficient corrected to the column value 56/6
    (0, 9): (npi(1) * GAM ** 8 + npi(3) * PSI2 * GAM ** 5 * _f(56, 6)
             - npi(5) * PSI4 * GAM ** 3 * _f(56, 120)
             + npi(5) * PSI2 ** 2 * GAM ** 2 * _f(28, 12)
             + npi(7) * PSI6 * GAM * _f(8, 5040)
             - npi(7) * PSI2 * PSI4 * _f(1, 90)),
    (2, 1): ConstExpr.zero(),
    (2, 2): -npi(1),
    (2, 3): -npi(1) * GAM * 2,
    (2, 4): -npi(1) * GAM ** 2 * 3 + npi(3),
    (2, 5): (-npi(1) * GAM ** 3 * 4 + npi(3) * GAM * 4
             - npi(3) * PSI2 * _f(4, 6)),
    (2, 6): (-npi(1) * GAM ** 4 * 5 + npi(3) * GAM ** 2 * 10
             - npi(3) * PSI2 * GAM * _f(20, 6) - npi(5)),
    (2, 7): (-npi(1) * GAM ** 5 * 6 + npi(3) * GAM ** 3 * 20
             - npi(3) * PSI2 * GAM ** 2 * _f(60, 6) - npi(5) * GAM * 6
             + npi(5) * PSI2 + npi(5) * PSI4 * _f(1, 20)),
    (4, 1): ConstExpr.zero(),
    (4, 2): npi(1) * _f(5, 8),
    (4, 3): npi(1) + npi(1) * GAM * _f(10, 8),
    (4, 4): (npi(1) * GAM * 3 + npi(1) * GAM ** 2 * _f(15, 8)
             - npi(3) * _f(49, 32)),
    (4, 5): (npi(1) * GAM ** 2 * 6 + npi(1) * GAM ** 3 * _f(20, 8)
             - npi(3) * GAM * _f(196, 32) - npi(3) * 4
             + npi(3) * PSI2 * _f(5, 12)),
    # the printed bound list omits the (321/128) n^5 pi^5 head; the solved
    # condition, the xi^4 column head, and the K -> 0 sign map all carry it
    (4, 6): (npi(1) * GAM ** 3 * 10 + npi(1) * GAM ** 4 * _f(25, 8)
             - npi(3) * GAM ** 2 * _f(490, 32) - npi(3) * GAM * 20
             + npi(3) * PSI2 * GAM * _f(25, 12) + npi(3) * PSI2 * _f(5, 3)
             + npi(5) * _f(321, 128)),
}

SCATTER_TABLE = {
    (0, 1): npi(1),
    (0, 2): npi(1) * GAMS,
    (0, 3): npi(1) * GAMS ** 2,
    (0, 4): npi(1) * GAMS ** 3 - npi(3) * P3 * _f(1, 12),
    (0, 5): npi(1) * GAMS ** 4 - npi(3) * P3 * GAMS * _f(4, 12),
    (0, 6): (npi(1) * GAMS ** 5 - npi(3) * P3 * GAMS ** 2 * _f(10, 12)
             + npi(5) * P5 * _f(1, 120)),
    (0, 7): (npi(1) * GAMS ** 6 - npi(3) * P3 * GAMS ** 3 * _f(20, 12)
             + npi(5) * P5 * GAMS * _f(6, 120)
             + npi(5) * P3 ** 2 * _f(1, 48)),
    (2, 1): ConstExpr.zero(),
    (2, 2): npi(1),
    (2, 3): npi(1) * GAMS * 2,
    (2, 4): npi(1) * GAMS ** 2 * 3 - npi(3),
    (2, 5): (npi(1) * GAMS ** 3 * 4 - npi(3) * GAMS * 4
             - npi(3) * P3 * _f(4, 12)),
    (2, 6): (npi(1) * GAMS ** 4 * 5 - npi(3) * GAMS ** 2 * 10
             - npi(3) * P3 * GAMS * _f(20, 12) + npi(5)),
    (2, 7): (npi(1) * GAMS ** 5 * 6 - npi(3) * GAMS ** 3 * 20
             - npi(3) * P3 * GAMS ** 2 * _f(60, 12) + npi(5) * GAMS * 6
             + npi(5) * P5 * _f(6, 120) + npi(5) * P3 * _f(1, 2)),
    (4, 1): ConstExpr.zero(),
    (4, 2): npi(1) * _f(5, 8),
    (4, 3): npi(1) * GAMS * _f(10, 8) + npi(1),
    (4, 4): (npi(1) * GAMS ** 2 * _f(15, 8) + npi(1) * GAMS * 3
             - npi(3) * _f(49, 32)),
    (4, 5): (npi(1) * GAMS ** 3 * _f(20, 8) + npi(1) * GAMS ** 2 * 6
             - npi(3) * GAMS * _f(196, 32) - npi(3) * 4
             - npi(3) * P3 * _f(5, 24)),
    (4, 6): (npi(1) * GAMS ** 4 * _f(25, 8) + npi(1) * GAMS ** 3 * 10
             - npi(3) * GAMS ** 2 * _f(490, 32) - npi(3) * GAMS * 20
             - npi(3) * P3 * GAMS * _f(25, 24) - npi(3) * P3 * _f(20, 24)
             + npi(5) * _f(321, 128)),
}


def _pi_pow(c, k: int) -> ConstExpr:
    return ConstExpr.monomial(c, pi=k)


# bound beta: perturbative g-coefficients and sector leading terms (branch 0)
BOUND_BETA_PERTURBATIVE = {
    2: _pi_pow(-1, -1),
    5: PSI2 * _pi_pow(GRat(F(-1, 3)), -2),
    7: PSI4 * _pi_pow(GRat(F(1, 30)), -2),
    8: PSI2 ** 2 * _pi_pow(GRat(F(-1, 9)), -3),
    9: PSI6 * _pi_pow(GRat(F(-1, 840)), -2),
}
BOUND_BETA_SECTOR_LEAD = {
    2: _pi_pow(2, -1),
    4: _pi_pow(GRat(F(3, 2)), -1),
    6: _pi_pow(GRat(F(37, 18)), -1),
    8: _pi_pow(GRat(F(3113, 864)), -1),
}
# printed subleading sector terms (bound): sector 2 at g^4, g^5; sector 4 at
# g^4, g^5; sectors 6 and 8 at g^4, g^5.  The sector-2 g^5 denominator is
# pi^2 (the print shows pi, inconsistent with every other sector's g^5 term).
BOUND_BETA_SECTOR_TERMS = {
    (2, 4): (PSI2 * 2 + 6) * _pi_pow(GRat(F(-1, 3)), -1),
    (2, 5): (PSI2 * 2 - 6) * _pi_pow(GRat(F(1, 3)), -2),
    (4, 4): (PSI2 * 8 + 15) * _pi_pow(GRat(F(-1, 8)), -1),
    (4, 5): (PSI2 * 8 + 49) * _pi_pow(GRat(F(1, 16)), -2),
    (6, 4): (PSI2 * 1332 + 2677) * _pi_pow(GRat(F(-1, 648)), -1),
    (6, 5): (PSI2 * 1332 + 7529) * _pi_pow(GRat(F(1, 1944)), -2),
    (8, 4): (PSI2 * 54336 + 115039) * _pi_pow(GRat(F(-11, 124416)), -1),
    (8, 5): (PSI2 * 597696 + 3002027) * _pi_pow(GRat(F(1, 497664)), -2),
}

SCATTER_BETA_PERTURBATIVE = {
    2: _pi_pow(-1, -1),
    5: P3 * _pi_pow(GRat(F(1, 6)), -2),
}
SCATTER_BETA_SECTOR_LEAD = {
    2: _pi_pow(-2, -1),
    4: _pi_pow(GRat(F(3, 2)), -1),
}
SCATTER_BETA_SECTOR_TERMS = {
    (2, 4): (P3 - 6) * _pi_pow(GRat(F(-1, 3)), -1),
    (2, 5): (P3 + 6) * _pi_pow(GRat(F(1, 3)), -2),
}

KL = K - L
# cross-sector expansion g_S(g_B): perturbative coefficients of g_B^m and
# the first non-perturbative sector.  The pi^2 on the K(1+4K^2)/12 term and
# the psi2 piece of the g_B^5 coefficient are the covariance-fixed forms.
CROSS_PERTURBATIVE = {
    1: ConstExpr.one(),
    2: KL,
    3: KL ** 2,
    4: (KL ** 3 - ConstExpr.monomial(F(1, 12), K=1, pi=2)
        - ConstExpr.monomial(F(4, 12), K=3, pi=2)),
    5: (KL ** 4
        - KL * (ConstExpr.monomial(F(1, 3), K=1, pi=2)
                + ConstExpr.monomial(F(4, 3), K=3, pi=2))
        + KL * PSI2 * _pi_pow(GRat(F(1, 3)), -1)),
}
CROSS_SECTOR1 = {
    2: (ConstExpr.one() + SHAT ** 2) * _pi_pow(1, -1),
    3: (ConstExpr.one() + SHAT ** 2) * KL * _pi_pow(2, -1),
}


def rational_series(num_coeffs, den_factors, order: int, scale=1) -> TruncSeries:
    """Series expansion of a rational function of g^2.

    ``num_coeffs`` lists the numerator coefficients of g^0, g^2, ...;
    ``den_factors`` lists (a, b) pairs meaning a factor (a + b g^2);
    ``scale`` divides the whole thing.
    """
    gvars = ("g",)
    num = TruncSeries(gvars, {(2 * i,): ConstExpr.number(c)
                              for i, c in enumerate(num_coeffs)},
                      (0,), (order,))
    den = TruncSeries.const(scale, gvars, (order,))
    for a, b in den_factors:
        den = den * TruncSeries(gvars, {(0,): ConstExpr.number(a),
                                        (2,): ConstExpr.number(b)},
                                (0,), (order,))
    return num / den


def gs_a3(order: int) -> TruncSeries:
    return rational_series([-1], [(1, 1)], order)


def gs_a5(order: int) -> TruncSeries:
    return rational_series([9], [(1, 1), (1, 1), (4, 1)], order, scale=2)


def gs_a7(order: int) -> TruncSeries:
    # denominator 6 (1+g^2)^3 (36 + 13 g^2 + g^4), with the quartic split
    # as (4+g^2)(9+g^2)
    return rational_series([-263, 95, -2],
                           [(1, 1), (1, 1), (1, 1), (4, 1), (9, 1)],
                           order, scale=6)


# Rational prefactor R_l of transseries sector l (S_l = R_l E^l) as
# (numerator coefficients of g^0, g^2, ..., denominator factors (a, b)
# meaning (a + b g^2), divisor), the form ``rational_series`` reads.
SECTOR_PREFACTORS = {
    1: ([1], [], 1),
    3: ([1], [(1, 1)], 1),
    5: ([15, 6], [(1, 1), (1, 1), (4, 1)], 2),
    7: ([911, 625, 74], [(1, 1), (1, 1), (1, 1), (4, 1), (9, 1)], 6),
}


def f_sector_prefactor(l: int, order: int) -> TruncSeries:
    """Rational prefactor R_l of transseries sector l: S_l = R_l * E^l."""
    if l not in SECTOR_PREFACTORS:
        raise ValueError(f"no reference prefactor for sector {l}")
    num, den, scale = SECTOR_PREFACTORS[l]
    return rational_series(num, den, order, scale=scale)


# expanded-transseries g^2 coefficients of the f sectors (branch 0 display)
F_SECTOR_G2 = {
    1: PSI2 * _f(-1, 6),
    3: PSI2 * _f(-1, 2) - 1,
    5: PSI2 * _f(-50, 32) - GRat(F(111, 32)),
    7: PSI2 * _f(-7 * 5466, 7776) - GRat(F(7 * 12533, 7776)),
}
F_SECTOR_LEAD = {1: GRat(1), 3: GRat(1), 5: GRat(F(15, 8)),
                 7: GRat(F(911, 216))}


def gs_a7_denominator_check(order: int) -> bool:
    """(36 + 13 g^2 + g^4) = (4 + g^2)(9 + g^2)."""
    g = TruncSeries.var("g", ("g",), (order,))
    one = TruncSeries.const(1, ("g",), (order,))
    lhs = one * 36 + g * g * 13 + g ** 4
    rhs = (one * 4 + g * g) * (one * 9 + g * g)
    return (lhs - rhs).is_zero()
