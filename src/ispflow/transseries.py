"""Graded transseries: finite sums of power series weighted by a
non-perturbative exponential unit.

A ``Transseries`` maps a sector index ``l >= 0`` to a ``TruncSeries`` in the
coupling ``g``.  Sector ``l`` multiplies the l-th power of the flavor unit

    bound      : eps = exp(-(2b+1) pi / g - gamma)
    scattering : eps = exp(-(2b+1) pi / g - gamma - K pi)

The constant parts of the exponent (gamma, K pi) are absorbed into the unit
rather than the coefficient ring, so every sector series keeps exact
polynomial coefficients over the generators; arithmetic is identical either
way because the constants add under the grading.  Products are graded:
sector l1 times sector l2 lands in sector l1+l2 only.

``solve_sector_ansatz`` leaves its rational prefactors R_l, the growth
exponent log E and the square E^2 of the growth unit it built on the
transseries it returns (``solved``), from which ``bound``'s beta runs its
closed-form recurrence; every other transseries carries None.
The graded division (``truediv_graded``) has no caller on the beta path.
With the graded derivative of ``tests/oracles.py`` it is the independent
route the tests hold that recurrence to, exactly, sector by sector.
"""

from __future__ import annotations

import mpmath as mp

from .constexpr import DEFAULT_DPS, GeneratorValues
from .series import INF_ORDER, SeriesError, TruncSeries

FLAVORS = ("bound", "scattering")


class Transseries:
    __slots__ = ("sectors", "branch", "flavor", "max_sector", "solved")

    def __init__(self, sectors: dict, branch: int = 0, flavor: str = "bound",
                 max_sector: int | None = None):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.branch = branch
        clean = {}
        for l, s in sectors.items():
            if l < 0:
                raise ValueError("sector indices must be non-negative")
            if not isinstance(s, TruncSeries):
                raise TypeError("sector values must be TruncSeries")
            if s.variables != ("g",):
                s = s.extend_to(("g",)) if not s.variables else s
                if s.variables != ("g",):
                    raise ValueError("sector series must be univariate in g")
            if not s.is_zero():
                clean[l] = s
        if max_sector is None:
            max_sector = max(clean) if clean else 0
        self.max_sector = max_sector
        self.sectors = {l: s for l, s in clean.items() if l <= max_sector}
        self.solved = None      # ({l: R_l}, log E, E^2) of solve_sector_ansatz

    # -- basic ops ----------------------------------------------------------

    def _check(self, other: "Transseries"):
        if self.flavor != other.flavor or self.branch != other.branch:
            raise ValueError("transseries flavor/branch mismatch")

    def sector(self, l: int) -> TruncSeries:
        s = self.sectors.get(l)
        if s is not None:
            return s
        if l > self.max_sector:
            raise SeriesError(f"sector {l} beyond max_sector {self.max_sector}")
        return TruncSeries.zero(("g",), (INF_ORDER,), (-2,))

    def __add__(self, other):
        if isinstance(other, Transseries):
            self._check(other)
            ms = min(self.max_sector, other.max_sector)
            out = {}
            for l in set(self.sectors) | set(other.sectors):
                if l > ms:
                    continue
                a = self.sectors.get(l)
                b = other.sectors.get(l)
                out[l] = a + b if (a is not None and b is not None) else (a or b)
            return Transseries(out, self.branch, self.flavor, ms)
        raise TypeError("can only add Transseries to Transseries")

    def __neg__(self):
        return Transseries({l: -s for l, s in self.sectors.items()},
                           self.branch, self.flavor, self.max_sector)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Transseries):
            self._check(other)
            ms = min(self.max_sector + min(other.sectors, default=0),
                     other.max_sector + min(self.sectors, default=0))
            out = {}
            for l1, s1 in self.sectors.items():
                for l2, s2 in other.sectors.items():
                    l = l1 + l2
                    if l > ms:
                        continue
                    p = s1 * s2
                    out[l] = out[l] + p if l in out else p
            return Transseries(out, self.branch, self.flavor, ms)
        # scalar / series multiplier acts sector-wise
        return Transseries({l: s * other for l, s in self.sectors.items()},
                           self.branch, self.flavor, self.max_sector)

    __rmul__ = __mul__

    def truediv_graded(self, other: "Transseries") -> "Transseries":
        """Graded division; the divisor's lowest sector must be invertible."""
        self._check(other)
        if not other.sectors:
            raise ZeroDivisionError("division by zero transseries")
        base = min(other.sectors)
        d0_inv = other.sectors[base].inverse()
        ms = min(self.max_sector, other.max_sector) - base
        out = {}
        for l in range(0, ms + 1):
            num = self.sectors.get(l + base)
            acc = num if num is not None else None
            for m, q in out.items():
                dm = other.sectors.get(l - m + base)
                if dm is None or l - m == 0:
                    continue
                term = -(q * dm)
                acc = term if acc is None else acc + term
            if acc is None:
                continue
            out[l] = acc * d0_inv
        return Transseries(out, self.branch, self.flavor, ms)

    def __truediv__(self, other):
        if isinstance(other, Transseries):
            return self.truediv_graded(other)
        return Transseries({l: s / other for l, s in self.sectors.items()},
                           self.branch, self.flavor, self.max_sector)

    # -- evaluation -----------------------------------------------------------

    def eval_mp(self, g, assignment: dict | None = None,
                dps: int = DEFAULT_DPS):
        """The sum of the sectors at coupling g and ``dps`` digits,
        evaluated by one GeneratorValues, which also gives the unit
        eps = exp(-(2b+1) pi/g - gamma [- K pi]) its values."""
        with GeneratorValues(assignment, dps) as gens:
            g = mp.mpmathify(g)
            npi = (2 * self.branch + 1) * gens["pi"]
            expo = -npi / g - gens["gamma"]
            if self.flavor == "scattering":
                expo -= gens["K"] * gens["pi"]
            eps = mp.e ** expo
            total = mp.mpc(0)
            for l in sorted(self.sectors):
                total += self.sectors[l]._eval({"g": g}, gens) * eps ** l
            return total

    # -- output ----------------------------------------------------------------

    def __str__(self):
        lines = [f"Transseries(flavor={self.flavor}, branch={self.branch}, "
                 f"max_sector={self.max_sector})"]
        for l in sorted(self.sectors):
            lines.append(f"  [l={l}] {self.sectors[l]}")
        return "\n".join(lines)

    __repr__ = __str__

    def to_jsonable(self):
        return {
            "flavor": self.flavor,
            "branch": self.branch,
            "max_sector": self.max_sector,
            "sectors": {str(l): s.to_jsonable()
                        for l, s in sorted(self.sectors.items())},
        }
