"""The extension domain in (u, theta) coordinates and the disk chart.

u = (r + 1/r)/2 identifies z = r e^{i theta} with its inversion 1/z-bar;
the surface extends to u > max_j cos(theta - alpha_j) plus a single point
at infinity standing in for z = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import TWO_PI, AngularData
from .errors import BelowOne, OutOfDisk


class PointAtInfinity:
    """Image of z = 0; a singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "p_infinity"


P_INFINITY = PointAtInfinity()


@dataclass(frozen=True)
class FinitePoint:
    u: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)
        object.__setattr__(self, "u", float(self.u))


ExtendedPoint = FinitePoint | PointAtInfinity


def iota(z: complex) -> ExtendedPoint:
    """Chart map z = r e^{i theta} -> ((r + 1/r)/2, theta); 0 -> p_infinity."""
    r = abs(z)
    if r > 1.0 + 1e-12:
        raise OutOfDisk(f"|z| = {r} > 1")
    if r == 0.0:
        return P_INFINITY
    r = min(r, 1.0)
    return FinitePoint((r + 1.0 / r) / 2.0, math.atan2(z.imag, z.real) % TWO_PI)


def iota_inverse(p: ExtendedPoint) -> complex:
    """Inverse chart into the closed unit disk: (u, theta) -> (u - sqrt(u^2-1)) e^{i theta}."""
    if isinstance(p, PointAtInfinity):
        return 0j
    if p.u < 1.0 - 1e-12:
        raise BelowOne(f"u = {p.u} < 1 has no preimage in the closed disk")
    u = max(p.u, 1.0)
    # u - sqrt(u^2 - 1) without cancellation at large u
    r = 1.0 / (u + math.sqrt(u * u - 1.0))
    return r * complex(math.cos(p.theta), math.sin(p.theta))


@dataclass(frozen=True)
class ExtensionDomain:
    """Membership and clearance tests for the extended parameter region."""

    angular: AngularData

    def contains(self, p: ExtendedPoint) -> bool:
        if isinstance(p, PointAtInfinity):
            return True
        return p.u > self.angular.max_cos(p.theta)

    def boundary_distance(self, p: FinitePoint) -> float:
        """u minus the largest cosine; positive exactly inside the domain."""
        return float(p.u - self.angular.max_cos(p.theta))

    def active_interval(self, theta: float) -> tuple[int, float]:
        """Index j of the dominating angle beta_j at theta, and its cosine.

        Ties at the interval endpoints resolve to the lower index (the two
        cosines agree there, so the returned value is unaffected).
        """
        th = float(theta) % TWO_PI
        cosines = np.cos(th - np.asarray(self.angular.betas))
        best = float(cosines.max())
        j = int(np.nonzero(cosines >= best - 1e-12)[0][0])
        return j, float(cosines[j])

    def lower_bound(self) -> float:
        """min_j cos((a_{j+1} - a_j)/2); every domain point has u above it."""
        return min(math.cos(g / 2.0) for g in self.angular.gaps())

