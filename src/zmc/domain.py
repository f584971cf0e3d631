"""The extension domain in (u, theta) coordinates and the disk chart.

u = (r + 1/r)/2 identifies z = r e^{i theta} with its inversion 1/z-bar;
the surface extends to u > max_j cos(theta - alpha_j) plus a single point
at infinity standing in for z = 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .angular import TWO_PI, AngularData
from .errors import BelowOne, InputError, OutOfDisk


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


def sample_edges(angular: AngularData, resolution: int, margin: float,
                 u_max: float) -> tuple[np.ndarray, np.ndarray]:
    """The theta samples of a (u, theta) grid and the lower edge
    max cos(theta) + margin of each; rejects options that leave the grid
    empty, put a row on the domain boundary or reach outside the domain."""
    if not (isinstance(resolution, numbers.Integral) and resolution >= 2):
        raise InputError(f"resolution must be an integer >= 2, got {resolution!r}")
    if not (math.isfinite(margin) and margin > 0):
        raise InputError(f"margin must be positive and finite, got {margin}")
    th = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
    mc = angular.max_cos(th)
    lo = mc + margin
    if not np.all(lo > mc):
        i = int(np.argmin(lo > mc))
        raise InputError(f"margin {margin} rounds away: max cos + margin == max cos "
                         f"= {mc[i]} at theta = {th[i]}")
    if not (math.isfinite(u_max) and np.all(u_max > lo)):
        raise InputError(f"u_max = {u_max} must be finite and exceed every "
                         f"sampled lower edge max cos + margin, up to {lo.max():.6g}")
    return th, lo
