"""Angular and Blaschke input data for Kobayashi-type Weierstrass pairs."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import AngularOrderError, BlaschkeOutOfDisk, InputError

TWO_PI = 2.0 * math.pi
_DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class AngularData:
    """The 2n end angles 0 = a_0 <= a_1 <= ... <= a_{2n-1} < 2*pi.

    `fracs`, when present, gives each angle as an exact rational multiple
    of pi; gap comparisons against pi/(n-1) style bounds are then decided
    in rational arithmetic.
    """

    n: int
    alphas: tuple[float, ...]
    fracs: tuple[Fraction, ...] | None = None

    # derived, filled in __post_init__
    betas: tuple[float, ...] = field(init=False)
    multiplicities: tuple[int, ...] = field(init=False)
    gammas: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"order n must be >= 2, got {self.n}")
        if len(self.alphas) != 2 * self.n:
            raise InputError(f"expected {2 * self.n} angles, got {len(self.alphas)}")
        a = self.alphas
        if not all(math.isfinite(x) for x in a):
            raise InputError(f"angles must be finite, got {a}")
        if abs(a[0]) > 0:
            raise AngularOrderError("first angle must be exactly 0")
        if any(a[i] > a[i + 1] for i in range(len(a) - 1)):
            raise AngularOrderError("angles must be nondecreasing")
        if a[-1] >= TWO_PI:
            raise AngularOrderError("angles must stay below 2*pi")
        if self.fracs is not None and len(self.fracs) != len(a):
            raise InputError("fracs must match alphas in length")

        betas, mult = [a[0]], [1]
        for x in a[1:]:
            if x - betas[-1] <= _DEDUP_TOL:
                mult[-1] += 1
            else:
                betas.append(x)
                mult.append(1)
        # an angle hugging 2*pi places its end on top of the one at 0
        if len(betas) > 1 and TWO_PI - betas[-1] <= _DEDUP_TOL:
            mult[0] += mult.pop()
            betas.pop()
        ext = betas + [TWO_PI]
        gammas = [(ext[j] + ext[j + 1]) / 2 for j in range(len(betas))]
        object.__setattr__(self, "betas", tuple(betas))
        object.__setattr__(self, "multiplicities", tuple(mult))
        object.__setattr__(self, "gammas", tuple(gammas))

    @classmethod
    def from_fractions(cls, n: int, fracs: Sequence[Fraction]) -> "AngularData":
        """Angles given as rational multiples of pi."""
        fr = tuple(Fraction(f) for f in fracs)
        return cls(n, tuple(float(f) * math.pi for f in fr), fr)

    @property
    def num_distinct(self) -> int:
        return len(self.betas)

    @property
    def is_distinct(self) -> bool:
        return self.num_distinct == 2 * self.n

    def gaps(self) -> tuple[float, ...]:
        """Consecutive differences a_{j+1} - a_j with a_{2n} := 2*pi."""
        ext = self.alphas + (TWO_PI,)
        return tuple(ext[j + 1] - ext[j] for j in range(2 * self.n))

    def gap_fracs(self) -> tuple[Fraction, ...] | None:
        if self.fracs is None:
            return None
        ext = self.fracs + (Fraction(2),)
        return tuple(ext[j + 1] - ext[j] for j in range(2 * self.n))

    def max_cos(self, theta):
        """max_j cos(theta - beta_j) over the distinct angles."""
        th = np.asarray(theta, dtype=float)
        b = np.asarray(self.betas)
        m = np.cos(th - b.reshape(b.shape + (1,) * th.ndim)).max(axis=0)
        return m if th.ndim else float(m)


@dataclass(frozen=True)
class BlaschkeParams:
    """The n-1 Blaschke zeros b_i, all strictly inside the unit disk."""

    b: tuple[complex, ...]

    def __post_init__(self):
        for bi in self.b:
            if not cmath.isfinite(bi):
                raise InputError(f"Blaschke parameters must be finite, got {bi}")
            if abs(bi) >= 1.0:
                raise BlaschkeOutOfDisk(f"|{bi}| >= 1")
        object.__setattr__(self, "b", tuple(complex(x) for x in self.b))

    @property
    def is_principal(self) -> bool:
        return all(x == 0 for x in self.b)

    def __len__(self):
        return len(self.b)
