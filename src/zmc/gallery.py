"""Built-in surfaces with frozen normalizations and implicit-form oracles.

Positive entries are built from their angular data; the two negatives are
raw (g, omega) pairs whose ends leave the unit circle.  Each normalization
was calibrated once against the entry's closed-form identity and frozen:

* scherk:2     scale 2 on all axes                   (cosh x = e^t cosh y)
* jorge-meeks:2  flip the x axis                     (t = x tanh 2y)
* ruled-enneper, parabolic: identity (their implicit forms hold as built)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .angular import AngularData, BlaschkeParams
from .errors import InputError, NoImplicitForm
from .polycheb import ComplexPoly, RationalFn
from .surface import SurfacePoint
from .weierstrass import KobayashiData, WeierstrassPair, build


@dataclass(frozen=True)
class Normalization:
    """display_i = scale[i] * raw[i]; a diagonal map fixed per entry."""

    scale: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def apply(self, p: SurfacePoint) -> SurfacePoint:
        return SurfacePoint(*(s * a for s, a in zip(self.scale, p.as_array())))

    def apply_batch(self, vals: np.ndarray) -> np.ndarray:
        return np.array([s * v for s, v in zip(self.scale, vals)])


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    description: str
    data: KobayashiData | None
    pair: WeierstrassPair | None
    normalization: Normalization = field(default_factory=Normalization)
    implicit: Callable[[float, float, float], float] | None = None
    expected: dict = field(default_factory=dict)


def implicit_residual(entry: GalleryEntry, p: SurfacePoint) -> float:
    """|Phi| at the normalized image of a raw surface point."""
    if entry.implicit is None:
        raise NoImplicitForm(f"{entry.name} has no implicit form")
    q = entry.normalization.apply(p)
    return abs(entry.implicit(q.t, q.x, q.y))


def _scherk_data(n: int) -> KobayashiData:
    ang = AngularData.from_fractions(n, [Fraction(j, n) for j in range(2 * n)])
    return build(ang, BlaschkeParams(()))


def _jorge_meeks_data(n: int) -> KobayashiData:
    fr = []
    for j in range(n):
        fr.extend([Fraction(2 * j, n), Fraction(2 * j, n)])
    return build(AngularData.from_fractions(n, fr), BlaschkeParams(()))


def _scherk_implicit(t, x, y):
    return math.cosh(x) - math.exp(t) * math.cosh(y)


def _jm2_implicit(t, x, y):
    return t - x * math.tanh(2 * y)


def _enneper_implicit(t, x, y):
    return (4 * t**3 / 3 + 4 * t**2 * x + 4 * t * x**2 - 2 * t * y + t
            + 4 * x**3 / 3 - 2 * x * y)


def _parabolic_implicit(t, x, y):
    return 0.5 * (math.exp(4 * (t + x)) - 1.0) + 2 * (t - x) - 4 * y**2


def scherk(n: int) -> GalleryEntry:
    """Saddle-tower family, angles pi j / n; entire graph for every n >= 2."""
    if n < 2:
        raise InputError("scherk needs n >= 2")
    norm = Normalization(scale=(2.0, 2.0, 2.0)) if n == 2 else Normalization()
    return GalleryEntry(
        name=f"scherk:{n}",
        description="saddle-tower angular data pi*j/n; analytic extension is an entire graph",
        data=_scherk_data(n),
        pair=None,
        normalization=norm,
        implicit=_scherk_implicit if n == 2 else None,
        expected={"fold_type": True, "period": True, "graph_condition": "strict",
                  "entire_graph": True, "self_intersecting": False},
    )


def jorge_meeks(n: int) -> GalleryEntry:
    """Doubled angles 2 pi j / n; a graph only for n = 2."""
    if n < 2:
        raise InputError("jorge-meeks needs n >= 2")
    norm = Normalization(scale=(1.0, -1.0, 1.0)) if n == 2 else Normalization()
    return GalleryEntry(
        name=f"jorge-meeks:{n}",
        description="n-noid angular data, each angle doubled; entire graph only at n = 2",
        data=_jorge_meeks_data(n),
        pair=None,
        normalization=norm,
        implicit=_jm2_implicit if n == 2 else None,
        expected={"fold_type": True, "period": True,
                  "graph_condition": "boundary" if n == 2 else "violated",
                  "entire_graph": n == 2, "self_intersecting": False},
    )


def ruled_enneper() -> GalleryEntry:
    """All four angles at 0; the ruled cubic surface."""
    ang = AngularData.from_fractions(2, [Fraction(0)] * 4)
    return GalleryEntry(
        name="ruled-enneper",
        description="angles (0,0,0,0); image is the cubic 4t^3/3+4t^2x+4tx^2-2ty+t+4x^3/3-2xy = 0",
        data=build(ang, BlaschkeParams(())),
        pair=None,
        implicit=_enneper_implicit,
        expected={"fold_type": True, "period": True, "graph_condition": "violated",
                  "entire_graph": False, "self_intersecting": False, "embedded": True},
    )


def parabolic() -> GalleryEntry:
    """Angles (0,0,0,pi); foliated by parabolas."""
    ang = AngularData.from_fractions(2, [Fraction(0), Fraction(0), Fraction(0), Fraction(1)])
    return GalleryEntry(
        name="parabolic",
        description="angles (0,0,0,pi); image satisfies (e^{4(t+x)}-1)/2 + 2(t-x) - 4y^2 = 0",
        data=build(ang, BlaschkeParams(())),
        pair=None,
        implicit=_parabolic_implicit,
        expected={"fold_type": True, "period": True, "graph_condition": "boundary",
                  "entire_graph": True, "self_intersecting": False},
    )


def helicoid_negative() -> GalleryEntry:
    """g = z, omega = i dz/z^2: folds only, but the ends sit at 0 and infinity."""
    g = RationalFn(ComplexPoly([0, 1]), ComplexPoly([1]), poles=[])
    om = RationalFn(ComplexPoly([1j]), ComplexPoly([0, 0, 1]), poles=[(0j, 2)])
    return GalleryEntry(
        name="helicoid-negative",
        description="maximal helicoid data; fails the on-circle end condition",
        data=None,
        pair=WeierstrassPair(g, om),
        expected={"fold_type": False, "fails": "ends"},
    )


def elliptic_catenoid_negative() -> GalleryEntry:
    """g = -z, omega = dz/(2 z^2): rotational example with a cone point."""
    g = RationalFn(ComplexPoly([0, -1]), ComplexPoly([1]), poles=[])
    om = RationalFn(ComplexPoly([0.5]), ComplexPoly([0, 0, 1]), poles=[(0j, 2)])
    return GalleryEntry(
        name="elliptic-catenoid-negative",
        description="elliptic catenoid data; ends at 0 and infinity, not fold-type",
        data=None,
        pair=WeierstrassPair(g, om),
        expected={"fold_type": False, "fails": "ends"},
    )


def self_intersecting_fb() -> GalleryEntry:
    """Order-4 general type with b = (-0.75, 0, 0); graph condition holds but b is large."""
    ang = AngularData.from_fractions(4, [Fraction(j, 4) for j in range(8)])
    return GalleryEntry(
        name="self-intersecting-fb",
        description="order 4, angles pi*j/4, b = (-0.75, 0, 0); extension self-intersects",
        data=build(ang, BlaschkeParams((-0.75, 0.0, 0.0))),
        pair=None,
        expected={"fold_type": True, "period": True, "graph_condition": "strict",
                  "entire_graph": False, "self_intersecting": True},
    )


def self_intersecting_n3() -> GalleryEntry:
    """Order-3 principal data violating the graph gap bound; immersed with crossings."""
    fr = [Fraction(0), Fraction(3, 4), Fraction(3, 2),
          Fraction(5, 3), Fraction(7, 4), Fraction(11, 6)]
    return GalleryEntry(
        name="self-intersecting-n3",
        description="principal order 3, angles (0,3pi/4,3pi/2,5pi/3,7pi/4,11pi/6); self-intersects",
        data=build(AngularData.from_fractions(3, fr), BlaschkeParams(())),
        pair=None,
        expected={"fold_type": True, "period": True, "graph_condition": "violated",
                  "entire_graph": False, "self_intersecting": True},
    )


_PARAMETRIC = {"scherk": scherk, "jorge-meeks": jorge_meeks}
_STATIC = {
    "ruled-enneper": ruled_enneper,
    "parabolic": parabolic,
    "helicoid-negative": helicoid_negative,
    "elliptic-catenoid-negative": elliptic_catenoid_negative,
    "self-intersecting-fb": self_intersecting_fb,
    "self-intersecting-n3": self_intersecting_n3,
}


def gallery_list() -> list[str]:
    """Addressable entry names; parametric families take a :n suffix."""
    return ["scherk:n", "jorge-meeks:n"] + sorted(_STATIC)


def get_entry(name: str, n: int | None = None) -> GalleryEntry:
    """Look up 'scherk:3', ('scherk', 3), 'parabolic', underscores allowed."""
    key = name.strip().lower().replace("_", "-")
    if ":" in key:
        key, _, suffix = key.partition(":")
        if n is None:
            try:
                n = int(suffix)
            except ValueError:
                raise InputError(f"bad order suffix in gallery name {name!r}")
    if key in _PARAMETRIC:
        if n is None:
            raise InputError(f"gallery entry {key!r} needs an order, e.g. {key}:3")
        return _PARAMETRIC[key](n)
    if key in _STATIC:
        return _STATIC[key]()
    raise InputError(f"unknown gallery entry {name!r}; known: {', '.join(gallery_list())}")
