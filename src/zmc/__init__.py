"""Zero-mean-curvature entire graphs of mixed type in Lorentz-Minkowski 3-space."""

from .angular import AngularData, BlaschkeParams
from .domain import FinitePoint, P_INFINITY, PointAtInfinity, iota, iota_inverse
from .surface import SurfacePoint
from .weierstrass import KobayashiData, build

__version__ = "0.1.0"

__all__ = [
    "AngularData",
    "BlaschkeParams",
    "FinitePoint",
    "P_INFINITY",
    "PointAtInfinity",
    "KobayashiData",
    "SurfacePoint",
    "build",
    "iota",
    "iota_inverse",
    "__version__",
]
