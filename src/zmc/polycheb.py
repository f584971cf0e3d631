"""Complex polynomial / rational-function algebra with Chebyshev reduction.

Everything here is plain double-precision complex arithmetic.  Denominator
roots are supplied by the caller: they are known analytically for the
surfaces this package builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import DegreeError, ParityError, PoleNotFound

_TRIM_REL = 1e-14


def cheb_table(nmax: int, u, second: bool = False) -> np.ndarray:
    """T_0..T_nmax at every u (U_0..U_nmax with `second`), shape (nmax+1,) + u.shape.

    Three-term recurrence.  For r > 0 and u = (r + 1/r)/2 these satisfy
    (r^n + r^-n)/2 = T_n(u) and (r^n - r^-n)/2 = ((r - 1/r)/2) U_{n-1}(u).
    """
    if nmax < 0:
        raise ValueError("Chebyshev order must be >= 0")
    u = np.asarray(u, dtype=float)
    out = np.empty((nmax + 1,) + u.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 2 * u if second else u
    for k in range(2, nmax + 1):
        out[k] = 2 * u * out[k - 1] - out[k - 2]
    return out


class ComplexPoly:
    """Dense polynomial with complex coefficients, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex]):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if c.size == 0:
            c = np.zeros(1, dtype=complex)
        scale = np.abs(c).max()
        if scale > 0:
            keep = np.nonzero(np.abs(c) > _TRIM_REL * scale)[0]
            c = c[: keep[-1] + 1] if keep.size else np.zeros(1, dtype=complex)
        else:
            c = np.zeros(1, dtype=complex)
        self.coeffs = tuple(complex(x) for x in c)

    @classmethod
    def from_roots(cls, roots: Sequence[complex], lead: complex = 1.0) -> "ComplexPoly":
        c = np.array([lead], dtype=complex)
        for r in roots:
            c = npoly.polymul(c, np.array([-r, 1.0], dtype=complex))
        return cls(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, z):
        return npoly.polyval(z, np.asarray(self.coeffs))

    def deriv(self) -> "ComplexPoly":
        return ComplexPoly(npoly.polyder(np.asarray(self.coeffs)))

    def __mul__(self, other):
        if isinstance(other, ComplexPoly):
            return ComplexPoly(npoly.polymul(np.asarray(self.coeffs), np.asarray(other.coeffs)))
        return ComplexPoly(np.asarray(self.coeffs) * complex(other))

    __rmul__ = __mul__

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        return ComplexPoly(npoly.polyadd(np.asarray(self.coeffs), np.asarray(other.coeffs)))

    def __sub__(self, other: "ComplexPoly") -> "ComplexPoly":
        return ComplexPoly(npoly.polysub(np.asarray(self.coeffs), np.asarray(other.coeffs)))

    def __neg__(self) -> "ComplexPoly":
        return self * (-1.0)

    def roots(self) -> np.ndarray:
        """All roots, via the companion matrix."""
        if self.degree == 0:
            return np.array([], dtype=complex)
        return npoly.polyroots(np.asarray(self.coeffs))

    def taylor_at(self, z0: complex, nterms: int) -> np.ndarray:
        """First nterms Taylor coefficients around z0.

        The value is `npoly.polyval`'s Horner recurrence and the derivative
        `npoly.polyder`'s j * c[j], written out to skip their per-call
        overhead."""
        c = np.asarray(self.coeffs)
        out = np.empty(nterms, dtype=complex)
        fact = 1.0
        for i in range(nterms):
            acc = c[-1] + z0 * 0
            for ck in c[-2::-1]:
                acc = ck + acc * z0
            out[i] = acc / fact
            c = c[1:] * np.arange(1, c.size) if c.size > 1 else c * 0
            fact *= i + 1
        return out

    def __repr__(self):
        return f"ComplexPoly({list(self.coeffs)!r})"


def cluster_roots(roots: Sequence[complex], tol: float) -> list[tuple[complex, int]]:
    """Merge roots closer than tol; returns (cluster mean, multiplicity)."""
    clusters: list[list[complex]] = []
    for r in roots:
        for cl in clusters:
            if abs(r - cl[0]) <= tol:
                cl.append(r)
                break
        else:
            clusters.append([complex(r)])
    return [(complex(np.mean(cl)), len(cl)) for cl in clusters]


class RationalFn:
    """Quotient of two ComplexPoly with an explicit denominator root multiset.

    `poles` lists the denominator roots (clustered with their multiplicity);
    common roots with the numerator are not divided out, the local expansion
    in residue/partial_fractions cancels them automatically.
    """

    __slots__ = ("num", "den", "poles", "tol_root")

    def __init__(self, num: ComplexPoly, den: ComplexPoly,
                 poles: Sequence[tuple[complex, int]]):
        if den.is_zero:
            raise ZeroDivisionError("denominator is identically zero")
        if sum(m for _, m in poles) != den.degree:
            raise ValueError("pole multiplicities must sum to the denominator degree")
        self.num = num
        self.den = den
        self.tol_root = 1e-9 * (1.0 + max(abs(c) for c in den.coeffs))
        self.poles = tuple((complex(p), int(m)) for p, m in poles)

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def _lead(self) -> complex:
        return self.den.coeffs[-1]

    def _find_pole(self, pole: complex) -> tuple[complex, int]:
        for p, m in self.poles:
            if abs(p - pole) <= max(self.tol_root, 1e-12 * (1 + abs(p))):
                return p, m
        raise PoleNotFound(f"{pole} is not a denominator root")

    def _cofactor_taylor(self, pole: complex, nterms: int) -> np.ndarray:
        """Taylor coefficients at `pole` of den with the (z-pole)^m factor removed."""
        c = np.array([self._lead()], dtype=complex)
        for p, m in self.poles:
            if p == pole:
                continue
            shifted = np.array([pole - p, 1.0], dtype=complex)
            for _ in range(m):
                c = np.convolve(c, shifted)  # polymul without its trim: the lead is nonzero
        if c.size < nterms:
            c = np.pad(c, (0, nterms - c.size))
        return c[:nterms]

    def principal_part(self, pole: complex) -> np.ndarray:
        """Coefficients [c_1, ..., c_m] with c_j multiplying (z-pole)^(-j)."""
        p, m = self._find_pole(pole)
        a = self.num.taylor_at(p, m)
        b = self._cofactor_taylor(p, m)
        # series quotient g = a / b to order m-1
        g = np.empty(m, dtype=complex)
        for i in range(m):
            g[i] = (a[i] - (g[:i] * b[i:0:-1]).sum()) / b[0]
        return g[::-1].copy()  # g[m-1-j] multiplies (z-p)^-(j+1)

    def residue(self, pole: complex) -> complex:
        """Laurent coefficient of (z - pole)^-1."""
        return complex(self.principal_part(pole)[0])

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"


@dataclass(frozen=True)
class PrincipalPart:
    pole: complex
    order: int
    coeffs: tuple[complex, ...]  # coeffs[j] multiplies (z - pole)^-(j+1)


def partial_fractions(f: RationalFn) -> list[PrincipalPart]:
    """Decompose a strictly proper rational function into principal parts.

    Poles whose principal part vanishes entirely (numerator cancellation)
    are omitted; trailing zero coefficients shrink the reported order.
    """
    if f.num.degree >= f.den.degree:
        raise DegreeError("need deg(num) < deg(den)")
    raw = [(p, m, f.principal_part(p)) for p, m in f.poles]
    scale = max((np.abs(c).max() for _, _, c in raw), default=0.0)
    tol = 1e-12 * max(scale, 1e-300)
    out = []
    for p, m, c in raw:
        order = m
        while order > 0 and abs(c[order - 1]) <= tol:
            order -= 1
        if order:
            out.append(PrincipalPart(p, order, tuple(complex(x) for x in c[:order])))
    return out


class ReciprocalClass(Enum):
    SELF = "self"
    ANTI = "anti"
    NEITHER = "neither"


def reciprocal_class(p: ComplexPoly) -> tuple[ReciprocalClass, int | None]:
    """Classify p against p(1/r) = +/- p(r) / r^order.

    A nonzero polynomial can only satisfy the relation for
    order = valuation + degree; returns (class, order).  The relation is
    tested to 1e-9 relative to the largest coefficient.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no reciprocal class")
    c = np.asarray(p.coeffs)
    scale = np.abs(c).max()
    val = int(np.nonzero(np.abs(c) > _TRIM_REL * scale)[0][0])
    order = val + p.degree
    padded = np.zeros(order + 1, dtype=complex)
    padded[: c.size] = c
    rev = padded[::-1]
    tol = 1e-9 * scale
    if np.abs(padded - rev).max() <= tol:
        return ReciprocalClass.SELF, order
    if np.abs(padded + rev).max() <= tol:
        return ReciprocalClass.ANTI, order
    return ReciprocalClass.NEITHER, None


def reduce_reciprocal(p: ComplexPoly, m: int, parity: ReciprocalClass) -> np.ndarray:
    """Reduce a generalized (anti-)self-reciprocal polynomial of order 2m.

    Self: p(r) = r^m q(u); anti: p(r) = r^m ((r - 1/r)/2) q(u), with
    u = (r + 1/r)/2.  Returns q's coefficients w, q = sum_i w[i] T_i(u)
    (self) or sum_i w[i] U_i(u) (anti), as `reduce_coeffs` gives them but
    checked, with every coefficient up to 1e-14 of the largest set to 0.
    """
    cls, order = reciprocal_class(p)
    if cls is not parity or cls is ReciprocalClass.NEITHER:
        raise ParityError(f"polynomial is {cls.value}, requested {parity.value}")
    if order != 2 * m:
        raise ParityError(f"reciprocal order is {order}, not {2 * m}")
    c = np.zeros(2 * m + 1, dtype=complex)
    c[: len(p.coeffs)] = p.coeffs
    w = reduce_coeffs(c, m, parity)
    w[np.abs(w) <= 1e-14 * max(np.abs(w).max(initial=0.0), 1e-300)] = 0.0
    return w


def reduce_coeffs(c, m: int, parity: ReciprocalClass) -> np.ndarray:
    """Chebyshev coefficients w of an (anti-)self-reciprocal polynomial of
    order 2m, no checks.

    `c` holds the 2m + 1 r-coefficients, constant term first, along axis 0;
    trailing axes are kept.  With u = (r + 1/r)/2, self gives
    p(r) = r^m sum_i w[i] T_i(u) with m + 1 terms, anti gives
    p(r) = r^m ((r - 1/r)/2) sum_i w[i] U_i(u) with m terms.
    """
    c = np.asarray(c)
    lo, hi = c[m::-1], c[m:]  # c[m - k] and c[m + k]
    if parity is ReciprocalClass.ANTI:
        return 0.0 - lo[1:] + hi[1:]
    w = 0.0 + lo
    w[1:] += hi[1:]
    return w


def contour_residue(f, pole: complex, radius: float, nodes: int = 4096) -> complex:
    """Trapezoid contour integral (1/2pi i) * oint f dz on a circle around pole.

    Independent numerical oracle for residues; f is any callable.
    """
    t = np.arange(nodes) * (2 * math.pi / nodes)
    z = pole + radius * np.exp(1j * t)
    vals = np.asarray([f(zz) for zz in z], dtype=complex)
    # dz = i * radius * e^{it} dt; mean over nodes absorbs the 2*pi
    return complex(np.mean(vals * radius * np.exp(1j * t)))
