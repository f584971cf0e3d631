"""Weierstrass pairs (g, omega) built from angular and Blaschke data.

The pair is assembled exactly as

    g = prod (z - b_i)/(1 - conj(b_i) z),
    omega = i prod (1 - conj(b_i) z)^2
            / prod_j (e^{-i a_j/2} z - e^{i a_j/2}) dz,

with no normalization applied beyond what the inputs dictate.  The three
coordinate forms phi_k and their residue data drive everything else.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .angular import AngularData, BlaschkeParams
from .errors import InputError, NumericError, PoleHit, RepeatedAngles
from .polycheb import ComplexPoly, RationalFn, cluster_roots

_CIRCLE_TOL = 1e-9


def _blaschke_factor_polys(b: tuple[complex, ...]) -> tuple[ComplexPoly, ComplexPoly]:
    """(prod (z - b_i), prod (1 - conj(b_i) z))."""
    num = ComplexPoly([1.0])
    den = ComplexPoly([1.0])
    for bi in b:
        num = num * ComplexPoly([-bi, 1.0])
        den = den * ComplexPoly([1.0, -bi.conjugate()])
    return num, den


@dataclass(frozen=True)
class KobayashiData:
    angular: AngularData
    blaschke: BlaschkeParams
    g: RationalFn
    omega_num: ComplexPoly
    omega_den: ComplexPoly
    principal: bool
    lambda_phase: complex
    # phi_0 = -2 g omega, phi_1 = (1 + g^2) omega, phi_2 = i (1 - g^2) omega
    phi: tuple[RationalFn, RationalFn, RationalFn]

    @property
    def n(self) -> int:
        return self.angular.n

    @property
    def ends(self) -> tuple[tuple[complex, int], ...]:
        """Distinct end points e^{i beta_j} with their multiplicities."""
        return tuple(
            (cmath.exp(1j * b), m)
            for b, m in zip(self.angular.betas, self.angular.multiplicities)
        )

    def omega(self, z):
        return self.omega_num(z) / self.omega_den(z)


def build(angular: AngularData, blaschke: BlaschkeParams) -> KobayashiData:
    """Assemble the Weierstrass pair and its coordinate forms."""
    n = angular.n
    if len(blaschke) > n - 1:
        raise InputError(f"expected at most {n - 1} Blaschke parameters, got {len(blaschke)}")
    b = blaschke.b + (0j,) * (n - 1 - len(blaschke))
    blaschke = BlaschkeParams(b)
    if n == 2 and b != (0j,):
        # order 2 admits only the principal form; a Moebius change of the
        # disk variable absorbs any single Blaschke zero
        raise InputError("n = 2 requires b = (0,); renormalize the data first")

    gnum, gden = _blaschke_factor_polys(b)
    g = RationalFn(gnum, gden,
                   poles=cluster_roots([1.0 / bi.conjugate() for bi in b if bi != 0], 1e-9))

    lam = cmath.exp(0.5j * math.fsum(angular.alphas))
    ends = [cmath.exp(1j * beta) for beta in angular.betas]
    q = ComplexPoly.from_roots(
        [cmath.exp(1j * a) for a in angular.alphas], lead=lam.conjugate())
    omega_num = 1j * (gden * gden)

    pole_list = list(zip(ends, angular.multiplicities))
    s_poly = gden * gden
    r_poly = gnum * gnum
    p0 = -2j * (gnum * gden)
    p1 = 1j * (s_poly + r_poly)
    p2 = -1.0 * (s_poly - r_poly)
    phi = tuple(RationalFn(pk, q, poles=pole_list) for pk in (p0, p1, p2))

    return KobayashiData(
        angular=angular,
        blaschke=blaschke,
        g=g,
        omega_num=omega_num,
        omega_den=q,
        principal=blaschke.is_principal,
        lambda_phase=lam,
        phi=phi,
    )


def gauss_eval(data: KobayashiData, z: complex) -> complex:
    """Value of the Blaschke product g at z."""
    den = data.g.den(z)
    if abs(den) < 1e-13 * (1.0 + abs(z)) ** (data.n - 1):
        raise PoleHit(f"z = {z} is a pole of g")
    return data.g.num(z) / den


def dg_numerator(data: KobayashiData) -> ComplexPoly:
    """N with dg/dz = N / (prod (1 - conj(b_i) z))^2; zeros of N are the umbilics."""
    gn, gd = data.g.num, data.g.den
    return gn.deriv() * gd - gn * gd.deriv()


def hopf_differential(data: KobayashiData) -> RationalFn:
    """Q = omega dg as a coefficient of dz^2; the Blaschke denominators cancel."""
    return RationalFn(1j * dg_numerator(data), data.omega_den, poles=data.ends)


def hopf_zero_pole_orders(data: KobayashiData) -> tuple[int, int]:
    """(total pole order, total zero order) of Q on the sphere."""
    q = hopf_differential(data)
    num_deg = q.num.degree
    den_deg = q.den.degree
    # as a quadratic differential dz^2 contributes a pole of order 4 at infinity
    inf_order = den_deg - num_deg - 4
    poles = den_deg + max(-inf_order, 0)
    zeros = num_deg + max(inf_order, 0)
    return poles, zeros


@dataclass(frozen=True)
class WeierstrassPair:
    """A raw (g, omega) pair on the sphere, for data outside the Kobayashi family."""

    g: RationalFn
    omega: RationalFn


def pair_of(data: KobayashiData) -> WeierstrassPair:
    return WeierstrassPair(
        g=data.g,
        omega=RationalFn(data.omega_num, data.omega_den, poles=data.ends))


def _effective_poles(num: ComplexPoly, den: ComplexPoly,
                     den_poles) -> list[tuple[complex, int]]:
    """Denominator root multiset minus numerator cancellation."""
    f = RationalFn(num, den, poles=den_poles)
    parts = [(p, m, f.principal_part(p)) for p, m in f.poles]
    scale = max((np.abs(c).max() for _, _, c in parts), default=0.0)
    scale = max(scale, 1e-300)
    out = []
    for p, m, coeffs in parts:
        order = m
        while order > 0 and abs(coeffs[order - 1]) <= 1e-9 * scale:
            order -= 1
        if order:
            out.append((p, order))
    return out


def _merged_poles(*pole_lists) -> list[tuple[complex, int]]:
    merged: list[tuple[complex, int]] = []
    for p, m in (pm for lst in pole_lists for pm in lst):
        for i, (q, k) in enumerate(merged):
            if abs(q - p) <= 1e-9 * (1 + abs(q)):
                merged[i] = (q, k + m)
                break
        else:
            merged.append((complex(p), int(m)))
    return merged


def ends_of_pair(pair: WeierstrassPair) -> tuple[list[tuple[complex, int]], int]:
    """Poles of {omega, g omega, g^2 omega} as 1-forms: (finite ends, order at infinity).

    Works from the explicit pole multisets carried by g and omega, so exact
    multiple poles stay exact.
    """
    gn, gd = pair.g.num, pair.g.den
    on, od = pair.omega.num, pair.omega.den
    den = od * (gd * gd)
    den_poles = _merged_poles(pair.omega.poles, pair.g.poles, pair.g.poles)
    finite: dict[complex, int] = {}
    inf_order = 0
    for num in (on * (gd * gd), on * (gn * gd), on * (gn * gn)):
        for p, m in _effective_poles(num, den, den_poles):
            key = next((q for q in finite if abs(q - p) < 1e-8), None)
            if key is not None:
                finite[key] = max(finite[key], m)
            else:
                finite[complex(p)] = m
        inf_order = max(inf_order, num.degree + 2 - den.degree)
    return sorted(finite.items(), key=lambda km: cmath.phase(km[0]) % (2 * math.pi)), inf_order


@dataclass(frozen=True)
class FoldTypeReport:
    ends_on_circle: bool
    gauss_circle_ok: bool
    max_re_condition: float
    re_condition_scale: float
    interior_ok: bool = True

    @property
    def fold_condition_ok(self) -> bool:
        return self.max_re_condition < 1e-9 * self.re_condition_scale

    @property
    def is_fold_type(self) -> bool:
        return self.ends_on_circle and self.gauss_circle_ok and self.fold_condition_ok


def verify_fold_type(data: KobayashiData | WeierstrassPair, samples: int = 256) -> FoldTypeReport:
    """Numerically test the three fold-type conditions.

    (i) every end on the unit circle, (ii) |g| = 1 exactly on the circle,
    (iii) Re[dg/(g^2 omega)] vanishing along it.
    """
    if samples < 8:
        raise InputError("need at least 8 circle samples")
    pair = pair_of(data) if isinstance(data, KobayashiData) else data

    finite_ends, inf_order = ends_of_pair(pair)
    ends_on_circle = inf_order <= 0 and all(
        abs(abs(p) - 1.0) < _CIRCLE_TOL for p, _ in finite_ends)

    theta = np.arange(samples) * (2 * math.pi / samples) + 1e-3
    circle = np.exp(1j * theta)
    gn, gd = pair.g.num, pair.g.den
    gvals = gn(circle) / gd(circle)
    gauss_circle_ok = bool(np.max(np.abs(np.abs(gvals) - 1.0)) < 1e-10)

    interior_ok = True
    for r in (0.3, 0.6, 0.9):
        zs = r * np.exp(1j * theta[::16])
        gv = gn(zs) / gd(zs)
        if np.any(np.abs(gv) >= 1.0):
            interior_ok = False

    # dg/(g^2 omega) = N * omega_den / (gnum^2 * omega_num)
    ndg = gn.deriv() * gd - gn * gd.deriv()
    wnum = ndg * pair.omega.den
    wden = (gn * gn) * pair.omega.num
    dvals = wden(circle)
    ok = np.abs(dvals) > 1e-12 * np.max(np.abs(dvals))
    w = wnum(circle[ok]) / dvals[ok]
    scale = max(1.0, float(np.max(np.abs(w))))
    max_re = float(np.max(np.abs(w.real)))

    return FoldTypeReport(
        ends_on_circle=ends_on_circle,
        gauss_circle_ok=gauss_circle_ok,
        max_re_condition=max_re,
        re_condition_scale=scale,
        interior_ok=interior_ok,
    )


def period_check(data: KobayashiData) -> float:
    """Largest |Im residue| over the three forms and all ends; 0 means closed periods."""
    worst = 0.0
    for k in range(3):
        for p, _ in data.ends:
            worst = max(worst, abs(data.phi[k].residue(p).imag))
    return worst


@dataclass(frozen=True)
class PrincipalCoeffs:
    """Log-coefficients A_j of the principal-type extension."""

    n: int
    alphas: tuple[float, ...]
    A: tuple[float, ...]

    def weights(self) -> np.ndarray:
        """3 x 2n matrix W with f~ = W @ log(u - cos(theta - alpha))."""
        a = np.asarray(self.alphas)
        A = np.asarray(self.A)
        k = self.n - 1
        return np.vstack([-A, A * np.cos(k * a), A * np.sin(k * a)])


@dataclass(frozen=True)
class GeneralCoeffs:
    """Residues B[k, j] of phi_k at e^{i alpha_j}, distinct angles."""

    alphas: tuple[float, ...]
    B: tuple[tuple[float, ...], ...]

    def weights(self) -> np.ndarray:
        return np.asarray(self.B) / 2.0


def principal_coefficients(angular: AngularData) -> PrincipalCoeffs:
    """Closed-form A_j = (-1)^{n+1}/2^{2n-1} / prod_{i != j} sin((a_j - a_i)/2)."""
    if not angular.is_distinct:
        raise RepeatedAngles("A_j closed form needs pairwise distinct angles")
    n = angular.n
    a = np.asarray(angular.alphas)
    A = []
    for j in range(2 * n):
        others = np.delete(a, j)
        A.append((-1.0) ** (n + 1) / 2 ** (2 * n - 1)
                 / float(np.prod(np.sin((a[j] - others) / 2.0))))
    return PrincipalCoeffs(n=n, alphas=tuple(angular.alphas), A=tuple(A))


def coefficients(data: KobayashiData) -> PrincipalCoeffs | GeneralCoeffs:
    """Residue data for the distinct-angle closed-form extension, kept as
    an oracle: `surface.SurfaceEvaluator` takes its own from the partial
    fractions, for repeated angles too.

    Checks the residue-theorem sum rules before returning and raises
    NumericError when rounding breaks them (nearly repeated angles).
    """
    if not data.angular.is_distinct:
        raise RepeatedAngles("angles repeat; use surface.SurfaceEvaluator")
    if data.principal:
        coeffs = principal_coefficients(data.angular)
        sums = np.abs(coeffs.weights().sum(axis=1))
        if np.max(sums) > 1e-10:
            raise NumericError(f"residue sum rules violated: {sums}")
        return coeffs
    B = []
    for k in range(3):
        row = []
        for a in data.angular.alphas:
            res = data.phi[k].residue(cmath.exp(1j * a))
            if abs(res.imag) > 1e-9 * (1 + abs(res)):
                raise NumericError(f"non-real residue {res} of phi_{k}")
            row.append(res.real)
        B.append(tuple(row))
    Bm = np.asarray(B)
    if np.max(np.abs(Bm.sum(axis=1))) > 1e-10 * max(1.0, np.abs(Bm).max()):
        raise NumericError("residue rows do not sum to zero")
    return GeneralCoeffs(alphas=tuple(data.angular.alphas), B=tuple(map(tuple, B)))
