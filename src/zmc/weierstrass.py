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
from .errors import InputError, NumericError, RepeatedAngles
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
    if gden.degree != sum(bi != 0 for bi in b):
        # a pole 1/conj(b) beyond what the coefficients of gden resolve
        raise InputError(f"Blaschke parameters {[bi for bi in b if bi != 0]} are too close "
                         f"to 0 for double precision; give 0 instead")
    g = RationalFn(gnum, gden,
                   poles=cluster_roots([1.0 / bi.conjugate() for bi in b if bi != 0], 1e-9))

    lam = cmath.exp(0.5j * math.fsum(angular.alphas))
    ends = [cmath.exp(1j * beta) for beta in angular.betas]
    q = ComplexPoly.from_roots(
        [cmath.exp(1j * a) for a in angular.alphas], lead=lam.conjugate())
    if q.degree != 2 * n:
        # its coefficients grow like binomials: from n = 62 on the leading
        # one falls below the relative trim of from_roots
        raise InputError(f"order n = {n} is too large for double precision: omega's "
                         f"denominator has degree {q.degree}, not {2 * n}")
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


def dg_numerator(data: KobayashiData | WeierstrassPair) -> ComplexPoly:
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


def _ends_on_circle(pair: WeierstrassPair) -> bool:
    """Condition (i): no pole of omega, g omega or g^2 omega off the unit
    circle or at infinity.

    Works from the explicit pole multisets carried by g and omega, so exact
    multiple poles stay exact.  A pole whose principal part is nowhere above
    1e-9 of the form's largest coefficient is cancelled by the numerator.
    """
    gn, gd = pair.g.num, pair.g.den
    on, od = pair.omega.num, pair.omega.den
    den = od * (gd * gd)
    den_poles = _merged_poles(pair.omega.poles, pair.g.poles, pair.g.poles)
    if den.degree != sum(m for _, m in den_poles):
        # a pole of g so far out that den's top coefficient rounds away
        raise InputError("a pole of g lies beyond what double precision resolves in the "
                         "fold-type test; give Blaschke parameters 0 instead of near 0")
    for num in (on * (gd * gd), on * (gn * gd), on * (gn * gn)):
        if num.degree + 2 > den.degree:  # a pole at infinity
            return False
        f = RationalFn(num, den, poles=den_poles)
        parts = [(p, f.principal_part(p)) for p, _ in f.poles]
        scale = max(max((np.abs(c).max() for _, c in parts), default=0.0), 1e-300)
        if any(not abs(abs(p) - 1.0) < _CIRCLE_TOL and not (np.abs(c) <= 1e-9 * scale).all()
               for p, c in parts):
            return False
    return True


def _circle_identity(*terms: tuple[ComplexPoly, ComplexPoly]) -> tuple[float, float]:
    """(largest coefficient of sum p rev(q), largest of the first p rev(q)).
    rev(q) = z^d conj(q(1/conj z)), d the largest degree, is z^d conj(q) on
    |z| = 1: the sum is 0 exactly when sum p conj(q) is 0 on the circle."""
    d = max(len(f.coeffs) for t in terms for f in t)
    cs = [[np.pad(f.coeffs, (0, d - len(f.coeffs))) for f in t] for t in terms]
    prods = [np.convolve(p, np.conj(q)[::-1]) for p, q in cs]
    return float(np.abs(sum(prods)).max()), float(np.abs(prods[0]).max())


@dataclass(frozen=True)
class FoldTypeReport:
    ends_on_circle: bool
    gauss_circle_ok: bool
    max_re_condition: float
    re_condition_scale: float

    @property
    def fold_condition_ok(self) -> bool:
        return self.max_re_condition <= 1e-9 * self.re_condition_scale

    @property
    def is_fold_type(self) -> bool:
        return self.ends_on_circle and self.gauss_circle_ok and self.fold_condition_ok


def verify_fold_type(data: KobayashiData | WeierstrassPair) -> FoldTypeReport:
    """Test the three fold-type conditions as exact coefficient identities.

    (i) no pole of omega, g omega or g^2 omega off the unit circle or at
    infinity: `build` puts every end on the circle, so for its data (i) is
    deg p_k <= deg q - 2; raw pairs go through `_ends_on_circle`.
    (ii) |g| = 1 on the circle: gnum rev(gnum) = gden rev(gden).
    (iii) Re[dg/(g^2 omega)] = Re(A/B) = 0 on it, A = N omega_den and
    B = gnum^2 omega_num: A rev(B) + rev(A) B = 0.  (ii) and (iii) hold when
    the identity's largest coefficient is at most 1e-9 of its first term's.
    """
    gn, gd = data.g.num, data.g.den
    if isinstance(data, KobayashiData):
        on, od = data.omega_num, data.omega_den
        ends_on_circle = all(f.num.degree <= f.den.degree - 2 for f in data.phi)
    else:
        on, od = data.omega.num, data.omega.den
        ends_on_circle = _ends_on_circle(data)
    gauss_res, gauss_scale = _circle_identity((gn, gn), (-gd, gd))
    A, B = dg_numerator(data) * od, (gn * gn) * on
    re_res, re_scale = _circle_identity((A, B), (B, A))
    return FoldTypeReport(
        ends_on_circle=ends_on_circle,
        gauss_circle_ok=gauss_res <= 1e-9 * gauss_scale,
        max_re_condition=re_res,
        re_condition_scale=re_scale,
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
