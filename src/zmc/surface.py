"""Evaluation of the analytically extended surface on the (u, theta) domain.

`SurfaceEvaluator` is the one production route: a closed form built from
the partial fractions of the phi forms, for ends of any pole order, with
analytic first and second derivatives.  The other routes are independent
oracles that the tests and `zmc check` hold it against:

* pattern closed forms for the degenerate order-2 angle patterns,
* quadrature of the closed real 1-forms (`OneFormUV`, `integrate_oneform`),
* quadrature of the holomorphic forms on the disk side (`eval_on_disk`).

All of them share the base value f(p_infinity) = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import numpy.polynomial.polynomial as npoly
from scipy.integrate import quad_vec

from .angular import TWO_PI, AngularData
from .domain import ExtendedPoint, FinitePoint, PointAtInfinity, iota
from .errors import NumericError, OutsideDomain, PathBlocked, PatternMismatch
from .polycheb import cheb_table, partial_fractions
from .weierstrass import KobayashiData

_EDGE = 1e-12


@dataclass(frozen=True)
class SurfacePoint:
    """(t, x, y) = (x_0, x_1, x_2) in R^3_1 with signature (-++)."""

    t: float
    x: float
    y: float

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y])

    @classmethod
    def from_array(cls, a) -> "SurfacePoint":
        return cls(float(a[0]), float(a[1]), float(a[2]))


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"
    TIMELIKE = "timelike"


def causal_character(grad: tuple[float, float], tol: float = 1e-6) -> CausalCharacter:
    """Classify a graph t = f(x, y) by the sign of 1 - f_x^2 - f_y^2."""
    q = 1.0 - grad[0] ** 2 - grad[1] ** 2
    if abs(q) < tol:
        return CausalCharacter.LIGHTLIKE
    return CausalCharacter.SPACELIKE if q > 0 else CausalCharacter.TIMELIKE


def _require_inside(angular: AngularData, u: float, theta: float) -> None:
    if u - angular.max_cos(theta) < _EDGE:
        raise OutsideDomain(f"(u, theta) = ({u}, {theta}) too close to the boundary")


# ---------------------------------------------------------------------------
# the evaluator: partial fractions for ends of any pole order
# ---------------------------------------------------------------------------

class SurfaceEvaluator:
    """f~ on the extension domain, in closed form, with analytic first and
    second derivatives.

    The partial fractions of the phi forms give each end beta_j a real
    residue and, for every higher pole order k + 1, a coefficient gamma of
    (w - 1)^-k, w = z e^{-i beta_j}.  With s = theta - beta_j and
    D = u - cos s, the inversion-symmetric part of (w - 1)^-k, zeroed at
    p_infinity, is

        S_k = sum_i C(k, i) (-1)^i e^{-i (k-i) s} T_i(u) / (2D)^k - (-1)^k / 2,

    since |w - 1|^2 = 2 r D.  So f~ is one real matrix times the basis
    log D_j, Re S_k(s_j), Im S_k(s_j), which for distinct angles is the
    residue-weighted log sum.  The sum over i is the power sum
    q_k = a^k + b^k of a, b = (e^{-is} - r^{+-1}) / 2D, formed by the
    recurrence q_k = -(1 + i t) q_{k-1} + c q_{k-2} with t = sin s / D and
    c = e^{-is} / 2D, so S_k = (q_k - (-1)^k) / 2 keeps the digits that
    expanding the binomial would cancel near the boundary.
    """

    def __init__(self, data: KobayashiData):
        self.angular = data.angular
        self.betas = np.asarray(data.angular.betas)
        K = max(data.angular.multiplicities) - 1
        res = np.zeros((3, self.betas.size))
        gamma = np.zeros((3, K, self.betas.size), dtype=complex)
        for k in range(3):
            for part in partial_fractions(data.phi[k]):
                beta = cmath.phase(part.pole) % TWO_PI
                j = int(np.argmin(np.minimum((self.betas - beta) % TWO_PI,
                                             (beta - self.betas) % TWO_PI)))
                r = part.coeffs[0]
                if abs(r.imag) > 1e-9 * (1 + abs(r)):
                    raise NumericError(f"non-real residue {r} of phi_{k}")
                res[k, j] = r.real
                for m in range(2, part.order + 1):
                    gamma[k, m - 2, j] = (-part.coeffs[m - 1] / (m - 1)
                                          * cmath.exp(-1j * (m - 1) * self.betas[j]))
        if np.max(np.abs(res.sum(axis=1))) > 1e-10 * max(1.0, np.abs(res).max()):
            raise NumericError("residue sum rules violated: the residues of a form "
                               "do not sum to zero")
        self._order = K
        # product formula tables, indexed [j, a]
        self._mid = (self.betas[:, None] + self.betas[None, :]) / 2.0
        self._half = np.sin((self.betas[:, None] - self.betas[None, :]) / 2.0)
        # columns: log D_j, then Re S_k(s_j) and Im S_k(s_j), k-major
        self._M = np.hstack([res / 2.0, gamma.real.reshape(3, -1),
                             -gamma.imag.reshape(3, -1)])
        self._dead = ~self._M.any(axis=0)

    def jet(self, delta, theta, order: int = 0):
        """f~ at boundary clearance delta = u - max_j cos(theta - beta_j).

        Returns (values, d/d delta, d/d theta at fixed delta), each of shape
        (3, N); the two derivatives are None for order 0 and analytic for
        order 1; order 2 appends d2/d delta2, d2/d delta d theta and
        d2/d theta2.  d/d delta is d/du.  Every D_j is delta plus
        cos(theta - beta_a) - cos(theta - beta_j) for the nearest end a,
        formed by the product formula, so a clearance that u itself cannot
        resolve keeps its digits; at fixed delta the nearest end's D is
        constant, so its pole drops out of d/d theta exactly.
        """
        return self._apply(self._rows(np.asarray(theta, dtype=float), order,
                                      delta=np.asarray(delta, dtype=float)))

    def eval_batch(self, u, theta) -> np.ndarray:
        """Values of shape (3, N); no domain checks."""
        return self._apply(self._rows(np.asarray(theta, dtype=float), 0,
                                      u=np.asarray(u, dtype=float)))[0]

    def partials(self, u, theta) -> tuple[np.ndarray, np.ndarray]:
        """(d f~/du, d f~/dtheta), each of shape (3, N)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return self._apply(self._rows(theta, 1, u=u))[1:]

    def corner(self, a, b, p, q, order: int = 0):
        """f~ in the corner chart (p, q) = (log D_a, log D_b) of the sector
        between adjacent simple ends a and b (index arrays) of gap 2g < pi.

        D_a - D_b = 2 sin g sin(theta - m), m the sector's middle, so theta
        = m + asin((e^p - e^q) / (2 sin g)); the other D_j follow from the
        product formula relative to a.  However deep the corner, log D_a and
        log D_b stay exact, and f~ is affine in (p, q) up to O(max(D_a, D_b)).
        Returns (theta, values, d/dp, d/dq) as `jet` does for order 0 or 1;
        NaN off the chart.
        """
        g = (self.betas[b] - self.betas[a]) % TWO_PI / 2.0
        with np.errstate(all="ignore"):
            ep, eq = np.exp(p), np.exp(q)
            x = (ep - eq) / (2.0 * np.sin(g))
            theta = self.betas[a] + g + np.arcsin(x)
            rows, cols = list(self._rows(theta, order, delta=ep, ref=a)), np.arange(theta.size)
            if order:
                w = 1.0 / (2.0 * np.sin(g) * np.sqrt(1.0 - x * x))  # d theta / d(e^p - e^q)
                rows[1:] = rows[1] * ep + rows[2] * (ep * w), rows[2] * (-eq * w)
            # log D_a, log D_b are the coordinates; zero-weight rows may be NaN
            for r, ra, rb in zip(rows, (p, 1.0, 0.0), (q, 0.0, 1.0)):
                r[self._dead] = 0.0
                r[a, cols], r[b, cols] = ra, rb
            return (theta,) + self._apply(rows)

    def _apply(self, rows):
        """f~ and its derivatives, as `jet` returns them, from their basis rows."""
        out = tuple(self._M @ r for r in rows)
        return out if len(out) > 1 else out + (None, None)

    def _rows(self, theta, order, delta=None, u=None, ref=None):
        """The basis rows of `jet`, or with u in place of delta: then delta =
        u - max cos and d/dtheta is taken at fixed u.  With `ref`, delta is
        the clearance of end ref, not the nearest end's, and D is unclipped."""
        s = theta[None, :] - self.betas[:, None]
        cs = np.cos(s)
        a = np.argmax(cs, axis=0) if ref is None else ref
        cols = np.arange(theta.size)
        if delta is None:
            delta = u - cs[a, cols]
        # >= 0 when beta_a is the nearest end, so rounding is only clipped
        # upward
        dcos = -2.0 * np.sin(theta[None, :] - self._mid.take(a, axis=1)) \
            * self._half.take(a, axis=1)
        D = delta[None, :] + (np.maximum(dcos, 0.0) if ref is None else dcos)
        rows = [np.log(D)]
        K = self._order
        if not (K or order):
            return rows
        sn = np.sin(s)
        invD = 1.0 / D
        t = sn * invD
        # dD/dtheta: sin s at fixed u, sin s - sin s_a at fixed delta
        Dth = sn if u is not None else sn - sn[a, cols]
        if K:
            c = (cs - 1j * sn) * (0.5 * invD)
            b1 = -1.0 - 1j * t
            q = [2.0, b1]
            for k in range(2, K + 1):
                q.append(b1 * q[-1] + c * q[-2])
            S = [(q[k] - (-1) ** k) / 2.0 for k in range(1, K + 1)]
            rows += [x.real for x in S] + [x.imag for x in S]
        vals = np.concatenate(rows)
        if not order:
            return [vals]
        dd, dth = [invD], [Dth * invD]
        if K:
            # the derivatives of t = sin s / D and c = e^{-is} / 2D
            dq, dc = [], (-c * invD, -c * (1j + Dth * invD))
            for drows, dt, dcx in zip((dd, dth), (-t * invD, (cs - t * Dth) * invD), dc):
                db1 = -1j * dt
                dqx = [0.0, db1]
                for k in range(2, K + 1):
                    dqx.append(db1 * q[k - 1] + b1 * dqx[-1] + dcx * q[k - 2] + c * dqx[-2])
                drows += [x.real / 2.0 for x in dqx[1:]] + [x.imag / 2.0 for x in dqx[1:]]
                dq.append(dqx)
        first = [vals, np.concatenate(dd), np.concatenate(dth)]
        if order == 1:
            return first
        # d2D/dtheta2 is cos s at fixed u, cos s - cos s_a at fixed delta
        Dthth = cs if u is not None else cs - cs[a, cols]
        w = Dth * invD
        second = ([-invD * invD], [-w * invD], [Dthth * invD - w * w])
        if K:
            # as t = -2 Im c, b1 = -1 + 2i Im c follows c
            d2c = (2.0 * c * invD * invD, (c * w - dc[1]) * invD,
                   -dc[1] * (1j + w) - c * (Dthth * invD - w * w))
            for drows, (i, j), d2cx in zip(second, ((0, 0), (0, 1), (1, 1)), d2c):
                d2q = [0.0, 2j * d2cx.imag]
                for k in range(2, K + 1):
                    d2q.append(d2q[1] * q[k - 1] + dq[i][1] * dq[j][k - 1]
                               + dq[j][1] * dq[i][k - 1] + b1 * d2q[-1] + d2cx * q[k - 2]
                               + dc[i] * dq[j][k - 2] + dc[j] * dq[i][k - 2] + c * d2q[-2])
                drows += [x.real / 2.0 for x in d2q[1:]] + [x.imag / 2.0 for x in d2q[1:]]
        return first + [np.concatenate(rows) for rows in second]

    def eval(self, p: ExtendedPoint) -> SurfacePoint:
        if isinstance(p, PointAtInfinity):
            return SurfacePoint(0.0, 0.0, 0.0)
        _require_inside(self.angular, p.u, p.theta)
        vals = self.eval_batch(np.array([p.u]), np.array([p.theta]))
        return SurfacePoint.from_array(vals[:, 0])

    def eval_disk(self, z: complex) -> SurfacePoint:
        return self.eval(iota(z))


# ---------------------------------------------------------------------------
# degenerate order-2 patterns
# ---------------------------------------------------------------------------

def _n2_pattern(angular: AngularData) -> str:
    if angular.n != 2 or angular.is_distinct:
        raise PatternMismatch("degenerate closed forms need n = 2 with a repeated angle")
    m = angular.multiplicities
    if angular.alphas[1] != 0.0:
        raise PatternMismatch(
            f"no order-2 pattern starts with alphas {angular.alphas[:2]}; "
            "rotate the data so the repeated angle sits at 0")
    if m == (4,):
        return "0000"
    if m == (2, 2):
        return "00aa"
    if m == (2, 1, 1):
        return "00ab"
    raise PatternMismatch(f"multiplicities {m} do not match a known pattern")


def _xprime(u, th, a):
    """sin/(u-cos) and the two relative logs used by the (0,0,a,b) forms."""
    return np.sin(th - a) / (u - np.cos(th - a))


def _relative_log(u, th, a):
    return np.log((u - np.cos(th - a)) / (u - np.cos(th)))


def eval_degenerate_n2(data: KobayashiData, p: ExtendedPoint) -> SurfacePoint:
    """Closed forms for the repeated-angle order-2 patterns.

    (0,0,a,b) and (0,0,a,a) use the explicit coefficient matrices of the
    embedding proof; (0,0,0,0) uses the ruled-surface display.  (0,0,0,a)
    has no such form (the literature only records two of its three
    coordinate combinations) and raises `PatternMismatch`.
    """
    pattern = _n2_pattern(data.angular)
    if isinstance(p, PointAtInfinity):
        return SurfacePoint(0.0, 0.0, 0.0)
    _require_inside(data.angular, p.u, p.theta)
    u, th = p.u, p.theta

    if pattern == "0000":
        D = u - math.cos(th)
        sn, cs = math.sin(th), math.cos(th)
        t = -sn * (cs * cs - 3 * u * cs + 2.0) / (6 * D**3)
        x = sn * (2 * sn * sn + 3 * u * cs - 3 * u * u) / (6 * D**3)
        y = (1.0 - u * cs) / (2 * D**2)
        return SurfacePoint(t, x, y)

    if pattern == "00aa":
        a = data.angular.alphas[2]
        app = 1.0 / (4 * math.sin(a / 2) ** 2)
        bpp = 1.0 / math.tan(a / 2)
        X0 = _xprime(u, th, 0.0)
        X1 = _xprime(u, th, a)
        X2 = _relative_log(u, th, a)
        M = np.array([
            [-app, -app, -app * bpp],
            [app, app * math.cos(a), app * bpp],
            [0.0, bpp / 2, app],
        ])
        return SurfacePoint.from_array(M @ np.array([X0, X1, X2]))

    # (0,0,a,b)
    a, b = data.angular.alphas[2], data.angular.alphas[3]
    sa, sb = math.sin(a / 2), math.sin(b / 2)
    bp = 1.0 / (2 * sa * sb)
    a1 = 1.0 / (4 * sa * sa * math.sin((a - b) / 2))
    a2 = 1.0 / (4 * sb * sb * math.sin((b - a) / 2))
    X0 = _xprime(u, th, 0.0)
    X1 = _relative_log(u, th, a)
    X2 = _relative_log(u, th, b)
    M = 0.5 * np.array([
        [-bp, a1, a2],
        [bp, -a1 * math.cos(a), -a2 * math.cos(b)],
        [0.0, -a1 * math.sin(a), -a2 * math.sin(b)],
    ])
    return SurfacePoint.from_array(M @ np.array([X0, X1, X2]))


# ---------------------------------------------------------------------------
# real 1-forms on the extension domain
# ---------------------------------------------------------------------------

class OneFormUV:
    """Polynomial coefficients of Re(phi_k) = (x_k du + y_k dtheta)/den.

    den(u, theta) = 2 * 4^n * prod_j (u - cos(theta - alpha_j)).  Built by
    expressing the forms in r = |z| at fixed theta and reducing the
    resulting (anti-)self-reciprocal polynomials to u = (r + 1/r)/2.
    """

    def __init__(self, data: KobayashiData):
        self.data = data
        self.angular = data.angular
        self.alphas = np.asarray(data.angular.alphas)
        n = data.n
        self.n = n
        q = np.asarray(data.omega_den.coeffs)
        self._pairs = []
        for k in range(3):
            pk = np.asarray(data.phi[k].num.coeffs)
            aa, bb = np.meshgrid(np.arange(pk.size), np.arange(q.size), indexing="ij")
            c = (pk[:, None] * np.conj(q)[None, :]).ravel()
            expo = (aa - bb + 1).ravel()
            powr = (aa + bb + 1).ravel()
            self._pairs.append((c, expo, powr))
        size = 4 * n + 1
        self._ra = np.zeros((2 * n, size))
        self._rs = np.zeros((2 * n + 1, size))
        for kpow in range(size):
            d = kpow - 2 * n
            if d > 0:
                self._ra[d - 1, kpow] += 1.0
            elif d < 0:
                self._ra[-d - 1, kpow] -= 1.0
            self._rs[abs(d), kpow] += 1.0
        self._size = size

    def denominator(self, u: np.ndarray, theta: np.ndarray) -> np.ndarray:
        D = u[None, :] - np.cos(theta[None, :] - self.alphas[:, None])
        return 2.0 * 4.0**self.n * np.prod(D, axis=0)

    def numerators(self, u: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) arrays of shape (3, N) with Re(phi_k) = (x du + y dtheta)/den."""
        u = np.asarray(u, dtype=float)
        theta = np.asarray(theta, dtype=float)
        n = self.n
        Ut = cheb_table(2 * n - 1, u, second=True)
        Tt = cheb_table(2 * n, u)
        xs, ys = [], []
        for c, expo, powr in self._pairs:
            ph = c[:, None] * np.exp(1j * expo[:, None] * theta[None, :])
            w = np.zeros((self._size, u.size))
            v = np.zeros((self._size, u.size))
            np.add.at(w, powr, 2.0 * ph.real)
            np.add.at(v, powr, -2.0 * ph.imag)
            xu = self._ra @ w
            yt = self._rs @ v
            xs.append(np.einsum("in,in->n", xu, Ut))
            ys.append(np.einsum("in,in->n", yt, Tt))
        return np.array(xs), np.array(ys)

    def partials(self, u, theta) -> tuple[np.ndarray, np.ndarray]:
        """(d f~/du, d f~/dtheta), each shape (3, N)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        x, y = self.numerators(u, theta)
        den = self.denominator(u, theta)
        return x / den, y / den


def build_oneforms(data: KobayashiData) -> OneFormUV:
    return OneFormUV(data)


def graph_gradient(forms: OneFormUV, u: float, theta: float) -> tuple[float, float]:
    """(lambda_x, lambda_y) of the graph t = lambda(x, y) at (u, theta)."""
    du, dth = forms.partials(np.array([u]), np.array([theta]))
    A = np.array([[du[1, 0], du[2, 0]], [dth[1, 0], dth[2, 0]]])
    rhs = np.array([du[0, 0], dth[0, 0]])
    sol = np.linalg.solve(A, rhs)
    return float(sol[0]), float(sol[1])


def integrate_oneform(forms: OneFormUV, start: ExtendedPoint, stop: ExtendedPoint,
                      base_value: SurfacePoint, tol: float = 1e-11) -> SurfacePoint:
    """Integrate the closed 1-forms along an in-domain polyline.

    The path raises u to a safe level, moves in theta, and descends; the
    forms are closed on the simply connected domain, so any such polyline
    gives the same answer.
    """
    for p in (start, stop):
        if isinstance(p, FinitePoint) and p.u - forms.angular.max_cos(p.theta) <= _EDGE:
            raise PathBlocked(f"endpoint {p} is not strictly inside the domain")

    u_safe = 2.0
    for p in (start, stop):
        if isinstance(p, FinitePoint):
            u_safe = max(u_safe, p.u)

    total = np.zeros(3)

    def u_leg(theta: float, u0: float, u1: float):
        th = np.array([theta])

        def f(uu):
            x, _ = forms.numerators(np.array([uu]), th)
            return x[:, 0] / forms.denominator(np.array([uu]), th)[0]

        val, _ = quad_vec(f, u0, u1, epsabs=tol, epsrel=tol)
        return val

    def theta_leg(u: float, th0: float, th1: float):
        uu = np.array([u])

        def f(tt):
            _, y = forms.numerators(uu, np.array([tt]))
            return y[:, 0] / forms.denominator(uu, np.array([tt]))[0]

        val, _ = quad_vec(f, th0, th1, epsabs=tol, epsrel=tol)
        return val

    if isinstance(start, PointAtInfinity) and isinstance(stop, PointAtInfinity):
        return base_value
    th_start = start.theta if isinstance(start, FinitePoint) else (
        stop.theta if isinstance(stop, FinitePoint) else 0.0)
    th_stop = stop.theta if isinstance(stop, FinitePoint) else th_start

    if isinstance(start, FinitePoint):
        total += u_leg(start.theta, start.u, u_safe)
    else:
        total += u_leg(th_start, np.inf, u_safe)
    dth = (th_stop - th_start + math.pi) % TWO_PI - math.pi
    if dth != 0.0:
        total += theta_leg(u_safe, th_start, th_start + dth)
    if isinstance(stop, FinitePoint):
        total += u_leg(stop.theta, u_safe, stop.u)
    else:
        total += u_leg(th_stop, u_safe, np.inf)

    return SurfacePoint.from_array(base_value.as_array() + total)


# ---------------------------------------------------------------------------
# disk-side quadrature oracle
# ---------------------------------------------------------------------------

def _segment_pole_clearance(a: complex, b: complex, poles) -> float:
    worst = math.inf
    ab = b - a
    L2 = abs(ab) ** 2
    for p in poles:
        if L2 == 0:
            worst = min(worst, abs(p - a))
            continue
        t = max(0.0, min(1.0, ((p - a) * ab.conjugate()).real / L2))
        worst = min(worst, abs(a + t * ab - p))
    return worst


def eval_on_disk(data: KobayashiData, z: complex, z0: complex = 0j,
                 f0: SurfacePoint = SurfacePoint(0.0, 0.0, 0.0),
                 margin: float = 1e-3, tol: float = 1e-11) -> SurfacePoint:
    """f(z) = f0 + Re integral_{z0}^{z} (phi_0, phi_1, phi_2).

    Pure quadrature of the holomorphic forms along a polyline that keeps
    clear of the ends; both points may lie outside the unit disk.
    """
    ends = [e for e, _ in data.ends]

    def route(a: complex, b: complex) -> list[complex]:
        if _segment_pole_clearance(a, b, ends) >= margin:
            return [a, b]
        # cross the circle radially between ends, widest gap first
        betas = list(data.angular.betas) + [data.angular.betas[0] + TWO_PI]
        gaps = sorted(((betas[j + 1] - betas[j], (betas[j + 1] + betas[j]) / 2)
                       for j in range(len(betas) - 1)), reverse=True)
        inner, outer = (a, b) if abs(a) <= abs(b) else (b, a)
        for _, theta_c in gaps:
            w1 = 0.75 * cmath.exp(1j * theta_c)
            w2 = 1.35 * cmath.exp(1j * theta_c)
            path = [inner, w1, w2, outer]
            if all(_segment_pole_clearance(s, t, ends) >= margin
                   for s, t in zip(path, path[1:])):
                return path if (inner == a) else path[::-1]
        raise PathBlocked(f"no clear path from {a} to {b}")

    num = [np.asarray(data.phi[k].num.coeffs) for k in range(3)]
    den = np.asarray(data.omega_den.coeffs)

    def phis(zz: complex) -> np.ndarray:
        qv = npoly.polyval(zz, den)
        return np.array([npoly.polyval(zz, nk) for nk in num]) / qv

    total = np.zeros(3, dtype=complex)
    pts = route(complex(z0), complex(z))
    for a, b in zip(pts, pts[1:]):
        dz = b - a

        def f(t):
            return phis(a + t * dz) * dz

        val, _ = quad_vec(f, 0.0, 1.0, epsabs=tol, epsrel=tol)
        total += val
    return SurfacePoint.from_array(f0.as_array() + total.real)
