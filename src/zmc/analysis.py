"""Graph / immersion criteria, Newton inversion, analytic PDE residuals, scans.

The two gap conditions on the angular data decide everything: gaps up to
pi/(n-1) make (x1, x2) a diffeomorphism onto the plane (an entire graph),
gaps up to 2 pi/(n-1) still give an immersion.  Violations are witnessed
by explicit critical points where the Chebyshev factors vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

import numpy as np

from .angular import TWO_PI, AngularData
from .domain import sample_edges
from .errors import InputError, NoConvergence, OutsideDomain, PreconditionUnmet
from .polycheb import ReciprocalClass, cheb_table, cluster_roots, reduce_coeffs
from .surface import SurfaceEvaluator
from .weierstrass import (KobayashiData, FoldTypeReport, dg_numerator,
                          hopf_zero_pole_orders, period_check, verify_fold_type)

_GAP_TOL = 1e-12


class Condition(Enum):
    STRICTLY_SATISFIED = "strict"
    BOUNDARY_CASE = "boundary"
    VIOLATED = "violated"


@dataclass(frozen=True)
class ConditionReport:
    graph_condition: Condition
    immersion_condition: Condition
    witness: tuple[float, float] | None
    immersion_witness: tuple[float, float] | None
    distinct_angles: bool
    arithmetic: str  # "rational" when gaps were compared exactly
    umbilics: tuple[tuple[complex, int], ...] | None = None


def _classify_gaps(gaps, bound, gap_fracs, bound_frac) -> tuple[Condition, int | None]:
    """Worst gap against the bound; returns (condition, index of first violation)."""
    state = Condition.STRICTLY_SATISFIED
    first_violated = None
    for j, g in enumerate(gaps):
        if gap_fracs is not None:
            f = gap_fracs[j]
            over = f > bound_frac
            boundary = f == bound_frac
        else:
            over = g > bound + _GAP_TOL
            boundary = abs(g - bound) <= _GAP_TOL
        if over:
            if first_violated is None:
                first_violated = j
            state = Condition.VIOLATED
        elif boundary and state is not Condition.VIOLATED:
            state = Condition.BOUNDARY_CASE
    return state, first_violated


def check_conditions(angular: AngularData) -> ConditionReport:
    """Gap conditions for graph (pi/(n-1)) and immersion (2 pi/(n-1)).

    Rational-multiple-of-pi input is compared exactly; otherwise within
    1e-12.  A violated gap yields the critical point (u_0, gap midpoint)
    at which the corresponding Jacobians vanish for principal data.
    """
    n = angular.n
    gaps = angular.gaps()
    gap_fracs = angular.gap_fracs()
    bound = math.pi / (n - 1)
    bound_frac = Fraction(1, n - 1) if gap_fracs is not None else None
    graph, jg = _classify_gaps(gaps, bound, gap_fracs, bound_frac)
    imm, ji = _classify_gaps(
        gaps, 2 * bound, gap_fracs,
        2 * bound_frac if bound_frac is not None else None)

    ext = angular.alphas + (TWO_PI,)
    witness = None
    if jg is not None:
        witness = (math.cos(math.pi / (2 * (n - 1))), (ext[jg] + ext[jg + 1]) / 2.0)
    immersion_witness = None
    if ji is not None:
        immersion_witness = (math.cos(math.pi / (n - 1)), (ext[ji] + ext[ji + 1]) / 2.0)

    return ConditionReport(
        graph_condition=graph,
        immersion_condition=imm,
        witness=witness,
        immersion_witness=immersion_witness,
        distinct_angles=angular.is_distinct,
        arithmetic="rational" if gap_fracs is not None else "float",
    )


# ---------------------------------------------------------------------------
# Jacobian formulas
# ---------------------------------------------------------------------------

def _blaschke_poly(data: KobayashiData, theta) -> np.ndarray:
    """The Blaschke product p(r) = prod_i (1 - 2 Re(conj(b_i) e^{i theta}) r
    + |b_i|^2 r^2), that is prod_i |1 - conj(b_i) z|^2 at z = r e^{i theta}:
    its r-coefficients along axis 0.  Reversed, it is prod_i |z - b_i|^2."""
    theta = np.asarray(theta, dtype=float)
    p = np.zeros((2 * len(data.blaschke.b) + 1,) + theta.shape)
    p[0] = 1.0
    for b in data.blaschke.b:
        c = (b.conjugate() * np.exp(1j * theta)).real
        prev = p.copy()
        p[1:] -= 2.0 * c * prev[:-1]
        p[2:] += abs(b) ** 2 * prev[:-2]
    return p


def jacobian_x1x2(data: KobayashiData, u: float, theta: float) -> float:
    """d(x1, x2)/d(u, theta) of the extension.

    -Y(u) / (4^n prod (u - cos(theta - alpha_j))), where Y is the anti
    reduction of p^2 - p*^2 (p from `_blaschke_poly`; p*^2, the reverse of
    p^2, is prod |z - b|^4).  Y = -2 U_{2n-3}(u) for principal data.
    """
    n = data.n
    if u - data.angular.max_cos(theta) <= 0:
        raise OutsideDomain(f"({u}, {theta}) outside the extension domain")
    prod = float(np.prod(u - np.cos(theta - np.asarray(data.angular.alphas))))
    p = _blaschke_poly(data, theta)
    sq = np.convolve(p, p)
    w = reduce_coeffs(sq - sq[::-1], 2 * n - 2, ReciprocalClass.ANTI)
    Y = w @ cheb_table(2 * n - 3, u, second=True)
    return float(-Y) / (4**n * prod)


def _fold_factor(data: KobayashiData, u, theta) -> np.ndarray:
    """Q(u, theta) with prod |1 - conj(b_i) z|^2 - prod |z - b_i|^2
    = r^{n-1} (r - 1/r) Q, u = (r + 1/r)/2: the anti reduction of
    `_blaschke_poly`.  Q = -U_{n-2}(u) for principal data."""
    m = data.n - 1
    w = reduce_coeffs(_blaschke_poly(data, theta), m, ReciprocalClass.ANTI)
    U = cheb_table(m - 1, u, second=True)
    return sum(w[k] * U[k] for k in range(m))


def metric_determinant(data: KobayashiData, u, theta) -> np.ndarray:
    """Determinant of the induced metric of f~ in (u, theta), in closed form.

    On the disk the metric is |omega|^2 (1 - |g|^2)^2 |dz|^2, which in
    (u, theta) gives

        16 (u^2 - 1) Q^4 / (4^{2n} prod_j (u - cos(theta - alpha_j))^2)

    with Q from `_fold_factor`.  It continues across the fold: space-like for
    u > 1, time-like for u < 1, degenerate where Q vanishes.  The Gram
    determinant of the derivative vectors cannot stand in for it near the
    boundary, where both vectors are null to more digits than a double holds.
    """
    u = np.asarray(u, dtype=float)
    theta = np.asarray(theta, dtype=float)
    Q = _fold_factor(data, u, theta)
    D = u[..., None] - np.cos(theta[..., None] - np.asarray(data.angular.alphas))
    return 16.0 * (u * u - 1.0) * Q**4 / (4.0 ** (2 * data.n) * np.prod(D, axis=-1) ** 2)


def metric_sign(data: KobayashiData, u, theta) -> np.ndarray:
    """Sign of `metric_determinant`: 1 space-like, -1 time-like, 0 light-like.

    The determinant itself (about u^-6 far out) overflows or underflows at
    large u, its sign never: for |u| > 1 the point lies in the open disk,
    where |g| < 1 keeps Q away from 0, so the sign is 1 there; for |u| < 1
    it is -1 off the zeros of Q, and 0 at |u| = 1.
    """
    a = np.abs(np.asarray(u, dtype=float))
    Q = _fold_factor(data, np.where(a < 1.0, u, 0.0), theta)
    return np.where(a > 1.0, 1.0, np.where((a < 1.0) & (Q != 0), -1.0, 0.0))


# ---------------------------------------------------------------------------
# Newton inversion of (x1, x2)
# ---------------------------------------------------------------------------

class GraphInverter:
    """Damped Newton solver for (x1, x2)(u, theta) = (x, y), in two charts.

    Valid when the graph condition is not violated.  The end chart (l, theta),
    u = maxcos(theta) + e^l, removes the domain constraint and keeps the
    boundary logarithm exact.  Far out between two end directions both their
    clearances fall below what a double theta resolves; the corner chart
    (p, q) = (log D_a, log D_b) of each sector between simple ends a, b of gap
    below pi (`SurfaceEvaluator.corner`) reaches there.
    """

    L_CAP = 30.0
    DEEP = -25.0  # corner seeds with min(p, q) below this skip the end chart

    def __init__(self, data: KobayashiData):
        report = check_conditions(data.angular)
        if report.graph_condition is Condition.VIOLATED:
            raise PreconditionUnmet(
                f"graph condition violated: max angular gap "
                f"{max(data.angular.gaps()):.6f} exceeds pi/(n-1) = "
                f"{math.pi / (data.n - 1):.6f}")
        if data.n > 2 and not data.angular.is_distinct:
            raise PreconditionUnmet(
                "entire-graph certification needs distinct angles for n > 2")
        self.data = data
        self.evaluator = SurfaceEvaluator(data)
        self.angular = data.angular
        l, th = np.meshgrid((-2.0, -0.5, 0.7, 2.5, 7.0, 14.0, 21.0),
                            np.linspace(0.0, TWO_PI, 64, endpoint=False), indexing="ij")
        self._seed_l, self._seed_th = l.ravel(), th.ravel()
        vals, _, _ = self._chart_values(self._seed_l, self._seed_th, partials=False)
        self._seed_xy = vals[1:, :]
        # the corner sectors, and on each the affine model (x1, x2) = c + J (p, q)
        # up to O(e^p, e^q): the chart and its Jacobian where e^p = e^q = 0;
        # its seeds are clipped to e^p, e^q <= sin g, inside the chart
        b, m = self.evaluator.betas, np.array(self.angular.multiplicities) == 1
        g = (np.roll(b, -1) - b) % TWO_PI / 2
        sec = np.flatnonzero(m & np.roll(m, -1) & (2 * g < math.pi - _GAP_TOL))
        self._sec = np.array([sec, (sec + 1) % b.size]).T
        p0 = np.full(sec.size, -800.0)
        _, v, dp, dq = self.evaluator.corner(*self._sec.T, p0, p0, 1)
        det = dp[1] * dq[2] - dq[1] * dp[2]
        self._affine = (v[1:] - (dp[1:] + dq[1:]) * p0,  # c, J^-1, log sin g
                        np.array([[dq[2], -dq[1]], [-dp[2], dp[1]]]) / det,
                        np.log(np.sin(g[sec]))[:, None])

    def _chart_values(self, l, th, partials=True):
        """Values of f~ and its (d/dl, d/dtheta) in the end chart."""
        l = np.asarray(l, dtype=float)
        th = np.asarray(th, dtype=float)
        delta = np.exp(l)
        vals, dd, dth = self.evaluator.jet(delta, th, order=1 if partials else 0)
        return (vals, dd * delta, dth) if partials else (vals, dd, dth)

    def _to_chart(self, u, th):
        u = np.asarray(u, dtype=float).ravel()
        th = np.asarray(th, dtype=float).ravel()
        return np.log(np.maximum(u - self.angular.max_cos(th), 1e-300)), th

    def _unkink(self, th, eps=3e-9):
        """Shift theta off the boundary corners, where the chart Jacobian
        is one-sided and can poison the Newton direction."""
        g = np.asarray(self.angular.gammas)
        d = np.abs((th[:, None] - g[None, :] + math.pi) % TWO_PI - math.pi)
        out = th.copy()
        out[(d < 1e-9).any(axis=1)] += eps
        return out

    def _from_chart(self, l, th):
        return self.angular.max_cos(th) + np.exp(l), th % TWO_PI

    def _nearest_seed(self, X, Y):
        """Index of the seed-bank point nearest each target, and its distance."""
        d2 = (self._seed_xy[0][:, None] - X[None, :]) ** 2 \
            + (self._seed_xy[1][:, None] - Y[None, :]) ** 2
        best = np.argmin(d2, axis=0)
        return best, np.sqrt(d2[best, np.arange(X.size)])

    def newton_batch(self, X, Y, u0, th0, maxiter: int = 60, atol: float = 1e-13,
                     chart: bool = False):
        """Solve for every target in the end chart.

        Iterates on a node while its residual exceeds ``atol * scale``, with
        scale = 1 + max(|x|, |y|), for at most ``maxiter`` sweeps; the
        returned ``converged`` flag is the looser test residual <= 1e-10 *
        scale.  A node is frozen once a sweep leaves it unchanged (its line
        search accepts no step and it sits on no corner to shove off): a
        sweep is a function of the node's own chart point, so every later
        sweep would repeat it.

        Nodes do not interact, so a batch answers as its targets would one
        by one, up to rounding: numpy computes a one-column matrix product
        with BLAS gemv, which rounds unlike the gemm of wider batches, so a
        node that sweeps alone can end a few ulps from where it would end in
        company.

        Returns (u, theta, lambda, converged, residual), with `chart` the
        chart point (l, theta) in place of (u, theta); the residual is
        measured in the numerically exact boundary chart.
        """
        target = np.array([np.ravel(X), np.ravel(Y)], dtype=float)
        l, th = self._to_chart(u0, th0)
        th = self._unkink(th)

        vals, _, _ = self._chart_values(l, th, partials=False)
        R = vals[1:] - target
        rn = np.hypot(R[0], R[1])

        # fall back to the seed bank wherever the warm start is poor
        best, srn = self._nearest_seed(*target)
        swap = srn < rn
        if swap.any():
            l[swap] = self._seed_l[best[swap]]
            th[swap] = self._seed_th[best[swap]]
            vals, _, _ = self._chart_values(l, th, partials=False)
        l, th, *res = self._newton(lambda k, *c: self._chart_values(*c), l, th, vals, target,
                                   maxiter, atol, cap=self.L_CAP, shove=self._unkink)
        return ((l, th) if chart else self._from_chart(l, th)) + tuple(res)

    def _newton(self, chart, c1, c2, vals, target, maxiter, atol, cap=np.inf, shove=None):
        """The damped Newton loop of both charts, on chart(k, c1, c2, partials) =
        (f~, d f~/dc1, d f~/dc2) at nodes k; c1 is capped at `cap`, and `shove`
        moves nodes no step improves.  Returns (c1, c2, lambda, ok, residual)."""
        scale = 1.0 + np.abs(target).max(axis=0)
        R = vals[1:] - target
        rn = np.hypot(R[0], R[1])
        frozen = np.zeros(c1.size, dtype=bool)
        for _ in range(maxiter):
            active = (rn > atol * scale) & ~frozen
            if not active.any():
                break
            ca, cb = c1[active], c2[active]
            _, d1, d2 = chart(active, ca, cb)
            det = d1[1] * d2[2] - d2[1] * d1[2]
            Ra = R[:, active]
            # a singular Jacobian gives inf/NaN steps, which the line
            # search below rejects
            with np.errstate(divide="ignore", invalid="ignore"):
                s1 = -(d2[2] * Ra[0] - d2[1] * Ra[1]) / det
                s2 = -(-d1[2] * Ra[0] + d1[1] * Ra[1]) / det
                step = np.hypot(s1, s2)
                shrink = np.minimum(1.0, 8.0 / np.maximum(step, 1e-300))
                s1 *= shrink
                s2 *= shrink
            alpha = np.ones_like(s1)
            best1, best2 = ca.copy(), cb.copy()
            best_rn = rn[active].copy()
            undone = np.ones(s1.shape, dtype=bool)
            for _try in range(40):
                t1 = np.minimum(ca + alpha * s1, cap)
                t2 = cb + alpha * s2
                v, _, _ = chart(active, t1, t2, False)
                rr = v[1:] - target[:, active]
                crn = np.hypot(rr[0], rr[1])
                improved = undone & (crn <= best_rn * (1 - 1e-4 * alpha))
                best1[improved] = t1[improved]
                best2[improved] = t2[improved]
                best_rn[improved] = crn[improved]
                undone &= ~improved
                if not undone.any():
                    break
                alpha[undone] /= 2.0
            if shove is not None:
                # points that accepted no step are usually parked on a
                # corner; shove them off it and let the next sweep retry
                best2[undone] = shove(best2[undone], eps=1e-7)
            # those left where they were would repeat this very sweep
            frozen[active] = undone & (best2 == cb)
            c1[active], c2[active] = best1, best2
            vals, _, _ = chart(slice(None), c1, c2, False)
            R = vals[1:] - target
            rn = np.hypot(R[0], R[1])
        return c1, c2, vals[0], rn <= 1e-10 * scale, rn

    def _corner_seed(self, X, Y):
        """The affine model's solution on every sector, ranked per target by
        the residual the chart leaves there: (a, b, p, q), each (sectors, n),
        p = q = NaN where a seed is not finite."""
        n, target = X.size, np.array([X, Y])[:, None, :]
        c, Jinv, cap = self._affine
        p, q = np.minimum(np.einsum("ijs,jsn->isn", Jinv, target - c[:, :, None]), cap)
        with np.errstate(all="ignore"):
            v = self.evaluator.corner(*np.repeat(self._sec.T, n, axis=1), p.ravel(), q.ravel())[1]
            rn = np.hypot(*(v[1:].reshape((2,) + p.shape) - target))
        k = np.argsort(np.where(rn >= 0, rn, np.inf), axis=0, kind="stable")
        p, q = (np.where(np.isfinite(np.take_along_axis(rn, k, 0)), np.take_along_axis(m, k, 0),
                         np.nan) for m in (p, q))
        return self._sec[k, 0], self._sec[k, 1], p, q

    def _cold_start(self, X, Y):
        best, _ = self._nearest_seed(*(np.asarray(v, dtype=float).ravel() for v in (X, Y)))
        return self._from_chart(self._seed_l[best], self._seed_th[best])

    def _solve(self, X, Y):
        """`invert`'s dispatch, batched.  Returns (u, theta, lambda,
        converged, residual, (a, b, s, t)): the corner point (p, q) = (s, t)
        of sector (a, b), or with a = -1 the end point (l, theta)."""
        X, Y = (np.asarray(v, dtype=float).ravel() for v in (X, Y))
        sa, sb, p, q = self._corner_seed(X, Y)
        out = np.full((9, X.size), np.nan)  # u, theta, lambda, ok, residual, s, t, a, b
        out[3], out[7:] = 0.0, -1.0
        end = np.flatnonzero(~(np.minimum(p, q)[:1] < self.DEEP).any(axis=0))
        if end.size:
            l, th, *res = self.newton_batch(X[end], Y[end], *self._cold_start(X[end], Y[end]),
                                            chart=True)
            out[:7, end] = self._from_chart(l, th) + tuple(res) + (l, th)
        for r in range(len(p)):  # the sectors in the order of their seeds
            k = np.flatnonzero((out[3] == 0.0) & ~np.isnan(p[r]))
            if not k.size:
                break
            ka, kb = sa[r, k], sb[r, k]
            v = self.evaluator.corner(ka, kb, p[r, k], q[r, k])[1]
            pk, qk, *res = self._newton(
                lambda i, p, q, d=True: self.evaluator.corner(ka[i], kb[i], p, q, int(d))[1:],
                p[r, k], q[r, k], v, np.array([X[k], Y[k]]), 60, 1e-13)
            thk = self.evaluator.corner(ka, kb, pk, qk)[0]
            near = np.where(pk <= qk, ka, kb)  # u formed there, as `_from_chart` does
            uk = np.cos(thk - self.evaluator.betas[near]) + np.exp(np.minimum(pk, qk))
            take = ~(res[2] >= out[4, k])
            out[:, k[take]] = np.array([uk, thk % TWO_PI, *res, pk, qk, ka, kb])[:, take]
        u, th, lam, ok, rn, s, t, a, b = out
        return u, th, lam, ok == 1.0, rn, (a.astype(np.int64), b.astype(np.int64), s, t)

    def invert(self, x: float, y: float) -> tuple[float, float, float]:
        """Unique preimage (u, theta) of (x, y), plus the graph height lambda.

        A target whose best corner seed has min(p, q) < DEEP = -25 is solved
        in the corner chart, any other in the end chart from the seed bank,
        then in the corner chart if that misses; `NoConvergence` carries the
        residual when both miss.  u = cos(theta - beta) + e^l is formed at
        the chart's nearest end: below a clearance of about 1e-8 it no longer
        reproduces (x, y), though the chart point it came from does.
        """
        u, th, lam, ok, rn, _ = self._solve([x], [y])
        if not ok[0]:
            raise NoConvergence(f"inversion failed at ({x}, {y})", x=x, y=y,
                                last=(float(u[0]), float(th[0])), residual=float(rn[0]))
        return float(u[0]), float(th[0]), float(lam[0])

    def invert_grid(self, xs, ys):
        """Row-wise warm-started grid inversion: the one loop that solves
        grid rows.

        The first row starts from the seed bank, every later row from the
        row before.  The nodes a row's Newton misses get one retry, batched,
        through `invert`'s dispatch.  A node that retry solves reports
        residual exactly 0.0, the mark of a rescued node; a node it misses
        keeps the row's result and converged = False.

        Returns (u, theta, lam, converged, residual) arrays of shape
        (len(ys), len(xs)).
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        out = np.empty((5, ys.size, xs.size))
        u_row = th_row = None
        for i, y in enumerate(ys):
            yy = np.full(xs.size, y)
            if u_row is None:
                u_row, th_row = self._cold_start(xs, yy)
            u_row, th_row, lam, ok, rn = self.newton_batch(xs, yy, u_row, th_row)
            miss = np.nonzero(~ok)[0]
            if miss.size:
                u, th, lam_m, ok_m, _, _ = self._solve(xs[miss], yy[miss])
                hit = miss[ok_m]
                u_row[hit], th_row[hit], lam[hit] = u[ok_m], th[ok_m], lam_m[ok_m]
                ok[hit] = True
                rn[hit] = 0.0
            out[:, i] = u_row, th_row, lam, ok, rn
        return out[0], out[1], out[2], out[3] == 1.0, out[4]


def graph_derivatives(inverter: GraphInverter, u, th, scale=(1.0, 1.0, 1.0)):
    """Analytic gradient, Hessian and ZMC residual of the graph height
    lambda at preimages (u, theta), from one order-2 `jet` at their chart
    points.

    In a chart p with J = d(x1, x2)/dp, implicit differentiation of
    x0 = lambda(x1, x2) gives grad lambda = J^-T grad_p x0 and the Hessian
    J^-T (Hess_p x0 - lambda_x Hess_p x1 - lambda_y Hess_p x2) J^-1.  With
    `scale`, lambda is the graph t = scale[0] x0 over (scale[1] x1,
    scale[2] x2).  Returns (grad, hess, resid, finite), of shapes (2,),
    (2, 2) and () + u.shape; finite is False where J is singular or a
    result is not finite.
    """
    shape, u = np.shape(u), np.ravel(u)
    l, t = inverter._to_chart(u, th)
    delta = np.exp(l)
    with np.errstate(all="ignore"):
        _, Fd, Ft, Fdd, Fdt, Ftt = inverter.evaluator.jet(delta, t, order=2)
        # the chart (l, theta), delta = e^l
        F = [delta * Fd, Ft, delta * delta * Fdd + delta * Fd, delta * Fdt, Ftt]
        # towards p_infinity (the origin's node sits at the l cap) d/dl sums
        # nearly cancelling 1/D_j; so for u > 2 the chart is the disk point
        # z = p1 + i p2 of (u, theta), where f~ = Re of the integral of phi
        far = u > 2.0
        z = np.exp(1j * t[far]) / (u[far] + np.sqrt(u[far] ** 2 - 1.0))
        f1 = np.array([phi(z) for phi in inverter.data.phi])
        f2 = np.array([(phi.num.deriv()(z) - phi(z) * phi.den.deriv()(z)) / phi.den(z)
                       for phi in inverter.data.phi])
        for Fk, Dk in zip(F, (f1.real, -f1.imag, f2.real, -f2.imag, -f2.real)):
            Fk[:, far] = Dk
        F1, F2, F11, F12, F22 = F
        det = F1[1] * F2[2] - F2[1] * F1[2]
        Jinv = np.array([[F2[2], -F2[1]], [-F1[2], F1[1]]]) / det  # [p, i]
        grad = np.einsum("pin,pn->in", Jinv, np.array([F1[0], F2[0]]))
        Hp = np.array([[F11, F12], [F12, F22]])
        M = Hp[:, :, 0] - grad[0] * Hp[:, :, 1] - grad[1] * Hp[:, :, 2]
        hess = np.einsum("pin,pqn,qjn->ijn", Jinv, M, Jinv)
        # display_i = scale_i raw_i
        s = np.array(scale[1:])
        grad *= scale[0] / s[:, None]
        hess *= scale[0] / np.outer(s, s)[:, :, None]
        (lx, ly), H = grad, hess
        resid = (1 - ly**2) * H[0, 0] + 2 * lx * ly * H[0, 1] + (1 - lx**2) * H[1, 1]
    finite = np.isfinite(grad).all(axis=0) & np.isfinite(resid)
    return tuple(a.reshape(a.shape[:-1] + shape) for a in (grad, hess, resid, finite))


def graph_table(inverter: GraphInverter, xs, ys, h: float | None = None):
    """lambda(x, y) over a grid, with the gradient and ZMC residual of
    `graph_derivatives` at the nodes `invert_grid` solves; `h` is ignored
    (accepted for one release).  Returns (lam, lx, ly, resid, ok), each
    shaped (len(ys), len(xs)); ok is False where a result is not finite.
    """
    u, th, lam, ok, _ = inverter.invert_grid(xs, ys)
    grad, _, resid, finite = graph_derivatives(inverter, u, th)
    return lam, grad[0], grad[1], resid, ok & finite


# ---------------------------------------------------------------------------
# collision sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Collision:
    p1: tuple[float, float]
    p2: tuple[float, float]
    distance: float


def _chart(u, th):
    """Compactified parameter chart: identifies the p_infinity funnel."""
    return np.exp(1j * th) / (u + 2.0)


_FORWARD = ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1))
_CELL_CAP = 800


def _near_pairs(plane, mu, local, cell, tol_param):
    """Candidate pairs (I, J) of grid points, in enumeration order; the
    rule is stated in `injectivity_scan`.  plane is (2, N), mu and local
    are (N,)."""
    keys = np.floor(plane / cell).astype(np.int64)
    ky = keys[1] - keys[1].min() + 1  # keeps ky - 1 from wrapping a column
    width = int(ky.max()) + 2
    packed = (keys[0] - keys[0].min()) * width + ky
    order = np.argsort(packed, kind="stable")  # by cell, then by index
    cells, start, count = np.unique(packed[order], return_index=True,
                                    return_counts=True)
    first = order[start]  # each cell's first point in grid order
    cid = np.repeat(np.arange(cells.size), count)
    # the cap: a cell of more than 800 points keeps every step-th one
    step = (count + _CELL_CAP - 1) // _CELL_CAP
    keep = (np.arange(order.size) - start[cid]) % step[cid] == 0
    members, cid = order[keep], cid[keep]
    count = np.bincount(cid, minlength=cells.size)
    start = np.cumsum(count) - count
    mx, my, mm, ml = plane[0, members], plane[1, members], mu[members], local[members]
    mr, mi = mm.real.copy(), mm.imag.copy()
    del keys, ky, packed, order, keep  # set-up arrays, before the sweep

    # within a cell, positions in `members` follow the point indices, so
    # they order a and b as the indices do.  Squared distances with 1e-9
    # slack are only a prefilter; the exact tests run on its survivors.
    near2 = cell * cell * (1.0 + 1e-9)
    far2 = tol_param * tol_param * (1.0 - 1e-9)
    major, PA, PB = [], [], []
    for o, (oi, oj) in enumerate(_FORWARD):
        want = cells[cid] + oi * width + oj
        nb = np.minimum(np.searchsorted(cells, want), cells.size - 1)
        n_b = np.where(cells[nb] == want, count[nb], 0)
        # a-points by neighbour count, descending: step k is a prefix
        srt = np.argsort(-n_b, kind="stable")
        b0 = start[nb[srt]]
        ax, ay, ar, ai = mx[srt], my[srt], mr[srt], mi[srt]
        sizes = np.searchsorted(-n_b[srt], -np.arange(n_b.max()), side="left")
        del want, nb, n_b
        for k, m in enumerate(sizes):
            b = b0[:m] + k
            dx = ax[:m] - mx[b]
            dy = ay[:m] - my[b]
            dr = ar[:m] - mr[b]
            di = ai[:m] - mi[b]
            hit = np.flatnonzero((dx * dx + dy * dy < near2)
                                 & (dr * dr + di * di > far2))
            pa, pb = srt[hit], b[hit]
            d = np.hypot(mx[pa] - mx[pb], my[pa] - my[pb])
            s = np.maximum(ml[pa], ml[pb])
            ok = (d < cell) & (np.abs(mm[pa] - mm[pb]) > tol_param) \
                & (s > 0.15 * cell) & (d < 2.5 * s)
            if o == 0:
                ok &= pa < pb
            pa, pb = pa[ok], pb[ok]
            major.append(first[cid[pa]] * len(_FORWARD) + o)
            PA.append(pa)
            PB.append(pb)
    major, pa, pb = (np.concatenate(c) for c in (major, PA, PB))
    pick = np.lexsort((pb, pa, major))
    return members[pa[pick]], members[pb[pick]]


def _dedupe_pairs(mu, I, J, h):
    """First pair, in the given order, of each unordered pair of chart cells:
    mu rounded to a multiple of h, ties to even."""
    # one id per point; two complex numbers are equal when both parts are
    q = np.rint(mu.real / h) + 1j * np.rint(mu.imag / h)
    _, key = np.unique(q, return_inverse=True)
    lo, hi = np.minimum(key[I], key[J]), np.maximum(key[I], key[J])
    _, first = np.unique(lo * (key.max() + 1) + hi, return_index=True)
    first.sort()
    return I[first], J[first]


def injectivity_scan(data: KobayashiData, grid_resolution: int = 200,
                     u_max: float = 3.0, margin: float = 0.01,
                     tol_param: float = 0.05,
                     max_reports: int = 200) -> list[Collision]:
    """Sampled self-intersection detection over the extension domain.

    Grid points that land close in the (x1, x2) plane with well-separated
    parameters seed a Gauss-Newton solve of f(q1) = f(q2); confirmed
    coincidences are genuine crossings up to solver precision, but a miss
    only means the grid never straddled one.  Sampling evidence, not a
    certification.  u-samples cluster quadratically towards the boundary,
    where the interesting geometry lives.

    Candidates: with `local` the plane step from a grid point to its u and
    theta neighbours, the points are binned into square cells of side
    2.5 * median(local); a cell of more than 800 points keeps every k-th,
    k = ceil(size / 800).  A point pairs with the points of its own cell
    and of the 4 forward cells (1, 0), (0, 1), (1, 1), (1, -1) when their
    plane distance d < cell, max(local) > 0.15 cell, d < 2.5 max(local)
    and their chart points mu = e^(i theta) / (u + 2) lie more than
    `tol_param` apart.  Pairs are enumerated by the first appearance of the
    first point's cell in grid order, then by offset, then by first point,
    then by second point.  In that order, the first pair of each unordered
    pair of chart cells (mu rounded to multiples of tol_param / 2) seeds a
    Gauss-Newton solve.  A confirmed crossing is reported unless both its
    chart points lie within tol_param / 2 of an earlier report's.

    Raises `InputError` for a grid that `domain.sample_edges` rejects and
    for a tol_param that is not positive and finite.
    """
    if not (math.isfinite(tol_param) and tol_param > 0):
        raise InputError(f"tol_param must be positive and finite, got {tol_param}")
    res = grid_resolution
    th, lo = sample_edges(data.angular, res, margin, u_max)
    ev = SurfaceEvaluator(data)
    s = (np.arange(res) / (res - 1.0)) ** 2
    u = lo[None, :] + s[:, None] * (u_max - lo)[None, :]
    U = u.ravel()
    TH = np.tile(th, res)
    vals = ev.eval_batch(U, TH)  # (3, N)
    plane = vals[1:]
    mu = _chart(U, TH)

    # local plane-resolution of the grid at each sample (step to u/theta neighbors)
    px = plane[0].reshape(res, res)
    py = plane[1].reshape(res, res)
    su_ = np.hypot(np.diff(px, axis=0), np.diff(py, axis=0))
    sth_ = np.hypot(px - np.roll(px, -1, axis=1), py - np.roll(py, -1, axis=1))
    local = np.maximum(np.pad(su_, ((0, 1), (0, 0)), mode="edge"), sth_).ravel()
    cell = 2.5 * float(np.median(local))

    I, J = _near_pairs(plane, mu, local, cell, tol_param)
    if not I.size:
        return []
    h = 0.5 * tol_param
    I, J = _dedupe_pairs(mu, I, J, h)

    # Gauss-Newton on f(q2) - f(q1) = 0 over the four parameters
    u1, t1 = U[I].copy(), TH[I].copy()
    u2, t2 = U[J].copy(), TH[J].copy()
    alive = np.ones(I.size, dtype=bool)

    def residual(a1, b1, a2, b2):
        return ev.eval_batch(a2, b2) - ev.eval_batch(a1, b1)

    F = residual(u1, t1, u2, t2)
    rn = np.linalg.norm(F, axis=0)
    for _ in range(30):
        todo = alive & (rn > 1e-12)
        if not todo.any():
            break
        idx = np.nonzero(todo)[0]
        d1u, d1t = ev.partials(u1[idx], t1[idx])
        d2u, d2t = ev.partials(u2[idx], t2[idx])
        Jm = np.stack([-d1u, -d1t, d2u, d2t], axis=1)  # (3, 4, n)
        M = np.einsum("akn,bkn->nab", Jm, Jm)
        try:
            y = np.linalg.solve(M, F[:, idx].T[..., None])[..., 0]  # (n, 3)
        except np.linalg.LinAlgError:
            alive[idx] = False
            break
        step = -np.einsum("akn,na->kn", Jm, y)  # (4, n)
        alpha = np.ones(idx.size)
        best = (u1[idx].copy(), t1[idx].copy(), u2[idx].copy(), t2[idx].copy())
        best_rn = rn[idx].copy()
        undone = np.ones(idx.size, dtype=bool)
        for _try in range(12):
            c1u = u1[idx] + alpha * step[0]
            c1t = t1[idx] + alpha * step[1]
            c2u = u2[idx] + alpha * step[2]
            c2t = t2[idx] + alpha * step[3]
            inside = (c1u > np.asarray(data.angular.max_cos(c1t)) + 1e-12) \
                & (c2u > np.asarray(data.angular.max_cos(c2t)) + 1e-12) \
                & (c1u < 1e6) & (c2u < 1e6) \
                & (np.abs(_chart(c1u, c1t) - _chart(c2u, c2t)) > 0.5 * tol_param)
            crn = np.full(idx.size, np.inf)
            if inside.any():
                rr = residual(c1u[inside], c1t[inside], c2u[inside], c2t[inside])
                crn[inside] = np.linalg.norm(rr, axis=0)
            improved = undone & (crn < best_rn)
            for arr, cand in zip(best, (c1u, c1t, c2u, c2t)):
                arr[improved] = cand[improved]
            best_rn[improved] = crn[improved]
            undone &= ~improved
            if not undone.any():
                break
            alpha[undone] /= 2.0
        alive[idx[undone]] = False
        u1[idx], t1[idx], u2[idx], t2[idx] = best
        rn[idx] = best_rn
        F[:, idx] = residual(u1[idx], t1[idx], u2[idx], t2[idx])

    f1 = ev.eval_batch(u1, t1)
    scale = 1.0 + np.abs(f1).max(axis=0)
    confirmed = alive & (rn <= 1e-9 * scale) \
        & (np.abs(_chart(u1, t1) - _chart(u2, t2)) > tol_param)

    out: list[Collision] = []
    seen: list[tuple[complex, complex]] = []
    for k in np.nonzero(confirmed)[0]:
        m1, m2 = _chart(u1[k], t1[k]), _chart(u2[k], t2[k])
        dup = False
        for a, b in seen:
            if (abs(m1 - a) < h and abs(m2 - b) < h) or \
               (abs(m1 - b) < h and abs(m2 - a) < h):
                dup = True
                break
        if dup:
            continue
        seen.append((m1, m2))
        out.append(Collision((float(u1[k]), float(t1[k])),
                             (float(u2[k]), float(t2[k])), float(rn[k])))
        if len(out) >= max_reports:
            break
    return out


# ---------------------------------------------------------------------------
# aggregate classification
# ---------------------------------------------------------------------------

def umbilics(data: KobayashiData) -> tuple[tuple[complex, int], ...]:
    """Zeros of dg inside the open unit disk, with multiplicities."""
    N = dg_numerator(data)
    if N.degree == 0:
        return ()
    roots = N.roots()
    inside = [r for r in roots if abs(r) < 1.0 - 1e-9]
    return tuple(cluster_roots(inside, 1e-6))


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    principal: bool
    fold: FoldTypeReport
    period_residual: float
    conditions: ConditionReport
    ends: tuple[tuple[complex, int], ...]
    hopf_orders: tuple[int, int]
    entire_graph_certified: bool


def classify(data: KobayashiData) -> ClassificationReport:
    """Aggregate report: fold conditions, periods, gap criteria, umbilics, ends."""
    fold = verify_fold_type(data)
    period = period_check(data)
    cond = check_conditions(data.angular)
    cond = replace(cond, umbilics=umbilics(data))
    if not data.principal:
        # the rotation trick behind the witness construction needs b = 0
        cond = replace(cond, witness=None, immersion_witness=None)
    certified = (fold.is_fold_type and period < 1e-10 and data.principal
                 and cond.graph_condition is not Condition.VIOLATED
                 and (data.angular.is_distinct or data.n == 2))
    return ClassificationReport(
        n=data.n,
        principal=data.principal,
        fold=fold,
        period_residual=period,
        conditions=cond,
        ends=data.ends,
        hopf_orders=hopf_zero_pole_orders(data),
        entire_graph_certified=certified,
    )
