"""Graph / immersion criteria, Newton inversion, analytic PDE residuals, scans.

The two gap conditions on the angular data decide everything: gaps up to
pi/(n-1) make (x1, x2) a diffeomorphism onto the plane (an entire graph),
gaps up to 2 pi/(n-1) still give an immersion.  Violations are witnessed
by explicit critical points where the Chebyshev factors vanish.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npoly

from .angular import TWO_PI, AngularData
from .errors import InputError, NoConvergence, OutsideDomain, PreconditionUnmet
from .polycheb import cheb_U, cheb_U_table, cluster_roots, reduce_anti_coeffs
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

def _domain_product(angular: AngularData, u: float, theta: float) -> float:
    D = u - np.cos(theta - np.asarray(angular.alphas))
    if np.min(D) <= 0:
        raise OutsideDomain(f"({u}, {theta}) outside the extension domain")
    return float(np.prod(D))


def jacobian_x1x2(data: KobayashiData, u: float, theta: float) -> float:
    """d(x1, x2)/d(u, theta) of the extension.

    Principal type reduces to U_{2n-3}(u) over 2^{2n-1} prod (u - cos);
    general type uses the degree-(2n-3) polynomial obtained by reducing
    prod |conj(b) z - 1|^4 - prod |z - b|^4.
    """
    n = data.n
    prod = _domain_product(data.angular, u, theta)
    if data.principal:
        return float(cheb_U(2 * n - 3, u)) / (2 ** (2 * n - 1) * prod)
    plus = np.array([1.0])
    minus = np.array([1.0])
    for b in data.blaschke.b:
        mid = -2.0 * (b.conjugate() * cmath.exp(1j * theta)).real
        f1 = np.array([1.0, mid, abs(b) ** 2])
        f2 = np.array([abs(b) ** 2, mid, 1.0])
        plus = npoly.polymul(plus, npoly.polymul(f1, f1))
        minus = npoly.polymul(minus, npoly.polymul(f2, f2))
    size = 4 * (n - 1) + 1
    coeffs = np.zeros(size)
    coeffs[: plus.size] += plus.real
    coeffs[: minus.size] -= minus.real
    w = reduce_anti_coeffs(coeffs, 2 * n - 2)
    Y = sum(w[i] * cheb_U(i, u) for i in range(len(w)))
    return float(-Y) / (4**n * prod)


def jacobians_x0(data: KobayashiData, u: float, theta: float) -> tuple[float, float]:
    """(d(x0,x1)/d(u,theta), d(x0,x2)/d(u,theta)) for principal data."""
    if not data.principal:
        raise PreconditionUnmet("x0 Jacobian closed forms hold for principal type")
    n = data.n
    prod = _domain_product(data.angular, u, theta)
    common = float(cheb_U(n - 2, u)) / (2 ** (2 * n - 2) * prod)
    k = n - 1
    return common * math.sin(k * theta), -common * math.cos(k * theta)


def metric_determinant(data: KobayashiData, u, theta) -> np.ndarray:
    """Determinant of the induced metric of f~ in (u, theta), in closed form.

    On the disk the metric is |omega|^2 (1 - |g|^2)^2 |dz|^2, and
    prod |1 - conj(b_i) z|^2 - prod |z - b_i|^2 = r^{n-1} (r - 1/r) Q with
    Q = sum_k (p_{m+k} - p_{m-k}) U_{k-1}(u), where p are the coefficients
    of prod (1 - 2 Re(conj(b_i) e^{i theta}) r + |b_i|^2 r^2) and m = n - 1
    (Q = -U_{n-2}(u) for principal data).  In (u, theta) this gives

        16 (u^2 - 1) Q^4 / (4^{2n} prod_j (u - cos(theta - alpha_j))^2),

    which continues across the fold: space-like for u > 1, time-like for
    u < 1, degenerate where Q vanishes.  The Gram determinant of the
    derivative vectors cannot stand in for it near the boundary, where both
    vectors are null to more digits than a double holds.
    """
    u = np.asarray(u, dtype=float)
    theta = np.asarray(theta, dtype=float)
    m = data.n - 1
    p = np.zeros((2 * m + 1,) + u.shape)
    p[0] = 1.0
    for b in data.blaschke.b:
        c = (b.conjugate() * np.exp(1j * theta)).real
        prev = p.copy()
        p[1:] -= 2.0 * c * prev[:-1]
        p[2:] += abs(b) ** 2 * prev[:-2]
    U = cheb_U_table(m - 1, u)
    Q = sum((p[m + k] - p[m - k]) * U[k - 1] for k in range(1, m + 1))
    D = u[..., None] - np.cos(theta[..., None] - np.asarray(data.angular.alphas))
    return 16.0 * (u * u - 1.0) * Q**4 / (4.0 ** (2 * data.n) * np.prod(D, axis=-1) ** 2)


# ---------------------------------------------------------------------------
# Newton inversion of (x1, x2)
# ---------------------------------------------------------------------------

class GraphInverter:
    """Damped Newton solver for (x1, x2)(u, theta) = (x, y).

    Valid when the graph condition is not violated.  Internally works in
    the chart (l, theta) with u = maxcos(theta) + e^l, which removes the
    domain constraint, keeps the boundary logarithm exact, and makes the
    map well conditioned arbitrarily close to the boundary.
    """

    L_CAP = 30.0

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
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        seeds_l, seeds_th = [], []
        for dl in (-2.0, -0.5, 0.7, 2.5, 7.0, 14.0, 21.0):
            seeds_l.append(np.full(th.size, dl))
            seeds_th.append(th)
        self._seed_l = np.concatenate(seeds_l)
        self._seed_th = np.concatenate(seeds_th)
        vals, _, _ = self._chart_values(self._seed_l, self._seed_th, partials=False)
        self._seed_xy = vals[1:, :]

    def _chart_values(self, l, th, partials=True):
        """Values of f~ and (d/dl, d/dtheta) of (x1, x2) in the chart."""
        l = np.asarray(l, dtype=float)
        th = np.asarray(th, dtype=float)
        delta = np.exp(l)
        vals, dd, dth = self.evaluator.jet(delta, th, order=1 if partials else 0)
        if not partials:
            return vals, None, None
        return vals, (dd * delta)[1:], dth[1:]

    def _to_chart(self, u, th):
        u = np.asarray(u, dtype=float).ravel()
        th = np.asarray(th, dtype=float).ravel()
        _, mc = self.evaluator.active_end(th)
        return np.log(np.maximum(u - mc, 1e-300)), th

    def _unkink(self, th, eps=3e-9):
        """Shift theta off the boundary corners, where the chart Jacobian
        is one-sided and can poison the Newton direction."""
        g = np.asarray(self.angular.gammas)
        d = np.abs((th[:, None] - g[None, :] + math.pi) % TWO_PI - math.pi)
        out = th.copy()
        out[(d < 1e-9).any(axis=1)] += eps
        return out

    def _from_chart(self, l, th):
        _, mc = self.evaluator.active_end(th)
        return mc + np.exp(l), th % TWO_PI

    def _nearest_seed(self, X, Y):
        """Index of the seed-bank point nearest each target, and its distance."""
        d2 = (self._seed_xy[0][:, None] - X[None, :]) ** 2 \
            + (self._seed_xy[1][:, None] - Y[None, :]) ** 2
        best = np.argmin(d2, axis=0)
        return best, np.sqrt(d2[best, np.arange(X.size)])

    def newton_batch(self, X, Y, u0, th0, maxiter: int = 60, atol: float = 1e-13):
        """Solve for every target.

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

        Returns (u, theta, lambda, converged, residual); the residual is
        measured in the numerically exact boundary chart.
        """
        X = np.asarray(X, dtype=float).ravel()
        Y = np.asarray(Y, dtype=float).ravel()
        target = np.vstack([X, Y])
        scale = 1.0 + np.abs(target).max(axis=0)
        l, th = self._to_chart(u0, th0)
        th = self._unkink(th)

        vals, _, _ = self._chart_values(l, th, partials=False)
        R = vals[1:] - target
        rn = np.hypot(R[0], R[1])

        # fall back to the seed bank wherever the warm start is poor
        best, srn = self._nearest_seed(X, Y)
        swap = srn < rn
        if swap.any():
            l[swap] = self._seed_l[best[swap]]
            th[swap] = self._seed_th[best[swap]]
            vals, _, _ = self._chart_values(l, th, partials=False)
            R = vals[1:] - target
            rn = np.hypot(R[0], R[1])

        frozen = np.zeros(X.size, dtype=bool)
        for _ in range(maxiter):
            active = (rn > atol * scale) & ~frozen
            if not active.any():
                break
            la, tha = l[active], th[active]
            _, dl, dth = self._chart_values(la, tha)
            det = dl[0] * dth[1] - dth[0] * dl[1]
            Ra = R[:, active]
            # a singular Jacobian gives inf/NaN steps, which the line
            # search below rejects
            with np.errstate(divide="ignore", invalid="ignore"):
                sl = -(dth[1] * Ra[0] - dth[0] * Ra[1]) / det
                sth = -(-dl[1] * Ra[0] + dl[0] * Ra[1]) / det
                step = np.hypot(sl, sth)
                shrink = np.minimum(1.0, 8.0 / np.maximum(step, 1e-300))
                sl *= shrink
                sth *= shrink
            alpha = np.ones_like(sl)
            best_l, best_th = la.copy(), tha.copy()
            best_rn = rn[active].copy()
            undone = np.ones(sl.shape, dtype=bool)
            for _try in range(40):
                cl = np.minimum(la + alpha * sl, self.L_CAP)
                cth = tha + alpha * sth
                v, _, _ = self._chart_values(cl, cth, partials=False)
                rr = v[1:] - target[:, active]
                crn = np.hypot(rr[0], rr[1])
                improved = undone & (crn <= best_rn * (1 - 1e-4 * alpha))
                best_l[improved] = cl[improved]
                best_th[improved] = cth[improved]
                best_rn[improved] = crn[improved]
                undone &= ~improved
                if not undone.any():
                    break
                alpha[undone] /= 2.0
            # points that accepted no step are usually parked on a corner;
            # shove them off it and let the next sweep retry
            best_th[undone] = self._unkink(best_th[undone], eps=1e-7)
            # those on no corner would repeat this very sweep: freeze them
            frozen[active] = undone & (best_th == tha)
            l[active], th[active] = best_l, best_th
            vals, _, _ = self._chart_values(l, th, partials=False)
            R = vals[1:] - target
            rn = np.hypot(R[0], R[1])
        lam = vals[0]
        u, th_out = self._from_chart(l, th)
        return u, th_out, lam, rn <= 1e-10 * scale, rn

    def _cold_start(self, X, Y):
        X = np.asarray(X, dtype=float).ravel()
        Y = np.asarray(Y, dtype=float).ravel()
        best, _ = self._nearest_seed(X, Y)
        return self._from_chart(self._seed_l[best], self._seed_th[best])

    def invert(self, x: float, y: float) -> tuple[float, float, float]:
        """Unique preimage of (x, y) plus the graph height lambda = x0."""
        u0, th0 = self._cold_start([x], [y])
        u, th, lam, ok, _ = self.newton_batch([x], [y], u0, th0)
        if not ok[0]:
            u, th, lam, ok = self._homotopy(x, y, u0[0], th0[0])
        if not ok[0]:
            raise NoConvergence(f"inversion failed at ({x}, {y})",
                                x=x, y=y, last=(float(u[0]), float(th[0])))
        return float(u[0]), float(th[0]), float(lam[0])

    def _homotopy(self, x, y, u0, th0):
        vals = self._values(np.array([u0]), np.array([th0]))
        x0, y0 = float(vals[1, 0]), float(vals[2, 0])
        u, th = np.array([u0]), np.array([th0])
        ok = np.array([True])
        lam = vals[:1]
        for t in np.linspace(0.0, 1.0, 33)[1:]:
            xt, yt = x0 + t * (x - x0), y0 + t * (y - y0)
            u, th, lam, ok, _ = self.newton_batch([xt], [yt], u, th)
            if not ok[0]:
                return u, th, lam, ok
        return u, th, lam, ok

    def invert_grid(self, xs, ys):
        """Row-wise warm-started grid inversion: the one loop that solves
        grid rows.

        The first row starts from the seed bank, every later row from the
        row before.  The nodes a row's Newton misses get one retry, batched
        and cold-started from the seed bank.  A node that retry solves
        reports residual exactly 0.0, the mark of a rescued node; a node it
        misses keeps the row's result and converged = False.

        Returns (u, theta, lam, converged, residual) arrays of shape
        (len(ys), len(xs)).
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        nu = np.empty((ys.size, xs.size))
        nth = np.empty_like(nu)
        nlam = np.empty_like(nu)
        nok = np.empty(nu.shape, dtype=bool)
        nrn = np.empty_like(nu)
        u_row = th_row = None
        for i, y in enumerate(ys):
            yy = np.full(xs.size, y)
            if u_row is None:
                u_row, th_row = self._cold_start(xs, yy)
            u_row, th_row, lam, ok, rn = self.newton_batch(xs, yy, u_row, th_row)
            miss = np.nonzero(~ok)[0]
            if miss.size:
                X, Y = xs[miss], yy[miss]
                u, th, lam_m, ok_m, _ = self.newton_batch(X, Y, *self._cold_start(X, Y))
                hit = miss[ok_m]
                u_row[hit], th_row[hit], lam[hit] = u[ok_m], th[ok_m], lam_m[ok_m]
                ok[hit] = True
                rn[hit] = 0.0
            nu[i], nth[i], nlam[i], nok[i], nrn[i] = u_row, th_row, lam, ok, rn
        return nu, nth, nlam, nok, nrn


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


def psi_map(u: float, theta: float) -> tuple[float, float]:
    """(cos theta, sin theta) / (u - cos theta); injective on each domain."""
    c = math.cos(theta)
    if u <= c:
        raise OutsideDomain(f"psi map needs u > cos(theta), got ({u}, {theta})")
    return c / (u - c), math.sin(theta) / (u - c)


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
    """
    if grid_resolution < 2:
        raise InputError(f"grid resolution must be at least 2, got {grid_resolution}")
    if not (math.isfinite(margin) and margin > 0):
        raise InputError(f"margin must be positive and finite, got {margin}")
    ev = SurfaceEvaluator(data)
    res = grid_resolution
    th = np.linspace(0.0, TWO_PI, res, endpoint=False)
    lo = np.asarray(data.angular.max_cos(th)) + margin
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
