"""Graph / immersion criteria, Newton inversion, analytic PDE residuals, scans.

For principal data (b = 0) the two gap conditions decide everything: gaps
up to pi/(n-1) make (x1, x2) a diffeomorphism onto the plane (an entire
graph), gaps up to 2 pi/(n-1) still give an immersion; for b != 0 the gap
rule alone certifies no graph (ROADMAP item 7).  Violations are witnessed
by explicit critical points where the Chebyshev factors vanish.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce
from itertools import zip_longest

import numpy as np

from .angular import TWO_PI, AngularData
from .domain import sample_edges
from .errors import InputError, NoConvergence, OutsideDomain, PreconditionUnmet
from .polycheb import ReciprocalClass, cheb_table, cluster_roots, reduce_coeffs
from .surface import SurfaceEvaluator
from .weierstrass import (KobayashiData, WeierstrassPair, dg_numerator,
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
    arithmetic: str  # "rational" when gaps were compared exactly


def _classify_gaps(gaps, bound, tol) -> tuple[Condition, int | None]:
    """Worst gap against the bound, within tol; returns (condition, index of
    the first violation)."""
    over = [j for j, g in enumerate(gaps) if g > bound + tol]
    if over:
        return Condition.VIOLATED, over[0]
    if any(abs(g - bound) <= tol for g in gaps):
        return Condition.BOUNDARY_CASE, None
    return Condition.STRICTLY_SATISFIED, None


def check_conditions(angular: AngularData) -> ConditionReport:
    """Gap conditions for graph (pi/(n-1)) and immersion (2 pi/(n-1)).

    Rational-multiple-of-pi input is compared exactly; otherwise within
    1e-12.  A violated gap yields the critical point (u_0, gap midpoint)
    at which the corresponding Jacobians vanish for principal data.
    """
    n = angular.n
    gaps, bound, tol = angular.gap_fracs(), Fraction(1, n - 1), 0  # in units of pi
    exact = gaps is not None
    if not exact:
        gaps, bound, tol = angular.gaps(), math.pi / (n - 1), _GAP_TOL
    graph, jg = _classify_gaps(gaps, bound, tol)
    imm, ji = _classify_gaps(gaps, 2 * bound, tol)

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
        arithmetic="rational" if exact else "float",
    )


def _graph_refusal(angular: AngularData) -> str | None:
    """Why the angular data are not certified an entire graph, or None: the
    graph gap rule must not be violated, and the angles must be distinct
    unless n = 2."""
    if check_conditions(angular).graph_condition is Condition.VIOLATED:
        return (f"graph condition violated: max angular gap {max(angular.gaps()):.6f} "
                f"exceeds pi/(n-1) = {math.pi / (angular.n - 1):.6f}")
    if angular.n > 2 and not angular.is_distinct:
        return "entire-graph certification needs distinct angles for n > 2"
    return None


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
    if not (math.isfinite(u) and math.isfinite(theta) and u - data.angular.max_cos(theta) > 0):
        raise OutsideDomain(f"({u}, {theta}) not finite or outside the extension domain")
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
    """Determinant of the induced metric of f~ in (u, theta), in closed form:
    the oracle that the tests hold `causal_label` against.

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


def causal_label(data: KobayashiData, u, theta, chart=None) -> np.ndarray:
    """The causal type of f~ at each (u, theta), the one label rule of both
    csv exports: the sign of `metric_determinant`, read off the fold side.

    Space-like for |u| > 1: the point lies in the open disk, where |g| < 1
    keeps Q away from 0, and the determinant (about u^-6 far out) may
    underflow or overflow there but its sign cannot change.  Time-like for
    |u| < 1 where Q != 0, light-like on the zeros of Q and at |u| = 1.

    With chart = (l, dl, dtheta), the end-chart point (l, theta) of a solved
    node and bounds on its distance from the exact preimage, the side u - 1 =
    e^l - 2 sin^2(d / 2), d = theta - beta_a for the nearest end a, keeps its
    sign where u rounds to 1.
    It is 0 within what moving the point moves it, e^l expm1(dl) + h (|sin d|
    + h / 2) with h = dtheta + ulp(d), plus its rounding, 3 eps (e^l + 2 sin^2)
    < 7e-16 (e^l + 2 sin^2).
    """
    u, theta = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(theta, dtype=float))
    side, tol = np.abs(u) - 1.0, 0.0
    if chart is not None:
        l, dl, dth = chart
        b = np.asarray(data.angular.betas)
        d = theta - b[np.cos(theta[..., None] - b).argmax(axis=-1)]
        e, c, h = np.exp(l), 2.0 * np.sin(d / 2.0) ** 2, dth + np.spacing(np.abs(d))
        side, tol = e - c, e * np.expm1(dl) + h * (abs(np.sin(d)) + h / 2) + 7e-16 * (e + c)
    label = np.where(side > tol, "spacelike", "lightlike")
    inner = side < -tol  # the only points whose label reads Q
    label[inner] = np.where(_fold_factor(data, u[inner], theta[inner]) != 0,
                            "timelike", "lightlike")
    return label


# ---------------------------------------------------------------------------
# Newton inversion of (x1, x2)
# ---------------------------------------------------------------------------

def _stalled(rn, last):
    """True where the residual rn fell by less than a tenth over the last 4
    sweeps: `last` (4, n) holds the residuals at their starts, oldest first
    (inf before the first sweep), and rn replaces the oldest."""
    out = rn > 0.9 * last[0]
    last[:-1], last[-1] = last[1:], rn
    return out


# `_descend`'s sweep cap, and its step lengths alpha = 2^-j, j < 40, in the
# groups it tries at once, each a column with its decrease factor 1 - 1e-4 alpha
_SWEEPS = 60
_LENGTHS = tuple((a, 1 - 1e-4 * a)
                 for a in np.split(2.0 ** -np.arange(40)[:, None], (1, 2, 4, 8, 16)))


@np.errstate(all="ignore")
def _descend(step, trial, S, tol, stall=False, shove=None):
    """The damped Newton loop of the end and corner charts and of the scan.

    Column i of S is node i: its point (the first d rows, d the rows of its
    step), the values there and its residual norm (row -1), all updated in
    place.  A sweep takes step(k, S[:, k]), the (d, k.size) steps of the
    pending nodes k, and tries the lengths of `_LENGTHS`, 1 to 2^-39, with
    one trial(k, t) per group over the nodes that no earlier group improved.
    t holds the candidates x + alpha step, of shape (d, lengths, k.size);
    trial returns their values (length-major columns), residual norms
    (lengths, k.size), and a mask of the points that are final, or None.  A
    node takes its first length whose residual is at most rn (1 - 1e-4
    alpha), Armijo's sufficient decrease: the candidate that trying one
    length at a time would take, as alpha step is exact.  A NaN residual
    never passes, nor does an infinite one while rn is finite, so inf/NaN
    steps are not taken; numpy warns of none.

    A node is pending while its residual exceeds its `tol`, for at most
    `_SWEEPS` sweeps.  It stops for good once `_stalled`, with `stall`.  It
    is dropped, and stops, when it takes a point that trial marks final,
    and when no length improves it and shove(x) leaves its point x as it
    is; a point shove moves is evaluated by trial.  A sweep is a function
    of the node's own column, so a dropped node's next sweeps would repeat
    its last.  Returns the mask of the nodes not dropped."""
    n = S.shape[1]
    tol, live = np.full(n, tol), np.ones(n, dtype=bool)
    last = np.full((4, n), np.inf) if stall else None
    for _ in range(_SWEEPS):
        if stall:
            tol[_stalled(S[-1], last)] = np.inf
        k = (S[-1] > tol).nonzero()[0]
        if not k.size:
            break
        P = S.take(k, axis=1)  # take, compress: what fancy indexing gives, faster
        s = step(k, P)
        d = len(s)
        W = np.concatenate((P[:d], s, P[-1:]))  # point, step, residual
        for a, f in _LENGTHS:
            t = W[:d, None] + a * W[d:-1, None]
            v, crn, final = trial(k, t)
            take = crn <= W[-1] * f
            if a.size > 1:
                take &= take.cumsum(axis=0) == 1  # a node's first length that passes
            pick = take.ravel().nonzero()[0]  # (length, node) flat, one per improved node
            dst = k[pick % k.size]
            S[:, dst] = np.concatenate((t.reshape(d, -1), v, crn.reshape(1, -1))).take(pick, axis=1)
            if final is not None:
                dst = dst[final[pick]]
                tol[dst], live[dst] = np.inf, False
            keep = ~take.any(axis=0)
            k, W = k[keep], W.compress(keep, axis=1)
            if not k.size:
                break
        else:  # no length improved k: shove it, or drop it
            x = W[:d] if shove is None else shove(W[:d])
            moved = (x != W[:d]).any(axis=0)
            tol[k[~moved]], live[k[~moved]] = np.inf, False
            k, x = k[moved], x[:, moved]
            if k.size:
                v, crn, _ = trial(k, x[:, None])
                S[:, k] = np.concatenate((x, v, crn))
    return live


class GraphInverter:
    """Damped Newton solver for (x1, x2)(u, theta) = (x, y), in two charts.

    Valid when the graph condition is not violated.  The end chart (l, theta),
    u = maxcos(theta) + e^l, removes the domain constraint and keeps the
    boundary logarithm exact.  Far out between two end directions both their
    clearances fall below what a double theta resolves; the corner chart
    (p, q) = (log D_a, log D_b) of each sector between simple ends a, b of gap
    below pi (`SurfaceEvaluator.corner`) reaches there.  Each target starts
    in the chart whose seed leaves the smaller residual.
    """

    ATOL = 1e-13  # `_newton`'s tolerance, times scale

    def __init__(self, data: KobayashiData):
        from scipy.spatial import cKDTree  # here, so that importing zmc loads no scipy
        why = _graph_refusal(data.angular)
        if why:
            raise PreconditionUnmet(why)
        self.data = data
        self.evaluator = SurfaceEvaluator(data)
        self.angular = data.angular
        l, th = np.meshgrid((-2.0, -0.5, 0.7, 2.5, 7.0, 14.0, 21.0, 40.0),
                            np.linspace(0.0, TWO_PI, 64, endpoint=False), indexing="ij")
        self._seed_l, self._seed_th = l.ravel(), th.ravel()
        bank = self.evaluator.jet(l, th[0])[0][1:]
        self._seed_tree, self._bank_r = cKDTree(bank.T), np.hypot(*bank).max()
        # the corner sectors, and on each the affine model (x1, x2) = c + J (p, q)
        # up to O(e^p, e^q): the chart and its Jacobian where e^p = e^q = 0;
        # its seeds are clipped to e^p, e^q <= sin g, inside the chart.  A
        # sector whose J is singular or not finite has no model and is left
        # out (for principal data: a gap of pi/(n-1) between simple ends)
        b, m = self.evaluator.betas, np.array(self.angular.multiplicities) == 1
        g = (np.roll(b, -1) - b) % TWO_PI / 2
        sec = np.flatnonzero(m & np.roll(m, -1) & (2 * g < math.pi - _GAP_TOL))
        p0 = np.full(sec.size, -800.0)
        _, v, dp, dq = self.evaluator.corner(sec, (sec + 1) % b.size, p0, p0, 1)
        det = dp[1] * dq[2] - dq[1] * dp[2]
        keep = np.isfinite(det) & (det != 0)
        sec, p0, v, dp, dq, det = (a[..., keep] for a in (sec, p0, v, dp, dq, det))
        self._sec = np.array([sec, (sec + 1) % b.size]).T
        self._affine = (v[1:] - (dp[1:] + dq[1:]) * p0,  # c, J^-1, log sin g
                        np.array([[dq[2], -dq[1]], [-dp[2], dp[1]]]) / det,
                        np.log(np.sin(g[sec]))[:, None])

    @cached_property
    def _phi_polys(self):  # num, den, num', den' of each phi: (power, 4, 3, 1), 0-padded on top
        cs = [c.coeffs for f in self.data.phi for c in (f.num, f.den, f.num.deriv(), f.den.deriv())]
        return np.array(list(zip_longest(*cs, fillvalue=0j))).reshape(-1, 3, 4, 1).swapaxes(1, 2)

    def _unkink(self, th):
        """Shift theta by 1e-7 off the boundary corners, where the chart
        Jacobian is one-sided and can poison the Newton direction."""
        g = np.asarray(self.angular.gammas)
        d = np.abs((th[:, None] - g[None, :] + math.pi) % TWO_PI - math.pi)
        return np.where((d < 1e-9).any(axis=1), th + 1e-7, th)

    def _chart_error(self, Jl, Jt, l, rn, X, Y):
        """(dl, dtheta) of `causal_label`'s chart for `_grid`'s points (l, theta) of
        the targets (X, Y), from their `jet` rows d/dl, d/dtheta: a point leaving
        the residual r lies J^-1 r from its preimage to first order, with |r|
        taken as at least ATOL * scale, where Newton stops; 0 where e^l > 2."""
        with np.errstate(all="ignore"):
            r = np.maximum(rn, self.ATOL * (1.0 + np.maximum(abs(X), abs(Y)))).ravel()
            r = np.where(np.ravel(l) > math.log(2.0), 0.0, r / abs(Jl[1] * Jt[2] - Jt[1] * Jl[2]))
            return tuple(((abs(J[1]) + abs(J[2])) * r).reshape(np.shape(l)) for J in (Jt, Jl))

    def _from_chart(self, l, th):
        """(u, theta) of end-chart points: the display form of a solved node."""
        return self.angular.max_cos(th) + np.exp(l), th % TWO_PI

    def newton_batch(self, X, Y, start=None):
        """`_newton` in the end chart for every target, from the chart points
        start = (l, theta) as given, by default the seed-bank point nearest
        each target (`_nearest_seed`); its shove moves theta 1e-7 (`_unkink`).

        Nodes do not interact, so a batch answers as its targets would one
        by one, up to rounding: a node's last bits can depend on which other
        nodes share its batches.  The evaluator's `self._M @ r` rounds column
        0 of a batch of 2 columns or more unlike the same column alone, and
        the scan's Gauss-Newton moves by ulps between batches of two or more
        pairs (ROADMAP item 20).

        Returns (l, theta, lambda, converged, residual): the chart point and
        the height, with the residual measured in this numerically exact
        boundary chart.
        """
        target = np.array([np.ravel(X), np.ravel(Y)], dtype=float)
        # copies: Newton moves its chart points in place
        l, th = (np.array(c, dtype=float).ravel()
                 for c in (self._nearest_seed(target)[1] if start is None else start))
        return self._newton(lambda k, l, th, d=True: self.evaluator.jet(l, th, int(d)), l, th,
                            self.evaluator.jet(l, th)[0], target, shove=self._unkink)

    def _nearest_seed(self, target):
        """The residual the seed-bank point nearest each target leaves, and that
        point (l, theta); targets are clipped to +-1e150 so that a seed is found."""
        d, i = self._seed_tree.query(np.fmax(np.fmin(target.T, 1e150), -1e150))
        return d, (self._seed_l[i], self._seed_th[i])

    @np.errstate(all="ignore")
    def _newton(self, chart, c1, c2, vals, target, shove=None, stall=False):
        """Newton in a chart, on chart(k, c1, c2, partials) = (f~, d f~/dc1,
        d f~/dc2) at the nodes of index array k: `_descend` with the 2 x 2
        Newton step clipped to length 8, the residual |(x1, x2) - target|
        and the tolerance ATOL * scale, scale = 1 + max(|x|, |y|).  `stall`
        is for corner runs, whose targets have another chart to go to;
        end-chart runs have none, as their far nodes can stall long yet
        converge.  shove(theta) moves theta off a corner.  Updates c1, c2
        and vals in place; returns (c1, c2, lambda, ok, residual), ok a
        finite residual at most 1e-10 * scale."""
        scale = 1.0 + np.abs(target).max(axis=0)
        S = np.array([c1, c2, *vals, np.hypot(*(vals[1:] - target))])

        def step(k, P):
            _, d1, d2 = chart(k, *P[:2])
            det = d1[1] * d2[2] - d2[1] * d1[2]
            R = P[3:5] - target.take(k, axis=1)
            # a singular Jacobian, or a target near the largest double, gives
            # inf/NaN steps, which no length takes
            s = -np.array([d2[2] * R[0] - d2[1] * R[1], -d1[2] * R[0] + d1[1] * R[1]]) / det
            return s * np.minimum(1.0, 8.0 / np.maximum(np.hypot(*s), 1e-300))

        def trial(k, t):
            v = chart(np.concatenate((k,) * t.shape[1]), *t.reshape(2, -1), False)[0]
            T = target.take(k, axis=1)[:, None]
            return v, np.hypot(*(v[1:].reshape(2, t.shape[1], -1) - T)), None

        _descend(step, trial, S, self.ATOL * scale, stall,
                 shove and (lambda x: np.array([x[0], shove(x[1])])))
        c1[:], c2[:], vals[:], rn = S[0], S[1], S[2:5], S[5]
        return c1, c2, vals[0], np.isfinite(rn) & (rn <= 1e-10 * scale), rn

    def _corner_seed(self, X, Y):
        """The affine model's solution on every sector, ranked per target by
        the residual the chart leaves there: (a, b, p, q, residual), each
        (sectors, n), p = q = NaN where a seed is not finite, and its values."""
        n, target = X.size, np.array([X, Y])[:, None, :]
        c, Jinv, cap = self._affine
        pq = np.minimum(np.einsum("ijs,jsn->isn", Jinv, target - c[:, :, None]), cap)
        with np.errstate(all="ignore"):
            v = self.evaluator.corner(*self._sec.T.repeat(n, axis=1), *pq.reshape(2, -1))[1]
            v = v.reshape((3,) + pq.shape[1:])
            rn = np.hypot(*(v[1:] - target))
        pq[:, ~np.isfinite(rn)] = np.nan
        k, cols = np.where(rn >= 0, rn, np.inf).argsort(axis=0, kind="stable"), np.arange(n)
        return (*self._sec.T[:, k], *pq[:, k, cols], rn[k, cols], v[:, k, cols])

    def _solve(self, X, Y):
        """`invert`'s dispatch, batched: a target starts in the corner chart if
        its best corner seed leaves a smaller residual than its nearest
        seed-bank point, else in the end chart, and falls back to the other
        chart, keeping the smaller residual.  Bank points lie |T| - R_bank or
        more from the target T (less a 1e-9 |T| margin for rounding): a
        closer corner seed starts first without the query, which its target
        makes only if it falls back to the end chart.  A corner seed within
        Newton's tolerance is its answer, as `_newton` gives it after 0 sweeps.
        Returns (l, theta, lambda, converged, residual, (a, b, s, t)): the
        end-chart point, and the point Newton solved in: the corner point (p,
        q) = (s, t) of sector (a, b), or with a = -1 the end point (l, theta)
        = (s, t).  A corner point's l is the log clearance of the end nearest
        its theta: min(p, q) at end a or b."""
        X, Y = T = np.array([X, Y], dtype=float).reshape(2, -1)
        sa, sb, p, q, crn, cv = self._corner_seed(X, Y)
        c0 = crn[:1].min(axis=0, initial=np.inf)  # the best corner seed's residual
        first = c0 < (1 - 1e-9) * np.hypot(*np.clip(T, -1e150, 1e150)) - self._bank_r
        seed, k = np.full((2, X.size), np.nan), (~first).nonzero()[0]
        if k.size:  # the seed-bank points nearest the other targets
            d, seed[:, k] = self._nearest_seed(T[:, k])
            first[k] = c0[k] < d  # starts in the corner chart
        out = np.full((9, X.size), np.nan)  # l, theta, lambda, ok, residual, s, t, a, b
        out[3], out[7:] = 0.0, -1.0

        def end(k, start=None):  # the end chart from seed-bank points, kept where it does better
            if k.size:
                l, th, *res = self.newton_batch(X[k], Y[k], None if start is None else start[:, k])
                take = ~(res[2] >= out[4, k])
                out[:7, k[take]], out[7:, k[take]] = np.array([l, th, *res, l, th])[:, take], -1
        end((~first).nonzero()[0], seed)
        k = (first & (c0 <= self.ATOL * (1.0 + np.abs(T).max(axis=0)))).nonzero()[0]
        if k.size:  # seeds within Newton's tolerance: `_newton`'s return after 0 sweeps, ok finite
            out[2:, k] = cv[0, 0, k], c0[k] < np.inf, c0[k], p[0, k], q[0, k], sa[0, k], sb[0, k]
        for r in range(len(p)):  # the sectors in the order of their seeds
            k = ((out[3] == 0.0) & ~np.isnan(p[r])).nonzero()[0]
            if not k.size:
                break
            ka, kb = sa[r, k], sb[r, k]
            pk, qk, *res = self._newton(
                lambda i, p, q, d=True: self.evaluator.corner(ka[i], kb[i], p, q, int(d))[1:],
                p[r, k], q[r, k], cv[:, r, k], T[:, k], stall=True)
            take = ~(res[2] >= out[4, k])
            out[2:, k[take]] = np.array([*res, pk, qk, ka, kb])[:, take]
        end((first & (out[3] == 0.0)).nonzero()[0])  # `newton_batch` queries their seeds
        l, th, lam, ok, rn, s, t, a, b = *out[:7], *out[7:].astype(np.int64)
        # a corner solve's theta is the chart's, and its l the log clearance of the end j
        # nearest theta (as in `jet`): min(p, q) for j = a or b, else log(e^p + D_j - D_a)
        k = (a >= 0).nonzero()[0]
        ka, kb, pk, qk = a[k], b[k], s[k], t[k]
        with np.errstate(all="ignore"):  # off-chart thetas, and log D_j at ends a, b
            th[k] = thk = self.evaluator.corner_theta(ka, kb, pk, qk)[0]
            near = np.cos(thk[:, None] - self.evaluator.betas).argmax(axis=1)
            dj = np.exp(pk) + self.evaluator.dcos(thk, ka)[near, np.arange(k.size)]
            l[k] = np.where((near == ka) | (near == kb), np.minimum(pk, qk), np.log(dj))
        return l, th, lam, ok == 1.0, rn, (a, b, s, t)

    def invert(self, x: float, y: float) -> tuple[float, float, float]:
        """Unique preimage (u, theta) of (x, y), plus the graph height lambda.

        Each target starts in the chart whose seed leaves the smaller residual
        and falls back to the other (`_solve`); `NoConvergence` carries the
        residual when both miss.  A far target whose corner seed meets
        Newton's tolerance costs one `corner` call.  u = max cos(theta - beta)
        + e^l is formed from the end-chart point (l, theta), whose e^l is the
        clearance of the end nearest theta, also for a corner solve: below a
        clearance of about 1e-8 it no longer reproduces (x, y), though the
        chart point does.
        """
        l, th, lam, ok, rn, _ = self._solve([x], [y])
        u, th = self._from_chart(l, th)
        if not ok[0]:
            raise NoConvergence(f"inversion failed at ({x}, {y})", x=x, y=y,
                                last=(float(u[0]), float(th[0])), residual=float(rn[0]))
        return float(u[0]), float(th[0]), float(lam[0])

    def invert_grid(self, xs, ys):
        """`invert`'s dispatch on every node of the grid (x, y) = (xs[j], ys[i]),
        as `_grid` solves it: (u, theta, lam, converged, residual) arrays of
        shape (len(ys), len(xs))."""
        l, th, *res = self._grid(xs, ys)
        return self._from_chart(l, th) + tuple(res)

    def _grid(self, xs, ys):
        """`_solve` on every node of the grid (x, y) = (xs[j], ys[i]).

        Where the dispatch leaves a node of row i >= 1 above Newton's
        tolerance ATOL * scale, one end-chart `newton_batch` starts it from
        the end-chart point (l, theta mod 2 pi) of node (i - 1, j), theta
        moved 1e-7 off a boundary corner (`_unkink`), where that is finite
        and e^l does not underflow.  Its answer is kept where it leaves a
        smaller residual, and the next row starts there.  This fallback
        reaches far nodes of sectors that have only the end chart
        (jorge-meeks:2, parabolic), which the seed bank misses.

        Returns (l, theta, lam, converged, residual) arrays of shape
        (len(ys), len(xs)).
        """
        X, Y = np.meshgrid(xs, ys)
        out = [v.reshape(X.shape) for v in self._solve(X, Y)[:5]]
        l, th, _, _, rn = out
        miss = ~(rn <= self.ATOL * (1.0 + np.maximum(np.abs(X), np.abs(Y))))
        for i in np.flatnonzero(miss[1:].any(axis=1)) + 1:
            j = np.flatnonzero(miss[i] & (np.exp(l[i - 1]) > 0) & np.isfinite(th[i - 1]))
            if not j.size:
                continue
            new = self.newton_batch(X[i, j], Y[i, j],
                                    (l[i - 1, j], self._unkink(th[i - 1, j] % TWO_PI)))
            take = new[4] < np.where(np.isnan(rn[i, j]), np.inf, rn[i, j])
            for v, w in zip(out, new):
                v[i, j[take]] = w[take]
        return tuple(out)


def graph_derivatives(inverter: GraphInverter, l, th, scale=(1.0, 1.0, 1.0), F=None):
    """Analytic gradient, Hessian and ZMC residual of the graph height
    lambda at the end-chart points (l, theta) of solved nodes, from one
    order-2 `jet` there, or its rows 1: given as F (overwritten where e^l > 2).

    In a chart p with J = d(x1, x2)/dp, implicit differentiation of
    x0 = lambda(x1, x2) gives grad lambda = J^-T grad_p x0 and the Hessian
    J^-T (Hess_p x0 - lambda_x Hess_p x1 - lambda_y Hess_p x2) J^-1.  With
    `scale`, lambda is the graph t = scale[0] x0 over (scale[1] x1,
    scale[2] x2).  Returns (grad, hess, resid, finite), of shapes (2,),
    (2, 2) and () + l.shape; finite is False where J is singular or a
    result is not finite.
    """
    shape, l, t = np.shape(l), np.ravel(l), np.ravel(th)
    with np.errstate(all="ignore"):
        F = inverter.evaluator.jet(l, t, order=2)[1:] if F is None else F
        # towards p_infinity (the origin's node sits near l = 30) d/dl sums
        # nearly cancelling 1/D_j; so for e^l > 2 (u > 2) the chart is the disk
        # point z = p1 + i p2 of (u, theta), where f~ = Re of the integral of phi
        far = l > math.log(2.0)
        u, tf = inverter._from_chart(l[far], t[far])
        z, C = np.exp(1j * tf) / (u + np.sqrt(u * u - 1.0)), inverter._phi_polys
        # `polyval`'s Horner on all twelve: a zero pad adds 0 before the top term, bit for bit
        n, d, dn, dd = reduce(lambda acc, c: c + acc * z, C[-2::-1], C[-1] + z * 0)
        f1 = n / d
        f2 = (dn - f1 * dd) / d
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
    `graph_derivatives` at the chart points `_grid` solves; `h` is ignored
    (kept while `bench/` passes it).  Returns (lam, lx, ly, resid, ok), each
    shaped (len(ys), len(xs)); ok is False where a result is not finite.
    """
    l, th, lam, ok, _ = inverter._grid(xs, ys)
    grad, _, resid, finite = graph_derivatives(inverter, l, th)
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
# the scan's grid runs from the boundary clearance _SCAN_MARGIN up to
# u = _SCAN_U_MAX; chart points closer than _TOL_PARAM count as one point,
# and the scan stops at _MAX_REPORTS crossings
_SCAN_U_MAX, _SCAN_MARGIN, _TOL_PARAM, _MAX_REPORTS = 3.0, 0.01, 0.05, 200
_CHUNK = 1 << 15  # pairs (of groups, then of points) tested per sweep
# the candidate stage's sort key is below 5 N^3 for N = res^2 grid points,
# which fits int64 up to this resolution
_SCAN_RES_MAX = 1107


def _block_pairs(edges, width):
    """Block p, row and column of every pair, `_CHUNK` pairs at a time,
    where block p holds the pairs edges[p] <= k < edges[p + 1] in rows of
    width[p]."""
    for k0 in range(0, edges[-1], _CHUNK):
        k1 = min(k0 + _CHUNK, edges[-1])
        p0, p1 = np.searchsorted(edges, (k0, k1 - 1), side="right") - 1
        blocks = np.arange(p0, p1 + 1)
        p = np.repeat(blocks, np.minimum(edges[blocks + 1], k1) - np.maximum(edges[blocks], k0))
        k = np.arange(k0, k1) - edges[p]
        yield p, *np.divmod(k, width[p])


def _near_pairs(plane, mu, local, cell, tol_param):
    """Candidate pairs (I, J) of grid points, in enumeration order; the
    rule is stated in `injectivity_scan`.  plane is (2, N), mu and local
    are (N,).

    The members of a capped cell that share a chart square of side
    tol_param / 4 form a group, bounded by its plane box, its chart box and
    its largest `local`; a cell is bounded by the chart box and the largest
    `local` of its groups.  A pair of a cell and a forward neighbour (or
    itself) is dropped, with all its group pairs, when
    - its joined chart box has diameter squared at most tol^2 (1 - 1e-9),
      so every point pair fails the chart prefilter below;
    - or its largest `local` is at most 0.15 cell.
    A pair of groups in the surviving cell pairs is dropped, with all its
    point pairs, when
    - the gap between its plane boxes, squared, is at least cell^2 (1 + 1e-9),
      so every point pair fails the plane prefilter below;
    - its joined chart box has diameter squared at most tol^2 (1 - 1e-9);
    - its largest `local` is at most 0.15 cell;
    - or its plane gap is at least 2.5 (1 + 1e-9) times its largest `local`.
    Each drop is exact, whatever the grouping: rounding is monotone, so a
    computed box gap (box width) is at most (at least) the computed
    difference of any two members, and so are the squares and sums built
    from them; a cell's box holds the boxes of its groups.  The last rule
    keeps 1e-9 of slack because hypot is only faithfully rounded.  Within
    a cell a group is paired with itself (each of its point pairs once)
    and with each later group; the chart rule drops a group's pairs with
    itself, as its chart diameter is at most sqrt(2) tol / 4 < tol.  The
    point pairs of the surviving group pairs are tested at most `_CHUNK`
    at a time, then sorted into enumeration order by one int64 key,
    (major * N + I) * N + J with major = 5 * (first point of the cell) +
    offset, below 5 N^3 (`_SCAN_RES_MAX`)."""
    n = mu.size
    # cells by rank 1, 2, ... along each axis, two apart across an empty column (row), so
    # neighbours stay neighbours and ranks below 2N keep the sort key below 5 N^3
    keys = np.floor(plane / cell).astype(np.int64)
    kx, ky = rank = np.empty_like(keys)
    for k, r, o in zip(keys, rank, keys.argsort(axis=1)):
        r[o] = np.cumsum(np.minimum(np.diff(k[o], prepend=k[o[:1]] - 1), 2))
    width = int(ky.max()) + 2  # ky >= 1 keeps ky - 1 from wrapping a column
    packed, order = np.divmod(np.sort((kx * width + ky) * n + np.arange(n)), n)  # by cell, index
    start = np.flatnonzero(np.diff(packed, prepend=-1))  # ky >= 1, so packed >= 1
    cells, count = packed[start], np.diff(np.r_[start, packed.size])
    first = order[start]  # each cell's first point in grid order
    cid = np.repeat(np.arange(cells.size), count)
    # the cap: a cell of more than 800 points keeps every step-th one
    step = (count + _CELL_CAP - 1) // _CELL_CAP
    keep = (np.arange(order.size) - start[cid]) % step[cid] == 0
    members, cid = order[keep], cid[keep]
    del keys, rank, kx, ky, k, r, o, packed, order, keep

    # groups, contiguous per cell: members by cell, chart square and index,
    # on one key below cells * span[0] * span[1] * N; `take` keeps the rows
    # of pts contiguous, where plane[:, members] would not
    pts = np.vstack((plane.take(members, axis=1), mu.real[members], mu.imag[members]))
    sq = np.floor(pts[2:] / (0.25 * tol_param)).astype(np.int64)
    sq -= sq.min(axis=1, keepdims=True)
    span = sq.max(axis=1) + 1
    key = (cid * span[0] + sq[0]) * span[1] + sq[1]
    key, srt = np.divmod(np.sort(key * n + np.arange(members.size)), n)
    members, cid, pts = members[srt], cid[srt], pts.take(srt, axis=1)
    gs = np.flatnonzero(np.diff(key, prepend=-1))  # each group's first member
    gn = np.diff(np.r_[gs, members.size])
    per_cell = np.bincount(cid[gs], minlength=cells.size)
    g0 = np.cumsum(per_cell) - per_cell  # each cell's first group
    xlo, ylo, rlo, ilo = np.minimum.reduceat(pts, gs, axis=1)
    xhi, yhi, rhi, ihi = np.maximum.reduceat(pts, gs, axis=1)
    big = np.maximum.reduceat(local[members], gs)

    # every cell with itself and each forward neighbour, less the whole-cell drops
    ca, cb, co = [], [], []
    for o, (oi, oj) in enumerate(_FORWARD):
        want = cells + oi * width + oj
        nb = np.minimum(np.searchsorted(cells, want), cells.size - 1)
        c = np.flatnonzero(cells[nb] == want)
        ca.append(c)
        cb.append(nb[c])
        co.append(np.full(c.size, o))
    ca, cb, co = (np.concatenate(c) for c in (ca, cb, co))
    near2 = cell * cell * (1.0 + 1e-9)
    far2 = tol_param * tol_param * (1.0 - 1e-9)
    crlo, cilo = np.minimum.reduceat((rlo, ilo), g0, axis=1)
    crhi, cihi = np.maximum.reduceat((rhi, ihi), g0, axis=1)
    cbig = np.maximum.reduceat(big, g0)
    wr = np.maximum(crhi[ca], crhi[cb]) - np.minimum(crlo[ca], crlo[cb])
    wi = np.maximum(cihi[ca], cihi[cb]) - np.minimum(cilo[ca], cilo[cb])
    live = np.flatnonzero((wr * wr + wi * wi > far2)
                          & (np.maximum(cbig[ca], cbig[cb]) > 0.15 * cell))
    ca, cb, co = ca[live], cb[live], co[live]

    # every pair of groups in the surviving cell pairs
    GA, GB, GO = [ca[:0]], [cb[:0]], [co[:0]]
    for p, ra, rb in _block_pairs(np.r_[0, np.cumsum(per_cell[ca] * per_cell[cb])], per_cell[cb]):
        ga, gb, go = g0[ca[p]] + ra, g0[cb[p]] + rb, co[p]
        # the drop rules, strongest first
        live = np.flatnonzero((go != 0) | (gb >= ga))
        ga, gb, go = ga[live], gb[live], go[live]
        wr = np.maximum(rhi[ga], rhi[gb]) - np.minimum(rlo[ga], rlo[gb])
        wi = np.maximum(ihi[ga], ihi[gb]) - np.minimum(ilo[ga], ilo[gb])
        live = np.flatnonzero(wr * wr + wi * wi > far2)
        ga, gb, go = ga[live], gb[live], go[live]
        gx = np.maximum(np.maximum(xlo[ga] - xhi[gb], xlo[gb] - xhi[ga]), 0.0)
        gy = np.maximum(np.maximum(ylo[ga] - yhi[gb], ylo[gb] - yhi[ga]), 0.0)
        s = np.maximum(big[ga], big[gb])
        live = np.flatnonzero((gx * gx + gy * gy < near2) & (s > 0.15 * cell)
                              & (np.hypot(gx, gy) < 2.5 * s * (1.0 + 1e-9)))
        GA.append(ga[live])
        GB.append(gb[live])
        GO.append(go[live])
    ga, gb, go = (np.concatenate(c) for c in (GA, GB, GO))

    # the point pairs of the surviving group pairs, _CHUNK at a time
    mx, my, mr, mi = pts
    mm, ml = mu[members], local[members]
    found = [np.zeros(0, np.int64)]
    for p, ra, rb in _block_pairs(np.r_[0, np.cumsum(gn[ga] * gn[gb])], gn[gb]):
        a, b = gs[ga[p]] + ra, gs[gb[p]] + rb
        # squared distances with 1e-9 slack are only a prefilter; the exact
        # tests run on its survivors
        dx, dy, dr, di = mx[a] - mx[b], my[a] - my[b], mr[a] - mr[b], mi[a] - mi[b]
        hit = np.flatnonzero((dx * dx + dy * dy < near2) & (dr * dr + di * di > far2))
        a, b, p = a[hit], b[hit], p[hit]
        d = np.hypot(mx[a] - mx[b], my[a] - my[b])
        s = np.maximum(ml[a], ml[b])
        ok = (d < cell) & (np.abs(mm[a] - mm[b]) > tol_param) \
            & (s > 0.15 * cell) & (d < 2.5 * s)
        ok &= (ga[p] != gb[p]) | (a < b)  # a group's own pairs once
        a, b, o = a[ok], b[ok], go[p[ok]]
        i, j = members[a], members[b]
        flip = (o == 0) & (i > j)  # within a cell the lower index comes first
        major = first[cid[a]] * len(_FORWARD) + o
        found.append((major * n + np.where(flip, j, i)) * n + np.where(flip, i, j))
    found = np.concatenate(found)
    found.sort()
    IJ, J = np.divmod(found, n)
    return IJ % n, J


def _dedupe_pairs(mu, I, J, h):
    """First pair, in the given order, of each unordered pair of chart cells:
    mu rounded to a multiple of h, ties to even.  One int64 sort of
    (cell pair * m + position) over the m pairs finds them."""
    # one id per chart cell; |mu| < 1 in the scan (u > -1), so there are
    # fewer than (2 / h + 1)^2 ids, and the sort key stays below that squared
    # times m
    qr, qi = np.rint(mu.real / h), np.rint(mu.imag / h)
    qr, qi = (qr - qr.min()).astype(np.int64), (qi - qi.min()).astype(np.int64)
    cid = qr * (int(qi.max()) + 1) + qi
    a, b = cid[I], cid[J]
    m = I.size
    key = (np.minimum(a, b) * (int(cid.max()) + 1) + np.maximum(a, b)) * m + np.arange(m)
    key.sort()
    pair, pos = np.divmod(key, m)
    first = pos[np.flatnonzero(np.diff(pair, prepend=-1))]
    first.sort()
    return I[first], J[first]


def injectivity_scan(data: KobayashiData, grid_resolution: int = 200) -> list[Collision]:
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
    tol_param = 0.05 apart.  Whole cell pairs, then pairs of groups (the
    points of a cell in one chart square), that no point pair of theirs
    can pass are dropped untested; the drops are exact (`_near_pairs`).
    Pairs are enumerated by the first appearance of the first point's cell
    in grid order, then by offset, then by first point, then by second
    point.  In that order, the first pair of each
    unordered pair of chart cells (mu rounded to multiples of tol_param / 2)
    seeds a Gauss-Newton solve.

    Gauss-Newton: each seed pair (q1, q2) solves f(q2) - f(q1) = 0 in (u1,
    theta1, u2, theta2) by `_descend`, whose line search (sufficient decrease
    over the lengths 2^-j, j < 40, at most 60 sweeps) the charts share, with
    the minimum-norm step of the linearised equations, the tolerance 1e-12 and
    `stall`.  A candidate counts only inside: both points clear the boundary
    by more than 1e-12 (u > max_j cos(theta - beta_j) + 1e-12), both have u <
    1e6, and their chart points lie more than tol_param / 2 = 0.025 apart.
    One whose chart points lie within tol_param, the confirm test's own
    threshold, is final: the pair could confirm only by moving apart again.  A
    pair that is not dropped confirms a crossing when its residual norm is at
    most 1e-9 * scale, scale = 1 + max |f(q1)|, and its chart points lie more
    than tol_param apart.  A confirmed crossing is reported unless both its
    chart points lie within tol_param / 2 of an earlier report's; at most the
    first 200 are reported.

    The grid has `grid_resolution` rows, from clearance 0.01 above the
    boundary up to u = 3.  Raises `InputError` for a resolution that
    `domain.sample_edges` rejects, and for one above 1107, before sampling:
    the candidate stage orders its pairs by one int64 key below 5 N^3,
    N = resolution^2, which would wrap from 1108 on.
    """
    res, tol_param = grid_resolution, _TOL_PARAM
    if isinstance(res, numbers.Integral) and res > _SCAN_RES_MAX:
        raise InputError(f"grid_resolution must be at most {_SCAN_RES_MAX}, got {res}")
    th, lo = sample_edges(data.angular, res, _SCAN_MARGIN, _SCAN_U_MAX)
    ev = SurfaceEvaluator(data)
    s = (np.arange(res) / (res - 1.0)) ** 2
    u = lo[None, :] + s[:, None] * (_SCAN_U_MAX - lo)[None, :]
    vals = ev.eval_batch(u, th)  # (3, N)
    plane = vals[1:]
    mu = _chart(u, th).ravel()

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
    I, J = _dedupe_pairs(mu, I, J, 0.5 * tol_param)
    return _gauss_newton(ev, data.angular, u.flat[I], th[I % res], u.flat[J], th[J % res],
                         tol_param)


def _gauss_newton(ev, angular, u1, t1, u2, t2, tol_param):
    """The crossings confirmed from the seed pairs ((u1, t1), (u2, t2)), in
    seed order, deduplicated and capped at `_MAX_REPORTS`; the rules are
    stated in `injectivity_scan`.  `_descend` runs on the rows u1, u2, t1,
    t2, F = f(q2) - f(q1) and |F|, given the step, trial, tolerance and
    `stall`.  Each sweep's Jacobians come from one `partials` call, and
    each length group's residuals from one `eval_batch` call over both
    points of its inside candidates, none if there are none; a candidate
    outside has an infinite residual."""
    def residual(c):  # c[coordinate, point, pair]
        f = ev.eval_batch(*c.reshape(2, -1))
        return f[:, c.shape[2]:] - f[:, :c.shape[2]]

    def step(k, P):
        du, dth = ev.partials(*P[:4].reshape(2, -1))
        n = k.size
        Jm = np.stack([-du[:, :n], -dth[:, :n], du[:, n:], dth[:, n:]], axis=1)  # (3, 4, n)
        M, F = np.einsum("akn,bkn->nab", Jm, Jm), P[4:7].T[..., None]
        try:
            y = np.linalg.solve(M, F)[..., 0]  # (n, 3)
        except np.linalg.LinAlgError:  # an exactly singular M: a NaN step, which no length takes
            M[np.linalg.det(M) == 0.0] = np.nan
            y = np.linalg.solve(M, F)[..., 0]
        return -np.einsum("akn,na->kn", Jm, y)[[0, 2, 1, 3]]  # (u1, t1, u2, t2) to S's rows

    def trial(k, t):
        c = t.reshape(2, 2, -1)
        cu, ct = c.reshape(2, -1)
        ok = ((cu > angular.max_cos(ct) + 1e-12) & (cu < 1e6)).reshape(2, -1)
        sep = np.abs(np.subtract(*_chart(cu, ct).reshape(2, -1)))
        inside = ok[0] & ok[1] & (sep > 0.5 * tol_param)
        F, crn = np.zeros((3, sep.size)), np.full(sep.size, np.inf)
        if inside.any():
            F[:, inside] = rr = residual(c.compress(inside, axis=2))
            crn[inside] = np.linalg.norm(rr, axis=0)
        return F, crn.reshape(t.shape[1], -1), sep <= tol_param

    F = residual(np.array([[u1, u2], [t1, t2]], dtype=float))
    S = np.array([u1, u2, t1, t2, *F, np.linalg.norm(F, axis=0)], dtype=float)
    alive = _descend(step, trial, S, 1e-12, stall=True)
    x, rn = S[:4].reshape(2, 2, -1)[:, :, alive], S[7, alive]  # only a live pair can confirm
    scale = 1.0 + np.abs(ev.eval_batch(*x[:, 0])).max(axis=0)
    m1, m2 = _chart(*x[:, 0]), _chart(*x[:, 1])
    left = np.flatnonzero((rn <= 1e-9 * scale) & (np.abs(m1 - m2) > tol_param))
    h = 0.5 * tol_param
    out: list[Collision] = []
    while left.size and len(out) < _MAX_REPORTS:
        k, left = left[0], left[1:]
        (ua, ub), (ta, tb) = x[:, :, k].tolist()
        out.append(Collision((ua, ta), (ub, tb), float(rn[k])))
        a, b = m1[left], m2[left]
        dup = ((np.abs(a - m1[k]) < h) & (np.abs(b - m2[k]) < h)) \
            | ((np.abs(a - m2[k]) < h) & (np.abs(b - m1[k]) < h))
        left = left[~dup]
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


def classify(data: KobayashiData | WeierstrassPair) -> dict:
    """The `zmc-report/1` fields after `schema` and `name`, in report order:
    `kind` and `fold_type` for a raw pair; for Kobayashi data also periods,
    gap criteria with their witnesses, umbilics, ends, Hopf orders and the
    entire-graph certificate."""
    f = verify_fold_type(data)
    fold = {"ends_on_circle": f.ends_on_circle, "gauss_circle_ok": f.gauss_circle_ok,
            "max_re_condition": f.max_re_condition, "is_fold_type": f.is_fold_type}
    if not isinstance(data, KobayashiData):
        return {"kind": "raw-pair", "fold_type": fold}
    period = period_check(data)
    cond = check_conditions(data.angular)
    # the rotation trick behind the witness construction needs b = 0
    wit, iwit = (cond.witness, cond.immersion_witness) if data.principal else (None, None)
    poles, zeros = hopf_zero_pole_orders(data)
    return {
        "kind": "kobayashi",
        "n": data.n,
        "principal": data.principal,
        "alphas": list(data.angular.alphas),
        "blaschke": [[b.real, b.imag] for b in data.blaschke.b],
        "fold_type": fold,
        "period_residual": period,
        "graph_condition": cond.graph_condition.value,
        "immersion_condition": cond.immersion_condition.value,
        "witness": list(wit) if wit else None,
        "immersion_witness": list(iwit) if iwit else None,
        "gap_arithmetic": cond.arithmetic,
        "umbilics": [[z.real, z.imag, m] for z, m in umbilics(data)],
        "ends": [[e.real, e.imag, m] for e, m in data.ends],
        "hopf_pole_order": poles,
        "hopf_zero_order": zeros,
        "entire_graph_certified": (f.is_fold_type and period < 1e-10 and data.principal
                                   and _graph_refusal(data.angular) is None),
    }
