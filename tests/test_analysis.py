import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zmc import analysis
from zmc.analysis import (Condition, GraphInverter, check_conditions, classify,
                          graph_derivatives, graph_table, injectivity_scan,
                          jacobian_x1x2, metric_determinant, metric_sign, umbilics)
from zmc.angular import AngularData, BlaschkeParams
from zmc.errors import InputError, NoConvergence, OutsideDomain, PreconditionUnmet
from zmc.gallery import get_entry
from zmc.polycheb import cheb_table
from zmc.surface import SurfaceEvaluator, build_oneforms
from zmc.weierstrass import build

from mp_oracle import mp_corner, mp_end

RNG = np.random.default_rng(123)


def make(n, alphas, b=()):
    return build(AngularData(n, tuple(alphas)), BlaschkeParams(tuple(b)))


# oracles: closed forms from the paper with no production caller


def jacobians_x0(data, u: float, theta: float) -> tuple[float, float]:
    """(d(x0,x1)/d(u,theta), d(x0,x2)/d(u,theta)) for principal data."""
    if not data.principal:
        raise PreconditionUnmet("x0 Jacobian closed forms hold for principal type")
    n = data.n
    if u - data.angular.max_cos(theta) <= 0:
        raise OutsideDomain(f"({u}, {theta}) outside the extension domain")
    prod = float(np.prod(u - np.cos(theta - np.asarray(data.angular.alphas))))
    common = float(cheb_table(n - 2, u, second=True)[n - 2]) / (2 ** (2 * n - 2) * prod)
    k = n - 1
    return common * math.sin(k * theta), -common * math.cos(k * theta)


def psi_map(u: float, theta: float) -> tuple[float, float]:
    """(cos theta, sin theta) / (u - cos theta); injective on each domain."""
    c = math.cos(theta)
    if u <= c:
        raise OutsideDomain(f"psi map needs u > cos(theta), got ({u}, {theta})")
    return c / (u - c), math.sin(theta) / (u - c)


SCHERK2 = make(2, tuple(math.pi * j / 2 for j in range(4)))
SCHERK3 = make(3, tuple(math.pi * j / 3 for j in range(6)))
GEN3 = make(3, (0.0, 0.9, 2.0, 3.1, 4.2, 5.2), b=(0.1,))
J2 = make(2, (0.0, 0.0, math.pi, math.pi))


def domain_points(data, count, rng=RNG):
    th = rng.uniform(0, 2 * math.pi, count)
    lo = np.asarray(data.angular.max_cos(th))
    return lo + rng.uniform(0.1, 1.5, size=count), th


# ---------------------------------------------------------------- conditions

def test_conditions_scherk_any_order():
    for n in range(2, 7):
        ang = AngularData(n, tuple(math.pi * j / n for j in range(2 * n)))
        rep = check_conditions(ang)
        assert rep.graph_condition is Condition.STRICTLY_SATISFIED
        assert rep.witness is None


def test_conditions_jorge_meeks3():
    ang = AngularData.from_fractions(3, [__import__("fractions").Fraction(2 * (j // 2), 3)
                                         for j in range(6)])
    rep = check_conditions(ang)
    assert rep.graph_condition is Condition.VIOLATED
    assert rep.immersion_condition is Condition.STRICTLY_SATISFIED
    assert rep.witness is not None
    assert rep.arithmetic == "rational"


def test_conditions_boundary_case_rational():
    # n = 3 with one gap exactly pi/2
    from fractions import Fraction
    fr = [Fraction(0), Fraction(1, 2), Fraction(1, 1), Fraction(4, 3),
          Fraction(5, 3), Fraction(11, 6)]
    rep = check_conditions(AngularData.from_fractions(3, fr))
    assert rep.graph_condition is Condition.BOUNDARY_CASE
    assert rep.arithmetic == "rational"


def test_conditions_n2_immersion_unrestricted():
    for alphas in ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, math.pi),
                   (0.0, 1.0, 2.0, 3.0)):
        rep = check_conditions(AngularData(2, alphas))
        assert rep.immersion_condition is not Condition.VIOLATED


# ---------------------------------------------------------------- jacobians

def test_jacobian_scherk2_value():
    assert abs(jacobian_x1x2(SCHERK2, 2.0, 0.0) - 1.0 / 24.0) < 1e-14


def test_jacobian_against_finite_differences():
    for data in (SCHERK2, SCHERK3, GEN3):
        ev = SurfaceEvaluator(data)
        u, th = domain_points(data, 64)
        h = 1e-5
        for ui, ti in zip(u, th):
            J = jacobian_x1x2(data, ui, ti)
            vals = ev.eval_batch(np.array([ui + h, ui - h, ui, ui]),
                                 np.array([ti, ti, ti + h, ti - h]))
            fu = (vals[:, 0] - vals[:, 1]) / (2 * h)
            ft = (vals[:, 2] - vals[:, 3]) / (2 * h)
            Jfd = fu[1] * ft[2] - ft[1] * fu[2]
            assert abs(J - Jfd) <= 1e-6 * max(abs(Jfd), 1e-8)


def test_jacobian_positive_under_strict_condition():
    for data in (SCHERK2, SCHERK3):
        u, th = domain_points(data, 256)
        for ui, ti in zip(u, th):
            assert jacobian_x1x2(data, ui, ti) > 0


def test_jacobian_witness_zero():
    ang = AngularData(3, (0.0, 0.0, 2 * math.pi / 3, 2 * math.pi / 3,
                          4 * math.pi / 3, 4 * math.pi / 3))
    rep = check_conditions(ang)
    assert rep.graph_condition is Condition.VIOLATED
    u0, th0 = rep.witness
    data = make(3, ang.alphas)
    assert abs(jacobian_x1x2(data, u0, th0)) < 1e-10


def test_jacobians_x0_formulas():
    j01, j02 = jacobians_x0(SCHERK2, 2.0, 0.0)
    assert abs(j01) < 1e-14 and abs(j02 + 1.0 / 48.0) < 1e-14
    ev = SurfaceEvaluator(SCHERK3)
    u, th = domain_points(SCHERK3, 16)
    h = 1e-5
    for ui, ti in zip(u, th):
        a, b = jacobians_x0(SCHERK3, ui, ti)
        vals = ev.eval_batch(np.array([ui + h, ui - h, ui, ui]),
                             np.array([ti, ti, ti + h, ti - h]))
        fu = (vals[:, 0] - vals[:, 1]) / (2 * h)
        ft = (vals[:, 2] - vals[:, 3]) / (2 * h)
        afd = fu[0] * ft[1] - ft[0] * fu[1]
        bfd = fu[0] * ft[2] - ft[0] * fu[2]
        assert abs(a - afd) <= 1e-6 * max(abs(afd), 1e-8)
        assert abs(b - bfd) <= 1e-6 * max(abs(bfd), 1e-8)


def test_jacobians_x0_never_both_zero_n2():
    # U_0 = 1: the pair is proportional to (sin theta, -cos theta)
    u, th = domain_points(J2, 64)
    for ui, ti in zip(u, th):
        a, b = jacobians_x0(J2, ui, ti)
        assert math.hypot(a, b) > 1e-12


def test_immersion_under_condB():
    # at every sampled domain point at least one Jacobian is nonzero
    for data in (J2, SCHERK3):
        u, th = domain_points(data, 128)
        for ui, ti in zip(u, th):
            j12 = jacobian_x1x2(data, ui, ti)
            j01, j02 = jacobians_x0(data, ui, ti)
            assert max(abs(j12), abs(j01), abs(j02)) > 1e-15


def test_immersion_witness_all_jacobians_vanish():
    # one gap above 2 pi/(n-1): all three Jacobians vanish at the witness
    ang = AngularData(4, (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 3.0))
    rep = check_conditions(ang)
    assert rep.immersion_condition is Condition.VIOLATED
    u0, th0 = rep.immersion_witness
    data = make(4, ang.alphas)
    assert abs(cheb_table(2, u0, second=True)[2]) < 1e-10  # U_{n-2}, n = 4
    j01, j02 = jacobians_x0(data, u0, th0)
    assert abs(j01) < 1e-10 and abs(j02) < 1e-10
    assert abs(jacobian_x1x2(data, u0, th0)) < 1e-10


@pytest.mark.parametrize("data", [SCHERK3, GEN3, J2, make(3, (0.0,) * 6),
                                  make(3, (0.0, 0.9, 2.0, 3.1, 4.2, 5.2), b=(0.3 - 0.2j,))])
def test_metric_determinant_matches_gram_determinant(data):
    # oracle: the Lorentz Gram determinant of the 1-form partials, which
    # rounds like the product of the Euclidean lengths of its vectors
    u, th = domain_points(data, 64, np.random.default_rng(8))
    du, dt = build_oneforms(data).partials(u, th)
    lor = np.array([-1.0, 1.0, 1.0])[:, None]
    E, G, F = (lor * du * du).sum(0), (lor * dt * dt).sum(0), (lor * du * dt).sum(0)
    size = (du * du).sum(0) * (dt * dt).sum(0)
    det = metric_determinant(data, u, th)
    assert np.all(np.abs(det - (E * G - F * F)) <= 1e-10 * size)
    assert np.all(np.sign(det) == np.sign(u - 1))
    assert np.array_equal(metric_sign(data, u, th), np.sign(det))


def test_jacobian_outside_domain():
    with pytest.raises(OutsideDomain):
        jacobian_x1x2(SCHERK2, 0.3, 0.0)


# ---------------------------------------------------------------- inversion

def test_invert_round_trip():
    inv = GraphInverter(SCHERK2)
    ev = SurfaceEvaluator(SCHERK2)
    vals = ev.eval_batch(np.array([1.5]), np.array([0.9]))
    u, th, lam = inv.invert(float(vals[1, 0]), float(vals[2, 0]))
    assert abs(u - 1.5) < 1e-8 and abs(th - 0.9) < 1e-8
    assert abs(lam - vals[0, 0]) < 1e-10


def test_invert_scherk_identity_grid():
    inv = GraphInverter(SCHERK2)
    for x in np.linspace(-1.2, 1.2, 10):
        for y in np.linspace(-1.2, 1.2, 10):
            _, _, lam = inv.invert(x, y)
            # identity in doubled coordinates
            assert abs(math.cosh(2 * x) - math.exp(2 * lam) * math.cosh(2 * y)) < 1e-8


def test_invert_j2_identity():
    inv = GraphInverter(J2)
    for x in np.linspace(-1.5, 1.5, 10):
        for y in np.linspace(-1.5, 1.5, 10):
            _, _, lam = inv.invert(x, y)
            assert abs(lam - (-x) * math.tanh(2 * y)) < 1e-8


def test_invert_rejects_violated():
    data = make(3, (0.0, 0.0, 2 * math.pi / 3, 2 * math.pi / 3,
                    4 * math.pi / 3, 4 * math.pi / 3))
    with pytest.raises(PreconditionUnmet, match=r"max angular gap 2\.094395 "
                       r"exceeds pi/\(n-1\) = 1\.570796"):
        GraphInverter(data)


def test_invert_general_type():
    inv = GraphInverter(GEN3)
    ev = SurfaceEvaluator(GEN3)
    vals = ev.eval_batch(np.array([1.2]), np.array([2.4]))
    u, th, _ = inv.invert(float(vals[1, 0]), float(vals[2, 0]))
    assert abs(u - 1.2) < 1e-8 and abs(th - 2.4) < 1e-8


def test_invert_grid_and_table():
    inv = GraphInverter(SCHERK3)
    xs = np.linspace(-1.5, 1.5, 9)
    ys = np.linspace(-1.5, 1.5, 9)
    lam, lx, ly, resid, ok = graph_table(inv, xs, ys, h=1e-3)
    assert ok.all()
    assert np.max(np.abs(resid)) < 1e-9
    # gradients from the table match the 1-form graph gradients at every node
    from zmc.surface import build_oneforms, graph_gradient
    forms = build_oneforms(SCHERK3)
    u, th, _, cok, _ = inv.invert_grid(xs, ys)
    assert cok.all()
    for i, j in np.ndindex(u.shape):
        gx, gy = graph_gradient(forms, u[i, j], th[i, j])
        assert abs(gx - lx[i, j]) < 1e-10 and abs(gy - ly[i, j]) < 1e-10


def closed_form_derivatives(name, x, y, lam):
    """(lx, ly, lxx, lxy, lyy) of the gallery graphs in display
    coordinates: cosh x = e^t cosh y, t = x tanh 2y, and parabolic's
    implicit form (e^(4s) - 1) / 2 + 2 (t - x) = 4 y^2, s = t + x,
    differentiated at height lam."""
    if name == "scherk:2":
        return (np.tanh(x), -np.tanh(y), 1 / np.cosh(x) ** 2, 0 * x, -1 / np.cosh(y) ** 2)
    if name == "jorge-meeks:2":
        sech2 = 1 / np.cosh(2 * y) ** 2
        return (np.tanh(2 * y), 2 * x * sech2, 0 * x, 2 * sech2,
                -8 * x * np.tanh(2 * y) * sech2)
    e = np.exp(4 * (lam + x))
    lx, ly = -np.tanh(2 * (lam + x)), 4 * y / (e + 1)
    sech2 = 4 * e / (e + 1) ** 2  # 1 / cosh^2 2s
    return (lx, ly, -2 * sech2 * (lx + 1), -2 * sech2 * ly,
            4 / (e + 1) - 16 * y * e * ly / (e + 1) ** 2)


# measured at most 1.3e-12 on the gradient and 6.4e-12 on the Hessian
GRAD_TOL, HESS_TOL = 1e-11, 5e-11


@pytest.mark.parametrize("name", ["scherk:2", "jorge-meeks:2", "parabolic"])
def test_graph_derivatives_match_closed_forms(name):
    # every node of the 41^2 grid over [-2, 2]^2 of `zmc graph`, the origin
    # (p_infinity, parked at the l cap) and nodes next to the fold included.
    # The residual cannot vouch for the Hessian: both charts are harmonic
    # (l = log D_a, theta and z), so Hess_p of each coordinate alone has a
    # zero residual, whatever multiples of them M carries.
    entry = get_entry(name)
    norm = entry.normalization
    grid = np.linspace(-2.0, 2.0, 41)
    inv = GraphInverter(entry.data)
    u, th, lam, ok, _ = inv.invert_grid(grid / norm.scale[1], grid / norm.scale[2])
    grad, hess, resid, finite = graph_derivatives(inv, u, th, norm.scale)
    assert ok.all() and finite.all()
    X, Y = np.meshgrid(grid, grid)
    want = closed_form_derivatives(name, X, Y, norm.scale[0] * lam)
    got = (grad[0], grad[1], hess[0, 0], hess[0, 1], hess[1, 1])
    err = [np.abs(g - w).max() for g, w in zip(got, want)]
    assert max(err[:2]) < GRAD_TOL and max(err[2:]) < HESS_TOL
    assert np.abs(resid).max() < 1e-9


def test_graph_table_flags_non_finite_derivatives(monkeypatch):
    # a converged node whose chart Jacobian is singular reports ok = False,
    # and only that node
    inv = GraphInverter(SCHERK3)
    xs = np.linspace(-1.5, 1.5, 5)
    jet = inv.evaluator.jet

    def singular_at_first_node(delta, theta, order=0):
        out = jet(delta, theta, order)
        if order == 2:
            out[2][1:, 0] = 0.0  # d(x1, x2)/dtheta
        return out

    monkeypatch.setattr(inv.evaluator, "jet", singular_at_first_node)
    _, lx, ly, resid, ok = graph_table(inv, xs, xs)
    assert not ok[0, 0] and ok.sum() == ok.size - 1
    assert np.isfinite(np.array([lx, ly, resid])[:, ok]).all()


# Far from the origin scherk:3's rows miss nodes, which invert_grid's
# batched retry solves in the corner chart.
FAR_XS = np.linspace(3.0, 8.0, 6)
FAR_YS = np.linspace(2.0, 4.0, 3)


def chart_values_mp(data, a, b, s, t):
    """f~ in 50 digits at a chart point of `GraphInverter._solve`: the corner
    point (p, q) = (s, t) of sector (a, b), or with a = -1 the end point
    (l, theta) = (s, t) of the end nearest theta."""
    if a >= 0:
        return [float(v) for v in mp_corner(data, a, b)(s, t)]
    j = int(np.argmax(np.cos(t - np.asarray(data.angular.betas))))
    return [float(v) for v in mp_end(data, j, s, t)]


def assert_chart_point_reproduces(inv, x, y, lam=None):
    """The chart point `_solve` finds for (x, y) reproduces it in 50 digits
    to 1e-10 * scale, and gives the height lam."""
    *_, ok, _, chart = inv._solve([x], [y])
    assert ok[0]
    want = chart_values_mp(inv.data, *(int(c[0]) if k < 2 else c[0] for k, c in enumerate(chart)))
    scale = 1.0 + max(abs(x), abs(y))
    assert max(abs(want[1] - x), abs(want[2] - y)) <= 1e-10 * scale
    if lam is not None:
        assert abs(want[0] - lam) <= 1e-10 * scale


def test_invert_grid_far_grid_converges():
    # every node converges; invert_grid returns no chart points, so each
    # node's height is held against the one at the chart point `invert`'s
    # dispatch finds, which reproduces the target in 50 digits: the
    # preimage is unique
    inv = GraphInverter(get_entry("scherk:3").data)
    u, th, lam, ok, rn = inv.invert_grid(FAR_XS, FAR_YS)
    assert ok.shape == (3, 6) and ok.all()
    assert (rn == 0.0).any()  # some nodes only the retry solved
    X, Y = np.meshgrid(FAR_XS, FAR_YS)
    for x, y, l in zip(X.ravel(), Y.ravel(), lam.ravel()):
        assert_chart_point_reproduces(inv, x, y, l)


def test_invert_grid_far_grid_returns_flags(monkeypatch):
    # with f~ undefined (NaN) wherever x1 > 6.5, in both charts, the nodes
    # at x = 7 and 8 cannot converge: they come back flagged, and the flag
    # is the residual test
    inv = GraphInverter(get_entry("scherk:3").data)
    jet, corner = inv.evaluator.jet, inv.evaluator.corner

    def poison(vals):
        vals[:, vals[1] > 6.5] = np.nan

    def poisoned_jet(delta, theta, order=0):
        out = jet(delta, theta, order)
        poison(out[0])
        return out

    def poisoned_corner(a, b, p, q, order=0):
        out = corner(a, b, p, q, order)
        poison(out[1])
        return out

    monkeypatch.setattr(inv.evaluator, "jet", poisoned_jet)
    monkeypatch.setattr(inv.evaluator, "corner", poisoned_corner)
    u, th, lam, ok, rn = inv.invert_grid(FAR_XS, FAR_YS)
    assert ok.shape == (3, 6) and ok.any() and not ok.all()
    assert not ok[:, 4:].any()
    X, Y = np.meshgrid(FAR_XS, FAR_YS)
    scale = 1.0 + np.maximum(np.abs(X), np.abs(Y))
    assert np.array_equal(ok, rn <= 1e-10 * scale)
    assert np.all(np.isfinite(lam[ok]))


@pytest.mark.parametrize("name, x, y", [("scherk:3", 5.0, 3.0), ("scherk:3", 20.0, 20.0),
                                        ("scherk:2", 1e3, -2e3)])
def test_invert_far_points(name, x, y):
    # each of these raised AttributeError before the corner chart
    inv = GraphInverter(get_entry(name).data)
    u, th, lam = inv.invert(x, y)
    assert np.isfinite([u, th, lam]).all()
    assert_chart_point_reproduces(inv, x, y, lam)


def test_invert_raises_no_convergence_with_diagnostics(monkeypatch):
    # with both charts' Jacobians singular, Newton takes no step: invert
    # raises NoConvergence carrying the residual and the last (u, theta),
    # for a target the end chart takes first and for a deep one, along the
    # end direction 0, whose corner seed the model leaves 0.2 away
    inv = GraphInverter(SCHERK3)
    jet, corner = inv.evaluator.jet, inv.evaluator.corner

    def flat_jet(delta, theta, order=0):
        out = jet(delta, theta, order)
        if order:
            out[2][:] = 0.0
        return out

    def flat_corner(a, b, p, q, order=0):
        out = corner(a, b, p, q, order)
        if order:
            out[3][:] = 0.0
        return out

    monkeypatch.setattr(inv.evaluator, "jet", flat_jet)
    monkeypatch.setattr(inv.evaluator, "corner", flat_corner)
    for x, y in ((0.5, 0.5), (30.0, 0.0)):
        with pytest.raises(NoConvergence) as info:
            inv.invert(x, y)
        err = info.value
        assert (err.x, err.y) == (x, y)
        assert math.isfinite(err.residual)
        assert err.residual > 1e-10 * (1 + max(abs(x), abs(y)))
        assert np.isfinite(err.last).all()


def random_gap_data(seed):
    """Principal n = 3 data with every gap below pi/2, by rejection."""
    rng = np.random.default_rng(seed)
    while True:
        gaps = rng.uniform(0.05, 1.0, size=6)
        gaps *= 2 * math.pi / gaps.sum()
        if gaps.max() < math.pi / 2:
            return make(3, np.concatenate([[0.0], np.cumsum(gaps[:-1])]))


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=12, deadline=None)
# targets along an end direction: their unclipped corner seeds leave the
# chart, and for the second the best seed's sector is the wrong one
@example(seed=1, turn=0.0)
@example(seed=1416186938, turn=0.303194829291645)
def test_invert_whole_plane(seed, turn):
    # the paper's claim far out: every target on a log-spaced radial grid to
    # |x| = 1e3, and on a ring at 1e6, has a preimage whose chart point
    # reproduces it; 50 digits on a sample, doubles on all
    inv = GraphInverter(random_gap_data(seed))
    angles = 2 * math.pi * (np.arange(6) + turn) / 6
    radii = np.append(np.logspace(0.0, 3.0, 7), 1e6)
    X, Y = (np.outer(radii, f(angles)).ravel() for f in (np.cos, np.sin))
    u, th, lam, ok, rn, (a, b, s, t) = inv._solve(X, Y)
    assert ok.all()
    corner = a >= 0
    vals = np.empty((3, X.size))
    vals[:, corner] = inv.evaluator.corner(a[corner], b[corner], s[corner], t[corner])[1]
    vals[:, ~corner] = inv.evaluator.jet(np.exp(s[~corner]), t[~corner])[0]
    scale = 1 + np.maximum(np.abs(X), np.abs(Y))
    assert np.all(np.abs(vals[1:] - [X, Y]).max(axis=0) <= 1e-10 * scale)
    # u carries the clearance of the chart's nearest end as far as a double can
    near = np.where(~corner, np.argmax(np.cos(t[:, None] - inv.evaluator.betas), axis=1),
                    np.where(s <= t, a, b))
    l = np.where(corner, np.minimum(s, t), s)
    assert np.all(np.abs(u - np.cos(th - inv.evaluator.betas[near]) - np.exp(l)) <= 2e-15 * (1 + u))
    for i in (np.argmin(np.where(corner, np.minimum(s, t), s)), X.size - 1, 0, 20):
        x, y = X[i], Y[i]
        assert_chart_point_reproduces(inv, x, y, inv.invert(x, y)[2])
    # where the seed lies above depth -25, invert is the end chart's answer
    # to the bit
    _, _, p, q = inv._corner_seed(X, Y)
    for i in np.flatnonzero(~(np.minimum(p[0], q[0]) < -25.0)):
        x, y = [X[i]], [Y[i]]
        end = inv.newton_batch(x, y, *inv._cold_start(x, y))
        if end[3][0]:
            assert np.array_equal(inv.invert(X[i], Y[i]), [r[0] for r in end[:3]])


def test_invert_grid_rescued_nodes_reproduce_targets():
    # a random principal n = 3 surface whose [-2, 2]^2 rows miss 7 nodes
    data = make(3, (0.0, 1.0724798527999555, 1.5920117877623825,
                    3.0747301101615054, 4.008583837552972, 4.944751739369208))
    xs = np.linspace(-2.0, 2.0, 11)
    u, th, lam, ok, rn = GraphInverter(data).invert_grid(xs, xs)
    assert ok.all()
    rescued = rn == 0.0
    assert rescued.sum() >= 2
    X, Y = np.meshgrid(xs, xs)
    vals = SurfaceEvaluator(data).eval_batch(u[rescued], th[rescued])
    np.testing.assert_allclose(vals, np.vstack([lam[rescued], X[rescued], Y[rescued]]),
                               rtol=0, atol=1e-9)


def test_graph_table_shares_invert_grid_solve():
    inv = GraphInverter(get_entry("scherk:3").data)
    _, _, lam, ok, _ = inv.invert_grid(FAR_XS, FAR_YS)
    tlam, _, _, _, tok = graph_table(inv, FAR_XS, FAR_YS)
    assert np.array_equal(tlam, lam)
    assert np.all(ok[tok])


# ---------------------------------------------------------------- PDE residual

# The finite-difference route, the oracle for graph_table's analytic
# gradient and residual: graph heights on a 3x3 stencil of step h, each
# from its own Newton solve.

def zmc_residual_from_heights(L, h):
    """PDE residual from a 3x3 stencil of graph heights; L[i, j] sits at
    (x + (i-1) h, y + (j-1) h).  Vectorizes over trailing axes."""
    lx = (L[2, 1] - L[0, 1]) / (2 * h)
    ly = (L[1, 2] - L[1, 0]) / (2 * h)
    lxx = (L[2, 1] - 2 * L[1, 1] + L[0, 1]) / h**2
    lyy = (L[1, 2] - 2 * L[1, 1] + L[1, 0]) / h**2
    lxy = (L[2, 2] - L[2, 0] - L[0, 2] + L[0, 0]) / (4 * h**2)
    return (1 - ly**2) * lxx + 2 * lx * ly * lxy + (1 - lx**2) * lyy


def zmc_residual(data_or_inverter, x, y, h=1e-3):
    """Central-difference residual of (1-ly^2) lxx + 2 lx ly lxy + (1-lx^2) lyy
    at one point; O(h^2) small wherever lambda is smooth."""
    inv = data_or_inverter if isinstance(data_or_inverter, GraphInverter) \
        else GraphInverter(data_or_inverter)
    uc, thc, _ = inv.invert(x, y)
    L, ok = stencil_heights(inv, np.array([x]), y, np.array([uc]), np.array([thc]), h)
    assert ok.all()
    return float(zmc_residual_from_heights(L, h)[0])


def stencil_heights(inv, xs, y, u_row, th_row, h):
    """(L, ok) on the 3x3 stencil around the nodes (xs, y): each offset is
    its own Newton batch, warm-started from the nodes' preimages; L[i, j]
    sits at (xs + (i-1) h, y + (j-1) h), ok flags the nodes whose eight
    neighbours all converged."""
    L = np.empty((3, 3, xs.size))
    ok = np.ones(xs.size, dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            _, _, L[dx + 1, dy + 1], ok_s, _ = inv.newton_batch(
                xs + dx * h, np.full(xs.size, y + dy * h), u_row, th_row)
            if dx or dy:
                ok &= ok_s
    return L, ok


def test_zmc_residual_scherk():
    assert abs(zmc_residual(SCHERK2, 0.5, 0.3)) < 1e-4


def test_zmc_residual_synthetic_plane():
    L = np.zeros((3, 3))
    assert zmc_residual_from_heights(L, 1e-3) == 0.0


def test_zmc_residual_synthetic_timelike_graph():
    # t = y + arctan x solves the equation exactly
    h = 1e-3
    x0, y0 = 0.4, -0.7
    L = np.empty((3, 3))
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            L[i + 1, j + 1] = (y0 + j * h) + math.atan(x0 + i * h)
    assert abs(zmc_residual_from_heights(L, h)) < 1e-9


# ---------------------------------------------------------------- psi map

def test_psi_map_values():
    assert np.allclose(psi_map(2.0, 0.0), (1.0, 0.0))
    xi, eta = psi_map(1.0, math.pi / 2)
    assert abs(xi) < 1e-15 and abs(eta - 1.0) < 1e-12


def test_psi_map_precondition():
    with pytest.raises(OutsideDomain):
        psi_map(0.5, 0.0)


def test_psi_map_injectivity_sample():
    ang = AngularData(2, (0.0, 1.1, 2.9, 4.4))
    dom_u, dom_th = domain_points(make(2, ang.alphas), 10_000)
    xi = np.cos(dom_th) / (dom_u - np.cos(dom_th))
    eta = np.sin(dom_th) / (dom_u - np.cos(dom_th))
    order = np.lexsort((eta, xi))
    xs, es = xi[order], eta[order]
    us, ts = dom_u[order], dom_th[order]
    for i in range(len(xs) - 1):
        j = i + 1
        while j < len(xs) and xs[j] - xs[i] < 1e-8:
            if abs(es[j] - es[i]) < 1e-8:
                du = abs(us[j] - us[i])
                dth = abs(ts[j] - ts[i]) % (2 * math.pi)
                dth = min(dth, 2 * math.pi - dth)
                assert math.hypot(du, dth) < 1e-6
            j += 1


# ---------------------------------------------------------------- scans / classify

def test_injectivity_scan_entire_graphs_clean():
    for data in (SCHERK3, J2):
        assert injectivity_scan(data, grid_resolution=120) == []


def test_injectivity_scan_detects_crossings():
    fb = make(4, tuple(math.pi * j / 4 for j in range(8)), b=(-0.75, 0.0, 0.0))
    hits = injectivity_scan(fb, grid_resolution=200)
    assert hits
    assert all(c.distance < 1e-8 for c in hits)
    n3 = make(3, (0.0, 3 * math.pi / 4, 3 * math.pi / 2, 5 * math.pi / 3,
                  7 * math.pi / 4, 11 * math.pi / 6))
    assert injectivity_scan(n3, grid_resolution=200)


@pytest.mark.parametrize("kwargs", [
    {"margin": 0.0}, {"margin": -0.01}, {"margin": float("nan")},
    {"margin": float("inf")}, {"grid_resolution": 1}, {"margin": 1e-17},
    {"u_max": float("nan")}, {"u_max": float("inf")}, {"u_max": 0.5},
    {"tol_param": float("nan")}, {"tol_param": -1.0}, {"tol_param": 0.0},
    {"tol_param": float("inf")}], ids=str)
def test_injectivity_scan_rejects_bad_grid(kwargs):
    n3 = get_entry("self-intersecting-n3").data
    with pytest.raises(InputError):
        injectivity_scan(n3, **kwargs)


def _ref_near_pairs(plane, mu, local, cell, tol_param):
    """The scan's candidate stage as a loop over cells; the oracle for
    analysis._near_pairs."""
    cells = {}
    keys = np.floor(plane.T / cell).astype(np.int64)
    for i, key in enumerate(map(tuple, keys)):
        cells.setdefault(key, []).append(i)
    groups = {}
    for k, v in cells.items():
        arr = np.asarray(v)
        if arr.size > 800:
            arr = arr[:: (arr.size + 799) // 800]
        groups[k] = arr
    cand_i, cand_j = [], []
    for key, A in groups.items():
        for oi, oj in [(0, 0), (1, 0), (0, 1), (1, 1), (1, -1)]:
            B = groups.get((key[0] + oi, key[1] + oj))
            if B is None:
                continue
            d2 = np.hypot(plane[0, A][:, None] - plane[0, B][None, :],
                          plane[1, A][:, None] - plane[1, B][None, :])
            near = (d2 < cell) \
                & (np.abs(mu[A][:, None] - mu[B][None, :]) > tol_param) \
                & (np.maximum(local[A][:, None], local[B][None, :]) > 0.15 * cell) \
                & (d2 < 2.5 * np.maximum(local[A][:, None], local[B][None, :]))
            if (oi, oj) == (0, 0):
                near &= A[:, None] < B[None, :]
            ia, jb = np.nonzero(near)
            cand_i.extend(A[ia])
            cand_j.extend(B[jb])
    return np.asarray(cand_i, dtype=int), np.asarray(cand_j, dtype=int)


def _ref_dedupe_pairs(mu, cand_i, cand_j, h):
    """The scan's dedupe stage as a loop over pairs; the oracle for
    analysis._dedupe_pairs."""
    uniq = {}
    for k in range(len(cand_i)):
        i, j = cand_i[k], cand_j[k]
        ka = (round(mu[i].real / h), round(mu[i].imag / h))
        kb = (round(mu[j].real / h), round(mu[j].imag / h))
        uniq.setdefault((min(ka, kb), max(ka, kb)), k)
    picks = list(uniq.values())
    return cand_i[picks], cand_j[picks]


@pytest.mark.parametrize("name", ["self-intersecting-n3", "self-intersecting-fb",
                                  "scherk:3", "jorge-meeks:2"])
def test_injectivity_scan_matches_loop_reference(name, monkeypatch):
    data = get_entry(name).data
    calls = []
    near_pairs, dedupe_pairs = analysis._near_pairs, analysis._dedupe_pairs

    def checked_near_pairs(*args):
        I, J = near_pairs(*args)
        rI, rJ = _ref_near_pairs(*args)
        calls.append(I.size)
        assert np.array_equal(I, rI) and np.array_equal(J, rJ)
        return I, J

    def checked_dedupe_pairs(*args):
        I, J = dedupe_pairs(*args)
        rI, rJ = _ref_dedupe_pairs(*args)
        assert np.array_equal(I, rI) and np.array_equal(J, rJ)
        return I, J

    monkeypatch.setattr(analysis, "_near_pairs", checked_near_pairs)
    monkeypatch.setattr(analysis, "_dedupe_pairs", checked_dedupe_pairs)
    hits = injectivity_scan(data, grid_resolution=120)
    assert len(calls) == 1
    monkeypatch.setattr(analysis, "_near_pairs", _ref_near_pairs)
    monkeypatch.setattr(analysis, "_dedupe_pairs", _ref_dedupe_pairs)
    assert hits == injectivity_scan(data, grid_resolution=120)
    assert bool(hits) == name.startswith("self-intersecting")


def test_near_pairs_crowded_cell_matches_loop_reference():
    # one cell of about 860 points runs the 800-point cap (every 2nd point
    # kept); shuffled indices interleave the cells' first appearances
    rng = np.random.default_rng(7)
    plane = np.hstack([rng.uniform(-3.0, 3.0, (2, 1500)), rng.uniform(0.0, 1.0, (2, 820))])
    perm = rng.permutation(plane.shape[1])
    plane = plane[:, perm]
    mu = 0.3 * (rng.uniform(-1, 1, plane.shape[1]) + 1j * rng.uniform(-1, 1, plane.shape[1]))
    local = rng.uniform(0.05, 1.0, plane.shape[1])
    I, J = analysis._near_pairs(plane, mu, local, 1.0, 0.2)
    rI, rJ = _ref_near_pairs(plane, mu, local, 1.0, 0.2)
    assert rI.size > 10_000
    assert np.array_equal(I, rI) and np.array_equal(J, rJ)
    dI, dJ = analysis._dedupe_pairs(mu, I, J, 0.1)
    rdI, rdJ = _ref_dedupe_pairs(mu, rI, rJ, 0.1)
    assert 0 < dI.size < I.size
    assert np.array_equal(dI, rdI) and np.array_equal(dJ, rdJ)


def test_umbilics_examples():
    scherk4 = make(4, tuple(math.pi * j / 4 for j in range(8)))
    assert umbilics(scherk4) == ((0j, 2),)
    assert umbilics(SCHERK2) == ()
    um = umbilics(GEN3)
    assert sum(m for _, m in um) == 1


def test_classify_reports():
    rep = classify(SCHERK2)
    assert rep.entire_graph_certified and rep.fold.is_fold_type
    assert rep.period_residual < 1e-10
    assert rep.conditions.umbilics == ()
    rep3 = classify(make(3, (0.0, 0.0, 2 * math.pi / 3, 2 * math.pi / 3,
                             4 * math.pi / 3, 4 * math.pi / 3)))
    assert rep3.conditions.graph_condition is Condition.VIOLATED
    assert not rep3.entire_graph_certified
    assert rep3.hopf_orders == (6, 2)
    fb = make(4, tuple(math.pi * j / 4 for j in range(8)), b=(-0.75, 0.0, 0.0))
    repfb = classify(fb)
    assert not repfb.entire_graph_certified          # general type: no certificate
    assert repfb.conditions.witness is None
    assert sum(m for _, m in repfb.conditions.umbilics) == 2


def test_invert_parabolic_entire_graph():
    # boundary-case repeated angles at order 2 still invert; the height
    # solves the surface's implicit equation
    data = make(2, (0.0, 0.0, 0.0, math.pi))
    inv = GraphInverter(data)
    for x in np.linspace(-0.8, 0.8, 5):
        for y in np.linspace(-0.8, 0.8, 5):
            _, _, lam = inv.invert(x, y)
            phi = 0.5 * (math.exp(4 * (lam + x)) - 1) + 2 * (lam - x) - 4 * y * y
            assert abs(phi) < 1e-8


# ---------------------------------------------------------------- Newton layer

PARABOLIC = make(2, (0.0, 0.0, 0.0, math.pi))


@pytest.mark.parametrize("data, x, y", [(SCHERK2, 100.0, 0.0), (SCHERK2, 0.0, 100.0),
                                        (SCHERK3, 0.0, 100.0)])
def test_newton_batch_singular_jacobian_is_quiet(data, x, y):
    # cold-started far out, Newton meets singular Jacobians; their inf/NaN
    # steps fail the line search without a numpy RuntimeWarning
    inv = GraphInverter(data)
    u0, th0 = inv._cold_start([x], [y])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, th, lam, ok, rn = inv.newton_batch([x], [y], u0, th0)
    assert np.isfinite(rn).all()


@pytest.mark.parametrize("data, x, y", [(SCHERK3, 0.3, 0.4), (SCHERK3, 1.5, -0.7),
                                        (PARABOLIC, 0.3, 0.4), (PARABOLIC, 1.0, -0.5)])
def test_newton_batch_freezes_stalled_nodes(data, x, y, monkeypatch):
    # with atol = 0 a converged node can never go inactive; it must be
    # frozen once a sweep leaves it where it is, not swept to maxiter
    inv = GraphInverter(data)
    u, th, lam = inv.invert(x, y)
    calls = []
    chart_values = inv._chart_values

    def counted(l, th, partials=True):
        calls.append(np.size(l))
        return chart_values(l, th, partials)

    monkeypatch.setattr(inv, "_chart_values", counted)
    u2, th2, lam2, ok, rn = inv.newton_batch([x], [y], [u], [th], atol=0.0)
    # a sweep: one Jacobian, up to 40 line-search trials, one re-evaluation
    assert len(calls) <= 1 + 3 * 42
    assert ok[0] and abs(lam2[0] - lam) < 1e-12


# Nodes are independent in newton_batch up to rounding: numpy computes a
# one-column matrix product with BLAS gemv, which rounds unlike the gemm of
# a wider batch, so a node that sweeps alone in one batch and in company in
# another can end a few ulps apart (it happens next to scherk:3's origin).
HEIGHT_ROUNDING = 1e-14


@pytest.mark.parametrize("data", [SCHERK3, PARABOLIC], ids=["log", "engine"])
def test_newton_batch_concatenation_matches_separate_calls(data):
    inv = GraphInverter(data)
    xs = np.linspace(-1.5, 1.5, 9)
    sets = [(xs, np.full(9, 0.5)), (0.7 * xs[::-1], np.full(9, -1.1))]
    parts = [inv.newton_batch(X, Y, *inv._cold_start(X, Y)) for X, Y in sets]
    X = np.concatenate([X for X, _ in sets])
    Y = np.concatenate([Y for _, Y in sets])
    whole = inv.newton_batch(X, Y, *inv._cold_start(X, Y))
    u, th, lam, ok, rn = (np.concatenate([p[k] for p in parts]) for k in range(5))
    assert ok.all() and np.array_equal(whole[3], ok)
    np.testing.assert_allclose(whole[2], lam, rtol=0, atol=HEIGHT_ROUNDING)
    np.testing.assert_allclose(whole[0], u, rtol=1e-12)
    np.testing.assert_allclose(np.exp(1j * whole[1]), np.exp(1j * th), rtol=0, atol=1e-12)


# On scherk:3 over [-1.5, 1.5]^2 the stencil's truncation error is at most
# 1.41 h^2 on lx, 1.02 h^2 on ly and 2.40 h^2 on the residual, the same
# constants at h = 4e-3, 2e-3 and 1e-3.
STENCIL_C = 3.0


def test_graph_table_matches_per_offset_stencil_loop():
    inv = GraphInverter(SCHERK3)
    xs = np.linspace(-1.5, 1.5, 9)
    lam, lx, ly, resid, ok = graph_table(inv, xs, xs)
    # reference: each row's Newton, and each stencil offset of each row in
    # its own Newton batch
    u_row, th_row = inv._cold_start(xs, np.full(9, xs[0]))
    for i, y in enumerate(xs):
        yy = np.full(9, y)
        u_row, th_row, lam_row, ok_row, _ = inv.newton_batch(xs, yy, u_row, th_row)
        assert np.array_equal(lam[i], lam_row) and np.array_equal(ok[i], ok_row)
        for h in (2e-3, 1e-3):
            L, ok_s = stencil_heights(inv, xs, y, u_row, th_row, h)
            assert ok_s.all()
            for got, want, tol in ((lx[i], (L[2, 1] - L[0, 1]) / (2 * h), 1 / h),
                                   (ly[i], (L[1, 2] - L[1, 0]) / (2 * h), 1 / h),
                                   (resid[i], zmc_residual_from_heights(L, h), 4 / h**2)):
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=STENCIL_C * h**2 + tol * HEIGHT_ROUNDING)
