import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zmc import analysis
from zmc.analysis import (Condition, GraphInverter, causal_label, check_conditions, classify,
                          graph_derivatives, graph_table, injectivity_scan,
                          jacobian_x1x2, metric_determinant, umbilics)
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
MIXED3 = make(3, (0.0, 0.0, math.pi / 2, math.pi, math.pi, 3 * math.pi / 2))


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
    want = np.where(det > 0, "spacelike", np.where(det < 0, "timelike", "lightlike"))
    assert np.array_equal(causal_label(data, u, th), want)


def test_jacobian_outside_domain():
    with pytest.raises(OutsideDomain):
        jacobian_x1x2(SCHERK2, 0.3, 0.0)


@pytest.mark.parametrize("u, theta", [(math.nan, 0.3), (1.5, math.nan), (math.inf, 0.3)])
def test_jacobian_refuses_non_finite(u, theta):
    # a NaN fails the domain test, and an infinite u is no point of the domain
    with pytest.raises(OutsideDomain):
        jacobian_x1x2(get_entry("scherk:3").data, u, theta)


# ---------------------------------------------------------------- inversion

def test_invert_round_trip():
    inv = GraphInverter(SCHERK2)
    ev = SurfaceEvaluator(SCHERK2)
    vals = ev.eval_batch(np.array([1.5]), np.array([0.9]))
    u, th, lam = inv.invert(float(vals[1, 0]), float(vals[2, 0]))
    assert abs(u - 1.5) < 1e-8 and abs(th - 0.9) < 1e-8
    assert abs(lam - vals[0, 0]) < 1e-10


def test_invert_far_probe_solves_in_the_corner_chart(monkeypatch):
    # (-4.963, 6.202) on scherk:2: its corner seed leaves a smaller residual
    # than the seed bank, so the corner chart solves it in a few evaluator
    # calls (measured 4), where a 126-call end-chart run used to stop at the
    # loose test 2.6e-10 off; lambda keeps the 50-digit closed form
    # (log cosh 2x - log cosh 2y) / 2 to 1e-15 (measured 1e-16)
    inv = GraphInverter(get_entry("scherk:2").data)
    calls, jet, corner = [], inv.evaluator.jet, inv.evaluator.corner
    monkeypatch.setattr(inv.evaluator, "jet", lambda *a: calls.append(a) or jet(*a))
    monkeypatch.setattr(inv.evaluator, "corner", lambda *a: calls.append(a) or corner(*a))
    x, y = -4.963, 6.202
    lam = inv.invert(x, y)[2]
    assert len(calls) <= 10
    with mp.workdps(50):
        want = (mp.log(mp.cosh(2 * mp.mpf(x))) - mp.log(mp.cosh(2 * mp.mpf(y)))) / 2
        assert abs(lam - want) <= 1e-15 * (1 + abs(lam))


def test_invert_corner_run_in_the_wrong_sector_is_capped(monkeypatch):
    # on this random n = 3 surface the best corner seed of (-1.2, -1.6), in
    # sector (0, 1), beats the seed bank, but that chart does not hold the
    # preimage: Newton creeps there with damped steps.  Once the run stalls
    # (`_stalled`) the next sector solves it: 52 evaluator calls (57 under a
    # fixed cap of 10 corner sweeps), where a full 60-sweep run in the first
    # sector made 322
    data = make(3, (0.0, 0.40161887804327845, 1.8801721927476516, 3.0358415460901265,
                    4.45883424070194, 5.558687614741227))
    inv = GraphInverter(data)
    x, y = -1.2, -1.6
    sa, sb, _, _, crn, _ = inv._corner_seed(np.array([x]), np.array([y]))
    assert (sa[0, 0], sb[0, 0]) == (0, 1) and crn[0, 0] < inv._nearest_seed(np.array([[x], [y]]))[0][0]
    calls, corner = [], inv.evaluator.corner
    monkeypatch.setattr(inv.evaluator, "corner", lambda *a: calls.append(a) or corner(*a))
    lam = inv.invert(x, y)[2]
    assert len(calls) <= 70
    a, b = inv._solve([x], [y])[5][:2]
    assert (a[0], b[0]) == (1, 2)
    assert_chart_point_reproduces(inv, x, y, lam)


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


def test_invert_rejects_repeated_angles_above_order_two():
    with pytest.raises(PreconditionUnmet,
                       match="entire-graph certification needs distinct angles for n > 2"):
        GraphInverter(MIXED3)


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
    l, th, lam, ok, _ = inv._grid(grid / norm.scale[1], grid / norm.scale[2])
    grad, hess, resid, finite = graph_derivatives(inv, l, th, norm.scale)
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

    def singular_at_first_node(l, theta, order=0):
        out = jet(l, theta, order)
        if order == 2:
            out[2][1:, 0] = 0.0  # d(x1, x2)/dtheta
        return out

    monkeypatch.setattr(inv.evaluator, "jet", singular_at_first_node)
    _, lx, ly, resid, ok = graph_table(inv, xs, xs)
    assert not ok[0, 0] and ok.sum() == ok.size - 1
    assert np.isfinite(np.array([lx, ly, resid])[:, ok]).all()


def _ref_graph_derivatives(inverter, l, th, scale=(1.0, 1.0, 1.0)):
    """`graph_derivatives` with the disk branch's twelve numpy `polyval`
    calls (num, den, num', den' of each phi form, one call each): the oracle
    for its stacked Horner."""
    shape, l, t = np.shape(l), np.ravel(l), np.ravel(th)
    with np.errstate(all="ignore"):
        F = inverter.evaluator.jet(l, t, order=2)[1:]
        far = l > math.log(2.0)
        u, tf = inverter._from_chart(l[far], t[far])
        z = np.exp(1j * tf) / (u + np.sqrt(u * u - 1.0))
        polys = [(f.num, f.den, f.num.deriv(), f.den.deriv()) for f in inverter.data.phi]
        n, d, dn, dd = np.array([[f(z) for f in fs] for fs in polys]).swapaxes(0, 1)
        f1 = n / d
        f2 = (dn - f1 * dd) / d
        for Fk, Dk in zip(F, (f1.real, -f1.imag, f2.real, -f2.imag, -f2.real)):
            Fk[:, far] = Dk
        F1, F2, F11, F12, F22 = F
        det = F1[1] * F2[2] - F2[1] * F1[2]
        Jinv = np.array([[F2[2], -F2[1]], [-F1[2], F1[1]]]) / det
        grad = np.einsum("pin,pn->in", Jinv, np.array([F1[0], F2[0]]))
        Hp = np.array([[F11, F12], [F12, F22]])
        M = Hp[:, :, 0] - grad[0] * Hp[:, :, 1] - grad[1] * Hp[:, :, 2]
        hess = np.einsum("pin,pqn,qjn->ijn", Jinv, M, Jinv)
        s = np.array(scale[1:])
        grad *= scale[0] / s[:, None]
        hess *= scale[0] / np.outer(s, s)[:, :, None]
        (lx, ly), H = grad, hess
        resid = (1 - ly**2) * H[0, 0] + 2 * lx * ly * H[0, 1] + (1 - lx**2) * H[1, 1]
    finite = np.isfinite(grad).all(axis=0) & np.isfinite(resid)
    return tuple(a.reshape(a.shape[:-1] + shape) for a in (grad, hess, resid, finite))


@pytest.mark.parametrize("name", ["scherk:2", "scherk:3", "scherk:4", "jorge-meeks:2",
                                  "parabolic", "self-intersecting-fb"])
def test_graph_derivatives_disk_branch_matches_polyval(name):
    # towards the origin (e^l > 2) the twelve polynomials of the disk branch
    # go through one Horner over a zero-padded coefficient array: bit for bit
    # the twelve `polyval` calls, with the jet evaluated here or passed in.
    # The jet's order <= 1 rows at order 2 are its order-1 jet, which lets
    # `zmc graph` read its chart error off the same jet
    inv = GraphInverter(get_entry(name).data)
    scale = (1.5, 0.5, 2.0)
    for R in (0.3, 2.0):
        xs = np.linspace(-R, R, 41)
        l, th = inv._grid(xs, xs)[:2]
        assert (l > math.log(2.0)).sum() >= 9
        want = _ref_graph_derivatives(inv, l, th, scale)
        F = inv.evaluator.jet(l.ravel(), th.ravel(), 2)[1:]
        for got in (graph_derivatives(inv, l, th, scale), graph_derivatives(inv, l, th, scale, F)):
            assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))
        one, two = (inv.evaluator.jet(l.ravel(), th.ravel(), k) for k in (1, 2))
        assert all(np.array_equal(a, b) for a, b in zip(one, two[:3]))


# Far from the origin `invert`'s dispatch solves some of scherk:3's nodes in
# the corner chart.
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


def assert_chart_point_reproduces(inv, x, y, lam=None, chart=None):
    """The chart point (a, b, s, t) `_solve` finds for (x, y), or the one
    given, reproduces it in 50 digits to 1e-10 * scale, and gives the
    height lam."""
    if chart is None:
        *_, ok, _, chart = inv._solve([x], [y])
        assert ok[0]
        chart = [c[0] for c in chart]
    a, b, s, t = chart
    want = chart_values_mp(inv.data, int(a), int(b), s, t)
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
    X, Y = np.meshgrid(FAR_XS, FAR_YS)
    a = inv._solve(X, Y)[5][0]
    assert (a >= 0).any()  # some nodes only the corner chart solves
    for x, y, l in zip(X.ravel(), Y.ravel(), lam.ravel()):
        assert_chart_point_reproduces(inv, x, y, l)


def test_invert_grid_retries_loosely_converged_nodes():
    # far out a node left above Newton's tolerance can still pass the looser
    # converged test, and miss scherk:2's closed form by up to 2.7e-10;
    # every node keeps it to 1e-11
    entry = get_entry("scherk:2")
    xs = np.linspace(-20.0, 20.0, 21)
    u, th, lam, ok, rn = GraphInverter(entry.data).invert_grid(xs, xs)
    assert ok.all()
    X, Y = np.meshgrid(xs, xs)
    s0, s1, s2 = entry.normalization.scale
    want = (np.log(np.cosh(s1 * X)) - np.log(np.cosh(s2 * Y))) / s0
    assert np.all(np.abs(lam - want) <= 1e-11 * (1 + np.abs(want)))


def test_invert_grid_far_grid_returns_flags(monkeypatch):
    # with f~ undefined (NaN) wherever x1 > 6.5, in both charts, the nodes
    # at x = 7 and 8 cannot converge: they come back flagged, and the flag
    # is the residual test
    inv = GraphInverter(get_entry("scherk:3").data)
    jet, corner = inv.evaluator.jet, inv.evaluator.corner

    def poison(vals):
        vals[:, vals[1] > 6.5] = np.nan

    def poisoned_jet(l, theta, order=0):
        out = jet(l, theta, order)
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

    def flat_jet(l, theta, order=0):
        out = jet(l, theta, order)
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


def test_invert_non_finite_target_raises_no_convergence():
    # the seed bank's nearest-point search cannot take a NaN target, and
    # finds no seed where every distance overflows: such a target still
    # gets a seed, and no chart point reaches it.  Near the largest double
    # the residual's hypot overflows, which Newton takes without a warning
    inv = GraphInverter(SCHERK3)
    for x, y in ((math.nan, 0.0), (math.inf, 0.0), (1e308, 0.0), (0.0, -math.inf),
                 (1.7e308, 1.7e308)):
        with pytest.raises(NoConvergence):
            inv.invert(x, y)
    for name in ("scherk:2", "jorge-meeks:2", "parabolic"):
        with pytest.raises(NoConvergence):
            GraphInverter(get_entry(name).data).invert(1.7e308, 1.7e308)


def test_invert_grid_empty_axes():
    inv = GraphInverter(SCHERK3)
    for xs, ys in (([], []), ([1.0], []), ([], [1.0, 2.0])):
        out = inv.invert_grid(xs, ys)
        assert len(out) == 5 and all(a.shape == (len(ys), len(xs)) for a in out)


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
# a corner solve whose theta lies nearest an end outside its sector
@example(seed=2214, turn=0.0)
# (100, 0) lies in the thin image of sector (5, 0), gap 2e-3 below pi/2:
# its corner run needs up to 15 sweeps
@example(seed=122001676, turn=0.0)
def test_invert_whole_plane(seed, turn):
    # the paper's claim far out: every target on a log-spaced radial grid to
    # |x| = 1e3, and on a ring at 1e6, has a preimage whose chart point
    # reproduces it; 50 digits on a sample, doubles on all
    inv = GraphInverter(random_gap_data(seed))
    angles = 2 * math.pi * (np.arange(6) + turn) / 6
    radii = np.append(np.logspace(0.0, 3.0, 7), 1e6)
    X, Y = (np.outer(radii, f(angles)).ravel() for f in (np.cos, np.sin))
    l, th, lam, ok, rn, (a, b, s, t) = inv._solve(X, Y)
    assert ok.all()
    corner = a >= 0
    assert np.array_equal(l[~corner], s[~corner]) and np.array_equal(th[~corner], t[~corner])
    # a corner solve's l is the log clearance of the end j nearest its theta,
    # by the argmax of cos(theta - beta_j): min(p, q) where j is a or b, and
    # D_j = D_a + cos(theta - beta_a) - cos(theta - beta_j) wherever j lies
    beta = inv.evaluator.betas
    near = np.argmax(np.cos(th[:, None] - beta), axis=1)
    ab = corner & ((near == a) | (near == b))
    assert np.array_equal(l[ab], np.minimum(s, t)[ab])
    D = np.exp(s) + np.cos(th - beta[a]) - np.cos(th - beta[near])
    assert np.all(np.abs(np.exp(l) - D)[corner] <= 4e-15 * (1 + np.exp(s))[corner])
    u, th = inv._from_chart(l, th)
    vals = np.empty((3, X.size))
    vals[:, corner] = inv.evaluator.corner(a[corner], b[corner], s[corner], t[corner])[1]
    vals[:, ~corner] = inv.evaluator.jet(s[~corner], t[~corner])[0]
    scale = 1 + np.maximum(np.abs(X), np.abs(Y))
    assert np.all(np.abs(vals[1:] - [X, Y]).max(axis=0) <= 1e-10 * scale)
    # u carries the clearance of the nearest end as far as a double can
    assert np.all(np.abs(u - np.cos(th - beta[near]) - np.exp(l)) <= 2e-15 * (1 + u))
    for i in (np.argmin(l), X.size - 1, 0, 20):
        x, y = X[i], Y[i]
        assert_chart_point_reproduces(inv, x, y, inv.invert(x, y)[2])
    # where the nearest seed-bank point is at least as close as the best
    # corner seed, invert is the end chart's answer to the bit, with u formed
    # from its chart point; elsewhere the corner chart solves the target
    crn = inv._corner_seed(X, Y)[4][0]
    first = crn < inv._nearest_seed(np.array([X, Y]))[0]
    assert np.all(a[first] >= 0)
    for i in np.flatnonzero(~first):
        l, th, lam, ok, _ = inv.newton_batch([X[i]], [Y[i]])
        if ok[0]:
            end = inv._from_chart(l, th) + (lam,)
            assert np.array_equal(inv.invert(X[i], Y[i]), [r[0] for r in end])


def near_boundary_data(eps):
    """Principal n = 3 data with gaps (pi/2 - eps, pi/2 - eps, r, r, r, r),
    r = pi/4 + eps/2: far out, the sectors of the two gaps next to the
    boundary pi/2 have nearly singular affine models and map onto thin
    strips (ROADMAP item 16)."""
    r = math.pi / 4 + eps / 2
    return make(3, np.concatenate([[0.0], np.cumsum([math.pi / 2 - eps] * 2 + [r] * 3)]))


def test_invert_near_boundary_strip_converges_whole():
    # the strip of (100, 0) above: every node of a 41^2 grid over it solves,
    # where 10 corner sweeps solved 340 of 1681
    inv = GraphInverter(random_gap_data(122001676))
    X, Y = np.meshgrid(np.linspace(60.0, 120.0, 41), np.linspace(-0.05, 0.05, 41))
    assert inv._solve(X.ravel(), Y.ravel())[3].all()


@pytest.mark.parametrize("eps, R", [(1e-2, R) for R in (10.0, 30.0, 100.0, 300.0, 1e3)]
                         + [(eps, R) for eps in (1e-3, 1e-4, 1e-6) for R in (10.0, 30.0)])
def test_invert_near_boundary_rings_converge_whole(eps, R):
    # rings of 14,400 targets; at eps = 1e-2, 10 corner sweeps missed 10 / 3
    # / 1 of them at R = 100 / 300 / 1e3, and at eps = 1e-6 a stall window of
    # 3 sweeps misses 2 at R = 10 (smaller eps miss more far out: ROADMAP 16)
    inv = GraphInverter(near_boundary_data(eps))
    angles = 2 * math.pi * np.arange(14_400) / 14_400
    assert inv._solve(R * np.cos(angles), R * np.sin(angles))[3].all()


def _ref_solve(self, X, Y):
    """GraphInverter._solve as it was before it skipped work: every target
    queries the seed bank, and every corner run enters `_newton`, also one
    whose seed already meets Newton's tolerance; the oracle for the
    production dispatch's two shortcuts."""
    X, Y = T = np.array([X, Y], dtype=float).reshape(2, -1)
    sa, sb, p, q, crn, cv = self._corner_seed(X, Y)
    dist, (sl, sth) = self._nearest_seed(T)
    first = (crn[:1] < dist).any(axis=0)
    out = np.full((9, X.size), np.nan)
    out[3], out[7:] = 0.0, -1.0

    def end(k):
        if k.size:
            l, th, *res = self.newton_batch(X[k], Y[k], (sl[k], sth[k]))
            take = ~(res[2] >= out[4, k])
            out[:7, k[take]], out[7:, k[take]] = np.array([l, th, *res, l, th])[:, take], -1
    end((~first).nonzero()[0])
    for r in range(len(p)):
        k = ((out[3] == 0.0) & ~np.isnan(p[r])).nonzero()[0]
        if not k.size:
            break
        ka, kb = sa[r, k], sb[r, k]
        pk, qk, *res = self._newton(
            lambda i, p, q, d=True: self.evaluator.corner(ka[i], kb[i], p, q, int(d))[1:],
            p[r, k], q[r, k], cv[:, r, k], T[:, k], stall=True)
        take = ~(res[2] >= out[4, k])
        out[2:, k[take]] = np.array([*res, pk, qk, ka, kb])[:, take]
    end((first & (out[3] == 0.0)).nonzero()[0])
    l, th, lam, ok, rn, s, t, a, b = *out[:7], *out[7:].astype(np.int64)
    k = (a >= 0).nonzero()[0]
    ka, kb, pk, qk = a[k], b[k], s[k], t[k]
    with np.errstate(all="ignore"):
        th[k] = thk = self.evaluator.corner_theta(ka, kb, pk, qk)[0]
        near = np.cos(thk[:, None] - self.evaluator.betas).argmax(axis=1)
        dj = np.exp(pk) + self.evaluator.dcos(thk, ka)[near, np.arange(k.size)]
        l[k] = np.where((near == ka) | (near == kb), np.minimum(pk, qk), np.log(dj))
    return l, th, lam, ok == 1.0, rn, (a, b, s, t)


def assert_solve_matches_reference(inv, X, Y):
    """The six outputs of `_solve` and `_ref_solve`, bit for bit, and the
    same end-chart runs: `newton_batch` on the same targets from the same
    seed-bank points, in the same order (the first chart is the same)."""
    runs, batch = [], inv.newton_batch

    def recorded(X, Y, start=None):
        seeds = inv._nearest_seed(np.array([X, Y]))[1] if start is None else start
        runs.append((X, Y, *seeds))
        return batch(X, Y, start)
    inv.newton_batch = recorded
    try:
        got = inv._solve(X, Y)
        n = len(runs)
        want = _ref_solve(inv, X, Y)
    finally:
        del inv.newton_batch
    for g, w in zip(got[:5] + got[5], want[:5] + want[5]):
        assert np.array_equal(g, w, equal_nan=True)
    assert len(runs) == 2 * n
    for g, w in zip(runs[:n], runs[n:]):
        assert all(np.array_equal(np.asarray(u), np.asarray(v), equal_nan=True)
                   for u, v in zip(g, w))


RING_ANGLES = 2 * math.pi * (np.arange(24) + 0.37) / 24


@pytest.mark.parametrize("name", ["scherk:2", "scherk:3", "scherk:4", "scherk:5",
                                  "jorge-meeks:2", "parabolic", "near-boundary"])
def test_solve_matches_dispatch_reference(name):
    # rings from R = 1 to 1e6 and non-finite targets: skipping the seed-bank
    # query where a corner seed beats every bank point, and `_newton` where a
    # seed already meets its tolerance, changes no bit of any output
    data = near_boundary_data(1e-3) if name == "near-boundary" else get_entry(name).data
    inv = GraphInverter(data)
    R = np.array([1.0, 2.0, 10.0, 100.0, 1e3, 1e6])[:, None]
    X, Y = (np.ravel(R * f(RING_ANGLES)) for f in (np.cos, np.sin))
    assert_solve_matches_reference(inv, X, Y)
    big = [1e200, -1e200, math.inf, -math.inf, math.nan, 3.0]
    X, Y = np.array([(x, y) for x in big for y in big]).T
    assert_solve_matches_reference(inv, X, Y)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_solve_matches_dispatch_reference_on_random_data(seed):
    inv = GraphInverter(random_gap_data(seed))
    R = np.array([1.0, 3.0, 30.0, 300.0, 1e4])[:, None]
    X, Y = (np.ravel(R * f(RING_ANGLES)) for f in (np.cos, np.sin))
    assert_solve_matches_reference(inv, X, Y)


def test_solve_ties_at_the_bank_bound_query_the_bank(monkeypatch):
    # targets on the ray through scherk:2's farthest bank image s lie exactly
    # |T| - |s| from it, and the rounded |T| - R_bank can exceed the queried
    # distance; a best corner seed exactly as close as that distance starts
    # in the end chart (a tie goes to the bank), so the bound must not
    # decide it: the dispatch keeps a relative margin below |T| - R_bank
    inv = GraphInverter(get_entry("scherk:2").data)
    s = inv._seed_tree.data[np.hypot(*inv._seed_tree.data.T).argmax()]
    T = np.outer(s / np.hypot(*s), np.linspace(2.0, 6.0, 401))
    d = inv._nearest_seed(T)[0]
    tie = np.hypot(*T) - inv._bank_r > d
    assert tie.sum() >= 20
    X, Y = T[:, tie]
    seed = inv._corner_seed

    def tied(X, Y):
        *rest, crn, cv = seed(X, Y)
        crn[0] = inv._nearest_seed(np.array([X, Y]))[0]
        return (*rest, crn, cv)
    monkeypatch.setattr(inv, "_corner_seed", tied)
    assert_solve_matches_reference(inv, X, Y)
    assert (_ref_solve(inv, X, Y)[5][0] == -1).all()  # the end chart solves each


def test_far_probe_with_a_converged_corner_seed_skips_newton_and_the_bank(monkeypatch):
    # (300, 120) on scherk:3: the best corner seed already meets Newton's
    # tolerance and lies far closer than any bank point can, so `invert`
    # makes one corner-chart evaluation, queries no bank point and runs no
    # Newton sweep; (0.3, 0.2), next to the bank, still queries it
    inv = GraphInverter(SCHERK3)
    calls, corner, nearest = [], inv.evaluator.corner, inv._nearest_seed
    monkeypatch.setattr(inv.evaluator, "corner", lambda *a: calls.append("corner") or corner(*a))
    monkeypatch.setattr(inv, "_nearest_seed", lambda *a: calls.append("bank") or nearest(*a))
    monkeypatch.setattr(inv, "_newton", None)
    lam = inv.invert(300.0, 120.0)[2]
    assert calls == ["corner"]
    assert_chart_point_reproduces(inv, 300.0, 120.0, lam)
    monkeypatch.undo()
    monkeypatch.setattr(inv, "_nearest_seed", lambda *a: calls.append("bank") or nearest(*a))
    calls.clear()
    inv.invert(0.3, 0.2)
    assert calls == ["bank"]


def test_invert_corner_solve_off_its_sector_reproduces_target():
    # (-1.4, -1.4) solves in the corner chart of sector (2, 3), where end 1
    # is the nearest: u comes from that end's clearance, and (u, theta)
    # re-evaluates to the target
    x, y = -1.4, -1.4
    inv = GraphInverter(random_gap_data(2214))
    _, th, _, _, _, (a, b, _, _) = inv._solve([x], [y])
    assert (a[0], b[0]) == (2, 3)
    assert np.argmax(np.cos(th[0] - inv.evaluator.betas)) == 1
    u, th, lam = inv.invert(x, y)
    vals = inv.evaluator.eval_batch([u], [th])[:, 0]
    assert np.abs(vals - [lam, x, y]).max() <= 1e-10 * (1 + max(abs(x), abs(y)))


@pytest.mark.parametrize("name", ["scherk:2", "scherk:3", "scherk:4", "scherk:5", 1, 2214])
def test_corner_solve_theta_is_the_chart_theta(name):
    # `_solve` forms a corner solve's theta by the chart formula alone: on a
    # probe ring (11 radii from 1 to 1e3, 5 angles) of the scherk surfaces
    # and two random n = 3 surfaces it is `corner`'s theta at the solved
    # chart point, bit for bit
    inv = GraphInverter(get_entry(name).data if isinstance(name, str) else random_gap_data(name))
    angles = 2 * math.pi * (np.arange(5) + 0.37) / 5
    X, Y = (np.outer(np.logspace(0.0, 3.0, 11), f(angles)).ravel() for f in (np.cos, np.sin))
    _, th, *_, (a, b, s, t) = inv._solve(X, Y)
    k = np.flatnonzero(a >= 0)
    assert k.size >= 20
    assert np.array_equal(th[k], inv.evaluator.corner(a[k], b[k], s[k], t[k])[0])


RANDOM_N3 = make(3, (0.0, 1.0724798527999555, 1.5920117877623825,
                     3.0747301101615054, 4.008583837552972, 4.944751739369208))


def test_invert_grid_rescued_nodes_reproduce_targets():
    # every preimage (u, theta) of a random principal n = 3 surface's
    # [-2, 2]^2 grid re-evaluates to its target and height (measured 6.5e-11)
    xs = np.linspace(-2.0, 2.0, 11)
    u, th, lam, ok, rn = GraphInverter(RANDOM_N3).invert_grid(xs, xs)
    assert ok.all()
    X, Y = np.meshgrid(xs, xs)
    vals = SurfaceEvaluator(RANDOM_N3).eval_batch(u.ravel(), th.ravel())
    np.testing.assert_allclose(vals, np.vstack([lam.ravel(), X.ravel(), Y.ravel()]),
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("data, res", [(SCHERK3, 41), (RANDOM_N3, 11)],
                         ids=["scherk:3", "random-n3"])
def test_invert_grid_is_solve_on_every_node(data, res):
    # the fallback rows change no node of these grids: invert_grid is
    # `invert`'s dispatch on the flattened grid, to the bit
    inv = GraphInverter(data)
    xs = np.linspace(-2.0, 2.0, res)
    got = inv.invert_grid(xs, xs)
    l, th, *want = inv._solve(*np.meshgrid(xs, xs))[:5]
    want = inv._from_chart(l, th) + tuple(want)
    for g, w in zip(got, want):
        assert g.shape == (res, res) and np.array_equal(g.ravel(), w)


@pytest.mark.parametrize("name", ["scherk:2", "scherk:3", "scherk:4", "scherk:5"])
@pytest.mark.parametrize("R", [100.0, 1e3])
def test_invert_grid_far_corner_grids_converge_quietly(name, R):
    # every node converges, and no chart is evaluated at a clearance e^l
    # that underflows: pytest turns the RuntimeWarning into an error
    xs = np.linspace(-R, R, 41)
    assert GraphInverter(get_entry(name).data).invert_grid(xs, xs)[3].all()


@pytest.mark.parametrize("name", ["scherk:3", "jorge-meeks:2", "parabolic"])
def test_invert_near_p_infinity(name):
    # the origin is the image of p_infinity, at l = +inf: Newton walks l up
    # by about 1 per sweep until its own tolerance stops it, near l = 30
    inv = GraphInverter(get_entry(name).data)
    for x in (0.0, 1e-300, 1e-20, 1e-9):
        u, th, lam = inv.invert(x, 0.0)
        assert math.isfinite(u) and math.isfinite(th) and abs(lam) <= 1e-12
    xs = np.linspace(-2.0, 2.0, 41)
    assert xs[20] == 0.0
    l, th, lam, ok, _ = inv._grid(xs, xs)
    grad, _, _, finite = graph_derivatives(inv, l[20, 20], th[20, 20])
    assert ok[20, 20] and finite and np.hypot(*grad) <= 1e-12


@pytest.mark.parametrize("n, alphas", [
    (3, (0, Fraction(1, 2), Fraction(2, 3), 1, Fraction(4, 3), Fraction(5, 3))),
    (4, (0, Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), 1, Fraction(5, 4),
         Fraction(3, 2), Fraction(7, 4)))], ids=["n3", "n4"])
def test_inverter_leaves_out_singular_corner_sectors(n, alphas):
    # principal data with a gap of exactly pi/(n-1) between two simple ends
    # (alpha / pi listed): that sector's affine Jacobian is singular, so it
    # gets no corner model, and no division by zero warns
    data = build(AngularData.from_fractions(n, [Fraction(a) for a in alphas]),
                 BlaschkeParams(()))
    assert classify(data).entire_graph_certified
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv = GraphInverter(data)
        xs = np.linspace(-50.0, 50.0, 21)
        ok = inv.invert_grid(xs, xs)[3]
    assert len(inv._sec) == 2 * n - 1 and [0, 1] not in inv._sec.tolist()
    assert ok.all()


def test_invert_grid_fallback_rows_reach_far_nodes():
    # parabolic's sectors have only the end chart; far out the seed bank
    # misses nodes that a start from the row before reaches.  The second
    # case is `zmc graph`'s default table (R = 2, resolution 41): the
    # dispatch alone misses (-1, -1.2), where Newton stalls at theta = pi/2,
    # and only the fallback rows write the table whole
    inv = GraphInverter(get_entry("parabolic").data)
    for R, res, least in ((5.0, 21, 440), (2.0, 41, 41 * 41)):
        xs = np.linspace(-R, R, res)
        X, Y = np.meshgrid(xs, xs)
        u, th, lam, ok, rn = inv.invert_grid(xs, xs)
        assert ok.sum() >= least and ok.sum() > inv._solve(X, Y)[3].sum()
        with np.errstate(over="ignore"):
            phi = 0.5 * (np.exp(4 * (lam + X)) - 1) + 2 * (lam - X) - 4 * Y * Y
        assert np.all(np.abs(phi[ok]) <= 1e-10 * (1 + np.maximum(np.abs(X), np.abs(Y)))[ok])


def test_graph_table_shares_invert_grid_solve():
    inv = GraphInverter(get_entry("scherk:3").data)
    _, _, lam, ok, _ = inv.invert_grid(FAR_XS, FAR_YS)
    tlam, _, _, _, tok = graph_table(inv, FAR_XS, FAR_YS)
    assert np.array_equal(tlam, lam)
    assert np.all(ok[tok])


def mp_gradient(data, a, b, s, t):
    """grad lambda in 50 digits at a chart point of `GraphInverter._solve`,
    read as `chart_values_mp` reads it, by implicit differentiation: each
    partial d x_k / d(s, t) from mp.diff, then grad lambda = J^-T d x0 / d(s, t)
    with J = d(x1, x2) / d(s, t)."""
    if a >= 0:
        F = mp_corner(data, a, b)
    else:
        j = int(np.argmax(np.cos(t - np.asarray(data.angular.betas))))
        F = lambda l, th: mp_end(data, j, l, th)  # noqa: E731
    d = [[mp.diff(lambda v: F(v, t)[k], s), mp.diff(lambda v: F(s, v)[k], t)] for k in range(3)]
    det = d[1][0] * d[2][1] - d[2][0] * d[1][1]
    return np.array([float((d[0][0] * d[2][1] - d[2][0] * d[0][1]) / det),
                     float((d[1][0] * d[0][1] - d[0][0] * d[1][1]) / det)])


# Nodes with finite derivatives at R = 100 when `jet` differentiated in the
# clearance e^l and `graph_derivatives` formed e^2l / D^2 from it, which
# overflows below l = -355 although e^l / D <= 1
DELTA_JET_REACH = {"scherk:3": 743, "scherk:4": 441, "scherk:5": 313}


@pytest.mark.parametrize("name", ["scherk:2", "scherk:3", "scherk:4", "scherk:5"])
@pytest.mark.parametrize("R", [20.0, 100.0])
def test_graph_derivatives_far_grids(name, R):
    # `zmc graph`'s solve and derivatives on its 41^2 grid over [-R, R]^2.
    # Far out the clearances fall below what u = max cos + e^l resolves
    # (at a log(u - max cos) rebuilt from u at most 1369 nodes at R = 20
    # are finite); at Newton's chart point every node at R = 20 is.  At
    # R = 100 all but the corner nodes are, and the corner nodes whose second
    # D_j in the end chart is above about e^-355, where d2/dtheta2 at fixed
    # l, (D_theta / D_j)^2, overflows.  scherk:2 is held against its closed
    # form on every finite node, the others against 50 digits at the 16
    # such nodes of smallest second clearance
    entry = get_entry(name)
    norm = entry.normalization
    inv = GraphInverter(entry.data)
    grid = np.linspace(-R, R, 41)
    l, th, _, ok, _ = inv._grid(grid / norm.scale[1], grid / norm.scale[2])
    grad, _, resid, finite = graph_derivatives(inv, l, th, norm.scale)
    ok &= finite
    assert ok.all() or R > 20.0
    assert np.abs(resid[ok]).max() <= 1e-12
    if R == 100.0 and name in DELTA_JET_REACH:
        assert ok.sum() > DELTA_JET_REACH[name]
    X, Y = np.meshgrid(grid, grid)
    if name == "scherk:2":
        assert ok.all()
        assert np.abs(grad - [np.tanh(X), -np.tanh(Y)]).max() <= 1e-12
        return
    assert norm.scale == (1.0, 1.0, 1.0)
    sl, _, _, _, _, (a, b, s, t) = inv._solve(X, Y)
    # the second smallest log D_j: max(p, q) of a corner solve
    second = np.maximum(s, t)
    end = a < 0
    D = inv._from_chart(s[end], t[end])[0][:, None] - np.cos(t[end][:, None] - inv.evaluator.betas)
    second[end] = np.log(np.sort(D, axis=1)[:, 1])
    nodes = np.flatnonzero(ok.ravel())
    for i in nodes[np.argsort(second[nodes], kind="stable")[:16]]:
        assert sl[i] == l.ravel()[i]  # the grid solve is the dispatch's there
        want = mp_gradient(inv.data, a[i], b[i], s[i], t[i])
        assert np.abs(grad.reshape(2, -1)[:, i] - want).max() <= 1e-10 * np.abs(want).max()


def test_graph_derivatives_far_jorge_meeks():
    # jorge-meeks:2 has no corner chart, and over [-100, 100]^2 the grid
    # solve converges only some nodes; each of them has finite derivatives,
    # and the gradient of lambda = x tanh 2y
    entry = get_entry("jorge-meeks:2")
    norm = entry.normalization
    inv = GraphInverter(entry.data)
    grid = np.linspace(-100.0, 100.0, 41)
    l, th, _, ok, _ = inv._grid(grid / norm.scale[1], grid / norm.scale[2])
    grad, _, _, finite = graph_derivatives(inv, l, th, norm.scale)
    assert ok.sum() >= 80 and finite[ok].all()
    X, Y = np.meshgrid(grid, grid)
    want = np.array([np.tanh(2 * Y), 2 * X / np.cosh(2 * Y) ** 2])[:, ok]
    assert np.all(np.abs(grad[:, ok] - want) <= 1e-12 * (1 + np.abs(want)))


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
    L, ok = stencil_heights(inv, np.array([x]), y, h)
    assert ok.all()
    return float(zmc_residual_from_heights(L, h)[0])


def stencil_heights(inv, xs, y, h):
    """(L, ok) on the 3x3 stencil around the nodes (xs, y): each offset is
    its own Newton batch from the seed bank; L[i, j] sits at
    (xs + (i-1) h, y + (j-1) h), ok flags the nodes whose nine heights all
    converged."""
    L = np.empty((3, 3, xs.size))
    ok = np.ones(xs.size, dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            _, _, L[dx + 1, dy + 1], ok_s, _ = inv.newton_batch(
                xs + dx * h, np.full(xs.size, y + dy * h))
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


def test_injectivity_scan_singular_seed_drops_only_itself(monkeypatch):
    # both Jacobians of the first seed zeroed in the first Gauss-Newton
    # sweep make its normal matrix singular: that seed is dropped, the
    # others still confirm every crossing
    n3 = get_entry("self-intersecting-n3").data
    want = injectivity_scan(n3, grid_resolution=120)
    assert len(want) == 31
    partials, det, calls, dets = SurfaceEvaluator.partials, np.linalg.det, [], []

    def zeroed(self, u, theta):
        # one call per sweep: the seeds' first points, then their second
        du, dth = partials(self, u, theta)
        calls.append(du.shape[1])
        if len(calls) == 1:
            n = du.shape[1] // 2
            du[:, [0, n]] = dth[:, [0, n]] = 0.0
        return du, dth

    def counted_det(M):  # only the singular branch takes a determinant
        dets.append(len(M))
        return det(M)

    monkeypatch.setattr(SurfaceEvaluator, "partials", zeroed)
    monkeypatch.setattr(np.linalg, "det", counted_det)
    got = injectivity_scan(n3, grid_resolution=120)
    assert calls[0] % 2 == 0 and calls[0] > 2
    assert dets == [calls[0] // 2]
    # the same crossings, though a later seed may report the dropped one's
    assert len(got) == len(want)

    def near(c, d):  # the dedupe's rule: both chart points within 0.025
        m = [analysis._chart(*p) for p in (c.p1, c.p2, d.p1, d.p2)]
        return max(abs(m[0] - m[2]), abs(m[1] - m[3])) < 0.025 \
            or max(abs(m[0] - m[3]), abs(m[1] - m[2])) < 0.025

    assert all(any(near(c, d) for d in want) for c in got)


def test_injectivity_scan_max_reports_keeps_the_first(monkeypatch):
    n3 = get_entry("self-intersecting-n3").data
    want = injectivity_scan(n3, grid_resolution=120)
    assert len(want) == 31
    for cap in (1, 3, 31, 32):
        monkeypatch.setattr(analysis, "_MAX_REPORTS", cap)
        assert injectivity_scan(n3, grid_resolution=120) == want[:cap]


@pytest.mark.parametrize("kwargs", [
    {"grid_resolution": 1}, {"grid_resolution": 200.5},
    {"grid_resolution": 60.0}, {"grid_resolution": "60"},
    {"grid_resolution": 1108}], ids=str)
def test_injectivity_scan_rejects_bad_grid(kwargs, monkeypatch):
    n3 = get_entry("self-intersecting-n3").data
    if kwargs["grid_resolution"] == 1108:
        # 1107 is the largest resolution whose pair keys, below 5 N^3 for
        # N = res^2, fit int64; the scan refuses 1108 before it samples
        assert analysis._SCAN_RES_MAX == 1107
        assert 5 * (1107**2) ** 3 < 2**63 <= 5 * (1108**2) ** 3
        monkeypatch.setattr(analysis, "sample_edges", None)
    with pytest.raises(InputError):
        injectivity_scan(n3, **kwargs)


def _ref_cells(plane, cell):
    """The scan's cells: the grid points of each, in order, capped at 800."""
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
    return groups


def _ref_near_pairs(plane, mu, local, cell, tol_param):
    """The scan's candidate stage as a loop over cells; the oracle for
    analysis._near_pairs."""
    groups = _ref_cells(plane, cell)
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
                                  "scherk:3", "jorge-meeks:2", "parabolic"])
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


def _ref_gauss_newton(ev, angular, u1, t1, u2, t2, tol_param):
    """The scan's Gauss-Newton stage as a loop over the step lengths 2^-j,
    j < 40, each taken on sufficient decrease as in `_ref_newton`, one
    evaluation per point set, and a loop over the earlier reports; the
    oracle for analysis._gauss_newton."""
    u1, t1, u2, t2 = u1.copy(), t1.copy(), u2.copy(), t2.copy()
    alive = np.ones(u1.size, dtype=bool)

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
        Jm = np.stack([-d1u, -d1t, d2u, d2t], axis=1)
        M = np.einsum("akn,bkn->nab", Jm, Jm)
        try:
            y = np.linalg.solve(M, F[:, idx].T[..., None])[..., 0]
        except np.linalg.LinAlgError:
            sing = np.linalg.det(M) == 0.0
            alive[idx[sing]] = False
            idx, Jm = idx[~sing], Jm[..., ~sing]
            y = np.linalg.solve(M[~sing], F[:, idx].T[..., None])[..., 0]
        step = -np.einsum("akn,na->kn", Jm, y)
        alpha = np.ones(idx.size)
        best = (u1[idx].copy(), t1[idx].copy(), u2[idx].copy(), t2[idx].copy())
        best_rn = rn[idx].copy()
        undone = np.ones(idx.size, dtype=bool)
        for _try in range(40):
            c1u = u1[idx] + alpha * step[0]
            c1t = t1[idx] + alpha * step[1]
            c2u = u2[idx] + alpha * step[2]
            c2t = t2[idx] + alpha * step[3]
            inside = (c1u > np.asarray(angular.max_cos(c1t)) + 1e-12) \
                & (c2u > np.asarray(angular.max_cos(c2t)) + 1e-12) \
                & (c1u < 1e6) & (c2u < 1e6) \
                & (np.abs(analysis._chart(c1u, c1t) - analysis._chart(c2u, c2t))
                   > 0.5 * tol_param)
            crn = np.full(idx.size, np.inf)
            if inside.any():
                rr = residual(c1u[inside], c1t[inside], c2u[inside], c2t[inside])
                crn[inside] = np.linalg.norm(rr, axis=0)
            improved = undone & (crn <= best_rn * (1 - 1e-4 * alpha))
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

    scale = 1.0 + np.abs(ev.eval_batch(u1, t1)).max(axis=0)
    confirmed = alive & (rn <= 1e-9 * scale) \
        & (np.abs(analysis._chart(u1, t1) - analysis._chart(u2, t2)) > tol_param)
    h = 0.5 * tol_param
    out, seen = [], []
    for k in np.nonzero(confirmed)[0]:
        m1, m2 = analysis._chart(u1[k], t1[k]), analysis._chart(u2[k], t2[k])
        if any((abs(m1 - a) < h and abs(m2 - b) < h) or (abs(m1 - b) < h and abs(m2 - a) < h)
               for a, b in seen):
            continue
        seen.append((m1, m2))
        out.append(analysis.Collision((float(u1[k]), float(t1[k])),
                                      (float(u2[k]), float(t2[k])), float(rn[k])))
        if len(out) >= analysis._MAX_REPORTS:
            break
    return out


def _checked_gauss_newton(monkeypatch):
    """Swaps the scan's Gauss-Newton stage for one that asserts it equals
    the loop oracle on the same seeds; returns the list of their results."""
    stage, results = analysis._gauss_newton, []

    def checked(*args):
        got = stage(*args)
        assert got == _ref_gauss_newton(*args)
        results.append(got)
        return got

    monkeypatch.setattr(analysis, "_gauss_newton", checked)
    return results


@pytest.mark.parametrize("name, res, cap, crossings", [
    ("self-intersecting-n3", 120, 200, 31), ("self-intersecting-n3", 120, 1, 1),
    ("self-intersecting-n3", 120, 3, 3), ("self-intersecting-n3", 120, 31, 31),
    ("self-intersecting-fb", 120, 200, 7), ("ruled-enneper", 80, 200, 0),
    # the scan workload's own seeds: the oracle keeps every pair for 30
    # sweeps, so equality shows that no pair the stage drops at the chart
    # wall would have confirmed
    ("self-intersecting-n3", 200, 200, 29), ("self-intersecting-fb", 200, 200, 5)])
def test_gauss_newton_matches_loop_reference(name, res, cap, crossings, monkeypatch):
    results = _checked_gauss_newton(monkeypatch)
    monkeypatch.setattr(analysis, "_MAX_REPORTS", cap)
    hits = injectivity_scan(get_entry(name).data, grid_resolution=res)
    assert results == [hits] and len(hits) == crossings


def test_gauss_newton_stops_stalled_pairs(monkeypatch):
    # every pair of self-intersecting-n3 at 120 has confirmed or stalled
    # (`_stalled`) after 16 sweeps, where a fixed count ran all 30
    sweeps, partials = [], SurfaceEvaluator.partials
    monkeypatch.setattr(SurfaceEvaluator, "partials",
                        lambda self, u, th: sweeps.append(1) or partials(self, u, th))
    hits = injectivity_scan(get_entry("self-intersecting-n3").data, grid_resolution=120)
    assert len(hits) == 31 and len(sweeps) <= 20


def test_gauss_newton_all_singular_is_quiet(monkeypatch):
    # every normal matrix of the first sweep is zero: every seed is dropped
    # there, with no warning (RuntimeWarnings are errors here)
    results = _checked_gauss_newton(monkeypatch)

    def flat(self, u, theta):
        return np.zeros((3, np.size(u))), np.zeros((3, np.size(u)))

    monkeypatch.setattr(SurfaceEvaluator, "partials", flat)
    assert injectivity_scan(get_entry("self-intersecting-n3").data, grid_resolution=120) == []
    assert results == [[]]


def _gauss_newton_args(name, res, monkeypatch):
    """The arguments the scan of a gallery surface hands to _gauss_newton."""
    args = []

    def record(*a):
        args.append(a)
        return []

    with monkeypatch.context() as m:
        m.setattr(analysis, "_gauss_newton", record)
        injectivity_scan(get_entry(name).data, grid_resolution=res)
    return args[0]


class _TwoColumns:
    """An evaluator that evaluates a lone point as two columns: numpy hands
    one-column matrix products to BLAS gemv, which may round differently
    from the gemm of wider batches, and the oracle's batches of a lone pair
    have one column where the stage's have two."""

    def __init__(self, ev):
        self.ev = ev

    def eval_batch(self, u, theta):
        if np.size(u) != 1:
            return self.ev.eval_batch(u, theta)
        return self.ev.eval_batch(np.r_[u, u], np.r_[theta, theta])[:, :1]

    def partials(self, u, theta):
        if np.size(u) != 1:
            return self.ev.partials(u, theta)
        return tuple(d[:, :1] for d in self.ev.partials(np.r_[u, u], np.r_[theta, theta]))


def test_gauss_newton_single_pair(monkeypatch):
    # one seed at a time, so every sweep holds one pair; the first seed
    # confirms the full scan's first report, up to the rounding of products
    # of two columns against those of the full batch
    ev, *rest = _gauss_newton_args("self-intersecting-n3", 120, monkeypatch)
    angular, u1, t1, u2, t2, tol = rest
    first = injectivity_scan(get_entry("self-intersecting-n3").data, grid_resolution=120)[0]
    found = []
    for k in range(20):
        one = (angular, u1[k:k + 1], t1[k:k + 1], u2[k:k + 1], t2[k:k + 1], tol)
        got = analysis._gauss_newton(ev, *one)
        assert got == _ref_gauss_newton(_TwoColumns(ev), *one)
        found += got
    assert 1 < len(found) < 20
    assert np.allclose(found[0].p1 + found[0].p2, first.p1 + first.p2, rtol=0.0, atol=1e-12)


def test_gauss_newton_group_wholly_outside(monkeypatch):
    # on these 64 seeds many groups have no candidate inside the domain
    # (one max_cos call and no evaluation); the search goes on to the next
    # group, as the oracle goes on to the next length
    ev, *rest = _gauss_newton_args("self-intersecting-fb", 80, monkeypatch)
    angular, u1, t1, u2, t2, tol = rest
    k = slice(64, 128)
    args = (angular, u1[k], t1[k], u2[k], t2[k], tol)
    log, max_cos, eval_batch = [], AngularData.max_cos, SurfaceEvaluator.eval_batch

    def logged_max_cos(self, theta):
        log.append("max_cos")
        return max_cos(self, theta)

    def logged_eval_batch(self, u, theta):
        log.append("eval_batch")
        return eval_batch(self, u, theta)

    with monkeypatch.context() as m:
        m.setattr(AngularData, "max_cos", logged_max_cos)
        m.setattr(SurfaceEvaluator, "eval_batch", logged_eval_batch)
        got = analysis._gauss_newton(ev, *args)
    empty = sum(a == "max_cos" and b != "eval_batch" for a, b in zip(log, log[1:]))
    assert empty >= 10
    assert got and got == _ref_gauss_newton(_TwoColumns(ev), *args)


def test_gauss_newton_drops_pairs_at_the_chart_wall(monkeypatch):
    # a pair whose chart points come within tol_param can confirm only by
    # moving apart again, so it gets no further partials columns: every
    # pair the stage sweeps lies more than tol_param apart, and a seed that
    # the oracle (which keeps every pair) moves that close in its first
    # sweep is swept once
    ev, angular, u1, t1, u2, t2, tol = _gauss_newton_args("self-intersecting-n3", 120,
                                                          monkeypatch)
    charts, partials = [], SurfaceEvaluator.partials

    def logged(self, u, theta):
        charts.append(analysis._chart(u, theta))
        return partials(self, u, theta)

    monkeypatch.setattr(SurfaceEvaluator, "partials", logged)
    analysis._gauss_newton(ev, angular, u1, t1, u2, t2, tol)
    assert all(np.all(np.abs(np.subtract(*m.reshape(2, -1))) > tol) for m in charts)
    for k in range(u1.size):
        one = (angular, u1[k:k + 1], t1[k:k + 1], u2[k:k + 1], t2[k:k + 1], tol)
        charts.clear()
        _ref_gauss_newton(_TwoColumns(ev), *one)  # one call per point and sweep
        if len(charts) > 2 and abs(charts[2][0] - charts[3][0]) <= tol:
            break
    else:
        pytest.fail("no seed comes within tol_param in the oracle's first sweep")
    charts.clear()
    assert analysis._gauss_newton(ev, *one) == [] and len(charts) == 1


def _scan_args(name, res, monkeypatch):
    """The arguments the scan of a gallery surface hands to _near_pairs."""
    args = []

    def record(*a):
        args.append(a)
        return np.zeros(0, int), np.zeros(0, int)

    with monkeypatch.context() as m:
        m.setattr(analysis, "_near_pairs", record)
        injectivity_scan(get_entry(name).data, grid_resolution=res)
    return args[0]


def test_near_pairs_matches_loop_reference_on_a_capped_scan_grid(monkeypatch):
    # at resolution 160 ruled-enneper's densest cell holds 1121 points, so
    # the 800-point cap runs on a real grid
    plane, mu, local, cell, tol = args = _scan_args("ruled-enneper", 160, monkeypatch)
    _, counts = np.unique(np.floor(plane / cell), axis=1, return_counts=True)
    assert counts.max() > analysis._CELL_CAP
    I, J = analysis._near_pairs(*args)
    rI, rJ = _ref_near_pairs(*args)
    assert I.size > 10_000
    assert np.array_equal(I, rI) and np.array_equal(J, rJ)


@pytest.mark.parametrize("name", ["scherk:3", "self-intersecting-n3"])
def test_near_pairs_drops_whole_cell_pairs(name, monkeypatch):
    # the cell-level drops leave fewer group pairs to list than the cells'
    # group counts multiply to, and change no pair; scherk:3 keeps none
    plane, mu, local, cell, tol = args = _scan_args(name, 120, monkeypatch)
    listed = []
    block_pairs = analysis._block_pairs

    def record(edges, width):
        listed.append(int(edges[-1]))
        return block_pairs(edges, width)

    monkeypatch.setattr(analysis, "_block_pairs", record)
    I, J = analysis._near_pairs(*args)
    side = tol / 4  # a group: the members of a cell in one chart square
    groups = {key: len({(math.floor(z.real / side), math.floor(z.imag / side)) for z in mu[A]})
              for key, A in _ref_cells(plane, cell).items()}
    every = sum(count * groups.get((a + oi, b + oj), 0)
                for (a, b), count in groups.items() for oi, oj in analysis._FORWARD)
    assert listed[0] < every
    rI, rJ = _ref_near_pairs(*args)
    assert (I.size > 10_000) == (name == "self-intersecting-n3")
    assert np.array_equal(I, rI) and np.array_equal(J, rJ)


@pytest.mark.parametrize("chunk", [1, 7, 10**9])
def test_near_pairs_chunks_do_not_change_the_pairs(chunk, monkeypatch):
    # a sweep per pair is slow in Python, so chunk 1 runs on a coarser grid
    args = _scan_args("self-intersecting-n3", 30 if chunk == 1 else 120, monkeypatch)
    want = analysis._near_pairs(*args)
    monkeypatch.setattr(analysis, "_CHUNK", chunk)
    got = analysis._near_pairs(*args)
    assert want[0].size > 10_000
    assert all(np.array_equal(w, g) for w, g in zip(want, got))


def test_near_pairs_matches_loop_reference_beyond_2_32_cells():
    # 30 clusters of 20 points spread over 7e10 cells per axis: packed
    # (cell x, cell y) coordinates would wrap int64, their dense ranks
    # cannot, and neighbours across a cluster's cell edges still pair
    rng = np.random.default_rng(11)
    centres = rng.uniform(0.0, 7e10, (2, 30))
    plane = np.repeat(np.floor(centres), 20, axis=1) + rng.uniform(-1.5, 1.5, (2, 600))
    mu = 0.9 * (rng.uniform(-1, 1, 600) + 1j * rng.uniform(-1, 1, 600))
    local = rng.uniform(0.3, 1.0, 600)
    assert np.ptp(np.floor(plane), axis=1).min() > 2.0**32
    I, J = analysis._near_pairs(plane, mu, local, 1.0, 0.05)
    rI, rJ = _ref_near_pairs(plane, mu, local, 1.0, 0.05)
    assert rI.size > 400
    assert np.array_equal(I, rI) and np.array_equal(J, rJ)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 250),
       cell=st.sampled_from([1.0, 0.3]), tol_cells=st.sampled_from([0.05, 0.3, 1.0, 1.7]),
       crowded=st.booleans())
@example(seed=0, n=250, cell=0.3, tol_cells=1.7, crowded=True)
# whole-cell drops: cell pairs whose chart points all lie within tol, or
# whose largest `local` is 0.15 cell; and cell pairs kept on the edge, one
# whose chart box is wider than tol by a nudge, and ones whose largest
# `local` is the next double above 0.15 cell
@example(seed=205, n=20, cell=1.0, tol_cells=1.7, crowded=False)
@example(seed=102, n=40, cell=1.0, tol_cells=1.7, crowded=False)
def test_near_pairs_matches_loop_reference_on_edge_clouds(seed, n, cell, tol_cells, crowded):
    # points on quarter cells, so many lie exactly on cell edges and many
    # coincide; chart points on multiples of tol / 4, the side of the
    # groups' chart squares, a third of them nudged off it; `local` on
    # both sides of 0.15 cell and of d / 2.5 for lattice distances d
    rng = np.random.default_rng(seed)
    tol = tol_cells * cell
    q = cell / 4
    plane = rng.integers(-8, 9, (2, n)) * q
    mu = (rng.integers(-10, 11, n) + 1j * rng.integers(-10, 11, n)) * (tol / 4)
    nudge = rng.random(n) < 1 / 3
    mu[nudge] += rng.choice([-1e-12, 1e-12], nudge.sum()) * (1 + 1j)
    edges = np.r_[0.15 * cell, np.hypot(*rng.integers(0, 5, (2, 6))) * q / 2.5]
    edges = np.r_[edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]
    local = np.where(rng.random(n) < 0.8, rng.choice(edges, n), rng.uniform(0.0, cell, n))
    if crowded:  # one cell of more than 800 points runs the cap
        m = 850
        plane = np.hstack([plane, cell * (0.1 + 0.8 * rng.random((2, m)))])
        mu = np.r_[mu, 0.3 * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m))]
        local = np.r_[local, rng.choice(edges, m)]
        perm = rng.permutation(mu.size)
        plane, mu, local = plane[:, perm], mu[perm], local[perm]
    I, J = analysis._near_pairs(plane, mu, local, cell, tol)
    rI, rJ = _ref_near_pairs(plane, mu, local, cell, tol)
    assert np.array_equal(I, rI) and np.array_equal(J, rJ)


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
    repmix = classify(MIXED3)  # boundary case, but repeated angles for n > 2
    assert repmix.fold.is_fold_type and repmix.period_residual < 1e-10
    assert repmix.conditions.graph_condition is Condition.BOUNDARY_CASE
    assert not repmix.entire_graph_certified


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


def _squares(x0, target, damp=1.0, wall=None):
    """`_descend`'s arguments for x^2 = target per node, in closed form: S's
    rows x, x^2 and |x^2 - target|, the Newton step times `damp` (one per
    node, or one for all), and a trial that marks the points beyond `wall`
    final; steps logs each sweep's pending nodes."""
    x0, target = np.array(x0, dtype=float), np.array(target, dtype=float)
    S, steps = np.array([x0, x0 ** 2, abs(x0 ** 2 - target)]), []
    damp = np.broadcast_to(np.array(damp, dtype=float), x0.shape)

    def step(k, P):
        steps.append(k)
        return damp[k] * (target[k] - P[1]) / (2 * P[0])[None]

    def trial(k, t):
        v = t[0] ** 2
        return v.reshape(1, -1), abs(v - target[k]), None if wall is None else t.ravel() > wall

    return S, step, trial, steps


def test_descend_stops_a_node_at_its_tolerance():
    # half Newton steps from x0 = 1 towards sqrt 2 sweep while the residual
    # exceeds the tolerance 1e-3, and stop at the first residual within it;
    # x0 = 2 meets x^2 = 4 at its start and is never swept
    S, step, trial, steps = _squares([1.0, 2.0], [2.0, 4.0], damp=0.5)
    r = []
    live = analysis._descend(lambda k, P: r.append(P[2]) or step(k, P), trial, S, 1e-3)
    assert live.all() and S[2, 1] == 0.0 and all(np.array_equal(k, [0]) for k in steps)
    assert np.concatenate(r).min() > 1e-3 >= S[2, 0] and len(steps) > 5


def test_descend_drops_a_node_no_length_improves():
    # x^2 = 2 from x0 = 1 with the Newton step negated: every length moves
    # x downhill, 1 - alpha / 2 with x^2 < 1, so no candidate lowers
    # |x^2 - 2|; the node is dropped after one sweep and keeps its column
    S, step, trial, steps = _squares([1.0, 1.0], [2.0, 2.0], damp=[-1.0, 1.0])
    start = S.copy()
    live = analysis._descend(step, trial, S, 1e-12)
    assert live.tolist() == [False, True] and np.array_equal(S[:, 0], start[:, 0])
    assert sum(0 in k for k in steps) == 1 and S[2, 1] <= 1e-12


def test_descend_drops_a_node_at_a_final_point():
    # from x0 = 1 the full Newton step lands on 1.5, beyond the wall at 1.4:
    # the node takes that point, as it lowers |x^2 - 2|, and is dropped there
    S, step, trial, steps = _squares([1.0], [2.0], wall=1.4)
    live = analysis._descend(step, trial, S, 1e-12)
    assert not live[0] and S[:, 0].tolist() == [1.5, 2.25, 0.25] and len(steps) == 1


def test_descend_takes_only_sufficient_decrease():
    # a 1e-5 Newton step from x0 = 1 on x^2 = 2 lowers the residual by about
    # 1e-5 alpha rn at each length, less than Armijo's 1e-4 alpha rn: no
    # length passes, so the node is dropped where it started, where plain
    # decrease would take the full step
    S, step, trial, steps = _squares([1.0], [2.0], damp=1e-5)
    start = S.copy()
    live = analysis._descend(step, trial, S, 1e-12)
    assert not live[0] and np.array_equal(S, start) and len(steps) == 1


@pytest.mark.parametrize("stall", [False, True])
def test_descend_stops_a_stalled_node(stall):
    # a hundredth of the Newton step lowers the residual by a factor of
    # about 0.99 a sweep: with `stall` the node stops at the start of the
    # fifth sweep, its residual fallen by less than a tenth over 4 sweeps, and
    # is not dropped; without, it sweeps to the cap of 60
    S, step, trial, steps = _squares([1.0], [2.0], damp=0.01)
    r0 = S[2, 0]
    live = analysis._descend(step, trial, S, 1e-12, stall)
    assert live[0] and len(steps) == (4 if stall else 60)
    assert S[2, 0] / r0 == pytest.approx(0.99 ** len(steps), rel=1e-3)


@pytest.mark.parametrize("data, x, y", [(SCHERK2, 100.0, 0.0), (SCHERK2, 0.0, 100.0),
                                        (SCHERK3, 0.0, 100.0)])
def test_newton_batch_singular_jacobian_is_quiet(data, x, y):
    # cold-started far out, Newton meets singular Jacobians; their inf/NaN
    # steps fail the line search without a numpy RuntimeWarning
    inv = GraphInverter(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        l, th, lam, ok, rn = inv.newton_batch([x], [y])
    assert np.isfinite(rn).all()


@pytest.mark.parametrize("data, x, y", [(SCHERK3, 0.3, 0.4), (SCHERK3, 1.5, -0.7),
                                        (PARABOLIC, 0.3, 0.4), (PARABOLIC, 1.0, -0.5)])
def test_newton_batch_freezes_stalled_nodes(data, x, y, monkeypatch):
    # with ATOL = 0 a converged node can never go inactive; it must be
    # frozen once a sweep leaves it where it is, not swept to the cap
    inv = GraphInverter(data)
    u, th, lam = inv.invert(x, y)
    start = inv.newton_batch([x], [y])[:2]
    calls = []
    jet = inv.evaluator.jet

    def counted(l, th, order=0):
        calls.append(np.size(l))
        return jet(l, th, order)

    monkeypatch.setattr(inv.evaluator, "jet", counted)
    monkeypatch.setattr(inv, "ATOL", 0.0)
    l2, th2, lam2, ok, rn = inv.newton_batch([x], [y], start)
    # a sweep: one Jacobian, up to 40 line-search trials, one re-evaluation
    assert len(calls) <= 1 + 3 * 42
    assert ok[0] and abs(lam2[0] - lam) < 1e-12


@np.errstate(all="ignore")
def _ref_newton(self, chart, c1, c2, vals, target, shove=None, stall=False):
    """GraphInverter._newton as a loop that keeps a step length per node:
    every length re-evaluates every active node, and every sweep ends by
    evaluating the whole batch; the oracle for the production loop.  With
    `stall`, a node whose residual at the start of a sweep exceeds 0.9 times
    its residual at the start of the sweep 4 earlier is frozen."""
    scale = 1.0 + np.abs(target).max(axis=0)
    R = vals[1:] - target
    rn = np.hypot(R[0], R[1])
    frozen = np.zeros(c1.size, dtype=bool)
    history = []
    for sweep in range(analysis._SWEEPS):
        if stall and sweep >= 4:
            frozen |= rn > 0.9 * history[sweep - 4]
        history.append(rn.copy())
        active = (rn > self.ATOL * scale) & ~frozen
        if not active.any():
            break
        ca, cb = c1[active], c2[active]
        _, d1, d2 = chart(active, ca, cb)
        det = d1[1] * d2[2] - d2[1] * d1[2]
        Ra = R[:, active]
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
            t1 = ca + alpha * s1
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
            best2[undone] = shove(best2[undone])
        frozen[active] = undone & (best2 == cb)
        c1[active], c2[active] = best1, best2
        vals, _, _ = chart(slice(None), c1, c2, False)
        R = vals[1:] - target
        rn = np.hypot(R[0], R[1])
    return c1, c2, vals[0], np.isfinite(rn) & (rn <= 1e-10 * scale), rn


def _grid_chart_points(inv, xs):
    """`_grid` on the grid xs x xs, flattened, and the chart point (a, b, s, t)
    of each node as `_solve` reads it: the dispatch's, or the end point
    (l, theta) where a fallback row took the node."""
    l, th, lam, ok, _ = (v.ravel() for v in inv._grid(xs, xs))
    X, Y = (v.ravel() for v in np.meshgrid(xs, xs))
    sl, sth, *_, (a, b, s, t) = inv._solve(X, Y)
    row = ~((l == sl) & (th == sth))
    a, b, s, t = (np.where(row, w, v) for v, w in zip((a, b, s, t), (-1, -1, l, th)))
    return X, Y, lam, ok, (a, b, s, t)


@pytest.mark.parametrize("name, res, R", [
    ("scherk:3", 41, 2.0), ("scherk:3", 41, 1e3),  # the end chart, the corner chart
    ("scherk:2", 41, 20.0), ("scherk:5", 41, 20.0),
    ("parabolic", 21, 5.0),  # fallback rows
    ("jorge-meeks:2", 41, 100.0)])
def test_newton_matches_loop_reference(name, res, R, monkeypatch):
    # the same flags, heights within rounding (a node's values come from the
    # batch that accepted its last step), and every converged chart point
    # reproduces its target in 50 digits
    inv = GraphInverter(get_entry(name).data)
    xs = np.linspace(-R, R, res)
    X, Y, lam, ok, chart = _grid_chart_points(inv, xs)
    monkeypatch.setattr(GraphInverter, "_newton", _ref_newton)
    rlam, rok = (v.ravel() for v in inv.invert_grid(xs, xs)[2:4])
    assert np.array_equal(ok, rok)
    assert np.all(np.abs(lam - rlam)[ok] <= 2e-15 * (1 + np.abs(rlam))[ok])
    for i in np.flatnonzero(ok):
        assert_chart_point_reproduces(inv, X[i], Y[i], lam[i], [c[i] for c in chart])


@pytest.mark.parametrize("name", ["scherk:3", "jorge-meeks:2", "parabolic"])
def test_newton_from_p_infinity_matches_loop_reference(name, monkeypatch):
    # from the chart point `_solve` finds for the origin (p_infinity, the
    # seed bank's row at l = 40) the sufficient-decrease rule takes no step
    # towards a target next to it, in either loop: l moves by at most 3.7e-9
    # and theta by at most the shove, 1e-7.  Plain decrease reaches none of
    # them either; it lets them drift, by |dl| up to 24 (32 in the oracle) on
    # scherk:3 and 480 on parabolic, and theta by up to 17
    inv = GraphInverter(get_entry(name).data)
    l, th = inv._solve([0.0], [0.0])[:2]
    for newton in (GraphInverter._newton, _ref_newton):
        monkeypatch.setattr(GraphInverter, "_newton", newton)
        for h in (1e-3, 0.1):
            X, Y = h * np.array([[1.0, 0.0, 1.0, -1.0], [0.0, 1.0, 1.0, 0.0]])
            l2, th2, _, ok, _ = inv.newton_batch(X, Y, (np.repeat(l, 4), np.repeat(th, 4)))
            assert not ok.any()
            assert np.abs(l2 - l).max() <= 1e-6 and np.abs(th2 - th).max() <= 1e-6


def test_newton_evaluates_only_pending_nodes(monkeypatch):
    # replayed from its chart calls, every sweep of the scherk:3 grid makes
    # one Jacobian call, then one call per step-length group over the nodes
    # that no earlier group improved, each length once, then at most one
    # shove call over nodes no length improved; the replayed residuals are
    # Newton's.  In all, the grid evaluates 22,841 chart points, where the
    # one-length-at-a-time line search of the same dispatch took 32,067
    inv = GraphInverter(SCHERK3)
    xs = np.linspace(-2.0, 2.0, 41)
    points, jet, corner, newton = [], inv.evaluator.jet, inv.evaluator.corner, inv._newton

    def counted_jet(l, th, order=0):
        points.append(np.size(l))
        return jet(l, th, order)

    def counted_corner(a, b, p, q, order=0):
        points.append(np.size(p))
        return corner(a, b, p, q, order)

    def replayed(chart, c1, c2, vals, target, shove=None, stall=False):
        calls, rn = [], np.hypot(*(vals[1:] - target))

        def recorded(k, t1, t2, d=True):
            out = chart(k, t1, t2, d)
            calls.append((d, np.array(k), np.hypot(*(out[0][1:] - target[:, k]))))
            return out

        result = newton(recorded, c1, c2, vals, target, shove, stall)
        calls = iter(calls)
        call = next(calls, None)
        while call is not None:
            d, k, _ = call
            assert d
            call = next(calls, None)
            edges = np.cumsum([0] + [a.size for a, _ in analysis._LENGTHS])
            for k0, k1 in zip(edges[:-1], edges[1:]):
                if not k.size:
                    break
                d, kk, crn = call
                assert not d and np.array_equal(kk, np.tile(k, k1 - k0))
                crn = crn.reshape(k1 - k0, -1)
                take = crn <= rn[k] * (1 - 1e-4 * 2.0 ** -np.arange(k0, k1)[:, None])
                hit = take.any(axis=0)
                rn[k[hit]] = crn[take.argmax(axis=0)[hit], np.flatnonzero(hit)]
                k, call = k[~hit], next(calls, None)
            if call is not None and not call[0]:
                d, kk, crn = call
                assert np.isin(kk, k).all()
                rn[kk], call = crn, next(calls, None)
        assert np.array_equal(rn, result[4], equal_nan=True)
        return result

    monkeypatch.setattr(inv.evaluator, "jet", counted_jet)
    monkeypatch.setattr(inv.evaluator, "corner", counted_corner)
    monkeypatch.setattr(inv, "_newton", replayed)
    inv.invert_grid(xs, xs)
    assert sum(points) < 33_202  # the count under the -25 depth rule and one length at a time


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
    parts = [inv.newton_batch(X, Y) for X, Y in sets]
    X = np.concatenate([X for X, _ in sets])
    Y = np.concatenate([Y for _, Y in sets])
    whole = inv.newton_batch(X, Y)
    l, th, lam, ok, rn = (np.concatenate([p[k] for p in parts]) for k in range(5))
    assert ok.all() and np.array_equal(whole[3], ok)
    np.testing.assert_allclose(whole[2], lam, rtol=0, atol=HEIGHT_ROUNDING)
    np.testing.assert_allclose(inv._from_chart(*whole[:2])[0], inv._from_chart(l, th)[0],
                               rtol=1e-12)
    np.testing.assert_allclose(np.exp(1j * whole[1]), np.exp(1j * th), rtol=0, atol=1e-12)


# On scherk:3 over [-1.5, 1.5]^2 the stencil's truncation error is at most
# 1.41 h^2 on lx, 1.02 h^2 on ly and 2.40 h^2 on the residual, the same
# constants at h = 4e-3, 2e-3 and 1e-3.
STENCIL_C = 3.0


def test_graph_table_matches_per_offset_stencil_loop():
    inv = GraphInverter(SCHERK3)
    xs = np.linspace(-1.5, 1.5, 9)
    lam, lx, ly, resid, ok = graph_table(inv, xs, xs)
    # reference: `invert`'s dispatch on the flattened grid, and each
    # stencil offset of each row in its own Newton batch
    _, _, lam_ref, ok_ref, _, _ = inv._solve(*np.meshgrid(xs, xs))
    for i, y in enumerate(xs):
        row = slice(9 * i, 9 * i + 9)
        assert np.array_equal(lam[i], lam_ref[row]) and np.array_equal(ok[i], ok_ref[row])
        for h in (2e-3, 1e-3):
            L, ok_s = stencil_heights(inv, xs, y, h)
            assert ok_s.all()
            for got, want, tol in ((lx[i], (L[2, 1] - L[0, 1]) / (2 * h), 1 / h),
                                   (ly[i], (L[1, 2] - L[1, 0]) / (2 * h), 1 / h),
                                   (resid[i], zmc_residual_from_heights(L, h), 4 / h**2)):
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=STENCIL_C * h**2 + tol * HEIGHT_ROUNDING)
