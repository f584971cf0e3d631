import math
import warnings

import numpy as np
import pytest

from zmc import analysis
from zmc.analysis import (Condition, GraphInverter, check_conditions, classify,
                          graph_table, injectivity_scan,
                          jacobian_x1x2, jacobians_x0, metric_determinant, psi_map,
                          umbilics, zmc_residual, zmc_residual_from_heights)
from zmc.angular import AngularData, BlaschkeParams
from zmc.errors import InputError, OutsideDomain, PreconditionUnmet
from zmc.gallery import get_entry
from zmc.polycheb import cheb_U
from zmc.surface import SurfaceEvaluator, build_oneforms
from zmc.weierstrass import build

RNG = np.random.default_rng(123)


def make(n, alphas, b=()):
    return build(AngularData(n, tuple(alphas)), BlaschkeParams(tuple(b)))


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
    assert abs(cheb_U(len(ang.alphas) // 2 - 2, u0)) < 1e-10
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
    assert np.max(np.abs(resid)) < 1e-4
    # gradients from the table match analytic graph gradients
    from zmc.surface import build_oneforms, graph_gradient
    forms = build_oneforms(SCHERK3)
    u, th, _, cok, _ = inv.invert_grid(xs, ys)
    assert cok.all()
    gx, gy = graph_gradient(forms, u[4, 6], th[4, 6])
    assert abs(gx - lx[4, 6]) < 1e-5 and abs(gy - ly[4, 6]) < 1e-5


# Far from the origin, scherk:3's rows miss nodes that invert_grid's batched
# cold-start retry misses too; they must come back flagged, which the retry
# through invert and _homotopy never let happen.
FAR_XS = np.linspace(3.0, 8.0, 6)
FAR_YS = np.linspace(2.0, 4.0, 3)


def test_invert_grid_far_grid_returns_flags():
    inv = GraphInverter(get_entry("scherk:3").data)
    u, th, lam, ok, rn = inv.invert_grid(FAR_XS, FAR_YS)
    assert ok.shape == (3, 6) and ok.any() and not ok.all()
    X, Y = np.meshgrid(FAR_XS, FAR_YS)
    scale = 1.0 + np.maximum(np.abs(X), np.abs(Y))
    assert np.array_equal(ok, rn <= 1e-10 * scale)
    assert np.all(np.isfinite(lam[ok]))


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
    {"margin": float("inf")}, {"grid_resolution": 1}], ids=str)
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


def test_graph_table_matches_per_offset_stencil_loop():
    inv = GraphInverter(SCHERK3)
    xs = np.linspace(-1.5, 1.5, 9)
    h = 1e-3
    lam, lx, ly, resid, ok = graph_table(inv, xs, xs, h=h)
    # reference: each stencil offset of each row in its own Newton batch
    u_row, th_row = inv._cold_start(xs, np.full(9, xs[0]))
    for i, y in enumerate(xs):
        yy = np.full(9, y)
        u_row, th_row, lam_row, ok_row, _ = inv.newton_batch(xs, yy, u_row, th_row)
        L = np.empty((3, 3, 9))
        L[1, 1] = lam_row
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx or dy:
                    _, _, L[dx + 1, dy + 1], ok_s, _ = inv.newton_batch(
                        xs + dx * h, yy + dy * h, u_row, th_row)
                    ok_row &= ok_s
        assert np.array_equal(lam[i], lam_row) and np.array_equal(ok[i], ok_row)
        for got, want, tol in ((lx[i], (L[2, 1] - L[0, 1]) / (2 * h), 1 / h),
                               (ly[i], (L[1, 2] - L[1, 0]) / (2 * h), 1 / h),
                               (resid[i], zmc_residual_from_heights(L, h), 4 / h**2)):
            np.testing.assert_allclose(got, want, rtol=0, atol=tol * HEIGHT_ROUNDING)
