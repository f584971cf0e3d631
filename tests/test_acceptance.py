"""Acceptance criteria, one test per numbered item.

Each test enforces the stated tolerance and time budget and prints a
single PASS line (run with -s to see them while green; they surface in
the failure report otherwise).
"""

import cmath
import math
import time

import numpy as np

from zmc.analysis import (Condition, GraphInverter, check_conditions,
                          graph_table, injectivity_scan, jacobian_x1x2)
from zmc.angular import AngularData, BlaschkeParams
from zmc.cli import main as cli_main
from zmc.domain import FinitePoint, P_INFINITY, iota
from zmc.gallery import get_entry, implicit_residual
from zmc.polycheb import (ComplexPoly, ReciprocalClass, cheb_table, reciprocal_class,
                          reduce_reciprocal)
from zmc.surface import (SurfaceEvaluator, SurfacePoint, build_oneforms,
                         eval_on_disk, integrate_oneform)
from zmc.weierstrass import build, principal_coefficients

RNG = np.random.default_rng(2024)


def report(k, label, elapsed, budget):
    print(f"ACCEPTANCE {k:2d} [{label}]: PASS  ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {k} exceeded its {budget}s budget: {elapsed:.1f}s"


def random_principal_angular(n, rng, max_gap=None):
    bound = max_gap if max_gap is not None else 2 * math.pi
    while True:
        gaps = rng.uniform(0.05, 1.0, size=2 * n)
        gaps *= 2 * math.pi / gaps.sum()
        if gaps.max() < bound and gaps.min() > 1e-3:
            alphas = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
            return AngularData(n, tuple(alphas))


def domain_points(data, count, rng, lift=(0.1, 1.5)):
    th = rng.uniform(0, 2 * math.pi, count)
    lo = np.asarray(data.angular.max_cos(th))
    return lo + rng.uniform(*lift, size=count), th


def test_criterion_01_chebyshev_identities():
    t0 = time.time()
    rng = np.random.default_rng(1)
    r = rng.uniform(0.1, 10.0, size=64)
    u = (r + 1 / r) / 2
    for n in range(0, 21):
        scale = np.maximum(1.0, np.maximum(r**n, r**-n))
        errT = np.abs((r**n + r**-n) / 2 - cheb_table(n, u)[n])
        assert np.all(errT < 1e-10 * scale)
        scale1 = np.maximum(1.0, np.maximum(r ** (n + 1), r ** -(n + 1)))
        errU = np.abs((r ** (n + 1) - r ** -(n + 1)) / 2
                      - ((r - 1 / r) / 2) * cheb_table(n, u, second=True)[n])
        assert np.all(errU < 1e-10 * scale1)
    report(1, "Chebyshev identities", time.time() - t0, 1.0)


def test_criterion_02_reciprocal_reduction():
    t0 = time.time()
    rng = np.random.default_rng(2)
    done = 0
    while done < 200:
        deg = int(rng.integers(1, 9))              # symmetrized degree up to 16
        base = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        parity = ReciprocalClass.SELF if done % 2 == 0 else ReciprocalClass.ANTI
        sign = 1.0 if parity is ReciprocalClass.SELF else -1.0
        cc = np.zeros(2 * deg + 1, dtype=complex)
        cc[: deg + 1] += base[::-1]
        cc[deg:] += sign * base
        p = ComplexPoly(cc)
        if p.is_zero or reciprocal_class(p)[0] is not parity:
            continue
        m = reciprocal_class(p)[1] // 2
        w = reduce_reciprocal(p, m, parity)
        r = rng.uniform(0.1, 10.0, size=32)
        u = (r + 1 / r) / 2
        lhs = p(r)
        rhs = r**m * (w @ cheb_table(w.size - 1, u, parity is ReciprocalClass.ANTI))
        if parity is ReciprocalClass.ANTI:
            rhs = rhs * (r - 1 / r) / 2
        assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))) < 1e-10
        done += 1
    report(2, "reciprocal-polynomial reduction", time.time() - t0, 5.0)


ANGULAR_SET = None


def _angular_set():
    global ANGULAR_SET
    if ANGULAR_SET is None:
        rng = np.random.default_rng(3)
        ANGULAR_SET = [random_principal_angular(int(rng.integers(2, 7)), rng)
                       for _ in range(50)]
    return ANGULAR_SET


def test_criterion_03_residue_sum_rules():
    t0 = time.time()
    for ang in _angular_set():
        c = principal_coefficients(ang)
        W = c.weights()
        assert np.max(np.abs(W.sum(axis=1))) < 1e-12
    report(3, "residue sum rules", time.time() - t0, 1.0)


def test_criterion_04_period_condition():
    t0 = time.time()
    for ang in _angular_set():
        data = build(ang, BlaschkeParams(()))
        worst = 0.0
        for k in range(3):
            for p, _ in data.ends:
                worst = max(worst, abs(data.phi[k].residue(p).imag))
        assert worst < 1e-10
    # loop-integral displacement around an end for five gallery entries
    for name in ("scherk:2", "scherk:3", "jorge-meeks:2", "jorge-meeks:3", "parabolic"):
        data = get_entry(name).data
        end = data.ends[0][0]
        loop = [end + 0.05 * cmath.exp(1j * a)
                for a in np.linspace(0, 2 * math.pi, 5)]
        prev = SurfacePoint(0, 0, 0)
        for a, b in zip(loop, loop[1:]):
            prev = eval_on_disk(data, b, a, prev)
        assert np.max(np.abs(prev.as_array())) < 1e-8, name
    report(4, "period condition", time.time() - t0, 10.0)


def test_criterion_05_closed_form_identities():
    t0 = time.time()
    rng = np.random.default_rng(5)
    for name in ("scherk:2", "jorge-meeks:2", "ruled-enneper", "parabolic"):
        entry = get_entry(name)
        ev = SurfaceEvaluator(entry.data)
        # moderate clearance keeps the implicit forms within floating range
        u, th = domain_points(entry.data, 100, rng, lift=(0.25, 1.5))
        vals = ev.eval_batch(u, th)
        for i in range(100):
            p = SurfacePoint.from_array(vals[:, i])
            assert implicit_residual(entry, p) < 1e-9, name
    report(5, "closed-form identities", time.time() - t0, 5.0)


def test_criterion_06_cross_evaluator_agreement():
    t0 = time.time()
    rng = np.random.default_rng(6)
    gen3 = build(AngularData(3, (0.0, 0.9, 2.0, 3.1, 4.2, 5.2)),
                 BlaschkeParams((0.1,)))
    surfaces = [get_entry("scherk:2").data, get_entry("scherk:3").data,
                get_entry("jorge-meeks:2").data, get_entry("parabolic").data,
                get_entry("ruled-enneper").data, gen3]
    for data in surfaces:
        ev = SurfaceEvaluator(data)
        forms = build_oneforms(data)
        u, th = domain_points(data, 64, rng)
        closed = ev.eval_batch(u, th)
        # quadrature of the real 1-forms from the shared base point
        for i in range(64):
            got = integrate_oneform(forms, P_INFINITY, FinitePoint(u[i], th[i]),
                                    SurfacePoint(0, 0, 0)).as_array()
            assert np.max(np.abs(got - closed[:, i])) < 1e-8
        # disk-side quadrature through the chart, base-point calibrated
        ends = [e for e, _ in data.ends]
        k = 0
        while k < 64:
            z = rng.uniform(0.15, 0.92) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            if min(abs(z - e) for e in ends) < 0.08:
                continue
            got = eval_on_disk(data, z).as_array()
            p = iota(z)
            want = ev.eval_batch(np.array([p.u]), np.array([p.theta]))[:, 0]
            assert np.max(np.abs(got - want)) < 1e-8
            k += 1
    report(6, "cross-evaluator agreement", time.time() - t0, 30.0)


def test_criterion_07_jacobian_formulas():
    t0 = time.time()
    rng = np.random.default_rng(7)
    gen3 = build(AngularData(3, (0.0, 0.9, 2.0, 3.1, 4.2, 5.2)),
                 BlaschkeParams((0.1,)))
    surfaces = [get_entry("scherk:2").data, get_entry("scherk:4").data,
                get_entry("jorge-meeks:2").data, gen3]
    h = 1e-5
    for data in surfaces:
        ev = SurfaceEvaluator(data)
        u, th = domain_points(data, 64, rng)
        for ui, ti in zip(u, th):
            J = jacobian_x1x2(data, ui, ti)
            vals = ev.eval_batch(np.array([ui + h, ui - h, ui, ui]),
                                 np.array([ti, ti, ti + h, ti - h]))
            fu = (vals[:, 0] - vals[:, 1]) / (2 * h)
            ft = (vals[:, 2] - vals[:, 3]) / (2 * h)
            Jfd = fu[1] * ft[2] - ft[1] * fu[2]
            assert abs(J - Jfd) <= 1e-6 * max(abs(Jfd), 1e-8)
    # exact-zero witnesses for ten violated configurations
    rng2 = np.random.default_rng(77)
    made = 0
    while made < 10:
        n = int(rng2.integers(3, 6))
        ang = random_principal_angular(n, rng2)
        rep = check_conditions(ang)
        if rep.graph_condition is not Condition.VIOLATED:
            continue
        data = build(ang, BlaschkeParams(()))
        u0, th0 = rep.witness
        assert abs(jacobian_x1x2(data, u0, th0)) < 1e-10
        made += 1
    report(7, "Jacobian formulas", time.time() - t0, 10.0)


def test_criterion_08_entire_graph_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(8)
    surfaces = [get_entry(f"scherk:{n}").data for n in (2, 3, 4)]
    for _ in range(5):
        ang = random_principal_angular(3, rng, max_gap=math.pi / 2 * 0.98)
        surfaces.append(build(ang, BlaschkeParams(())))
    xs = np.linspace(-2, 2, 41)
    ys = np.linspace(-2, 2, 41)
    for data in surfaces:
        inv = GraphInverter(data)
        u, th, lam, ok, rn = inv.invert_grid(xs, ys)
        assert ok.all()
        assert np.max(rn) < 1e-8          # round-trip residual, exact chart
        _, _, _, resid, okr = graph_table(inv, xs, ys, h=1e-3)
        assert okr.all()
        # the PDE-residual contract applies at boundary clearance >= 0.1,
        # where the h^2 truncation constant stays moderate
        clear = u - np.asarray(data.angular.max_cos(th.ravel())).reshape(u.shape)
        assert np.max(np.abs(resid[clear >= 0.1])) < 1e-4
    report(8, "entire-graph round trip", time.time() - t0, 60.0)


def test_criterion_09_fold_symmetry():
    t0 = time.time()
    rng = np.random.default_rng(9)
    gen3 = build(AngularData(3, (0.0, 0.9, 2.0, 3.1, 4.2, 5.2)),
                 BlaschkeParams((0.1,)))
    for data in (get_entry("scherk:2").data, get_entry("parabolic").data, gen3):
        ends = [e for e, _ in data.ends]
        done = 0
        while done < 64:
            z = rng.uniform(0.3, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            if min(abs(z - e) for e in ends) < 0.12:
                continue
            zout = 1 / z.conjugate()
            if min(abs(zout - e) for e in ends) < 0.12:
                continue
            a = eval_on_disk(data, z).as_array()
            b = eval_on_disk(data, zout).as_array()
            assert np.max(np.abs(a - b)) < 1e-8
            done += 1
    report(9, "fold symmetry", time.time() - t0, 5.0)


def test_criterion_10_negative_controls():
    t0 = time.time()
    from zmc.weierstrass import verify_fold_type
    for name in ("helicoid-negative", "elliptic-catenoid-negative"):
        rep = verify_fold_type(get_entry(name).pair)
        assert not rep.ends_on_circle and not rep.is_fold_type
    for name in ("self-intersecting-fb", "self-intersecting-n3"):
        hits = injectivity_scan(get_entry(name).data, grid_resolution=200)
        assert hits, name
    for name in ("scherk:2", "scherk:3", "jorge-meeks:2", "parabolic"):
        assert injectivity_scan(get_entry(name).data, grid_resolution=200) == [], name
    report(10, "negative controls", time.time() - t0, 120.0)


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    pairs = []
    for tag in ("a", "b"):
        mesh = tmp_path / f"mesh_{tag}.obj"
        graph = tmp_path / f"graph_{tag}.csv"
        assert cli_main(["sample", "--gallery", "scherk:3", "--format", "obj",
                         "--resolution", "40", "-o", str(mesh)]) == 0
        assert cli_main(["graph", "--gallery", "scherk:3", "--x-range=-1:1",
                         "--y-range=-1:1", "--resolution", "15",
                         "-o", str(graph)]) == 0
        pairs.append((mesh.read_bytes(), graph.read_bytes()))
    assert pairs[0][0] == pairs[1][0]
    assert pairs[0][1] == pairs[1][1]
    report(11, "deterministic exports", time.time() - t0, 10.0)
