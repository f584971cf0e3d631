"""The benchmark's workloads: inputs from the seed, timed operations, checks.

mesh   `zmc sample` at resolution 200 in obj, ply and csv on five gallery
       surfaces, plus an order-6-end document.  The surface layer runs as a
       few huge batches; export formatting and causal labels dominate, and
       no Newton code runs.
graph  `zmc graph` tables, `invert_grid` and `graph_table` on a seeded
       random principal surface, and far-field `invert` probes.  The same
       surface layer runs as thousands of tiny Newton batches; the probes
       carry the known far-field inversion defect.
scan   `zmc classify` and `injectivity_scan` at resolution 200, on surfaces
       with and without crossings.  Nearly all time is the scan's own cell
       hashing and Gauss-Newton, with few evaluator calls and no files.

Gallery inputs are fixed.  The seed draws the random principal surface,
the probe angles and the verification subsets, and zmc receives only the
drawn inputs.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle
from oracle import TOL


@dataclass
class Check:
    """Outcome of verifying one operation's output."""

    failed: int  # items of the output that failed
    max_err: float = 0.0  # worst scaled error of a verified item vs an independent reference
    known: int = 0  # failed items that show only a known defect's signature (NOTES.md)


@dataclass
class Op:
    name: str
    items: int
    run: Callable[[], Any]
    check: Callable[[Any], Check]
    fingerprint: Callable[[Any], str]
    seeded: bool = False  # inputs drawn from the seed: max_err leaves its errors out


def _vec_err(vals, ref):
    """Worst component error per point (columns, or one vector), scaled by
    1 + the reference's largest component."""
    vals, ref = np.asarray(vals, dtype=float), np.asarray(ref, dtype=float)
    if ref.ndim == 1:
        vals, ref = vals[:, None], ref[:, None]
    return np.max(np.abs(vals - ref), axis=0) / (1.0 + np.max(np.abs(ref), axis=0))


def _tally(bad, err=None, checked=None, waived=None):
    """Check from a per-item failure mask, optional reference errors at the
    `checked` items, and `waived`: items that fail a check a known defect
    fails.  A waived item that fails nothing else counts as known."""
    bad = bad.copy()
    max_err = 0.0
    if err is not None:
        ok_err = np.isfinite(err) & (err <= TOL)
        bad[checked] |= ~ok_err
        good = ok_err & ~bad[checked]
        max_err = float(err[good].max()) if good.any() else 0.0
    if waived is None:
        return Check(int(np.count_nonzero(bad)), max_err)
    known = int(np.count_nonzero(waived & ~bad))
    return Check(int(np.count_nonzero(bad | waived)), max_err, known)


def _label_failures(labels, want):
    """Labels that differ from the expected ones, where one is expected."""
    return (want != None) & (labels != want)  # noqa: E711


def _file_fingerprint(path):
    def fp(rc):
        if rc != 0 or not os.path.exists(path):
            return f"rc={rc}"
        with open(path, "rb") as fh:
            return hashlib.sha1(fh.read()).hexdigest()
    return fp


def _repr_fingerprint(out):
    return hashlib.sha1(repr(out).encode()).hexdigest()


def _array_fingerprint(out):
    h = hashlib.sha1()
    for a in out:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    """Base: `setup` imports nothing itself; it receives the freshly
    imported zmc modules and builds the workload's objects."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.verify_rng = np.random.default_rng([seed, 1])
        self.z = None

    def path(self, name):
        return os.path.join(self.workdir, name.replace(":", "_"))

    def cli_op(self, name, argv, out_path, items, check):
        def run():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return self.z.cli.main(argv)
        return Op(name, items, run, check, _file_fingerprint(out_path))

    def setup(self, z):
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

MESH_SURFACES = ("scherk:3", "jorge-meeks:3", "self-intersecting-fb", "parabolic",
                 "ruled-enneper")
MESH_RES = 200
MESH_FORMATS = ("csv", "obj", "ply")  # csv first: obj and ply are compared against it
MESH_SUBSET = 64  # seeded vertices per non-implicit surface checked by quadrature
ORDER6_DOC = {"n": 3, "alphas": [0, 0, 0, 0, 0, 0]}  # one end of order 6
ORDER6_RES = 8
ORDER6_MARGIN = 0.01  # the default 1e-3 costs up to a minute per vertex; see NOTES.md
U_MAX = 3.0  # zmc sample's defaults
MARGIN = 1e-3


class MeshTarget:
    def __init__(self, name, data, res, margin, implicit):
        self.name, self.data, self.res, self.margin = name, data, res, margin
        self.implicit = implicit
        self.csv_vals = None
        self.refs = {}  # vertex index -> reference (t, x, y), or None out of reach
        self.known_labels = np.zeros(res * res, dtype=bool)  # labels a known defect flips

    def grid(self):
        """The sample grid, rebuilt here from its definition."""
        res = self.res
        th = 2 * math.pi * np.arange(res) / res
        lo = np.max(np.cos(th[:, None] - np.asarray(self.data.angular.betas)[None, :]),
                    axis=1) + self.margin
        u = lo[None, :] + (U_MAX - lo)[None, :] * (np.arange(res) / (res - 1))[:, None]
        return u.ravel(), np.tile(th, res)


class Mesh(Workload):
    def setup(self, z):
        # the evaluators count in setup_s; the CLI builds its own per command
        self.z = z
        self.targets = []
        for name in MESH_SURFACES:
            entry = z.gallery.get_entry(name)
            z.surface.SurfaceEvaluator(entry.data)
            self.targets.append(MeshTarget(name, entry.data, MESH_RES, MARGIN,
                                           name if name in oracle.IMPLICIT else None))
        ang = z.angular.AngularData(ORDER6_DOC["n"], tuple(map(float, ORDER6_DOC["alphas"])))
        data = z.weierstrass.build(ang, z.angular.BlaschkeParams(()))
        z.surface.SurfaceEvaluator(data)
        self.order6 = MeshTarget("order6", data, ORDER6_RES, ORDER6_MARGIN, None)
        # on the lowest row, at theta = pi/2 and 3 pi/2, the metric determinant
        # is lost to cancellation and the label reads space-like (NOTES.md)
        self.order6.known_labels[[ORDER6_RES // 4, 3 * ORDER6_RES // 4]] = True

    def ops(self):
        doc = self.path("order6.json")
        with open(doc, "w") as fh:
            json.dump(ORDER6_DOC, fh)
        ops = []
        for t in self.targets:
            for fmt in MESH_FORMATS:
                out = self.path(f"{t.name}.{fmt}")
                argv = ["sample", "--gallery", t.name, "--format", fmt,
                        "--resolution", str(MESH_RES), "-o", out]
                ops.append(self.cli_op(f"sample {t.name} {fmt}", argv, out, MESH_RES**2,
                                       self._checker(t, fmt, out)))
        out = self.path("order6.csv")
        argv = ["sample", doc, "--format", "csv", "--resolution", str(ORDER6_RES),
                "--margin", str(ORDER6_MARGIN), "-o", out]
        ops.append(self.cli_op("sample order6 csv", argv, out, ORDER6_RES**2,
                               self._checker(self.order6, "csv", out)))
        return ops

    def _checker(self, t, fmt, out):
        def check(rc):
            n = t.res**2
            if rc != 0:
                return Check(n)
            try:
                if fmt == "csv":
                    u, th, vals, labels = oracle.read_mesh_csv(out)
                else:
                    vals, faces = (oracle.read_obj if fmt == "obj" else oracle.read_ply)(out)
            except (OSError, ValueError, IndexError):
                return Check(n)
            if vals.shape != (3, n):
                return Check(n)
            gu, gth = t.grid()
            bad = ~np.isfinite(vals).all(axis=0)
            waived = None
            if fmt == "csv":
                bad |= np.abs(u - gu) > 1e-12 * (1 + np.abs(gu))
                bad |= np.abs(th - gth) > 1e-12
                wrong = _label_failures(labels, oracle.expected_causal(gu))
                waived = wrong & t.known_labels & (labels == "spacelike")
                bad |= wrong & ~waived
                t.csv_vals = vals
            else:
                if fmt == "obj":
                    faces = faces - 1
                if faces.shape != (t.res * (t.res - 1), 4) or \
                        (faces != oracle.quad_faces(t.res)).any():
                    return Check(n)
                if t.csv_vals is not None:
                    bad |= (vals != t.csv_vals).any(axis=0)
            if t.implicit:
                err = oracle.implicit_error(t.implicit, *vals)
                return _tally(bad, err, np.arange(n), waived)
            idx = self._quadrature_refs(t, gu, gth)
            ref = np.array([t.refs[i] for i in idx]).T
            return _tally(bad, _vec_err(vals[:, idx], ref), idx, waived)
        return check

    def _quadrature_refs(self, t, gu, gth):
        """Vertices with a quadrature reference, computed on first use.
        Gallery meshes: a seeded subset of the whole grid, checked on the
        disk side for u >= 1 and by the 1-forms inside the fold.  The
        order-6 grid: every vertex with u >= 1.001, on the disk side only,
        since the 1-forms are that mesh's own route."""
        if not t.refs:
            quad = oracle.Quadrature(self.z, t.data)
            if t.res == MESH_RES:
                idx = self.verify_rng.choice(gu.size, MESH_SUBSET, replace=False)
                t.refs = {i: quad(gu[i], gth[i]) for i in np.sort(idx)}
            else:
                t.refs = {i: quad.disk(gu[i], gth[i])
                          for i in np.nonzero(gu >= 1.0 + 1e-3)[0]}
        return np.array([i for i, ref in t.refs.items() if ref is not None], dtype=np.int64)


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

GRAPH_TABLES = (("scherk:2", 41), ("scherk:3", 41), ("scherk:4", 41),
                ("jorge-meeks:2", 41), ("parabolic", 7))  # parabolic: ~0.7 s per table row
GRAPH_RANGE = (-2.0, 2.0)
RANDOM_SURFACES = 1  # one can cost 10x another: more would widen the seed-to-seed spread
RANDOM_RES = 11
TABLE_SUBSET = 8  # seeded nodes per table without a closed form, checked by quadrature
PROBE_SURFACES = ("scherk:2", "scherk:3")
PROBE_RADII = np.logspace(0.0, 3.0, 11)
# per radius, evenly spaced from a seeded offset; scherk:2 and scherk:3
# repeat every pi/2 and pi/3, and five angles fall on five distinct
# directions of both, where four would hit one direction of scherk:2 four times
PROBE_ANGLES = 5
KNOWN_PROBE_ERROR = "AttributeError in _homotopy"  # ROADMAP 4a
# near the domain boundary, u - cos(theta - beta) keeps about 1e-16 /
# clearance of relative accuracy (ROADMAP 2, 4b); below this clearance a
# preimage cannot reproduce its target to TOL, which is a known defect
KNOWN_CLEARANCE = 1e-16 / TOL
GRAPH_H = 1e-3  # finite-difference step of the tables' ZMC residual (the CLI's default)
# height rounding, in units of the largest stencil height, that a residual
# may carry beyond the stencil's truncation error (measured: below 1e-11)
HEIGHT_ROUNDING = 1e-10
FOLD_MARGIN = 1e-2  # causal labels are checked only where |u - 1| exceeds this


def random_principal_alphas(rng, n=3):
    """Distinct angles with every gap strictly below pi/(n-1), by rejection."""
    bound = math.pi / (n - 1)
    while True:
        gaps = rng.uniform(0.05, 1.0, size=2 * n)
        gaps *= 2 * math.pi / gaps.sum()
        if gaps.max() < 0.98 * bound:
            return tuple(float(a) for a in np.concatenate([[0.0], np.cumsum(gaps[:-1])]))


class HeightReference:
    """lambda(x, y) from the quadrature oracles at a preimage found by a
    separate inverter; the oracle must reproduce (x, y) at that preimage.
    NaN when that fails, None when the preimage is out of the oracles' reach.
    `preimage_u` keeps the u of each preimage whose height was reproduced."""

    def __init__(self, z, data):
        self.z, self.data = z, data
        self._inv = None
        self._quad = oracle.Quadrature(z, data)
        self._cache = {}
        self.preimage_u = {}

    def _inverter(self):
        if self._inv is None:
            self._inv = self.z.analysis.GraphInverter(self.data)
        return self._inv

    def inverted(self, xs, ys):
        """Heights from the separate inverter alone, one cold start per point."""
        out = []
        for x, y in zip(xs, ys):
            try:
                out.append(self._inverter().invert(x, y)[2])
            except (self.z.errors.ZmcError, AttributeError):
                out.append(math.nan)
        return np.array(out)

    def __call__(self, x, y):
        key = (float(x), float(y))
        if key not in self._cache:
            lam = math.nan
            try:
                u, th, _ = self._inverter().invert(x, y)
            except (self.z.errors.ZmcError, AttributeError):  # the latter: ROADMAP 4a
                pass
            else:
                ref = self._quad(u, th)
                if ref is None:
                    lam = None
                elif _vec_err(ref[1:], np.array([x, y]))[0] <= TOL:
                    lam = ref[0]
                    self.preimage_u[key] = u
            self._cache[key] = lam
        return self._cache[key]


def _residual_failures(resid, x, y, height):
    """Nodes whose ZMC residual leaves the stencil's error envelope.  The
    exact residual is zero, so the same stencil on reference heights gives
    the O(h^2) truncation error R there; a node fails when |residual|
    exceeds 2 |R| plus what the heights' rounding leaves.  Both the
    stencil's result and an exact residual pass."""
    ref, size = oracle.stencil_residual(height, x, y, GRAPH_H)
    with np.errstate(invalid="ignore"):
        return ~(np.abs(resid) <= 2 * np.abs(ref) + HEIGHT_ROUNDING * (1 + size) / GRAPH_H**2)


def _near_boundary(data, u, th):
    """Preimages closer to the domain boundary than a double u resolves
    there: the signature of the known defect ROADMAP 4b describes."""
    with np.errstate(invalid="ignore"):
        return u - data.angular.max_cos(th) < KNOWN_CLEARANCE


class Graph(Workload):
    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 0])
        self.random_alphas = [random_principal_alphas(rng) for _ in range(RANDOM_SURFACES)]
        # stratified: a seeded offset per radius keeps the directions spread
        # out, so the probes' cost varies less from seed to seed
        offsets = rng.uniform(0.0, 1.0, size=(len(PROBE_SURFACES), PROBE_RADII.size, 1))
        self.probe_angles = 2 * math.pi * (np.arange(PROBE_ANGLES) + offsets) / PROBE_ANGLES

    def setup(self, z):
        self.z = z
        names = {name for name, _ in GRAPH_TABLES} | set(PROBE_SURFACES)
        self.entries = {name: z.gallery.get_entry(name) for name in names}
        self.random_data = [z.weierstrass.build(z.angular.AngularData(3, alphas),
                                                z.angular.BlaschkeParams(()))
                            for alphas in self.random_alphas]
        self.random_invs = [z.analysis.GraphInverter(d) for d in self.random_data]
        self.probe_invs = [z.analysis.GraphInverter(self.entries[name].data)
                           for name in PROBE_SURFACES]
        self.refs = {}
        self.grid_out = {}
        self._random_refs = {}

    def _nodes(self, res, corners=True):
        """TABLE_SUBSET seeded nodes, and the four corners, where the
        preimages sit closest to the fold and the errors peak."""
        nodes = self.verify_rng.choice(res * res, TABLE_SUBSET, replace=False)
        if corners:
            nodes = np.concatenate([nodes, [0, res - 1, res * (res - 1), res * res - 1]])
        return np.unique(nodes)

    @staticmethod
    def _references(ref, nodes, x, y):
        """The nodes the oracles reach, and their reference heights."""
        pairs = [(i, ref(x[i], y[i])) for i in nodes]
        pairs = [(i, lam) for i, lam in pairs if lam is not None]
        return (np.array([i for i, _ in pairs], dtype=np.int64),
                np.array([lam for _, lam in pairs], dtype=float))

    def _ref(self, name, data):
        if name not in self.refs:
            self.refs[name] = HeightReference(self.z, data)
        return self.refs[name]

    def ops(self):
        ops = []
        lo, hi = GRAPH_RANGE
        for name, res in GRAPH_TABLES:
            out = self.path(f"graph-{name}.csv")
            argv = ["graph", "--gallery", name, f"--x-range={lo}:{hi}", f"--y-range={lo}:{hi}",
                    "--resolution", str(res), "--h", str(GRAPH_H), "-o", out]
            ops.append(self.cli_op(f"graph {name}", argv, out, res * res,
                                   self._table_checker(name, res, out)))
        xs = np.linspace(lo, hi, RANDOM_RES)
        n = RANDOM_RES**2
        for k, inv in enumerate(self.random_invs):
            ops.append(Op(f"invert_grid random{k}", n,
                          functools.partial(self._invert_grid, inv, xs),
                          functools.partial(self._check_invert_grid, k), _array_fingerprint,
                          seeded=True))
            ops.append(Op(f"graph_table random{k}", n,
                          functools.partial(self._graph_table, inv, xs),
                          functools.partial(self._check_graph_table, k), _array_fingerprint,
                          seeded=True))
        for k, name in enumerate(PROBE_SURFACES):
            ops.append(Op(f"invert far probes {name}", self.probe_angles[k].size,
                          functools.partial(self._run_probes, k),
                          functools.partial(self._check_probes, k), _repr_fingerprint,
                          seeded=True))
        return ops

    def _table_checker(self, name, res, out):
        def check(rc):
            n = res * res
            if rc != 0:
                return Check(n)
            try:
                x, y, lam, labels, resid = oracle.read_graph_csv(out)
            except (OSError, ValueError, IndexError):
                return Check(n)
            if x.size != n:
                return Check(n)
            grid = np.linspace(*GRAPH_RANGE, res)
            bad = (np.abs(x - np.tile(grid, res)) > 1e-14) \
                | (np.abs(y - np.repeat(grid, res)) > 1e-14)
            bad |= ~np.isfinite(lam) | ~np.isfinite(resid)
            grad = oracle.height_gradient(name, x, y, lam)
            if grad is not None:
                # closed forms: labels, residuals and heights on every node
                bad |= _label_failures(labels, oracle.expected_graph_causal(*grad))
                bad |= _residual_failures(resid, x, y, functools.partial(
                    oracle.closed_height, name, guess=lam))
                return _tally(bad, oracle.height_error(name, x, y, lam), np.arange(n))
            # the remaining tables are scherk:3 and scherk:4, whose display
            # coordinates are the raw ones; at the checked nodes the label
            # must follow the fold rule at the reference preimage, and the
            # residual is checked on heights from the reference inverter
            ref = self._ref(name, self.entries[name].data)
            idx, want = self._references(ref, self._nodes(res), x, y)
            u = np.array([ref.preimage_u.get((x[i], y[i]), 1.0) for i in idx])
            bad[idx] |= _label_failures(labels[idx], oracle.expected_causal(u, FOLD_MARGIN))
            bad[idx] |= _residual_failures(resid[idx], x[idx], y[idx], ref.inverted)
            return _tally(bad, oracle.scaled(lam[idx] - want, x[idx], y[idx], want), idx)
        return check

    # both look the layer up at call time, so that a traced run sees it
    @staticmethod
    def _invert_grid(inv, xs):
        return inv.invert_grid(xs, xs)

    def _graph_table(self, inv, xs):
        return self.z.analysis.graph_table(inv, xs, xs, h=GRAPH_H)

    def _random_subset(self, k):
        """(checked node indices, all targets, reference heights there) of
        random surface k, shared by its invert_grid and graph_table checks."""
        if k not in self._random_refs:
            grid = np.linspace(*GRAPH_RANGE, RANDOM_RES)
            X, Y = np.tile(grid, RANDOM_RES), np.repeat(grid, RANDOM_RES)
            idx, want = self._references(self._ref(f"random{k}", self.random_data[k]),
                                         self._nodes(RANDOM_RES, corners=False), X, Y)
            self._random_refs[k] = idx, (X, Y), want
        return self._random_refs[k]


    def _check_invert_grid(self, k, out):
        u, th, lam, ok, rn = (np.ravel(a) for a in out)
        idx, (X, Y), want = self._random_subset(k)
        # the returned preimages must reproduce the targets and heights
        vals = self.z.surface.SurfaceEvaluator(self.random_data[k]).eval_batch(u, th)
        bad = ~ok | ~np.isfinite(lam) | ~np.isfinite(u)
        with np.errstate(invalid="ignore"):
            missed = ~(_vec_err(vals, np.vstack([lam, X, Y])) <= TOL)
        waived = missed & ~bad & _near_boundary(self.random_data[k], u, th)
        bad |= missed & ~waived
        # invert_grid writes a residual of exactly 0 where its row Newton
        # failed and a cold-start invert rescued the node
        self.grid_out[k] = u, lam, waived, ok & (rn == 0.0)
        idx, want = idx[~waived[idx]], want[~waived[idx]]
        return _tally(bad, oracle.scaled(lam[idx] - want, X[idx], Y[idx], want), idx, waived)

    def _check_graph_table(self, k, out):
        """Heights against invert_grid's, the causal sign of the
        finite-difference gradient against the fold rule at its preimages,
        and residuals at the checked nodes.  Waived: nodes where invert_grid
        showed the near-boundary defect, and nodes graph_table flags as not
        converged where invert_grid needed its rescue, which graph_table
        lacks (NOTES.md)."""
        lam, lx, ly, resid, ok = (np.ravel(a) for a in out)
        idx, (X, Y), want = self._random_subset(k)
        bad = ~ok | ~np.isfinite(np.vstack([lam, lx, ly, resid])).all(axis=0)
        bad[idx] |= _residual_failures(resid[idx], X[idx], Y[idx],
                                       self.refs[f"random{k}"].inverted)
        waived = None
        if k in self.grid_out:
            u, grid_lam, near, rescued = self.grid_out[k]
            bad |= ~(oracle.scaled(lam - grid_lam, X, Y, lam) <= TOL)
            side = oracle.fold_side(u, FOLD_MARGIN)
            bad |= (side != 0) & (np.sign(1.0 - lx**2 - ly**2) != side)
            waived = bad & (near | (rescued & ~ok))
            bad &= ~waived
            idx, want = idx[~waived[idx]], want[~waived[idx]]
        return _tally(bad, oracle.scaled(lam[idx] - want, X[idx], Y[idx], want), idx, waived)

    def _run_probes(self, k):
        out = []
        inv = self.probe_invs[k]
        for r, row in zip(PROBE_RADII, self.probe_angles[k]):
            for a in row:
                x, y = r * math.cos(a), r * math.sin(a)
                try:
                    out.append((x, y) + inv.invert(x, y))
                except Exception as exc:  # each probe is one item; count, keep going
                    where = traceback.extract_tb(exc.__traceback__)[-1].name
                    out.append((x, y, f"{type(exc).__name__} in {where}"))
        return out

    def _check_probes(self, k, out):
        """Re-evaluate at the returned (u, theta); a 'converged' preimage the
        evaluator cannot reproduce, such as u = 1.0 exactly, fails.  Known
        defects (ROADMAP 4a, 4b): the AttributeError raised in _homotopy,
        and a failing preimage at u = 1.0 exactly or on the domain boundary."""
        failed = known = 0
        data = self.entries[PROBE_SURFACES[k]].data
        ev = self.z.surface.SurfaceEvaluator(data)
        for x, y, *res in out:
            if len(res) != 3:
                failed += 1
                known += res == [KNOWN_PROBE_ERROR]
                continue
            u, th, lam = res
            with np.errstate(all="ignore"):
                v = ev.eval_batch(np.array([u]), np.array([th]))[:, 0]
                err = _vec_err(v, np.array([lam, x, y]))[0]
            if not err <= TOL:
                failed += 1
                known += bool(u == 1.0 or _near_boundary(data, u, th))
        return Check(failed, known=known)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

SCAN_SURFACES = ("self-intersecting-n3", "self-intersecting-fb",  # crossings expected
                 "scherk:3", "jorge-meeks:2", "parabolic")  # none expected
SCAN_RES = 200
# crossings the scan reports at SCAN_RES, each confirmed by quadrature; a
# scan that reports fewer has lost some, and each lost one is a failed item
SCAN_CROSSINGS = {"self-intersecting-n3": 29, "self-intersecting-fb": 5}


class Scan(Workload):
    def setup(self, z):
        self.z = z
        self.entries = {name: z.gallery.get_entry(name) for name in SCAN_SURFACES}

    def ops(self):
        ops = []
        for name in SCAN_SURFACES:
            out = self.path(f"classify-{name}.json")
            argv = ["classify", "--gallery", name, "--json", out]
            ops.append(self.cli_op(f"classify {name}", argv, out, 1,
                                   self._classify_checker(name, out)))
            ops.append(Op(f"scan {name}", SCAN_RES**2, self._scan_runner(name),
                          self._scan_checker(name), _repr_fingerprint))
        return ops

    def _classify_checker(self, name, out):
        def check(rc):
            if rc != 0:
                return Check(1)
            try:
                with open(out) as fh:
                    rep = json.load(fh)
            except (OSError, ValueError):
                return Check(1)
            want = self.entries[name].expected
            ok = (rep["fold_type"]["is_fold_type"] == want["fold_type"]
                  and rep["graph_condition"] == want["graph_condition"]
                  and rep["entire_graph_certified"] == want["entire_graph"]
                  and (rep["period_residual"] < 1e-10) == want["period"])
            return Check(int(not ok))
        return check

    def _scan_runner(self, name):
        return lambda: self.z.analysis.injectivity_scan(self.entries[name].data, SCAN_RES)

    def _scan_checker(self, name):
        def check(collisions):
            n = SCAN_RES**2
            if bool(collisions) != self.entries[name].expected["self_intersecting"]:
                return Check(n)
            lost = max(SCAN_CROSSINGS.get(name, 0) - len(collisions), 0)
            quad = oracle.Quadrature(self.z, self.entries[name].data)
            errs = []
            for c in collisions:
                # the scan's own chart; it reports pairs at least 0.05 apart there
                m1, m2 = (cmath.exp(1j * th) / (u + 2) for u, th in (c.p1, c.p2))
                if abs(m1 - m2) <= 0.025:
                    errs.append(math.inf)
                    continue
                a, b = quad(*c.p1), quad(*c.p2)
                if a is not None and b is not None:  # else out of the oracles' reach
                    errs.append(_vec_err(a, b)[0])
            errs = np.array(errs)
            good = errs <= TOL
            worst = float(errs[good].max()) if good.any() else 0.0
            return Check(lost + int(np.count_nonzero(~good)), worst)
        return check


WORKLOADS = {"mesh": Mesh, "graph": Graph, "scan": Scan}
