"""The names the benchmark under bench/ looks up in zmc.

`bench/tracer.py` wraps the layers in its LAYERS table by module name and
attribute path, and `bench/oracle.py` and `bench/workloads.py` call zmc
through a namespace of modules.  A rename or deletion in src/ would only
show up when the benchmark runs; these tests resolve every name without
running it or installing the tracer.
"""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from zmc import analysis, cli
from zmc.analysis import GraphInverter, graph_table, injectivity_scan
from zmc.gallery import get_entry
from zmc.surface import eval_on_disk, integrate_oneform

BENCH = Path(__file__).resolve().parent.parent / "bench"

# looked up through aliases (`sf = self.zmc.surface`) or on instances, so the
# pattern scan below cannot see them
ALIASED = (
    ("zmc.surface", "eval_on_disk"), ("zmc.surface", "build_oneforms"),
    ("zmc.surface", "integrate_oneform"), ("zmc.surface", "SurfacePoint"),
    ("zmc.surface", "SurfaceEvaluator.eval_batch"),
    ("zmc.domain", "iota_inverse"), ("zmc.domain", "FinitePoint"),
    ("zmc.domain", "P_INFINITY"), ("zmc.errors", "PathBlocked"),
    ("zmc.analysis", "GraphInverter.invert"), ("zmc.analysis", "GraphInverter.invert_grid"),
    ("zmc.angular", "AngularData.max_cos"),
)


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scanned_names():
    """(module, attribute) for every `z.<module>.<name>` and
    `zmc.<module>.<name>` written out in the benchmark's sources."""
    found = set()
    for source in sorted(BENCH.glob("*.py")):
        for mod, attr in re.findall(r"\bz(?:mc)?\.([a-z]+)\.([A-Za-z]\w*)", source.read_text()):
            found.add((f"zmc.{mod}", attr))
    return sorted(found)


def _resolve(mod, path):
    owner = importlib.import_module(mod)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


TRACER = _tracer()
LAYERS = [(mod, path) for mod, path, _, _ in TRACER.LAYERS]


@pytest.mark.parametrize("mod, path", LAYERS, ids=[f"{m}:{p}" for m, p in LAYERS])
def test_tracer_layer_resolves(mod, path):
    # the tracer replaces owner.__dict__[attr], so a method must be defined
    # on the class itself, not inherited
    owner, attr = _resolve(mod, path)
    assert attr in vars(owner), f"{mod}.{path} is gone"
    assert callable(vars(owner)[attr])


def test_bench_names_resolve():
    names = _scanned_names()
    assert ("zmc.domain", "iota_inverse") in names  # the scan sees oracle.py
    for mod, path in names + list(ALIASED):
        owner, attr = _resolve(mod, path)
        assert hasattr(owner, attr), f"{mod}.{path} is gone"


def test_tracer_newton_counter_reads_newton_batch(monkeypatch):
    # the counter takes the targets from args[1] and the converged flags
    # from out[3] of a call as the tracer's wrapper sees it, self first:
    # four nodes start at their own solutions, the fifth at its neighbour's,
    # and with no sweep only the fifth is unconverged
    counter = next(c for _, path, _, c in TRACER.LAYERS if path == "GraphInverter.newton_batch")
    inv = GraphInverter(get_entry("scherk:3").data)
    X, Y = np.array([-1.0, -0.6, 0.3, 0.7, 1.0]), np.full(5, 0.5)
    l, th, *_ = inv.newton_batch(X[:4], Y[:4])
    args = (inv, X, Y, (np.append(l, l[-1]), np.append(th, th[-1])))
    monkeypatch.setattr(analysis, "_SWEEPS", 0)
    out = GraphInverter.newton_batch(*args)
    assert counter(args, {}, out) == {"nodes": 5, "unconverged": 1}


def test_grid_returns_keep_the_shapes_the_benchmark_unpacks():
    # bench/workloads.py unpacks invert_grid's (u, th, lam, ok, rn) and
    # graph_table's (lam, lx, ly, resid, ok), ravels each against its grid
    # and reads ok as a mask
    inv = GraphInverter(get_entry("scherk:3").data)
    xs, ys = np.linspace(-1.0, 1.0, 3), np.linspace(-1.0, 1.0, 2)
    for out, ok in ((inv.invert_grid(xs, ys), 3), (graph_table(inv, xs, ys, h=1e-3), 4)):
        assert len(out) == 5
        assert all(isinstance(a, np.ndarray) and a.shape == (2, 3) for a in out)
        assert out[ok].dtype == bool


# the positional and keyword shapes bench/workloads.py and bench/oracle.py
# call with
BENCH_CALLS = [
    (injectivity_scan, ("data", "SCAN_RES"), {}),
    (graph_table, ("inv", "xs", "xs"), {"h": "GRAPH_H"}),
    (eval_on_disk, ("data", "z"), {}),
    (integrate_oneform, ("forms", "P_INFINITY", "FinitePoint", "SurfacePoint"), {}),
    (GraphInverter.invert, ("inv", "x", "y"), {}),
    (GraphInverter.invert_grid, ("inv", "xs", "xs"), {}),
]


@pytest.mark.parametrize("fn, args, kwargs", BENCH_CALLS,
                         ids=[fn.__qualname__ for fn, _, _ in BENCH_CALLS])
def test_bench_call_shapes_bind(fn, args, kwargs):
    # a signature change that breaks a benchmark call fails here instead of
    # in a benchmark run
    inspect.signature(fn).bind(*args, **kwargs)


def test_scan_collisions_hold_python_floats():
    # bench/workloads.py's _scan_checker unpacks p1 and p2 as (u, theta)
    # pairs, and the scan's fingerprint is the repr of the list, which an
    # np.float64 would change
    hits = injectivity_scan(get_entry("self-intersecting-fb").data, 60)
    assert hits
    for c in hits:
        assert type(c.p1) is tuple and type(c.p2) is tuple
        assert [type(v) for v in c.p1 + c.p2 + (c.distance,)] == [float] * 5


def _scan_surfaces():
    """SCAN_SURFACES as bench/workloads.py assigns it."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SCAN_SURFACES"])


@pytest.mark.parametrize("name", _scan_surfaces())
def test_classify_report_keys_the_scan_checker_reads(name, tmp_path):
    # bench/workloads.py's _classify_checker compares these four report
    # values with the gallery's expected verdicts
    path = tmp_path / "rep.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["classify", "--gallery", name, "--json", str(path)]) == 0
    rep, want = json.loads(path.read_text()), get_entry(name).expected
    assert rep["fold_type"]["is_fold_type"] is want["fold_type"]
    assert rep["graph_condition"] == want["graph_condition"]
    assert rep["entire_graph_certified"] is want["entire_graph"]
    assert (rep["period_residual"] < 1e-10) is want["period"]
