import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from zmc import cli
from zmc.analysis import GraphInverter, graph_derivatives, metric_determinant
from zmc.cli import main
from zmc.domain import FinitePoint
from zmc.surface import SurfaceEvaluator, causal_character


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------- classify

def test_classify_gallery_scherk(capsys, tmp_path):
    report = tmp_path / "rep.json"
    code, out, _ = run(["classify", "--gallery", "scherk:3", "--json", str(report)], capsys)
    assert code == 0
    assert "strict" in out
    doc = json.loads(report.read_text())
    assert doc["schema"] == "zmc-report/1"
    assert doc["entire_graph_certified"] is True
    assert doc["graph_condition"] == "strict"


def test_classify_gallery_jorge_meeks3(capsys):
    code, out, _ = run(["classify", "--gallery", "jorge-meeks:3"], capsys)
    assert code == 0           # classification outcome does not affect the exit code
    assert "violated" in out
    assert "witness" in out


def test_classify_spec_document(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 2,
        "alphas": [0, "1/2 pi", "pi", "3/2 pi"],
        "blaschke": [],
    }))
    code, out, _ = run(["classify", str(spec)], capsys)
    assert code == 0
    assert "rational arithmetic" in out


def test_classify_malformed_alpha(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"n": 2, "alphas": [0, "half pi", 3.14, 4.7]}))
    code, _, err = run(["classify", str(spec)], capsys)
    assert code == 2
    assert "alphas[1]" in err


def test_classify_bad_json_location(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text('{"n": 2,\n "alphas": [0, }')
    code, _, err = run(["classify", str(spec)], capsys)
    assert code == 2
    assert ":2:" in err  # line number of the syntax error


def test_classify_missing_input(capsys):
    code, _, err = run(["classify"], capsys)
    assert code == 2


@pytest.mark.parametrize("field, value", [
    ("n", "x"), ("re", "a"), ("im", "b"), ("u_max", "big"), ("resolution", "many"),
    ("margin", "thin"), ("base_point", ["a", 0.0]),
    ("n", 2.7), ("resolution", 12.5)])
def test_document_non_numeric_field(capsys, tmp_path, field, value):
    doc = {"n": 2, "alphas": [0, "1/2 pi", "pi", "3/2 pi"],
           "blaschke": [{"re": 0.0, "im": 0.0}], "options": {}}
    if field == "n":
        doc["n"] = value
    elif field in ("re", "im"):
        doc["blaschke"][0][field] = value
    else:
        doc["options"][field] = value
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps(doc))
    code, _, err = run(["classify", str(spec)], capsys)
    assert code == 2
    assert field in err


def test_document_integral_floats_accepted(capsys, tmp_path):
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps({"n": 2.0, "alphas": [0, "1/2 pi", "pi", "3/2 pi"],
                                "options": {"resolution": 12.0}}))
    code, out, _ = run(["classify", str(spec)], capsys)
    assert code == 0
    assert "order n = 2" in out


# ---------------------------------------------------------------- sample

def test_sample_obj_grid(capsys, tmp_path):
    out_path = tmp_path / "mesh.obj"
    code, out, _ = run(["sample", "--gallery", "scherk:2", "--format", "obj",
                        "--resolution", "20", "-o", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 400
    assert len(faces) == 19 * 20      # theta wraps around
    assert all(np.all(np.isfinite([float(x) for x in v.split()[1:]])) for v in verts)


def test_sample_margin_respected(capsys, tmp_path):
    out_path = tmp_path / "mesh.csv"
    code, _, _ = run(["sample", "--gallery", "scherk:2", "--format", "csv",
                      "--resolution", "16", "--margin", "0.05",
                      "-o", str(out_path)], capsys)
    assert code == 0
    rows = out_path.read_text().splitlines()[1:]
    ang = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    for row in rows:
        u, th = map(float, row.split(",")[:2])
        clearance = u - max(math.cos(th - a) for a in ang)
        assert clearance >= 0.05 - 1e-12


def test_sample_csv_implicit_residual(capsys, tmp_path):
    out_path = tmp_path / "par.csv"
    code, _, _ = run(["sample", "--gallery", "parabolic", "--format", "csv",
                      "--resolution", "14", "--margin", "0.2",
                      "-o", str(out_path)], capsys)
    assert code == 0
    for row in out_path.read_text().splitlines()[1:]:
        cols = row.split(",")
        t, x, y = (float(c) for c in cols[2:5])
        phi = 0.5 * (math.exp(4 * (t + x)) - 1) + 2 * (t - x) - 4 * y * y
        assert abs(phi) < 1e-6
        assert cols[5] in ("spacelike", "lightlike", "timelike")


def test_sample_ply_header(capsys, tmp_path):
    out_path = tmp_path / "mesh.ply"
    code, _, _ = run(["sample", "--gallery", "scherk:2", "--format", "ply",
                      "--resolution", "8", "-o", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text().splitlines()
    assert text[0] == "ply" and "end_header" in text
    assert "element vertex 64" in text


@pytest.mark.parametrize("flags", [
    ["--u-max", "0.5"],            # below the domain's lower edge
    ["--u-max", "inf"],
    ["--margin", "0"], ["--margin", "-0.1"], ["--margin", "nan"], ["--margin", "inf"],
    ["--resolution", "1"], ["--resolution", "0"], ["--resolution", "-3"]],
    ids="".join)
def test_sample_rejects_options_outside_domain(capsys, tmp_path, flags):
    out_path = tmp_path / "mesh.obj"
    code, _, err = run(["sample", "--gallery", "scherk:2", "--format", "obj",
                        "-o", str(out_path)] + flags, capsys)
    assert code == 2
    assert not out_path.exists()


def test_sample_document_resolution_zero(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 2, "alphas": [0, "1/2 pi", "pi", "3/2 pi"],
                                "options": {"resolution": 0}}))
    out_path = tmp_path / "mesh.obj"
    code, _, err = run(["sample", str(spec), "-o", str(out_path)], capsys)
    assert code == 2
    assert "resolution" in err
    assert not out_path.exists()


def test_sample_nearly_repeated_angles_is_numeric_failure(capsys, tmp_path):
    # the closed-form residues lose the sum rules to rounding
    spec = tmp_path / "near.json"
    spec.write_text(json.dumps({"n": 3, "alphas": [0, 1e-9, 2, 2.000000001,
                                                   4, 4.000000001]}))
    out_path = tmp_path / "mesh.csv"
    code, _, err = run(["sample", str(spec), "--format", "csv", "--resolution", "4",
                        "-o", str(out_path)], capsys)
    assert code == 4
    assert "residue" in err
    assert not out_path.exists()


@pytest.mark.parametrize("base_point", [[math.nan, 0.0], [2.0, math.inf],
                                        [math.inf, 0.0], [0.0, 0.0]])
def test_sample_rejects_bad_base_point(capsys, tmp_path, base_point):
    # non-finite, or outside the extension domain ([0, 0] lies below every
    # cosine of scherk:2)
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps({"n": 2, "alphas": [0, "1/2 pi", "pi", "3/2 pi"],
                                "options": {"base_point": base_point}}))
    out_path = tmp_path / "mesh.csv"
    code, _, err = run(["sample", str(spec), "--format", "csv", "--resolution", "4",
                        "-o", str(out_path)], capsys)
    assert code == 2
    assert "base_point" in err
    assert not out_path.exists()


ORDER6_DOC = {"n": 3, "alphas": [0, 0, 0, 0, 0, 0]}  # one end of pole order 6


def test_sample_order6_csv(capsys, tmp_path):
    from zmc.angular import AngularData, BlaschkeParams
    from zmc.domain import FinitePoint, iota_inverse
    from zmc.surface import eval_on_disk
    from zmc.weierstrass import build
    spec = tmp_path / "order6.json"
    spec.write_text(json.dumps(ORDER6_DOC))
    out_path = tmp_path / "mesh.csv"
    code, _, _ = run(["sample", str(spec), "--format", "csv", "--resolution", "12",
                      "-o", str(out_path)], capsys)
    assert code == 0
    rows = [r.split(",") for r in out_path.read_text().splitlines()[1:]]
    assert len(rows) == 144
    nums = np.array([r[:5] for r in rows], dtype=float)
    assert np.all(np.isfinite(nums))
    labels = np.array([r[5] for r in rows])
    u = nums[:, 0]
    # the fold rule: space-like outside the unit circle, time-like inside
    assert np.all(labels[u > 1 + 1e-9] == "spacelike")
    assert np.all(labels[u < 1 - 1e-9] == "timelike")
    data = build(AngularData(3, (0.0,) * 6), BlaschkeParams(()))
    far = np.nonzero(u >= 1.001)[0]
    assert far.size > 60
    for i in far:
        z = iota_inverse(FinitePoint(u[i], nums[i, 1]))
        want = eval_on_disk(data, z).as_array()
        assert np.max(np.abs(nums[i, 2:] - want)) < 1e-9 * (1 + np.abs(want).max())


def test_check_order6_document(capsys, tmp_path):
    spec = tmp_path / "order6.json"
    spec.write_text(json.dumps(ORDER6_DOC))
    code, out, _ = run(["check", str(spec)], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) == 5
    assert all(ln.startswith("[PASS]") for ln in lines)


def test_sample_negative_entry_refused(capsys, tmp_path):
    code, _, err = run(["sample", "--gallery", "helicoid-negative",
                        "--format", "obj", "-o", str(tmp_path / "x.obj")], capsys)
    assert code == 3


# ------------------------------------------------ non-finite values, robustness

def _sample(capsys, tmp_path, source, flags):
    """(exit code, stderr, output path) of `zmc sample`, with numpy warnings
    turned into errors; source "order6" is the order-6 document."""
    if source == "order6":
        spec = tmp_path / "order6.json"
        spec.write_text(json.dumps(ORDER6_DOC))
        source = [str(spec)]
    out_path = tmp_path / "mesh.out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(["sample", *source, *flags, "-o", str(out_path)], capsys)
    return code, err, out_path


FAR_SAMPLES = pytest.mark.parametrize("source, flags", [
    (["--gallery", "scherk:3"], ["--format", "csv", "--resolution", "8"]),
    ("order6", ["--format", "csv", "--resolution", "4"])], ids=["scherk3-csv", "order6-csv"])


@FAR_SAMPLES
def test_sample_non_finite_is_numeric_failure(capsys, tmp_path, monkeypatch, source, flags):
    # an evaluator value forced non-finite at the first vertex (u, theta) =
    # (max cos + margin, 0): exit 4, naming the vertex, and no file
    from zmc.surface import SurfaceEvaluator
    eval_batch = SurfaceEvaluator.eval_batch

    def nan_at_first_vertex(self, u, theta):
        out = eval_batch(self, u, theta)
        out[1, 0] = math.nan
        return out

    monkeypatch.setattr(SurfaceEvaluator, "eval_batch", nan_at_first_vertex)
    code, err, out_path = _sample(capsys, tmp_path, source, flags)
    assert code == 4
    assert err.splitlines() == ["numeric failure: non-finite value at (u, theta) = (1.001, 0.0)"]
    assert not out_path.exists()


@FAR_SAMPLES
def test_sample_far_rows_are_finite_and_spacelike(capsys, tmp_path, source, flags):
    # the metric determinant (about u^-6) is not a double at u ~ 1e300, its
    # sign is: every row with u > 1 is space-like
    code, err, out_path = _sample(capsys, tmp_path, source, [*flags, "--u-max", "1e300"])
    assert code == 0, err
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    assert all(math.isfinite(float(v)) for r in rows for v in r[:5])
    assert any(float(r[0]) > 1e299 for r in rows)
    assert {r[5] for r in rows if float(r[0]) > 1} == {"spacelike"}


@pytest.mark.parametrize("source, flags", [
    (["--gallery", "scherk:3"], ["--format", "obj", "--resolution", "8", "--margin", "1e-17"]),
    ("order6", ["--format", "csv", "--resolution", "4", "--margin", "1e-30"])],
    ids=["scherk3-obj", "order6-csv"])
def test_sample_margin_that_rounds_away_is_input_error(capsys, tmp_path, source, flags):
    # max cos + margin == max cos = 1 at theta = 0 would put the lowest row
    # on the boundary
    code, err, out_path = _sample(capsys, tmp_path, source, flags)
    assert code == 2
    assert err.splitlines() == [f"error: margin {flags[-1]} rounds away: max cos + margin "
                                "== max cos = 1.0 at theta = 0.0"]
    assert not out_path.exists()


MARGINS = st.one_of(st.floats(-20.0, 0.0).map(lambda e: 10.0**e),
                    st.sampled_from([0.0, -0.1, math.inf, math.nan]))
U_MAXES = st.one_of(st.floats(2.5, 6.0), st.floats(-2.0, 2.5))  # edge + margin <= 2
AXIS_ORDERS = st.one_of(st.permutations(["t", "x", "y"]).map(",".join),
                        st.sampled_from(["", "t,x", "t,x,y,y", " y , t , x", "a,b,c", "t;x;y"]))
SAMPLE_SURFACES = ["scherk:2", "scherk:3", "jorge-meeks:2", "jorge-meeks:3", "ruled-enneper",
                   "parabolic", "self-intersecting-fb", "helicoid-negative", "order6"]


@given(st.sampled_from(SAMPLE_SURFACES), st.sampled_from(["obj", "ply", "csv"]),
       st.integers(2, 12), MARGINS, U_MAXES, AXIS_ORDERS)
@settings(max_examples=50, deadline=None)
def test_sample_exit_codes_and_finite_output(surface, fmt, res, margin, u_max, axis_order):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "mesh." + fmt)
        if surface == "order6":
            doc = os.path.join(tmp, "s.json")
            with open(doc, "w") as fh:
                json.dump(ORDER6_DOC, fh)
            target = [doc]
        else:
            target = ["--gallery", surface]
        code = main(["sample", *target, "--format", fmt, "--resolution", str(res),
                     f"--margin={margin!r}", f"--u-max={u_max!r}",
                     f"--axis-order={axis_order}", "-o", out])
        assert code in (0, 2, 3, 4)
        assert os.path.exists(out) == (code == 0)
        if code == 0:
            with open(out) as fh:
                lines = fh.read().splitlines()
            if fmt == "csv":
                vertices = [ln.split(",")[:5] for ln in lines[1:]]
            elif fmt == "obj":
                vertices = [ln.split()[1:] for ln in lines if ln.startswith("v ")]
            else:
                vertices = [ln.split() for ln in lines[lines.index("end_header") + 1:][:res * res]]
            nums = np.array(vertices, dtype=float)
            assert nums.shape == (res * res, 5 if fmt == "csv" else 3)
            assert np.isfinite(nums).all()


# ------------------------------------------------ byte identity against the old loops
# The per-vertex and per-node loops the row-streamed writers replaced, kept
# as the oracle for their bytes.

def _fmt(x) -> str:
    return repr(float(x))


def oracle_sample_text(name, fmt, order, U, TH, vals, causal, res):
    lines = []
    if fmt == "csv":
        lines.append("u,theta,t,x,y,causal")
        for i in range(U.size):
            lines.append(",".join([_fmt(U[i]), _fmt(TH[i]), _fmt(vals[0, i]),
                                   _fmt(vals[1, i]), _fmt(vals[2, i]), causal[i]]))
    elif fmt == "obj":
        lines.append(f"# zmc surface {name}; axis order " + ",".join(nm for nm, _ in order))
        for i in range(U.size):
            lines.append("v " + " ".join(_fmt(vals[k, i]) for _, k in order))
        for i in range(res - 1):
            for j in range(res):
                j2 = (j + 1) % res
                a = i * res + j + 1
                b = i * res + j2 + 1
                c = (i + 1) * res + j2 + 1
                d = (i + 1) * res + j + 1
                lines.append(f"f {a} {b} {c} {d}")
    else:
        nfaces = (res - 1) * res
        lines += ["ply", "format ascii 1.0",
                  f"comment zmc surface {name}",
                  f"element vertex {U.size}",
                  "property float x", "property float y", "property float z",
                  f"element face {nfaces}",
                  "property list uchar int vertex_indices", "end_header"]
        for i in range(U.size):
            lines.append(" ".join(_fmt(vals[k, i]) for _, k in order))
        for i in range(res - 1):
            for j in range(res):
                j2 = (j + 1) % res
                lines.append(f"4 {i * res + j} {i * res + j2} "
                             f"{(i + 1) * res + j2} {(i + 1) * res + j}")
    return "\n".join(lines) + "\n"


def oracle_graph_text(name, x0, x1, y0, y1, res):
    entry = cli.get_entry(name)
    norm = entry.normalization
    inverter = GraphInverter(entry.data)
    xs, ys = np.linspace(x0, x1, res), np.linspace(y0, y1, res)
    raw_x, raw_y = xs / norm.scale[1], ys / norm.scale[2]
    u, th, lam, ok, _ = inverter.invert_grid(raw_x, raw_y)
    (lx, ly), _, resid, finite = graph_derivatives(inverter, u, th, norm.scale)
    assert (ok & finite).all()
    lines = ["x,y,lambda,causal,zmc_residual"]
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            causal = causal_character((lx[i, j], ly[i, j])).value
            lines.append(",".join([_fmt(x), _fmt(y), _fmt(norm.scale[0] * lam[i, j]),
                                   causal, _fmt(resid[i, j])]))
    return "\n".join(lines) + "\n"


BASE_POINT_DOC = {"n": 2, "alphas": [0, "1/2 pi", "pi", "3/2 pi"],
                  "options": {"u_max": 2.5, "margin": 0.1, "base_point": [2.0, 0.0]}}


@pytest.mark.parametrize("res", [2, 7])
@pytest.mark.parametrize("axis_order", [None, "y,t,x"])
@pytest.mark.parametrize("fmt", ["obj", "ply", "csv"])
@pytest.mark.parametrize("source", ["scherk:3", "base-point-doc"])
def test_sample_bytes_match_oracle(capsys, tmp_path, source, fmt, axis_order, res):
    if source == "base-point-doc":
        spec = tmp_path / "doc.json"
        spec.write_text(json.dumps(BASE_POINT_DOC))
        target_args = [str(spec)]
        target = cli.load_surface_document(str(spec))
    else:
        target_args = ["--gallery", source]
        target = cli.resolve_target(SimpleNamespace(gallery=source, surface=None))
    out_path = tmp_path / f"mesh.{fmt}"
    argv = ["sample", *target_args, "--format", fmt, "--resolution", str(res),
            "-o", str(out_path)]
    code, _, _ = run(argv + (["--axis-order", axis_order] if axis_order else []), capsys)
    assert code == 0

    data, options = target.data, target.options
    u, th = cli._grid(data, options, res)
    ev = SurfaceEvaluator(data)
    base = (ev.eval(FinitePoint(*options.base_point)).as_array()
            if options.base_point else np.zeros(3))
    U, TH = u.ravel(), np.tile(th, res)
    vals = target.normalization.apply_batch(ev.eval_batch(U, TH) - base[:, None])
    det = metric_determinant(data, U, TH)
    causal = np.where(det > 0, "spacelike", np.where(det < 0, "timelike", "lightlike"))
    names = axis_order.split(",") if axis_order else ["t", "x", "y"]
    order = [(nm, "txy".index(nm)) for nm in names]
    want = oracle_sample_text(target.name, fmt, order, U, TH, vals, causal, res)
    assert out_path.read_bytes() == want.encode()


@pytest.mark.parametrize("name, ranges, res", [
    ("scherk:3", ("-1", "1", "-1", "1"), 9),
    ("parabolic", ("-2", "2", "-2", "2"), 7),
    ("scherk:2", ("-1.5", "0.5", "-0.3", "1.9"), 5),      # display scale 2
    ("jorge-meeks:2", ("-1", "1", "-1", "1"), 5),         # display x flipped
    ("scherk:3", ("0.25", "0.75", "-0.5", "0.5"), 1)])
def test_graph_bytes_match_oracle(capsys, tmp_path, name, ranges, res):
    x0, x1, y0, y1 = ranges
    out_path = tmp_path / "g.csv"
    code, _, _ = run(["graph", "--gallery", name, f"--x-range={x0}:{x1}",
                      f"--y-range={y0}:{y1}", "--resolution", str(res),
                      "-o", str(out_path)], capsys)
    assert code == 0
    want = oracle_graph_text(name, *map(float, ranges), res)
    assert out_path.read_bytes() == want.encode()


# ---------------------------------------------------------------- graph

def test_graph_scherk2_identity(capsys, tmp_path):
    out_path = tmp_path / "graph.csv"
    code, _, _ = run(["graph", "--gallery", "scherk:2", "--x-range=-2:2",
                      "--y-range=-2:2", "--resolution", "11",
                      "-o", str(out_path)], capsys)
    assert code == 0
    rows = out_path.read_text().splitlines()
    assert rows[0] == "x,y,lambda,causal,zmc_residual"
    worst = 0.0
    for row in rows[1:]:
        x, y, lam, causal, resid = row.split(",")
        worst = max(worst, abs(math.cosh(float(x))
                               - math.exp(float(lam)) * math.cosh(float(y))))
        assert abs(float(resid)) < 1e-9
    assert worst < 1e-8


def test_graph_jorge_meeks2_identity(capsys, tmp_path):
    out_path = tmp_path / "graph.csv"
    code, _, _ = run(["graph", "--gallery", "jorge-meeks:2", "--x-range=-2:2",
                      "--y-range=-2:2", "--resolution", "11",
                      "-o", str(out_path)], capsys)
    assert code == 0
    for row in out_path.read_text().splitlines()[1:]:
        x, y, lam, _, _ = row.split(",")
        assert abs(float(lam) - float(x) * math.tanh(2 * float(y))) < 1e-8


def test_graph_violated_condition_exit_code(capsys, tmp_path):
    code, _, err = run(["graph", "--gallery", "jorge-meeks:3", "--x-range=-1:1",
                        "--y-range=-1:1", "--resolution", "5",
                        "-o", str(tmp_path / "g.csv")], capsys)
    assert code == 3
    assert "pi/(n-1)" in err


@pytest.mark.parametrize("flags", [
    ["--resolution", "-1"], ["--resolution", "0"],
    ["--h", "0"], ["--h=-1e-3"], ["--h", "nan"], ["--h", "inf"],
    ["--x-range=-inf:2"], ["--y-range=0:nan"]],
    ids="".join)
def test_graph_rejects_bad_options(capsys, tmp_path, flags):
    out_path = tmp_path / "g.csv"
    code, _, err = run(["graph", "--gallery", "scherk:3", "-o", str(out_path)] + flags,
                       capsys)
    assert code == 2
    assert flags[0].split("=")[0] in err
    assert not out_path.exists()


def test_graph_failure_names_node(capsys, tmp_path):
    out_path = tmp_path / "g.csv"
    code, _, err = run(["graph", "--gallery", "scherk:3", "--x-range=3:8",
                        "--y-range=2:4", "--resolution", "6", "-o", str(out_path)],
                       capsys)
    assert code == 4
    assert "at (x, y) = (" in err
    assert not out_path.exists()


def test_graph_h_is_ignored(capsys, tmp_path):
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, h in zip(outs, ("1e-3", "0.5")):
        code, _, _ = run(["graph", "--gallery", "scherk:3", "--resolution", "7",
                          "--h", h, "-o", str(path)], capsys)
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_graph_non_finite_derivatives_name_node(capsys, tmp_path, monkeypatch):
    # a converged node whose chart Jacobian is singular: exit 4, naming the
    # node, and no file
    from zmc.surface import SurfaceEvaluator
    jet = SurfaceEvaluator.jet

    def singular_at_first_node(self, delta, theta, order=0):
        out = jet(self, delta, theta, order)
        if order == 2:
            out[2][1:, 0] = 0.0  # d(x1, x2)/dtheta
        return out

    monkeypatch.setattr(SurfaceEvaluator, "jet", singular_at_first_node)
    out_path = tmp_path / "g.csv"
    code, _, err = run(["graph", "--gallery", "scherk:3", "--x-range=-1:1",
                        "--y-range=-1:1", "--resolution", "3", "-o", str(out_path)], capsys)
    assert code == 4
    assert "non-finite graph derivatives at (x, y) = (-1.0, -1.0)" in err
    assert not out_path.exists()


# a random principal n = 3 surface whose [-2, 2]^2 rows miss nodes that
# invert_grid's retry rescues
RANDOM_N3 = {"n": 3, "alphas": [0.0, 1.0724798527999555, 1.5920117877623825,
                                 3.0747301101615054, 4.008583837552972, 4.944751739369208]}
ENDS = st.floats(-6.0, 6.0, allow_nan=False)


@given(st.sampled_from(["scherk:2", "scherk:3", "scherk:4", "random-n3"]),
       ENDS, ENDS, ENDS, ENDS, st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_graph_exit_codes_and_finite_output(surface, x0, x1, y0, y1, res):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "g.csv")
        if surface == "random-n3":
            doc = os.path.join(tmp, "s.json")
            with open(doc, "w") as fh:
                json.dump(RANDOM_N3, fh)
            target = [doc]
        else:
            target = ["--gallery", surface]
        code = main(["graph", *target, f"--x-range={x0!r}:{x1!r}",
                     f"--y-range={y0!r}:{y1!r}", "--resolution", str(res), "-o", out])
        assert code in (0, 3, 4)
        assert os.path.exists(out) == (code == 0)
        if code == 0:
            with open(out) as fh:
                rows = fh.read().splitlines()
            assert rows[0] == "x,y,lambda,causal,zmc_residual"
            assert len(rows) == res * res + 1
            for row in rows[1:]:
                x, y, lam, causal, resid = row.split(",")
                assert causal in ("spacelike", "lightlike", "timelike")
                assert all(math.isfinite(float(v)) for v in (x, y, lam, resid))


# ---------------------------------------------------------------- check / reduce

def test_check_single_entry(capsys):
    code, out, _ = run(["check", "--gallery", "scherk:2"], capsys)
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_check_negative_entry(capsys):
    code, out, _ = run(["check", "--gallery", "helicoid-negative"], capsys)
    assert code == 0
    assert "expected False" in out


def test_reduce_self_example(capsys):
    code, out, _ = run(["reduce", "--coeffs", "[1,0,0,0,1]", "--m", "2",
                        "--parity", "self"], capsys)
    assert code == 0
    assert "2*T2" in out


def test_reduce_bad_parity(capsys):
    # a parity or order that does not fit the coefficients is bad input
    for coeffs, m, parity in (("[1,0,0,0,1]", "2", "anti"), ("[1,2]", "5", "self"),
                              ("[1,2]", "-1", "self"), ("[1,0,2]", "1", "anti"),
                              ("[1,0,1]", "2", "self")):
        code, _, err = run(["reduce", "--coeffs", coeffs, "--m", m, "--parity", parity],
                           capsys)
        assert code == 2, (coeffs, m, parity)
        assert err.startswith("error: --coeffs, --m, --parity: ")


NUMBERS = st.one_of(st.floats(), st.integers(-(10**400), 10**400))
COEFF_ITEMS = st.one_of(NUMBERS, st.lists(NUMBERS, min_size=2, max_size=2),
                        st.sampled_from(["1", None, [], [1, 2, 3], [[1], 0], {"re": 1}]))
SMALL = st.floats(-1e3, 1e3)


def _mirrored(half, sign):
    """Coefficients with c[k] = sign * c[2m - k] (a zero middle for anti)."""
    if sign > 0:
        return half + half[-2::-1]
    return half + [0.0] + [-x for x in reversed(half)]


COEFF_LISTS = st.one_of(st.lists(COEFF_ITEMS, max_size=9),
                        st.builds(_mirrored, st.lists(SMALL, min_size=1, max_size=4),
                                  st.sampled_from([1, -1])))


@given(COEFF_LISTS, st.integers(-2, 6), st.sampled_from(["self", "anti"]))
@settings(max_examples=300, deadline=None)
def test_reduce_exit_codes(coeffs, m, parity):
    # fuzzed coefficients: a reduction (exit 0) or a typed input error
    # (exit 2), never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reduce", "--coeffs", json.dumps(coeffs), "--m", str(m),
                     "--parity", parity])
    assert code in (0, 2)
    if code == 0:
        q = out.getvalue().splitlines()[1]
        assert q.startswith("q(u) = ") and "nan" not in q and "inf" not in q
    else:
        assert err.getvalue().startswith("error: --coeffs")


def test_reduce_zero_or_non_finite_is_input_error(capsys):
    # zero, non-finite, overflowing ("q(u) = 0" from 2e308) or non-numeric
    for coeffs, m in (("[0]", "0"), ("[NaN]", "0"), ("[Infinity,0,Infinity]", "1"),
                      ("[1e308,0,1e308]", "1"), (f"[{10**400}]", "0"), ("[[1,[2]]]", "0")):
        code, out, err = run(["reduce", "--coeffs", coeffs, "--m", m, "--parity", "self"],
                             capsys)
        assert code == 2 and out == "", coeffs
        assert err.startswith("error: --coeffs"), coeffs


# ---------------------------------------------------------------- determinism

def test_sample_and_graph_deterministic(capsys, tmp_path):
    a1, a2 = tmp_path / "a1.obj", tmp_path / "a2.obj"
    for path in (a1, a2):
        code, _, _ = run(["sample", "--gallery", "scherk:3", "--format", "obj",
                          "--resolution", "24", "-o", str(path)], capsys)
        assert code == 0
    assert a1.read_bytes() == a2.read_bytes()

    g1, g2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    for path in (g1, g2):
        code, _, _ = run(["graph", "--gallery", "scherk:3", "--x-range=-1:1",
                          "--y-range=-1:1", "--resolution", "9",
                          "-o", str(path)], capsys)
        assert code == 0
    assert g1.read_bytes() == g2.read_bytes()


def test_sample_from_spec_document_with_base_point(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 2,
        "alphas": [0, "1/2 pi", "pi", "3/2 pi"],
        "options": {"u_max": 2.5, "margin": 0.1, "base_point": [2.0, 0.0]},
    }))
    out_path = tmp_path / "mesh.csv"
    code, _, _ = run(["sample", str(spec), "--format", "csv",
                      "--resolution", "12", "-o", str(out_path)], capsys)
    assert code == 0
    rows = out_path.read_text().splitlines()[1:]
    # the base point itself is not on the grid, but values must be shifted:
    # evaluate the shift by checking one grid point against the library
    import numpy as np
    from zmc.gallery import get_entry
    from zmc.surface import SurfaceEvaluator
    from zmc.domain import FinitePoint
    ev = SurfaceEvaluator(get_entry("scherk:2").data)
    base = ev.eval(FinitePoint(2.0, 0.0)).as_array()
    u0, th0, t0, x0, y0 = (float(v) for v in rows[0].split(",")[:5])
    direct = ev.eval(FinitePoint(u0, th0)).as_array()
    assert np.max(np.abs((direct - base) - np.array([t0, x0, y0]))) < 1e-12
