import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from zmc import cli
from zmc.analysis import (GraphInverter, causal_label, graph_derivatives, graph_table,
                          metric_determinant)
from zmc.cli import main
from zmc.domain import FinitePoint
from zmc.surface import SurfaceEvaluator


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_import_loads_no_scipy_or_orjson():
    # scipy and orjson are imported where they are used (the inverter's
    # seed-bank tree, the quadrature oracles, the export formatter), so a
    # fresh `import zmc.cli` loads neither
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, zmc.cli; "
            "sys.exit(any(m.split('.')[0] in ('scipy', 'orjson') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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


def test_classify_raw_pair_json(capsys, tmp_path):
    report = tmp_path / "rep.json"
    code, _, _ = run(["classify", "--gallery", "helicoid-negative", "--json", str(report)],
                     capsys)
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["kind"] == "raw-pair"
    assert doc["fold_type"]["ends_on_circle"] is False
    assert doc["fold_type"]["is_fold_type"] is False


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


@pytest.mark.parametrize("command", ["classify", "check", "sample", "graph"])
def test_order_beyond_double_precision_is_input_error(capsys, tmp_path, command):
    # from n = 62 on omega's denominator loses its leading coefficient, for a
    # gallery entry and a 124-angle document alike
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps({"n": 62, "alphas": [f"{k}/62 pi" for k in range(124)]}))
    out = [] if command in ("classify", "check") else ["-o", str(tmp_path / "out")]
    for source in (["--gallery", "scherk:62"], [str(spec)]):
        code, _, err = run([command, *source, *out], capsys)
        assert code == 2 and "order n = 62" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


SCHERK3_ALPHAS = [0, "1/3 pi", "2/3 pi", "pi", "4/3 pi", "5/3 pi"]


@pytest.mark.parametrize("doc", [
    {"n": 3, "alphas": SCHERK3_ALPHAS, "blaschke": [0.3, 0.001]},
    {"n": 3, "alphas": SCHERK3_ALPHAS, "blaschke": [1e-9]},
    {"n": 4, "alphas": [0] * 8, "blaschke": [1e-12]}],
    ids=["scherk3-0.3-0.001", "scherk3-1e-9", "blaschke-1e-12"])
@pytest.mark.parametrize("command", ["classify", "check"])
def test_small_blaschke_is_fold_type(capsys, tmp_path, command, doc):
    # g's pole at 1/conj(b) cancels in omega, g omega and g^2 omega, or lies
    # beyond what a pole-cancelling test resolves
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps(doc))
    code, out, _ = run([command, str(spec)], capsys)
    assert code == 0
    assert ("fold-type: yes" if command == "classify"
            else "[PASS] doc.json: fold-type conditions") in out


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
    ("n", 2.7), ("resolution", 12.5),
    # numbers must be JSON numbers, not strings that spell one
    ("n", "2"), ("resolution", "12"), ("u_max", "2.5"), ("margin", "0.01"), ("re", "0"),
    ("base_point", ["2.0", 0.0])])
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


@pytest.mark.parametrize("field, change", [
    ("blaschke", {"blaschke": 5}), ("blaschke", {"blaschke": None}),
    ("options", {"options": []}), ("options", {"options": None}),
    ("options", {"options": "fast"}), ("alphas[1]", {"alphas": [0, "1/0 pi", "pi", "3/2 pi"]}),
    ("alphas[1]", {"alphas": [0, f"{10**400} pi", "pi", "3/2 pi"]}),
    ("blaschke[0]", {"n": 3, "alphas": [0, 1, 2, 3, 4, 5], "blaschke": [10**400]}),
    ("Blaschke", {"n": 3, "alphas": [0, 1, 2, 3, 4, 5], "blaschke": [1e-208]}),
    # JSON true and false are not numbers
    ("alphas[1]", {"alphas": [0, True, "pi", "3/2 pi"]}),
    ("alphas[0]", {"alphas": [False, "1/2 pi", "pi", "3/2 pi"]}),
    ("blaschke[0]", {"n": 3, "alphas": [0, 1, 2, 3, 4, 5], "blaschke": [False]}),
    ("options.u_max", {"options": {"u_max": True}}),
    ("options.margin", {"options": {"margin": True}}),
    ("below 2*pi", {"alphas": [0, 1, 2, 7]})],
    ids=["blaschke-5", "blaschke-null", "options-list", "options-null", "options-string",
         "angle-1/0", "angle-1e400", "blaschke-1e400", "blaschke-1e-208", "angle-true",
         "angle-false", "blaschke-false", "u_max-true", "margin-true", "angle-7"])
@pytest.mark.parametrize("command", ["classify", "check"])
def test_document_malformed_field_is_input_error(capsys, tmp_path, command, field, change):
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps({"n": 2, "alphas": [0, "1/2 pi", "pi", "3/2 pi"], **change}))
    code, _, err = run([command, str(spec)], capsys)
    assert code == 2
    assert field in err and "Traceback" not in err


JUNK = st.sampled_from([None, "x", [], {}, [1, 2], {"re": "a"}, True, 10**400, -1.5])
ANGLES = st.one_of(st.floats(0.0, 6.3), st.floats(),
                   st.builds("{}/{} pi".format, st.integers(0, 12), st.integers(0, 6)),
                   st.sampled_from(["pi", "-pi", "half pi", f"{10**400} pi"]), JUNK)
BLASCHKE_ITEMS = st.one_of(
    st.floats(-1.5, 1.5), st.floats(), JUNK,
    st.fixed_dictionaries({}, optional={"re": st.one_of(st.floats(-1.0, 1.0), JUNK),
                                        "im": st.one_of(st.floats(-1.0, 1.0), JUNK)}))
OPTIONS = st.one_of(JUNK, st.fixed_dictionaries({}, optional={
    "u_max": st.one_of(st.floats(-1.0, 6.0), st.floats(), JUNK),
    "resolution": st.one_of(st.integers(-2, 50), st.sampled_from([12.0, 12.5, "many"]), JUNK),
    "margin": st.one_of(st.floats(0.0, 0.5), st.floats(), JUNK),
    "base_point": st.one_of(st.lists(st.one_of(st.floats(-3.0, 3.0), JUNK), max_size=3), JUNK)}))


@st.composite
def documents(draw):
    """Surface documents with fuzzed n, alphas, blaschke and options; the
    resolution stays at most 50."""
    n = draw(st.one_of(st.integers(1, 4), JUNK, st.sampled_from([2.0, 2.5, "3"])))
    size = 2 * n if type(n) is int and 0 < n <= 4 else draw(st.integers(0, 8))
    if draw(st.booleans()):  # nondecreasing multiples of pi from 0, which often build
        steps = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
        total = sum(steps[1:]) + 1
        alphas = [f"{2 * sum(steps[1:k + 1])}/{total} pi" for k in range(size)]
    else:
        alphas = draw(st.lists(ANGLES, min_size=size, max_size=size))
    doc = {"n": n, "alphas": alphas}
    for key, value in (("blaschke", st.one_of(st.lists(BLASCHKE_ITEMS, max_size=3), JUNK)),
                       ("options", OPTIONS)):
        if draw(st.booleans()):
            doc[key] = draw(value)
    return doc


@given(documents(), st.sampled_from(["classify", "sample", "check"]), st.integers(-3, 2**70))
@settings(max_examples=150, deadline=None)
def test_fuzzed_documents_exit_codes(doc, command, seed):
    # a fuzzed document is classified, sampled or checked (exit 0) or refused
    # with a typed error (exit 2, 3 or 4), never with a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path, out_path = os.path.join(tmp, "s.json"), os.path.join(tmp, "mesh.csv")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        extra = {"sample": ["--format", "csv", "-o", out_path],
                 "check": ["--seed", str(seed)]}.get(command, [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path, *extra])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if command == "sample":
            assert os.path.exists(out_path) == (code == 0)


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
    # every vertex row carries repr's 17 digits: the properties are 64-bit
    i = text.index("property double x")
    assert text[i:i + 3] == ["property double x", "property double y", "property double z"]


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
                                        [math.inf, 0.0], [0.0, 0.0],
                                        0, False, "", []])
def test_sample_rejects_bad_base_point(capsys, tmp_path, base_point):
    # non-finite, outside the extension domain ([0, 0] lies below every
    # cosine of scherk:2), or not [u, theta]: only null means no base point
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
                  "property double x", "property double y", "property double z",
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
    l, th, lam, ok, _ = inverter._grid(raw_x, raw_y)
    _, _, resid, finite = graph_derivatives(inverter, l, th, norm.scale)
    assert (ok & finite).all()
    # each node's label is the sign of the metric determinant at its chart
    # point, except where the chart point's fold side e^l - 2 sin^2(d / 2)
    # lies within 1e-12 (e^l + |sin d|), which a point 1e-12 off in l and
    # theta could cross: such a node reads light-like
    u, t = inverter._from_chart(l, th)
    det = metric_determinant(entry.data, u, t)
    causal = np.where(det > 0, "spacelike", np.where(det < 0, "timelike", "lightlike"))
    b = np.asarray(entry.data.angular.betas)
    d = th - b[np.cos(th[..., None] - b).argmax(axis=-1)]
    near = np.abs(np.exp(l) - 2 * np.sin(d / 2) ** 2) <= 1e-12 * (np.exp(l) + np.abs(np.sin(d)))
    causal[near] = "lightlike"
    lines = ["x,y,lambda,causal,zmc_residual"]
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            lines.append(",".join([_fmt(x), _fmt(y), _fmt(norm.scale[0] * lam[i, j]),
                                   causal[i, j], _fmt(resid[i, j])]))
    return "\n".join(lines) + "\n"


def oracle_sample_rows(fmt, U, th, vals, labels):
    """`cli._sample_rows` as one `str.format` per vertex over the repr of
    each value, before each chunk became one `%`."""
    def reprs(a):
        return map(repr, a.tolist())
    res = th.size
    starts = range(0, U.size, res)
    if fmt == "csv":
        th_s = list(reprs(th))
        for a in starts:
            s = slice(a, a + res)
            yield "".join(map("{},{},{},{},{},{}\n".format, reprs(U[s]), th_s,
                              *map(reprs, vals[:, s]), labels[s].tolist()))
        return
    obj = fmt == "obj"
    vertex = "v {} {} {}\n" if obj else "{} {} {}\n"
    for a in starts:
        yield "".join(map(vertex.format, *map(reprs, vals[:, a:a + res])))
    j = np.stack([np.arange(res), np.roll(np.arange(res), -1)])
    quad = np.concatenate([j, j[::-1] + res]) + obj
    face = "f {} {} {} {}\n" if obj else "4 {} {} {} {}\n"
    for a in starts[:-1]:
        yield "".join(map(face.format, *(quad + a).tolist()))


# the edges of the bands that `cli._reprs` treats apart: where repr starts or
# stops writing an exponent (handed to repr itself) and where its exponent
# has two digits to orjson's one (padded)
REPR_CUTOFFS = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), -1e-5, 3.2e-5,
                np.nextafter(1e-5, 0), np.nextafter(1e-5, 1), -1e-7,
                1e-9, np.nextafter(1e-9, 0), np.nextafter(1e-9, 1), -1e-9, 1e-10,
                np.nextafter(1e16, 0), -1e16, 1.5e16]


def _assert_reprs(a):
    assert cli._reprs(a) == [repr(x) for x in a.tolist()]


def test_reprs_is_repr_on_awkward_doubles():
    tiny = np.finfo(float).tiny
    _assert_reprs(np.array([
        0.0, -0.0, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0), -tiny, 1e-5,
        *REPR_CUTOFFS, 2.0**53 + 2, np.finfo(float).max, -np.finfo(float).max,
        0.1 + 0.2, 1 / 3, 1.0, -3.0, 123456789.125, math.nan, math.inf, -math.inf]))
    _assert_reprs(np.array([]))


def test_reprs_is_repr_in_flat_order():
    a = np.random.default_rng(5).standard_normal((3, 8))
    a *= 10.0 ** np.arange(-7, 17).reshape(3, 8)
    for b in (a, a[:, 2:6].T, a[::2, ::3]):  # the second one as `vals[:, a:b].T` is
        assert cli._reprs(b) == [repr(x) for row in b.tolist() for x in row]


def test_reprs_is_repr_on_random_doubles():
    # every exponent, from seeded bit patterns, then magnitudes spread over
    # the cut-offs 1e-4 and 1e16, then over 1e-9, 1e-5 and 1e-4; this also
    # guards against a change of orjson's output
    rng = np.random.default_rng(30)
    bits = rng.integers(0, 2**64, 250_000, dtype=np.uint64).view(float)
    _assert_reprs(bits[np.isfinite(bits)])
    signs = rng.choice([-1.0, 1.0], 250_000)
    _assert_reprs(signs * 10.0 ** rng.uniform(-6, 18, 250_000))
    _assert_reprs(signs * 10.0 ** np.random.default_rng(31).uniform(-12, -3, 250_000))


@pytest.mark.parametrize("res", [1, 2, 9])
@pytest.mark.parametrize("fmt", ["obj", "ply", "csv"])
def test_sample_rows_match_format_oracle(fmt, res):
    # `_reprs` is repr and orjson's ints are str: the same bytes on awkward doubles
    rng = np.random.default_rng(res)
    awkward = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 0.1 + 0.2,
                        1.0, -3.0, 1e16, 1.7976931348623157e308, 123456789.125, 1 / 3,
                        *REPR_CUTOFFS])
    pool = np.concatenate([awkward, rng.standard_normal(40) * 10.0 ** rng.integers(-30, 30, 40)])
    u, vals = rng.choice(pool, (res, res)), rng.choice(pool, (3, res * res))
    th = rng.choice(pool, res)
    labels = rng.choice(["spacelike", "timelike", "lightlike"], res * res)
    got = "".join(cli._sample_rows(fmt, u, th, vals, labels))
    assert got == "".join(oracle_sample_rows(fmt, u.ravel(), th, vals, labels))
    assert got.count("\n") == res * res + (fmt != "csv") * (res - 1) * res


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
    ("scherk:3", ("0.25", "0.75", "-0.5", "0.5"), 1),
    # tiny ranges, whose x, y, lambda and residual columns take every exponent
    # form of `cli._reprs`: padded, two-digit and the decimal band
    ("scherk:3", ("-1e-6", "1e-6", "-3e-5", "9e-5"), 5),
    ("scherk:2", ("-2e-9", "2e-9", "-2e-9", "2e-9"), 3),
    ("parabolic", ("-7e-5", "7e-5", "-1e-7", "1e-7"), 4),
    ("scherk:4", ("-2", "2", "-2", "2"), 41)])                # the benchmark's table
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


def test_graph_scherk2_far_grid_closed_form(capsys, tmp_path):
    # over [-20, 20]^2 every node starts in the chart whose seed is closer
    # and settles at Newton's tolerance: each height keeps the closed form
    # log cosh x - log cosh y to 1e-12 (measured 1.5e-13), where the end
    # chart's loose stop once left nodes off by up to 4.9e-10
    out_path = tmp_path / "graph.csv"
    code, _, _ = run(["graph", "--gallery", "scherk:2", "--x-range=-20:20",
                      "--y-range=-20:20", "--resolution", "41", "-o", str(out_path)], capsys)
    assert code == 0
    x, y, lam = np.loadtxt(out_path, delimiter=",", skiprows=1, usecols=(0, 1, 2)).T
    assert x.size == 41 * 41
    want = np.log(np.cosh(x)) - np.log(np.cosh(y))
    assert np.all(np.abs(lam - want) <= 1e-12 * (1 + np.abs(lam)))


def graph_labels(capsys, tmp_path, name, x_range, y_range):
    out_path = tmp_path / "graph.csv"
    code, _, _ = run(["graph", "--gallery", name, f"--x-range={x_range}",
                      f"--y-range={y_range}", "--resolution", "41", "-o", str(out_path)], capsys)
    assert code == 0
    return np.loadtxt(out_path, delimiter=",", skiprows=1, usecols=3, dtype=str).reshape(41, 41)


@pytest.mark.parametrize("name, R", [("scherk:2", 20), ("scherk:4", 2), ("jorge-meeks:2", 2)])
def test_graph_labels_are_the_sample_rule_at_the_preimage(capsys, tmp_path, name, R):
    # both csv exports label by one rule: a graph node's label is
    # `causal_label` at its preimage (u, theta), the label `zmc sample`
    # writes there; off the fold it is the gradient's sign(1 - |grad lambda|^2)
    labels = graph_labels(capsys, tmp_path, name, f"-{R}:{R}", f"-{R}:{R}")
    entry = cli.get_entry(name)
    data, scale = entry.data, entry.normalization.scale
    inv = GraphInverter(data)
    xs = np.linspace(-R, R, 41)
    raw_x, raw_y = xs / scale[1], xs / scale[2]
    l, th, _, ok, rn = inv._grid(raw_x, raw_y)
    u = inv._from_chart(l, th)[0]
    assert ok.all()
    J = inv.evaluator.jet(l.ravel(), th.ravel(), 1)[1:]
    chart = (l, *inv._chart_error(*J, l, rn, *np.meshgrid(raw_x, raw_y)))
    assert np.array_equal(labels, causal_label(data, u, th, chart))
    # the graph reads the side from the chart point, the sample from u: the
    # two agree wherever u does not round to the fold and the chart point
    # resolves its side
    both = (u != 1.0) & (labels != "lightlike")
    assert np.array_equal(labels[both], causal_label(data, u, th)[both])
    _, lx, ly, _, _ = graph_table(inv, raw_x, raw_y)
    q = 1.0 - (lx * scale[0] / scale[1]) ** 2 - (ly * scale[0] / scale[2]) ** 2
    off = np.abs(q) > 1e-15
    assert np.array_equal(labels[off], np.where(q > 0, "spacelike", "timelike")[off])


def test_graph_scherk2_axis_nodes_are_spacelike(capsys, tmp_path):
    # on the axes of scherk:2 every node is space-like, although from |x| = 8
    # on 1 - |grad lambda|^2 = 1 - tanh^2 x is below 1e-6, where a tolerance
    # on the gradient once wrote light-like, and at |x| = 19 and 20 the
    # display u rounds to 1, where a label read off u wrote light-like; the
    # chart point's clearance e^l - 2 sin^2((theta - beta_a) / 2) keeps the
    # side.  Every node of the table has the sign of 1 - tanh^2 x - tanh^2 y
    # = (1 - sinh^2 x sinh^2 y) / (cosh^2 x cosh^2 y), exact at integer nodes
    labels = graph_labels(capsys, tmp_path, "scherk:2", "-20:20", "-20:20")
    x = np.arange(-20.0, 21.0)
    assert np.all(labels[20] == "spacelike") and np.all(labels[:, 20] == "spacelike")
    q = 1.0 - np.tanh(x) ** 2
    assert np.all(q[(np.abs(x) >= 8) & (np.abs(x) <= 18)] < 1e-6)
    assert np.all(q[np.abs(x) >= 19] == 0.0)  # u and 1 - tanh^2 x both round
    p = np.abs(np.outer(np.sinh(x), np.sinh(x)))
    assert np.array_equal(labels, np.where(p < 1.0, "spacelike", "timelike"))


def test_graph_scherk4_corner_nodes_are_not_timelike(capsys, tmp_path):
    # these nodes of scherk:4 are solved in a corner chart, whose theta
    # Newton leaves about 7e-13 from the end direction, where 2 sin^2(d / 2)
    # = 2.8e-25 swamps e^l = 1.3e-30 at (0, -9); a 50-digit solve from the
    # chart point finds theta within 7e-17 of the end and the side e^l > 0,
    # space-like.  The chart point's error leaves the side unresolved
    labels = graph_labels(capsys, tmp_path, "scherk:4", "-20:20", "-20:20")
    nodes = [(0, 8), (0, 9), (8, 0), (9, 0), (6, 6)]
    for x, y in nodes + [(-x, -y) for x, y in nodes] + [(6, -6), (-6, 6)]:
        assert labels[y + 20, x + 20] in ("spacelike", "lightlike"), (x, y)


def test_chart_error_covers_the_corner_chart_theta():
    # the chart points of scherk:4's (0, -9) and (9, 0) lie 7.5e-13 from the
    # end direction, their exact preimages within 7e-17 of it (50-digit
    # solves): the theta bound covers that, and a residual below Newton's
    # tolerance counts as the tolerance
    entry = cli.get_entry("scherk:4")
    inv, scale = GraphInverter(entry.data), entry.normalization.scale
    X, Y = np.array([0.0, 9.0]) / scale[1], np.array([-9.0, 0.0]) / scale[2]
    l, th, _, ok, rn, (a, _, _, _) = inv._solve(X, Y)
    assert ok.all() and (a >= 0).all()  # solved in a corner chart
    b = np.asarray(entry.data.angular.betas)
    d = th - b[np.cos(th[:, None] - b).argmax(axis=1)]
    J = inv.evaluator.jet(l, th, 1)[1:]
    dl, dth = inv._chart_error(*J, l, rn, X, Y)
    assert np.all(np.abs(d) > 1e-13) and np.all(dth >= np.abs(d)) and np.all(dl > 0)
    assert np.array_equal(inv._chart_error(*J, l, 0.0 * rn, X, Y)[1], dth)


def test_graph_evaluates_one_jet_at_the_solved_nodes(capsys, tmp_path, monkeypatch):
    # once `_grid` has solved the table, `zmc graph` evaluates one order-2
    # jet at its nodes: the derivatives and the labels' chart error read it
    orders, solved = [], []
    jet, grid = SurfaceEvaluator.jet, GraphInverter._grid

    def counted_jet(self, l, theta, order=0):
        if solved and order >= 1:
            orders.append(order)
        return jet(self, l, theta, order)

    monkeypatch.setattr(GraphInverter, "_grid", lambda *a: (grid(*a), solved.append(1))[0])
    monkeypatch.setattr(SurfaceEvaluator, "jet", counted_jet)
    code, _, _ = run(["graph", "--gallery", "scherk:3", "-o", str(tmp_path / "g.csv")], capsys)
    assert code == 0 and solved == [1] and orders == [2]


def test_main_builds_its_parser_once(tmp_path):
    # repeated `main` calls in one process share one parser, and give the
    # exit codes, output and files of calls that each build it afresh
    def session(fresh, d):
        d.mkdir()
        runs = []
        for argv in (["graph", "--gallery", "scherk:3", "--resolution", "9", "-o", "g9.csv"],
                     ["graph", "--resolution"],
                     ["sample", "--gallery", "scherk:3", "--resolution", "8", "-o", "s.obj"],
                     ["graph", "--gallery", "scherk:3", "--resolution", "5", "-o", "g5.csv"]):
            if fresh:
                cli._parser.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([a if a[-4:] not in (".csv", ".obj") else str(d / a)
                                 for a in argv])
                except SystemExit as exc:
                    code = ("exit", exc.code)
            runs.append((code, out.getvalue().replace(str(d), ""), err.getvalue()))
        return runs, {p.name: p.read_bytes() for p in d.iterdir()}

    parser = cli._parser()
    reused = session(False, tmp_path / "reused")
    assert cli._parser() is parser
    fresh = session(True, tmp_path / "fresh")
    assert [code for code, _, _ in reused[0]] == [0, ("exit", 2), 0, 0]
    assert reused == fresh and sorted(reused[1]) == ["g5.csv", "g9.csv", "s.obj"]


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


@pytest.mark.parametrize("target, why", [
    (["--gallery", "helicoid-negative"], "is not a graph surface"),
    ({"n": 3, "alphas": [0, 0, "1/2 pi", "pi", "pi", "3/2 pi"]}, "needs distinct angles")],
    ids=["raw-pair", "repeated-angles-n3"])
def test_graph_refuses_non_graph_target(capsys, tmp_path, target, why):
    if isinstance(target, dict):
        doc = tmp_path / "s.json"
        doc.write_text(json.dumps(target))
        target = [str(doc)]
    out_path = tmp_path / "g.csv"
    code, _, err = run(["graph", *target, "-o", str(out_path)], capsys)
    assert code == 3
    assert why in err
    assert not out_path.exists()


@pytest.mark.parametrize("flags", [
    ["--resolution", "-1"], ["--resolution", "0"],
    ["--h", "0"], ["--h=-1e-3"], ["--h", "nan"], ["--h", "inf"],
    ["--x-range=-inf:2"], ["--y-range=0:nan"], ["--x-range=-1e308:1e308"], ["--x-range=foo"]],
    ids="".join)
def test_graph_rejects_bad_options(capsys, tmp_path, flags):
    out_path = tmp_path / "g.csv"
    code, _, err = run(["graph", "--gallery", "scherk:3", "-o", str(out_path)] + flags,
                       capsys)
    assert code == 2
    assert flags[0].split("=")[0] in err
    assert not out_path.exists()


@pytest.mark.parametrize("name", ["scherk:2", "scherk:3", "scherk:4", "scherk:5"])
def test_graph_far_grid_is_written(capsys, tmp_path, name):
    # every node over [-20, 20]^2 is solved and its derivatives are finite,
    # though its clearances fall far below what u = max cos + e^l resolves
    out_path = tmp_path / "g.csv"
    code, _, _ = run(["graph", "--gallery", name, "--x-range=-20:20", "--y-range=-20:20",
                      "--resolution", "41", "-o", str(out_path)], capsys)
    assert code == 0
    resid = np.loadtxt(out_path, delimiter=",", skiprows=1, usecols=4)
    assert resid.size == 41 * 41 and np.abs(resid).max() <= 1e-12


def test_graph_failure_names_node(capsys, tmp_path):
    out_path = tmp_path / "g.csv"
    for name, x_range, y_range, res, why in [
            # a corner node whose second D_j in the end chart is below about
            # e^-355, where d2/dtheta2 at fixed l overflows
            ("scherk:3", "-100:100", "-100:100", 41,
             "non-finite graph derivatives at (x, y) = (-100.0, -100.0)"),
            # targets near the largest double, for which the seed bank's
            # query finds no seed unless the target is clipped: no chart
            # reaches the first, the second is solved in a corner whose
            # clearance e^l underflows
            ("jorge-meeks:2", "0:1e308", "-2:2", 5,
             "graph inversion failed at (x, y) = (2.5e+307, -2.0)"),
            ("scherk:3", "0:1e308", "-2:2", 5,
             "non-finite graph derivatives at (x, y) = (2.5e+307, -2.0)")]:
        code, _, err = run(["graph", "--gallery", name, f"--x-range={x_range}",
                            f"--y-range={y_range}", "--resolution", str(res),
                            "-o", str(out_path)], capsys)
        assert code == 4
        assert why in err
        assert not out_path.exists()


@pytest.mark.parametrize("name", ["jorge-meeks:2", "parabolic"])
def test_graph_far_failure_is_quiet(capsys, tmp_path, name):
    # far out Newton meets charts that overflow and Jacobians that are
    # singular; it rejects those steps without a numpy warning, so the
    # exit-4 message is all that stderr holds
    out_path = tmp_path / "g.csv"
    code, _, err = run(["graph", "--gallery", name, "--x-range=-100:100",
                        "--y-range=-100:100", "--resolution", "41", "-o", str(out_path)],
                       capsys)
    assert code == 4
    assert err == "numeric failure: graph inversion failed at (x, y) = (-100.0, -100.0)\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--gallery", "scherk:3", "--resolution", "8", "-o"],
    ["graph", "--gallery", "scherk:3", "--resolution", "3", "-o"],
    ["classify", "--gallery", "scherk:3", "--json"]], ids=["sample", "graph", "classify"])
def test_unwritable_output_is_input_error(capsys, tmp_path, argv):
    # an output in a directory that does not exist: exit 2 naming the path,
    # no traceback, and nothing written
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run(argv + [str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err
    assert not path.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["sample", "--gallery", "scherk:3", "--resolution", "8", "-o"],
    ["graph", "--gallery", "scherk:2", "--resolution", "5", "-o"]], ids=["sample", "graph"])
def test_failed_write_is_input_error(capsys, argv):
    # opening /dev/full succeeds and every write to it fails (ENOSPC): exit 2
    # naming the path, no traceback
    code, out, err = run(argv + ["/dev/full"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write /dev/full: ") and "Traceback" not in err


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

    def singular_at_first_node(self, l, theta, order=0):
        out = jet(self, l, theta, order)
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


# a random principal n = 3 surface, off the symmetric gallery patterns
RANDOM_N3 = {"n": 3, "alphas": [0.0, 1.0724798527999555, 1.5920117877623825,
                                 3.0747301101615054, 4.008583837552972, 4.944751739369208]}
ENDS = st.floats(-6.0, 6.0, allow_nan=False)


@given(st.sampled_from(["scherk:2", "scherk:3", "scherk:4", "random-n3"]),
       ENDS, ENDS, ENDS, ENDS, st.integers(1, 5))
@settings(max_examples=60, deadline=None)
# ranges out to the largest double, where the seed bank's query found no seed
@example("scherk:3", 0.0, 1e308, -2.0, 2.0, 5)
@example("jorge-meeks:2", 0.0, 1e308, -2.0, 2.0, 5)
@example("scherk:2", 0.0, 1e308, -1e308, 0.0, 5)
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


def test_check_all_gallery(capsys):
    code, out, _ = run(["check", "--all-gallery"], capsys)
    lines = out.splitlines()
    assert code == 0
    assert lines[-1] == "all checks passed"
    assert sum("[PASS]" in line for line in lines) == 70
    assert "[FAIL]" not in out


@pytest.mark.parametrize("name, why", [
    ("scherk:1", "scherk needs n >= 2"), ("jorge-meeks:1", "jorge-meeks needs n >= 2"),
    ("scherk:x", "bad order suffix")])
def test_gallery_bad_order_is_input_error(capsys, name, why):
    code, _, err = run(["classify", "--gallery", name], capsys)
    assert code == 2
    assert why in err


def test_check_rejects_negative_seed(capsys):
    code, _, err = run(["check", "--gallery", "scherk:2", "--seed", "-1"], capsys)
    assert code == 2
    assert "--seed" in err and "Traceback" not in err


def test_check_negative_entry(capsys):
    code, out, _ = run(["check", "--gallery", "helicoid-negative"], capsys)
    assert code == 0
    assert "expected False" in out


def test_reduce_self_example(capsys):
    code, out, _ = run(["reduce", "--coeffs", "[1,0,0,0,1]", "--m", "2",
                        "--parity", "self"], capsys)
    assert code == 0
    assert "2*T2" in out


def test_reduce_tiny_coefficients(capsys):
    # symmetry is judged relative to the largest coefficient
    code, out, err = run(["reduce", "--coeffs", "[1e-10, 0, 3e-10]", "--m", "1",
                          "--parity", "self"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --coeffs, --m, --parity: ")
    code, out, _ = run(["reduce", "--coeffs", "[1e-10, 0, 0, 0, 1e-10]", "--m", "2",
                        "--parity", "self"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "q(u) = 2e-10*T2"


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
    # zero, non-finite, overflowing ("q(u) = 0" from 2e308), boolean,
    # non-numeric or not JSON
    for coeffs, m in (("[0]", "0"), ("[NaN]", "0"), ("[Infinity,0,Infinity]", "1"),
                      ("[1e308,0,1e308]", "1"), (f"[{10**400}]", "0"), ("[[1,[2]]]", "0"),
                      ("[true]", "0"), ("[[1,false]]", "0"), ("[1,", "0")):
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
