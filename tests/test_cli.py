import json
import math

import numpy as np
import pytest
from zmc.cli import main


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
        assert abs(float(resid)) < 1e-4
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
    code, _, err = run(["reduce", "--coeffs", "[1,0,0,0,1]", "--m", "2",
                        "--parity", "anti"], capsys)
    assert code == 4


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
