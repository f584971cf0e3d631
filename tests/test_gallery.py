import math

import numpy as np
import pytest

from zmc.analysis import classify
from zmc.errors import InputError, NoImplicitForm
from zmc.gallery import (GalleryEntry, get_entry, gallery_list,
                         implicit_residual)
from zmc.surface import SurfaceEvaluator, SurfacePoint
from zmc.weierstrass import period_check, verify_fold_type

RNG = np.random.default_rng(5)


def surface_samples(entry: GalleryEntry, count=100):
    ev = SurfaceEvaluator(entry.data)
    th = RNG.uniform(0, 2 * math.pi, count)
    lo = np.asarray(entry.data.angular.max_cos(th))
    u = lo + RNG.uniform(0.1, 1.5, size=count)
    vals = ev.eval_batch(u, th)
    return [SurfacePoint.from_array(vals[:, i]) for i in range(count)]


def test_gallery_listing():
    names = gallery_list()
    assert "scherk:n" in names and "parabolic" in names
    assert get_entry("scherk", 3).name == "scherk:3"
    assert get_entry("jorge_meeks:2").name == "jorge-meeks:2"
    with pytest.raises(InputError):
        get_entry("unknown-surface")
    with pytest.raises(InputError):
        get_entry("scherk")  # parametric entries need an order


def test_scherk2_implicit_residual():
    entry = get_entry("scherk:2")
    for p in surface_samples(entry, 20):
        assert implicit_residual(entry, p) < 1e-9


def test_jorge_meeks2_implicit_residual():
    entry = get_entry("jorge-meeks:2")
    for p in surface_samples(entry, 20):
        assert implicit_residual(entry, p) < 1e-9


def test_scherk2_infinity_point():
    entry = get_entry("scherk:2")
    assert implicit_residual(entry, SurfacePoint(0, 0, 0)) == 0.0


def test_parabolic_implicit_residual():
    entry = get_entry("parabolic")
    for p in surface_samples(entry, 100):
        assert implicit_residual(entry, p) < 1e-9


def test_ruled_enneper_implicit_and_ruling():
    entry = get_entry("ruled-enneper")
    pts = surface_samples(entry, 40)
    for p in pts:
        assert implicit_residual(entry, p) < 1e-9
    # ruling property: (t, x, y) -> (t - k, x + k, y - k/(2(t+x))) stays on it
    phi = entry.implicit
    for p in pts[:10]:
        for k in (-1.0, 0.5, 2.0):
            t, x, y = p.t, p.x, p.y
            if abs(t + x) < 1e-3:
                continue
            assert abs(phi(t - k, x + k, y - k / (2 * (t + x)))) < 1e-8


def test_ruled_enneper_gradient_never_vanishes():
    entry = get_entry("ruled-enneper")
    phi = entry.implicit
    h = 1e-6
    for p in surface_samples(entry, 30):
        g = np.array([
            (phi(p.t + h, p.x, p.y) - phi(p.t - h, p.x, p.y)) / (2 * h),
            (phi(p.t, p.x + h, p.y) - phi(p.t, p.x - h, p.y)) / (2 * h),
            (phi(p.t, p.x, p.y + h) - phi(p.t, p.x, p.y - h)) / (2 * h),
        ])
        assert np.linalg.norm(g) > 1e-3


def test_no_implicit_form_raises():
    entry = get_entry("scherk:3")
    with pytest.raises(NoImplicitForm):
        implicit_residual(entry, SurfacePoint(0, 0, 0))


def test_positive_entries_fold_and_period():
    for name in ("scherk:2", "scherk:3", "jorge-meeks:2", "jorge-meeks:3",
                 "ruled-enneper", "parabolic", "self-intersecting-fb",
                 "self-intersecting-n3"):
        entry = get_entry(name)
        assert verify_fold_type(entry.data).is_fold_type, name
        assert period_check(entry.data) < 1e-10, name


def test_negative_entries_fail_end_condition():
    for name in ("helicoid-negative", "elliptic-catenoid-negative"):
        entry = get_entry(name)
        rep = verify_fold_type(entry.pair)
        assert not rep.ends_on_circle
        assert not rep.is_fold_type


def test_expected_classifications():
    for name in ("scherk:2", "scherk:3", "scherk:4", "jorge-meeks:2",
                 "jorge-meeks:3", "ruled-enneper", "parabolic",
                 "self-intersecting-fb", "self-intersecting-n3"):
        entry = get_entry(name)
        rep = classify(entry.data)
        assert rep.conditions.graph_condition.value == entry.expected["graph_condition"], name
        if entry.expected.get("entire_graph") and entry.data.principal:
            assert rep.entire_graph_certified, name
        if entry.expected["graph_condition"] == "violated":
            assert not rep.entire_graph_certified, name


def test_normalization_roundtrip():
    entry = get_entry("jorge-meeks:2")
    norm = entry.normalization
    p = SurfacePoint(0.3, -0.4, 0.5)
    q = norm.apply(p)
    assert (q.t, q.x, q.y) == (0.3, 0.4, 0.5)
    rx, ry = q.x / norm.scale[1], q.y / norm.scale[2]
    assert abs(rx - p.x) < 1e-15 and abs(ry - p.y) < 1e-15
