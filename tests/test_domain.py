import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmc.angular import AngularData
from zmc.domain import FinitePoint, P_INFINITY, iota, iota_inverse, sample_edges
from zmc.errors import BelowOne, InputError, OutOfDisk
from zmc.gallery import get_entry

SCHERK2 = AngularData(2, (0.0, math.pi / 2, math.pi, 3 * math.pi / 2))
RNG = np.random.default_rng(7)


def test_iota_values():
    p = iota(1.0 + 0j)
    assert (p.u, p.theta) == (1.0, 0.0)
    p = iota(0.5 + 0j)
    assert abs(p.u - 1.25) < 1e-15 and p.theta == 0.0
    assert iota(0j) is P_INFINITY


def test_iota_rejects_outside():
    with pytest.raises(OutOfDisk):
        iota(1.5 + 0j)


def test_iota_inverse_values():
    assert abs(iota_inverse(FinitePoint(1.25, 0.0)) - 0.5) < 1e-15
    assert abs(iota_inverse(FinitePoint(1.0, math.pi)) + 1.0) < 1e-15
    assert iota_inverse(P_INFINITY) == 0


def test_iota_inverse_below_one():
    with pytest.raises(BelowOne):
        iota_inverse(FinitePoint(0.9, 0.0))


@given(st.floats(1e-3, 0.999), st.floats(0.0, 2 * math.pi, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_round_trip(r, theta):
    z = r * cmath.exp(1j * theta)
    p = iota(z)
    back = iota_inverse(p)
    assert abs(back - z) < 1e-12


def test_round_trip_near_circle():
    # u(r) is quadratic at the fold r = 1, so the inverse can only recover
    # r to sqrt(eps) precision in a thin band next to the circle
    for r in (0.9999, 0.999999, 1.0 - 1e-9, 1.0):
        z = r * cmath.exp(0.4j)
        assert abs(iota_inverse(iota(z)) - z) < 3e-8


def test_round_trip_through_infinity():
    assert iota(iota_inverse(P_INFINITY)) is P_INFINITY


def test_contains_examples():
    # inside means u > max_j cos(theta - beta_j)
    assert 0.8 > SCHERK2.max_cos(math.pi / 4)               # max cos = sqrt(2)/2
    assert not 1.0 > SCHERK2.max_cos(0.0)                   # boundary is excluded


def test_contains_monotone_in_u():
    for _ in range(64):
        th = RNG.uniform(0, 2 * math.pi)
        u = RNG.uniform(-1, 3)
        if u > SCHERK2.max_cos(th):
            assert u + RNG.uniform(0, 3) > SCHERK2.max_cos(th)


def test_unit_disk_image_lies_inside():
    # every iota image of the punctured disk off the ends lies in the domain
    ends = [cmath.exp(1j * b) for b in SCHERK2.betas]
    for _ in range(128):
        z = RNG.uniform(0.05, 1.0) * cmath.exp(1j * RNG.uniform(0, 2 * math.pi))
        if min(abs(z - e) for e in ends) < 1e-6:
            continue
        p = iota(z)
        assert p.u > SCHERK2.max_cos(p.theta)
    for _ in range(64):
        p = FinitePoint(RNG.uniform(1.0, 5.0) + 1e-9, RNG.uniform(0, 2 * math.pi))
        assert p.u > SCHERK2.max_cos(p.theta)


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_max_cos_matches_the_trailing_axis_formula(shape):
    # max_cos reduces over a leading axis of ends; the same subtractions and
    # an exact max give the trailing-axis formula's bits, a float for a scalar
    angular = AngularData(3, (0.0, 0.4, 1.9, 3.0, 4.5, 5.6))
    th = np.asarray(np.random.default_rng(3).uniform(-7.0, 7.0, shape))
    got = angular.max_cos(th if shape else float(th))
    want = np.max(np.cos(th[..., None] - np.asarray(angular.betas)), axis=-1)
    assert type(got) is (float if not shape else np.ndarray)
    assert np.array_equal(got, want)


def test_active_interval_examples():
    # max cos is the cosine of the active end: beta_0 at 0.1 and on the tie
    # at pi/4, beta_2 at beta_2; arrays give the same values as scalars
    assert abs(SCHERK2.max_cos(0.1) - math.cos(0.1)) < 1e-15
    assert SCHERK2.max_cos(math.pi / 4) == math.cos(math.pi / 4)
    assert abs(SCHERK2.max_cos(SCHERK2.betas[2]) - 1.0) < 1e-15
    th = np.array([0.1, math.pi / 4, SCHERK2.betas[2]])
    assert np.array_equal(SCHERK2.max_cos(th), [SCHERK2.max_cos(t) for t in th])


def interval_pieces(angular):
    """The closed intervals I_j between consecutive gap midpoints gammas;
    I_0 wraps around 0 and is a pair of pieces."""
    g = angular.gammas
    return [((0.0, g[0]), (g[-1], 2 * math.pi))] + [
        ((g[j - 1], g[j]),) for j in range(1, len(angular.betas))]


def test_interval_lemma_inequality():
    # cos(theta - beta_i) >= cos(theta - beta_j) for theta in I_i, so
    # beta_i gives max cos there
    for angular in (SCHERK2,
                    AngularData(3, (0.0, 0.3, 1.1, 2.0, 3.7, 5.9)),
                    AngularData(2, (0.0, 0.0, math.pi, math.pi))):
        betas = np.asarray(angular.betas)
        for i, pieces in enumerate(interval_pieces(angular)):
            for lo, hi in pieces:
                th = np.linspace(lo, hi, 64)
                assert np.all(angular.max_cos(th) - np.cos(th - betas[i]) <= 1e-12)


def test_interval_lemma_equality_at_midpoints():
    g0 = SCHERK2.gammas[0]
    assert abs(math.cos(g0 - SCHERK2.betas[0]) - math.cos(g0 - SCHERK2.betas[1])) < 1e-15


def lower_bound(angular):
    """min_j cos((a_{j+1} - a_j)/2); every domain point has u above it."""
    return min(math.cos(g / 2.0) for g in angular.gaps())


def test_lower_bound_examples():
    # the bound is max cos at the midpoint of the widest gap
    jm2 = AngularData(2, (0.0, 0.0, math.pi, math.pi))
    alleq = AngularData(2, (0.0, 0.0, 0.0, 0.0))
    for angular, want in ((SCHERK2, math.cos(math.pi / 4)), (jm2, 0.0), (alleq, -1.0)):
        assert abs(lower_bound(angular) - want) < 1e-15
        assert abs(np.min(angular.max_cos(np.asarray(angular.gammas))) - want) < 1e-15


def test_lower_bound_is_a_bound():
    for angular in (SCHERK2, AngularData(3, (0.0, 0.3, 1.1, 2.0, 3.7, 5.9))):
        lb = lower_bound(angular)
        for _ in range(256):
            th = RNG.uniform(0, 2 * math.pi)
            u = RNG.uniform(-1.5, 3.0)
            if u > angular.max_cos(th):
                assert u > lb


def test_boundary_distance():
    # the clearance u - max cos, positive exactly inside the domain
    assert abs(0.8 - SCHERK2.max_cos(math.pi / 4) - (0.8 - math.sqrt(2) / 2)) < 1e-12
    p = FinitePoint(SCHERK2.max_cos(0.37), 0.37)           # on the boundary
    assert abs(p.u - SCHERK2.max_cos(p.theta)) < 1e-15
    assert 2.0 - SCHERK2.max_cos(1.234) >= 1.0


def test_theta_normalized_mod_2pi():
    p = FinitePoint(1.5, 2 * math.pi + 0.3)
    assert abs(p.theta - 0.3) < 1e-12


@pytest.mark.parametrize("kwargs", [
    {"margin": 0.0}, {"margin": -0.01}, {"margin": float("nan")},
    {"margin": float("inf")}, {"margin": 1e-17},
    {"u_max": float("nan")}, {"u_max": float("inf")}, {"u_max": 0.5}], ids=str)
def test_sample_edges_rejects_bad_grid(kwargs):
    # the injectivity scan's grid with one option changed; at 1e-17 the
    # margin rounds away where max cos is 1
    angular = get_entry("self-intersecting-n3").data.angular
    grid = {"resolution": 200, "margin": 0.01, "u_max": 3.0, **kwargs}
    with pytest.raises(InputError):
        sample_edges(angular, **grid)
