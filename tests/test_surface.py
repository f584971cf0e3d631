import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from zmc.analysis import causal_label
from zmc.angular import AngularData, BlaschkeParams
from zmc.domain import FinitePoint, P_INFINITY, iota
from zmc.errors import OutsideDomain, PathBlocked, PatternMismatch
from zmc.gallery import get_entry
from zmc.polycheb import partial_fractions
from zmc.surface import (SurfaceEvaluator, SurfacePoint, build_oneforms, eval_degenerate_n2,
                         eval_on_disk, graph_gradient, integrate_oneform)
from zmc.weierstrass import GeneralCoeffs, build, coefficients

from mp_oracle import mp_corner, mp_reference

RNG = np.random.default_rng(99)
mp.mp.dps = 50  # the accuracy references


def make(n, alphas, b=()):
    return build(AngularData(n, tuple(alphas)), BlaschkeParams(tuple(b)))


SCHERK2 = make(2, (0.0, math.pi / 2, math.pi, 3 * math.pi / 2))
J2 = make(2, (0.0, 0.0, math.pi, math.pi))
PARA = make(2, (0.0, 0.0, 0.0, math.pi))
ENNEPER = make(2, (0.0, 0.0, 0.0, 0.0))
GEN3 = make(3, (0.0, 0.9, 2.0, 3.1, 4.2, 5.2), b=(0.1,))
ORDER6 = make(3, (0.0,) * 6)  # one end of pole order 6

GALLERY = ("scherk:2", "scherk:3", "scherk:4", "jorge-meeks:2", "jorge-meeks:3",
           "ruled-enneper", "parabolic", "self-intersecting-fb", "self-intersecting-n3")
SURFACES = {**{nm: get_entry(nm).data for nm in GALLERY},
            "order6": ORDER6, "general-n3": GEN3}


def domain_points(data, count, rng=RNG, lift=(0.1, 1.5)):
    th = rng.uniform(0, 2 * math.pi, count)
    lo = np.asarray(data.angular.max_cos(th))
    return lo + rng.uniform(*lift, size=count), th


def nearest_end(ev, th):
    """Index of the end nearest in angle: the one whose cosine is max cos."""
    return np.argmax(np.cos(th[None, :] - ev.betas[:, None]), axis=0)


def log_sum(coeffs, u, th):
    """Oracle for distinct angles: the residue-weighted log sum
    W @ log(u - cos(theta - alpha_j)) from `weierstrass.coefficients`."""
    D = u[None, :] - np.cos(th[None, :] - np.asarray(coeffs.alphas)[:, None])
    return coeffs.weights() @ np.log(D)


# ---------------------------------------------------------------- closed forms

def test_eval_principal_scherk_identity():
    ev = SurfaceEvaluator(SCHERK2)
    u, th = domain_points(SCHERK2, 100)
    for ui, ti in zip(u, th):
        p = ev.eval(FinitePoint(ui, ti))
        # at the doubled normalization of the classical example
        t_, x_, y_ = 2 * p.t, 2 * p.x, 2 * p.y
        assert abs(math.cosh(x_) - math.exp(t_) * math.cosh(y_)) < 1e-9


def test_eval_principal_at_infinity():
    ev = SurfaceEvaluator(SCHERK2)
    assert ev.eval(P_INFINITY) == SurfacePoint(0.0, 0.0, 0.0)
    # numerical limit along u -> infinity
    v = ev.eval(FinitePoint(1e9, 0.7)).as_array()
    assert np.max(np.abs(v)) < 1e-8


def test_eval_refuses_boundary():
    for data in (SCHERK2, PARA, ORDER6):
        ev = SurfaceEvaluator(data)
        with pytest.raises(OutsideDomain):
            ev.eval(FinitePoint(1.0, 0.0))
        with pytest.raises(OutsideDomain):
            ev.eval(FinitePoint(0.2, 0.1))


@pytest.mark.parametrize("u, theta", [(math.nan, 0.3), (1.5, math.nan), (math.inf, 0.3)])
def test_eval_refuses_non_finite(u, theta):
    # a NaN fails the domain test, and an infinite u is no point of the domain
    with pytest.raises(OutsideDomain):
        SurfaceEvaluator(get_entry("scherk:3").data).eval(FinitePoint(u, theta))


def test_eval_general_matches_principal_route():
    # the evaluator against both oracle weightings of the log sum: the
    # principal-type A_j and the general-type residues of the same surface
    cp = coefficients(SCHERK2)
    B = []
    for k in range(3):
        B.append(tuple(SCHERK2.phi[k].residue(cmath.exp(1j * a)).real
                       for a in SCHERK2.angular.alphas))
    cg = GeneralCoeffs(alphas=SCHERK2.angular.alphas, B=tuple(B))
    u, th = domain_points(SCHERK2, 32)
    got = SurfaceEvaluator(SCHERK2).eval_batch(u, th)
    assert np.max(np.abs(got - log_sum(cp, u, th))) < 1e-12
    assert np.max(np.abs(got - log_sum(cg, u, th))) < 1e-12


def test_eval_general_vs_quadrature():
    ev = SurfaceEvaluator(GEN3)
    forms = build_oneforms(GEN3)
    u, th = domain_points(GEN3, 8)
    for ui, ti in zip(u, th):
        p = FinitePoint(ui, ti)
        a = ev.eval(p).as_array()
        b = integrate_oneform(forms, P_INFINITY, p, SurfacePoint(0, 0, 0)).as_array()
        assert np.max(np.abs(a - b)) < 1e-8


def test_fold_symmetry_disk_evaluation():
    ev = SurfaceEvaluator(GEN3)
    for _ in range(16):
        r = RNG.uniform(0.3, 0.9)
        t = RNG.uniform(0, 2 * math.pi)
        z = r * cmath.exp(1j * t)
        if min(abs(z - e) for e, _ in GEN3.ends) < 0.1:
            continue
        inside = ev.eval(iota(z)).as_array()
        a = eval_on_disk(GEN3, z).as_array()
        b = eval_on_disk(GEN3, 1 / z.conjugate()).as_array()
        assert np.max(np.abs(a - inside)) < 1e-8
        assert np.max(np.abs(b - inside)) < 1e-8


# ---------------------------------------------------------------- degenerate n = 2

def seed_points(data, count=24):
    u, th = domain_points(data, count, lift=(0.05, 2.0))
    return [FinitePoint(ui, ti) for ui, ti in zip(u, th)]


def _sym_re(k: int, u, cs, sn, D):
    """Hand-written Re of the inversion-symmetric part of (w - 1)^-k,
    zeroed at p_infinity, k <= 3."""
    if k == 1:
        return np.zeros_like(D)
    if k == 2:
        return u / (2 * D) - sn**2 / (2 * D**2) - 0.5
    return -(2 * cs**2 - u * cs + 2 * u**2 - 3) / (4 * D**2) + 0.5


def _sym_im(k: int, u, cs, sn, D):
    """Hand-written Im of the same, k <= 3."""
    if k == 1:
        return -sn / (2 * D)
    if k == 2:
        return sn / (2 * D)
    return sn * (2 * sn**2 + 3 * u * cs - 3 * u**2) / (4 * D**3)


def low_order_oracle(data, u, th):
    """f~ from the partial fractions and the k <= 3 formulas above, for
    ends of pole order <= 4."""
    betas = np.asarray(data.angular.betas)
    out = np.zeros((3, u.size))
    for k in range(3):
        for part in partial_fractions(data.phi[k]):
            beta = cmath.phase(part.pole) % (2 * math.pi)
            j = int(np.argmin(np.abs(np.exp(1j * betas) - np.exp(1j * beta))))
            s = th - betas[j]
            cs, sn = np.cos(s), np.sin(s)
            D = u - cs
            out[k] += part.coeffs[0].real / 2 * np.log(D)
            for m in range(2, part.order + 1):
                g = -part.coeffs[m - 1] * cmath.exp(-1j * (m - 1) * betas[j]) / (m - 1)
                out[k] += g.real * _sym_re(m - 1, u, cs, sn, D) \
                    - g.imag * _sym_im(m - 1, u, cs, sn, D)
    return out


@pytest.mark.parametrize("data", [J2, PARA, ENNEPER,
                                  make(2, (0.0, 0.0, 1.3, 4.4)),
                                  make(2, (0.0, 0.0, 2.2, 2.2)),
                                  make(2, (0.0, 0.0, 0.0, 2.9))])
def test_degenerate_patterns_match_engine_and_quadrature(data):
    ev = SurfaceEvaluator(data)
    forms = build_oneforms(data)
    # (0,0,0,a) has no pattern closed form; the evaluator stands in for it
    closed = ev.eval if data.angular.multiplicities == (3, 1) else (
        lambda p: eval_degenerate_n2(data, p))
    for p in seed_points(data, 8):
        a = closed(p).as_array()
        b = ev.eval(p).as_array()
        q = integrate_oneform(forms, P_INFINITY, p, SurfacePoint(0, 0, 0)).as_array()
        assert np.max(np.abs(a - b)) < 1e-10 * (1 + np.abs(a).max())
        assert np.max(np.abs(a - q)) < 1e-8 * (1 + np.abs(a).max())


@pytest.mark.parametrize("name", ["jorge-meeks:2", "jorge-meeks:3", "ruled-enneper",
                                  "parabolic"])
def test_evaluator_matches_low_order_formulas(name):
    # away from the ends both sides keep full precision; next to an end
    # both lose digits to the same cancellation
    data = SURFACES[name]
    u, th = domain_points(data, 64, lift=(0.05, 3.0))
    want = low_order_oracle(data, u, th)
    got = SurfaceEvaluator(data).eval_batch(u, th)
    scale = 1 + np.abs(want).max(axis=0)
    assert np.max(np.abs(got - want) / scale) < 1e-13


def test_degenerate_j2_identity():
    for p in seed_points(J2, 50):
        v = eval_degenerate_n2(J2, p)
        # graph identity t = x tanh 2y after flipping the x axis
        assert abs(v.t - (-v.x) * math.tanh(2 * v.y)) < 1e-9


def test_degenerate_parabolic_matches_rational_log_display():
    # closed form of the (0,0,0,pi) surface in (u, theta); second component
    # carries the opposite sign from the printed display, which its own
    # implicit form confirms
    for p in seed_points(PARA, 25):
        u, th = p.u, p.theta
        Dm, Dp = u - math.cos(th), u + math.cos(th)
        A = 2 * (1 - u * math.cos(th)) / Dm**2
        B = math.log(Dp / Dm)
        expect = np.array([(A + B) / 8, (B - A) / 8, -math.sin(th) / (2 * Dm)])
        got = SurfaceEvaluator(PARA).eval(p).as_array()
        assert np.max(np.abs(got - expect)) < 1e-9
        phi = 0.5 * (math.exp(4 * (got[0] + got[1])) - 1) \
            + 2 * (got[0] - got[1]) - 4 * got[2] ** 2
        assert abs(phi) < 1e-9


def test_degenerate_enneper_cubic():
    for p in seed_points(ENNEPER, 50):
        t, x, y = eval_degenerate_n2(ENNEPER, p).as_array()
        phi = 4 * t**3 / 3 + 4 * t**2 * x + 4 * t * x**2 - 2 * t * y + t \
            + 4 * x**3 / 3 - 2 * x * y
        assert abs(phi) < 1e-9


def test_degenerate_enneper_interior_strip():
    # the extension reaches 1 > u > cos(theta), beyond the disk chart
    p = FinitePoint(0.7, 2.0)
    t, x, y = eval_degenerate_n2(ENNEPER, p).as_array()
    phi = 4 * t**3 / 3 + 4 * t**2 * x + 4 * t * x**2 - 2 * t * y + t \
        + 4 * x**3 / 3 - 2 * x * y
    assert abs(phi) < 1e-9


def test_degenerate_pattern_mismatch():
    with pytest.raises(PatternMismatch):
        eval_degenerate_n2(SCHERK2, FinitePoint(2.0, 0.0))
    with pytest.raises(PatternMismatch):
        eval_degenerate_n2(make(2, (0.0, 1.0, 1.0, 4.0)), FinitePoint(2.0, 0.0))
    with pytest.raises(PatternMismatch):  # (0,0,0,a): no pattern closed form
        eval_degenerate_n2(PARA, FinitePoint(2.0, 0.0))


def test_degenerate_00ab_matrix_form():
    # the displayed coefficient matrix for the (0,0,a,b) pattern
    a, b = 1.3, 4.4
    data = make(2, (0.0, 0.0, a, b))
    sa, sb = math.sin(a / 2), math.sin(b / 2)
    Bp = 1 / (2 * sa * sb)
    A1 = 1 / (4 * sa**2 * math.sin((a - b) / 2))
    A2 = 1 / (4 * sb**2 * math.sin((b - a) / 2))
    for p in seed_points(data, 12):
        u, th = p.u, p.theta
        X0 = math.sin(th) / (u - math.cos(th))
        X1 = math.log((u - math.cos(th - a)) / (u - math.cos(th)))
        X2 = math.log((u - math.cos(th - b)) / (u - math.cos(th)))
        expect = 0.5 * np.array([
            -Bp * X0 + A1 * X1 + A2 * X2,
            Bp * X0 - A1 * math.cos(a) * X1 - A2 * math.cos(b) * X2,
            -A1 * math.sin(a) * X1 - A2 * math.sin(b) * X2,
        ])
        got = eval_degenerate_n2(data, p).as_array()
        assert np.max(np.abs(got - expect)) < 1e-10 * (1 + np.abs(expect).max())


# ---------------------------------------------------------------- one-forms

def test_oneform_denominator_identity():
    # |q(z)|^2 = 4^n r^2n prod (u - cos(theta - alpha_j)), first power:
    # each factor satisfies |e^{-ia/2} z - e^{ia/2}|^2 = 2r(u - cos(theta - a))
    for data in (SCHERK2, GEN3, J2):
        forms = build_oneforms(data)
        n = data.n
        for _ in range(16):
            r = RNG.uniform(0.2, 0.95)
            t = RNG.uniform(0, 2 * math.pi)
            z = r * cmath.exp(1j * t)
            u = (r + 1 / r) / 2
            lhs = abs(data.omega_den(z)) ** 2
            rhs = 4**n * r ** (2 * n) * np.prod(
                u - np.cos(t - np.asarray(data.angular.alphas)))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
            den = forms.denominator(np.array([u]), np.array([t]))[0]
            assert abs(den - 2 * lhs / r ** (2 * n)) < 1e-9 * max(1.0, abs(den))


def test_oneform_r_inversion_symmetry():
    # X(1/r, theta) = X(r, theta)/r^{4n} for the du numerator
    data = GEN3
    q = np.asarray(data.omega_den.coeffs)
    n = data.n
    for k in range(3):
        pk = np.asarray(data.phi[k].num.coeffs)
        for _ in range(8):
            r = RNG.uniform(0.2, 0.9)
            t = RNG.uniform(0, 2 * math.pi)

            def X(rr):
                z = rr * cmath.exp(1j * t)
                pv = np.polynomial.polynomial.polyval(z, pk)
                qv = np.polynomial.polynomial.polyval(z, q)
                w = z * pv * qv.conjugate()
                return (w + w.conjugate()).real / ((rr - 1 / rr) / 2)

            lhs, rhs = X(1 / r), X(r) / r ** (4 * n)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_oneform_matches_finite_differences():
    for data in (SCHERK2, GEN3):
        coeffs = coefficients(data)
        forms = build_oneforms(data)
        u, th = domain_points(data, 16)
        du, dt = forms.partials(u, th)
        h = 1e-6
        fu = (log_sum(coeffs, u + h, th) - log_sum(coeffs, u - h, th)) / (2 * h)
        ft = (log_sum(coeffs, u, th + h) - log_sum(coeffs, u, th - h)) / (2 * h)
        assert np.max(np.abs(du - fu)) < 1e-6 * (1 + np.abs(fu).max())
        assert np.max(np.abs(dt - ft)) < 1e-6 * (1 + np.abs(ft).max())


def test_oneform_denominator_positive_on_domain():
    for data in (SCHERK2, J2, ENNEPER, GEN3):
        forms = build_oneforms(data)
        u, th = domain_points(data, 64)
        assert np.all(forms.denominator(u, th) > 0)


# ---------------------------------------------------------------- quadrature

def test_integrate_zero_length_path():
    forms = build_oneforms(SCHERK2)
    base = SurfacePoint(0.3, -0.2, 0.9)
    p = FinitePoint(1.7, 0.4)
    out = integrate_oneform(forms, p, p, base)
    assert np.max(np.abs(out.as_array() - base.as_array())) < 1e-12


def test_integrate_path_independence():
    forms = build_oneforms(SCHERK2)
    a, b = FinitePoint(2.0, 0.0), FinitePoint(2.0, math.pi)
    direct = integrate_oneform(forms, a, b, SurfacePoint(0, 0, 0)).as_array()
    via = integrate_oneform(forms, a, FinitePoint(3.5, 2.0), SurfacePoint(0, 0, 0))
    via2 = integrate_oneform(forms, FinitePoint(3.5, 2.0), b, via).as_array()
    assert np.max(np.abs(direct - via2)) < 1e-9


def test_integrate_blocked_outside():
    forms = build_oneforms(SCHERK2)
    with pytest.raises(PathBlocked):
        integrate_oneform(forms, FinitePoint(0.5, 0.0), FinitePoint(2.0, 0.0),
                          SurfacePoint(0, 0, 0))


def test_disk_quadrature_loop_period():
    # a small loop around an end must close up
    data = PARA
    for end, _ in data.ends:
        segs = [end + 0.05 * cmath.exp(1j * a)
                for a in np.linspace(0, 2 * math.pi, 5)]
        total = np.zeros(3)
        prev = SurfacePoint(0, 0, 0)
        for sa, sb in zip(segs, segs[1:]):
            nxt = eval_on_disk(data, sb, sa, prev)
            prev = nxt
        assert np.max(np.abs(nxt.as_array())) < 1e-8


def test_disk_quadrature_blocked_near_end():
    with pytest.raises(PathBlocked):
        eval_on_disk(SCHERK2, 1.0001 + 0j, 0j, SurfacePoint(0, 0, 0))


# ---------------------------------------------------------------- causal types

def test_causal_character_basic():
    # the fold side of (u, theta): space-like for |u| > 1, light-like at
    # |u| = 1, time-like for |u| < 1 off the zeros of Q, light-like on them
    th = np.full(3, 0.3)
    assert causal_label(SCHERK2, np.array([1.8, 1.0, 0.9]), th).tolist() == [
        "spacelike", "lightlike", "timelike"]
    assert causal_label(SCHERK2, 1.0 + 2.0**-52, 0.3) == "spacelike"
    # principal n = 3: Q = -U_1(u) = -2u vanishes at u = 0
    scherk3 = make(3, tuple(math.pi * j / 3 for j in range(6)))
    assert causal_label(scherk3, np.array([[0.0, 0.5]]), np.array([[1.0, 1.0]])).tolist() == [
        ["lightlike", "timelike"]]


def test_causal_label_from_the_chart_point():
    # with the end-chart point (l, theta) the side is e^l - 2 sin^2(d / 2),
    # d = theta - beta_a: resolved where u = cos d + e^l rounds to 1, and
    # light-like only within the rounding of its two terms and, with chart =
    # (l, dl, dtheta), what moving the point by that much does to it
    u = np.ones(4)
    th = np.array([0.0, 1e-20, 1e-20, 0.5])
    c = 2.0 * math.sin(0.25) ** 2
    l = np.array([-80.0, -80.0, -100.0, math.log(c)])
    assert causal_label(SCHERK2, u, th).tolist() == ["lightlike"] * 4
    assert causal_label(SCHERK2, u, th, (l, 0.0, 0.0)).tolist() == [
        "spacelike", "spacelike", "timelike", "lightlike"]
    # one ulp below the end at 3 pi / 2, d = -8.9e-16 exactly: 2 sin^2(d / 2)
    # = 3.9e-31 decides against e^-80 = 1.8e-35 for an exact point, but a
    # point only known to 1e-12 in theta resolves only clearances above
    # about 5e-25, and one known to 0.1 in l only sides beyond 0.1 e^l
    near = np.nextafter(3 * math.pi / 2, 0.0)
    assert causal_label(SCHERK2, 1.0, near, (-60.0, 0.0, 0.0)) == "spacelike"
    assert causal_label(SCHERK2, 1.0, near, (-80.0, 0.0, 0.0)) == "timelike"
    assert causal_label(SCHERK2, 1.0, near, (-60.0, 0.0, 1e-12)) == "lightlike"
    assert causal_label(SCHERK2, 1.0, near, (-50.0, 0.0, 1e-12)) == "spacelike"
    assert causal_label(SCHERK2, 1.0, 0.5, (np.log(c * 1.05), 0.1, 0.0)) == "lightlike"
    assert causal_label(SCHERK2, 1.0, 0.5, (np.log(c * 1.2), 0.1, 0.0)) == "spacelike"


def test_mixed_type_across_fold():
    # the gradient oracle of the 1-forms agrees with each label:
    # 1 - |grad lambda|^2 is positive, zero and negative on the three sides
    forms = build_oneforms(SCHERK2)

    def q(u, th):
        gx, gy = graph_gradient(forms, u, th)
        return 1.0 - gx * gx - gy * gy

    for th in RNG.uniform(0, 2 * math.pi, 16):
        assert causal_label(SCHERK2, 1.8, th) == "spacelike" and q(1.8, th) > 0
        assert causal_label(SCHERK2, 1.0, th) == "lightlike" and abs(q(1.0, th)) < 1e-13
    # u < 1 samples sit in the time-like band beyond the fold
    for gamma in SCHERK2.angular.gammas:
        for du in (0.05, 0.15):
            u = float(SCHERK2.angular.max_cos(gamma)) + du
            assert u < 1.0
            assert causal_label(SCHERK2, u, gamma) == "timelike" and q(u, gamma) < 0


# ---------------------------------------------------------------- one evaluator

def test_surface_evaluator_routes():
    # distinct angles, repeated angles and an end of pole order 6 all take
    # the one closed-form route, and each matches the disk-side quadrature
    z = 0.45 * cmath.exp(0.9j)
    for data in (SCHERK2, J2, ORDER6):
        a = SurfaceEvaluator(data).eval(iota(z)).as_array()
        b = eval_on_disk(data, z).as_array()
        assert np.max(np.abs(a - b)) < 1e-7


def test_quadrature_mode_consistency():
    # an end of pole order 6 evaluates in closed form like any other; check
    # it against both quadratures: through the chart and of the 1-forms
    ev = SurfaceEvaluator(ORDER6)
    forms = build_oneforms(ORDER6)
    for z in (0.45 * cmath.exp(0.9j), 0.3 * cmath.exp(2.5j), 0.8 * cmath.exp(-2.0j)):
        a = ev.eval(iota(z)).as_array()
        b = eval_on_disk(ORDER6, z).as_array()
        c = integrate_oneform(forms, P_INFINITY, iota(z), SurfacePoint(0, 0, 0)).as_array()
        scale = 1 + np.abs(b).max()
        assert np.max(np.abs(a - b)) < 1e-9 * scale
        assert np.max(np.abs(a - c)) < 1e-9 * scale


@pytest.mark.parametrize("name", list(SURFACES))
def test_partials_match_oneforms(name):
    data = SURFACES[name]
    forms = build_oneforms(data)
    ev = SurfaceEvaluator(data)
    th = RNG.uniform(0, 2 * math.pi, 48)
    lo = np.asarray(data.angular.max_cos(th))
    # at clearance 1e-3 next to the order-6 end the 1-form numerators lose
    # 4e-8 to cancellation, where the evaluator stays within 1e-13 of the
    # mpmath reference (test_accuracy_against_mpmath)
    for clearance in (1e-3, 1e-2, 0.1, 1.0, 10.0):
        if name == "order6" and clearance < 1e-2:
            continue
        u = lo + clearance
        for got, want in zip(ev.partials(u, th), forms.partials(u, th)):
            assert np.all(np.abs(got - want) <= 1e-8 * (1 + np.abs(want).max(axis=0)))


# ---------------------------------------------------------------- accuracy

CLEARANCES = np.logspace(-8, 1, 10)
# worst scaled error over (1 + 1 / clearance), per quantity: values, d/du,
# d/dtheta.  The input rounding alone costs about 1e-16 / clearance, so the
# bound takes that shape.  The previous routes (log sums, the order <= 4
# engine and the 1-form partials) reached 7.7e-15, 4.1e-15 and 5.1e-15 on
# these points, all on self-intersecting-n3; this evaluator reaches 3.6e-15,
# 1.8e-15 and 1.2e-15 there and at most 3.1e-16 elsewhere.
MP_BOUNDS = (5e-15, 2e-15, 2e-15)


def mp_errors(data, values, partials, thetas):
    """Worst scaled error of (values, d/du, d/dtheta) at each clearance
    against `mp_reference`; shape (clearances, 3)."""
    f = mp_reference(data)
    out = np.zeros((CLEARANCES.size, 3))
    for i, clearance in enumerate(CLEARANCES):
        u = np.asarray(data.angular.max_cos(thetas)) + clearance
        got = (values(u, thetas),) + tuple(partials(u, thetas))
        for n, (uu, tt) in enumerate(zip(u, thetas)):
            uu, tt = mp.mpf(float(uu)), mp.mpf(float(tt))
            want = (f(uu, tt),
                    [mp.diff(lambda x: f(x, tt)[c], uu) for c in range(3)],
                    [mp.diff(lambda x: f(uu, x)[c], tt) for c in range(3)])
            for q in range(3):
                w = np.array([float(x) for x in want[q]])
                err = np.abs(got[q][:, n] - w).max() / (1 + np.abs(w).max())
                out[i, q] = max(out[i, q], err)
    return out


@pytest.mark.parametrize("name", list(SURFACES))
def test_accuracy_against_mpmath(name):
    data = SURFACES[name]
    ev = SurfaceEvaluator(data)
    thetas = np.random.default_rng(7).uniform(0, 2 * math.pi, 3)
    err = mp_errors(data, ev.eval_batch, ev.partials, thetas)
    assert np.all(err <= np.array(MP_BOUNDS) * (1 + 1 / CLEARANCES)[:, None])


# jet's second derivatives (d2/dl2, d2/dl dtheta, d2/dtheta2) against the
# 50-digit reference at e^l = 1e-12 and 1e-6 reach scaled errors of 8.0e-16,
# 1.0e-15 and 1.3e-14 (order6, order6, self-intersecting-fb); the values and
# first derivatives keep their 1e-13 bound (measured at most 5.5e-15)
JET2_BOUND = 5e-14


@pytest.mark.parametrize("name", list(SURFACES))
def test_jet_accuracy_in_chart(name):
    # given the end-chart point (l, theta), the evaluator keeps its digits
    # where u could not even resolve the clearance e^l: the reference is
    # taken at u = cos(theta - beta_a) + e^l in 50 digits, and differentiated
    # in l
    data = SURFACES[name]
    ev = SurfaceEvaluator(data)
    f = mp_reference(data)
    th = np.random.default_rng(3).uniform(0, 2 * math.pi, 3)
    a = nearest_end(ev, th)
    for delta in (1e-12, 1e-6):
        l = np.full(th.size, math.log(delta))
        got = ev.jet(l, th, order=2)
        # order 2 leaves the orders below it as they were
        for low, full in zip(ev.jet(l, th, order=1), got):
            assert np.array_equal(low, full)
        for i, tt in enumerate(th):
            tt, dl = mp.mpf(float(tt)), mp.mpf(float(l[i]))
            ba = mp.mpf(float(ev.betas[a[i]]))

            def g(c):
                return lambda d, t: f(mp.cos(t - ba) + mp.exp(d), t)[c]

            want = (f(mp.cos(tt - ba) + mp.exp(dl), tt),
                    [mp.diff(g(c), (dl, tt), (1, 0)) for c in range(3)],
                    [mp.diff(g(c), (dl, tt), (0, 1)) for c in range(3)],
                    [mp.diff(g(c), (dl, tt), (2, 0)) for c in range(3)],
                    [mp.diff(g(c), (dl, tt), (1, 1)) for c in range(3)],
                    [mp.diff(g(c), (dl, tt), (0, 2)) for c in range(3)])
            for q, (gq, w) in enumerate(zip(got, want)):
                w = np.array([float(x) for x in w])
                bound = 1e-13 if q < 3 else JET2_BOUND
                assert np.abs(gq[:, i] - w).max() <= bound * (1 + np.abs(w).max())


def random_blaschke_n3(seed):
    rng = np.random.default_rng(seed)
    alphas = np.sort(rng.uniform(0.0, 2 * math.pi, 6))
    alphas[0] = 0.0
    return make(3, alphas, b=(complex(*rng.uniform(-0.5, 0.5, 2)),))


GRID_SURFACES = {**SURFACES, "random-b-0": random_blaschke_n3(0),
                 "random-b-1": random_blaschke_n3(1)}


@pytest.mark.parametrize("R, C", [(1, 9), (6, 1), (4, 7), (7, 4)])
@pytest.mark.parametrize("name", list(GRID_SURFACES))
def test_grid_call_is_the_flat_call(name, R, C):
    # an (R, C) grid against theta of shape (C,) forms its theta-only work
    # once per column; every output bit equals the flattened call's
    data = GRID_SURFACES[name]
    ev = SurfaceEvaluator(data)
    rng = np.random.default_rng(R * 100 + C)
    th = rng.uniform(0.0, 2 * math.pi, C)
    u = data.angular.max_cos(th) + rng.uniform(1e-9, 3.0, (R, C)) ** 2
    l = rng.uniform(-40.0, 5.0, (R, C))
    TH = np.tile(th, R)
    assert ev.eval_batch(u, th).shape == (3, R * C)
    assert np.array_equal(ev.eval_batch(u, th), ev.eval_batch(u.ravel(), TH))
    for order in (0, 1, 2):
        for grid, flat in zip(ev.jet(l, th, order), ev.jet(l.ravel(), TH, order)):
            assert (grid is None and flat is None) or np.array_equal(grid, flat)


# ---------------------------------------------------------------- corner chart

RANDOM_N3 = make(3, (0.0, 1.0724798527999555, 1.5920117877623825, 3.0747301101615054,
                     4.008583837552972, 4.944751739369208))
CORNER_SECTORS = [("scherk:2", SURFACES["scherk:2"], 0, 1), ("scherk:2", SURFACES["scherk:2"], 3, 0),
                  ("scherk:3", SURFACES["scherk:3"], 5, 0), ("scherk:4", SURFACES["scherk:4"], 2, 3),
                  ("random-n3", RANDOM_N3, 2, 3), ("random-n3", RANDOM_N3, 1, 2),
                  ("double-end", make(2, (0.0, 0.0, 2.0, 4.0)), 1, 2)]
CORNER_DEPTHS = (-1.0, -30.0, -700.0, -4000.0)
# scaled error of values, d/dp and d/dq against the 50-digit reference:
# measured at most 2.2e-16
CORNER_BOUND = 1e-13


@pytest.mark.parametrize("name, data, a, b", CORNER_SECTORS,
                         ids=[f"{s[0]}-{s[2]}{s[3]}" for s in CORNER_SECTORS])
def test_corner_chart_against_mpmath(name, data, a, b):
    # theta, u and every D_j rebuilt from (p, q) in 50 digits; where the
    # reference leaves the domain (some D_j < 0, only on random-n3's narrow
    # sector from end 1 to end 2) the chart gives NaN.  double-end has a
    # pole end at 0 next to the sector, whose pole terms the chart carries
    ev = SurfaceEvaluator(data)
    F = mp_corner(data, a, b)
    p, q = (m.ravel() for m in np.meshgrid(CORNER_DEPTHS, CORNER_DEPTHS))
    _, vals, dp, dq = ev.corner(np.full(p.size, a), np.full(p.size, b), p, q, order=1)
    off = 0
    for i in range(p.size):
        want = F(p[i], q[i])
        if any(isinstance(w, mp.mpc) for w in want):
            assert np.isnan(vals[:, i]).all()
            off += 1
            continue
        want = (want, [mp.diff(lambda x: F(x, q[i])[c], p[i]) for c in range(3)],
                [mp.diff(lambda x: F(p[i], x)[c], q[i]) for c in range(3)])
        for got, w in zip((vals, dp, dq), want):
            w = np.array([float(x) for x in w])
            assert np.abs(got[:, i] - w).max() <= CORNER_BOUND * (1 + np.abs(w).max())
    assert off == (3 if name == "random-n3" and a == 1 else 0)


# against `jet` the error is the input rounding of theta, about 1e-16 over
# the larger of D_a and D_b (measured at most 6.3e-16 times 1 + 1 / max D)
CORNER_JET_BOUND = 5e-15


@pytest.mark.parametrize("name, data, a, b", CORNER_SECTORS,
                         ids=[f"{s[0]}-{s[2]}{s[3]}" for s in CORNER_SECTORS])
def test_corner_chart_matches_jet(name, data, a, b):
    # where the clearances are at least 1e-6 both charts apply: the end
    # chart at the nearest end n, l = log D_n, takes d/dl = D_n (d/dp / D_a
    # + d/dq / D_b) and d/d theta = sum over j in (a, b) of d/d log D_j
    # (sin s_j - sin s_n) / D_j
    ev = SurfaceEvaluator(data)
    depths = (-0.5, -3.0, -8.0, math.log(1e-6))
    p, q = (m.ravel() for m in np.meshgrid(depths, depths))
    th, vals, dp, dq = ev.corner(np.full(p.size, a), np.full(p.size, b), p, q, order=1)
    near = nearest_end(ev, th)
    keep = np.isfinite(vals).all(axis=0) & ((near == a) | (near == b))
    assert keep.sum() >= 10
    p, q, th, near, vals, dp, dq = (x[..., keep] for x in (p, q, th, near, vals, dp, dq))
    Da, Db = np.exp(p), np.exp(q)
    sn = np.sin(th[None, :] - ev.betas[:, None])
    sn_near = sn[near, np.arange(th.size)]
    Dn = np.where(near == a, Da, Db)
    got = ev.jet(np.where(near == a, p, q), th, order=1)
    want = (vals, dp * (Dn / Da) + dq * (Dn / Db),
            dp * (sn[a] - sn_near) / Da + dq * (sn[b] - sn_near) / Db)
    bound = CORNER_JET_BOUND * (1 + 1 / np.maximum(Da, Db))
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w).max(axis=0) <= bound * (1 + np.abs(w).max(axis=0)))
