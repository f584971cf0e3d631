import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from zmc.angular import AngularData, BlaschkeParams
from zmc.domain import FinitePoint, P_INFINITY, iota
from zmc.errors import OutsideDomain, PathBlocked, PatternMismatch
from zmc.gallery import get_entry
from zmc.polycheb import partial_fractions
from zmc.surface import (CausalCharacter, SurfaceEvaluator, SurfacePoint, build_oneforms,
                         causal_character, eval_degenerate_n2, eval_on_disk,
                         graph_gradient, integrate_oneform)
from zmc.weierstrass import GeneralCoeffs, build, coefficients

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
    for p in seed_points(data, 8):
        a = eval_degenerate_n2(data, p).as_array()
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
        got = eval_degenerate_n2(PARA, p).as_array()
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
    assert causal_character((0.0, 0.0)) is CausalCharacter.SPACELIKE
    assert causal_character((1.0, 0.0)) is CausalCharacter.LIGHTLIKE
    assert causal_character((2.0, 0.0)) is CausalCharacter.TIMELIKE


def test_mixed_type_across_fold():
    forms = build_oneforms(SCHERK2)
    for th in RNG.uniform(0, 2 * math.pi, 16):
        g_space = graph_gradient(forms, 1.0 + 0.8, th)
        assert causal_character(g_space) is CausalCharacter.SPACELIKE
        g_light = graph_gradient(forms, 1.0, th)
        assert causal_character(g_light, tol=1e-6) is CausalCharacter.LIGHTLIKE
    # u < 1 samples sit in the time-like band beyond the fold
    for gamma in SCHERK2.angular.gammas:
        for du in (0.05, 0.15):
            u = float(SCHERK2.angular.max_cos(gamma)) + du
            assert u < 1.0
            g_time = graph_gradient(forms, u, gamma)
            assert causal_character(g_time) is CausalCharacter.TIMELIKE


# ---------------------------------------------------------------- one evaluator

def test_surface_evaluator_routes():
    # distinct angles, repeated angles and an end of pole order 6 all take
    # the one closed-form route, and each matches the disk-side quadrature
    z = 0.45 * cmath.exp(0.9j)
    for data in (SCHERK2, J2, ORDER6):
        a = SurfaceEvaluator(data).eval_disk(z).as_array()
        b = eval_on_disk(data, z).as_array()
        assert np.max(np.abs(a - b)) < 1e-7


def test_quadrature_mode_consistency():
    # an end of pole order 6 evaluates in closed form like any other; check
    # it against both quadratures: through the chart and of the 1-forms
    ev = SurfaceEvaluator(ORDER6)
    forms = build_oneforms(ORDER6)
    for z in (0.45 * cmath.exp(0.9j), 0.3 * cmath.exp(2.5j), 0.8 * cmath.exp(-2.0j)):
        a = ev.eval_disk(z).as_array()
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


def mp_reference(data):
    """f~(u, theta) in 50 digits, from the closed form
    S_k = sum_i C(k, i) (-1)^i e^{-i(k-i)s} T_i(u) / (2D)^k - (-1)^k / 2
    summed term by term, with the double partial-fraction coefficients as
    exact input."""
    betas = [mp.mpf(float(b)) for b in data.angular.betas]
    terms = []  # (component, end, k, coefficient); k = 0 is the log term
    for c in range(3):
        for part in partial_fractions(data.phi[c]):
            j = int(np.argmin([abs(cmath.exp(1j * float(b)) - part.pole) for b in betas]))
            terms.append((c, j, 0, part.coeffs[0].real / 2))
            for m in range(2, part.order + 1):
                g = -part.coeffs[m - 1] * cmath.exp(-1j * (m - 1) * float(betas[j])) / (m - 1)
                terms.append((c, j, m - 1, g))

    def f(u, th):
        out = [mp.mpf(0)] * 3
        for c, j, k, g in terms:
            s = th - betas[j]
            D = u - mp.cos(s)
            if k == 0:
                out[c] += g * mp.log(D)
                continue
            T = [mp.mpf(1), u]
            while len(T) <= k:
                T.append(2 * u * T[-1] - T[-2])
            S = mp.fsum(mp.binomial(k, i) * (-1) ** i * mp.expj(-(k - i) * s) * T[i]
                        for i in range(k + 1)) / (2 * D) ** k - mp.mpf(-1) ** k / 2
            out[c] += (mp.mpc(g.real, g.imag) * S).real
        return out
    return f


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


# jet's second derivatives (d2/d delta2, d2/d delta d theta, d2/d theta2)
# against the 50-digit reference at delta = 1e-12 and 1e-6 reach scaled
# errors of 6.7e-16, 1.6e-14 and 1.3e-14 (self-intersecting-n3 and -fb,
# scherk:4); the values and first derivatives keep their 1e-13 bound
# (measured at most 5.5e-15)
JET2_BOUND = 5e-14


@pytest.mark.parametrize("name", list(SURFACES))
def test_jet_accuracy_in_chart(name):
    # given the clearance itself, the evaluator keeps its digits where u
    # could not even resolve it: the reference is taken at
    # u = cos(theta - beta_a) + delta in 50 digits
    data = SURFACES[name]
    ev = SurfaceEvaluator(data)
    f = mp_reference(data)
    th = np.random.default_rng(3).uniform(0, 2 * math.pi, 3)
    a, _ = ev.active_end(th)
    for delta in (1e-12, 1e-6):
        got = ev.jet(np.full(th.size, delta), th, order=2)
        # order 2 leaves the orders below it as they were
        for low, full in zip(ev.jet(np.full(th.size, delta), th, order=1), got):
            assert np.array_equal(low, full)
        for i, tt in enumerate(th):
            tt, dl = mp.mpf(float(tt)), mp.mpf(delta)
            ba = mp.mpf(float(ev.betas[a[i]]))

            def g(c):
                return lambda d, t: f(mp.cos(t - ba) + d, t)[c]

            want = (f(mp.cos(tt - ba) + dl, tt),
                    [mp.diff(g(c), (dl, tt), (1, 0)) for c in range(3)],
                    [mp.diff(g(c), (dl, tt), (0, 1)) for c in range(3)],
                    [mp.diff(g(c), (dl, tt), (2, 0)) for c in range(3)],
                    [mp.diff(g(c), (dl, tt), (1, 1)) for c in range(3)],
                    [mp.diff(g(c), (dl, tt), (0, 2)) for c in range(3)])
            for q, (gq, w) in enumerate(zip(got, want)):
                w = np.array([float(x) for x in w])
                bound = 1e-13 if q < 3 else JET2_BOUND
                assert np.abs(gq[:, i] - w).max() <= bound * (1 + np.abs(w).max())
