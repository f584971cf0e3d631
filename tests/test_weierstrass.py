import cmath
import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zmc.angular import AngularData, BlaschkeParams
from zmc.errors import (BlaschkeOutOfDisk, AngularOrderError, InputError, RepeatedAngles,
                        ZmcError)
from zmc import weierstrass
from zmc.gallery import elliptic_catenoid_negative, get_entry, helicoid_negative
from zmc.polycheb import ComplexPoly, RationalFn, contour_residue, partial_fractions
from zmc.surface import SurfaceEvaluator
from zmc.weierstrass import (GeneralCoeffs, KobayashiData, PrincipalCoeffs, WeierstrassPair, build,
                             coefficients, dg_numerator, hopf_differential,
                             hopf_zero_pole_orders, period_check,
                             principal_coefficients, verify_fold_type)

RNG = np.random.default_rng(42)


def scherk(n=2):
    return build(AngularData(n, tuple(math.pi * j / n for j in range(2 * n))),
                 BlaschkeParams(()))


def jorge_meeks(n):
    a = []
    for j in range(n):
        a += [2 * math.pi * j / n] * 2
    return build(AngularData(n, tuple(a)), BlaschkeParams(()))


def random_principal(n, rng=RNG, max_gap=None):
    bound = max_gap if max_gap is not None else 2 * math.pi
    while True:
        gaps = rng.uniform(0.05, 1.0, size=2 * n)
        gaps *= 2 * math.pi / gaps.sum()
        if gaps.max() < bound:
            alphas = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
            return build(AngularData(n, tuple(alphas)), BlaschkeParams(()))


# ---------------------------------------------------------------- build

def test_build_scherk2():
    data = scherk(2)
    # omega = dz/(z^4 - 1) and g = z
    zs = RNG.standard_normal(8) + 1j * RNG.standard_normal(8)
    assert np.allclose([data.omega(z) for z in zs], 1.0 / (zs**4 - 1))
    assert np.allclose(data.g(zs), zs)
    assert data.principal
    assert abs(data.lambda_phase - (-1j)) < 1e-14


def test_build_jorge_meeks2_sign_convention():
    # assembling the product form verbatim gives omega = -i dz/(z^2-1)^2 for
    # angles (0, 0, pi, pi); the i dz/(z^n-1)^2 display differs by the
    # inversion f -> -f, which the normalized gallery entry absorbs
    data = jorge_meeks(2)
    zs = 0.4 * np.exp(1j * RNG.uniform(0, 2 * math.pi, 8))
    assert np.allclose([data.omega(z) for z in zs], -1j / (zs**2 - 1) ** 2)


def test_build_parabolic_example():
    data = build(AngularData(2, (0.0, 0.0, 0.0, math.pi)), BlaschkeParams(()))
    zs = 0.3 * np.exp(1j * RNG.uniform(0, 2 * math.pi, 8))
    assert np.allclose([data.omega(z) for z in zs],
                       -1.0 / ((zs - 1) ** 3 * (zs + 1)))


def test_build_rejects_bad_input():
    with pytest.raises(BlaschkeOutOfDisk):
        BlaschkeParams((1.2,))
    with pytest.raises(AngularOrderError):
        AngularData(2, (0.0, 2.0, 1.0, 3.0))
    with pytest.raises(AngularOrderError):
        AngularData(2, (0.1, 0.5, 1.0, 3.0))
    with pytest.raises(InputError):
        build(AngularData(2, (0.0, 1.0, 2.0, 3.0)), BlaschkeParams((0.3,)))
    with pytest.raises(InputError, match="at most 2 Blaschke parameters"):
        build(AngularData(3, (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)), BlaschkeParams((0.1, 0.2, 0.3)))


def test_build_rejects_orders_beyond_double_precision():
    # omega's denominator, the product of the 2n factors z - e^{i alpha}, has
    # binomial-sized coefficients; at n = 61 every one survives the relative
    # trim of from_roots, from n = 62 on the leading one does not
    assert get_entry("scherk:61").data.omega_den.degree == 122
    with pytest.raises(InputError, match="order n = 62"):
        get_entry("scherk:62")


@pytest.mark.parametrize("alphas", [(0.0, math.nan, 1.0, 3.0), (math.nan, 1.0, 2.0, 3.0),
                                    (0.0, 1.0, 2.0, math.nan), (0.0, -math.inf, 1.0, 3.0)])
def test_angular_data_rejects_non_finite(alphas):
    with pytest.raises(InputError, match="finite"):
        AngularData(2, alphas)


@pytest.mark.parametrize("b", [math.nan, complex(0.2, math.nan), complex(math.inf, 0.0)])
def test_blaschke_rejects_non_finite(b):
    with pytest.raises(InputError, match="finite"):
        BlaschkeParams((b,))


def test_principal_identity_with_single_product_form():
    # prod (e^{-ia/2} z - e^{ia/2}) = conj(Lambda) prod (z - e^{ia})
    data = random_principal(3)
    lam = data.lambda_phase
    zs = RNG.standard_normal(16) + 1j * RNG.standard_normal(16)
    direct = np.array([np.prod([cmath.exp(-0.5j * a) * z - cmath.exp(0.5j * a)
                                for a in data.angular.alphas]) for z in zs])
    viaends = lam.conjugate() * np.array(
        [np.prod([z - cmath.exp(1j * a) for a in data.angular.alphas]) for z in zs])
    assert np.max(np.abs(direct - viaends)) < 1e-10 * np.max(np.abs(direct))
    assert np.allclose(data.omega_den(zs), direct)


def test_gauss_eval_blaschke():
    data = build(AngularData(3, (0.0, 0.7, 1.4, 2.8, 4.0, 5.5)),
                 BlaschkeParams((0.3, 0.0)))
    assert abs(data.g(0.3)) < 1e-14          # zero of the product
    z = cmath.exp(1j * math.pi / 5)
    assert abs(abs(data.g(z)) - 1.0) < 1e-12  # modulus 1 on the circle


def test_gauss_modulus_on_circle_everywhere():
    data = build(AngularData(4, tuple(math.pi * j / 4 for j in range(8))),
                 BlaschkeParams((0.2 + 0.1j, -0.4, 0.1j)))
    th = RNG.uniform(0, 2 * math.pi, 128)
    vals = data.g(np.exp(1j * th))
    assert np.max(np.abs(np.abs(vals) - 1)) < 1e-12


# ---------------------------------------------------------------- phi forms

def test_nullity_of_phi_forms():
    for data in (scherk(2), scherk(4), jorge_meeks(3),
                 build(AngularData(3, (0.0, 0.7, 1.4, 2.8, 4.0, 5.5)),
                       BlaschkeParams((0.25, -0.1j)))):
        zs = RNG.standard_normal(64) + 1j * RNG.standard_normal(64)
        v = np.array([[data.phi[k](z) for z in zs] for k in range(3)])
        null = -v[0] ** 2 + v[1] ** 2 + v[2] ** 2
        scale = np.maximum(1.0, np.abs(v[0]) ** 2)
        assert np.max(np.abs(null) / scale) < 1e-10


# ---------------------------------------------------------------- Hopf differential

def test_hopf_scherk2():
    data = scherk(2)
    Q = hopf_differential(data)
    zs = 0.5 * np.exp(1j * RNG.uniform(0, 2 * math.pi, 8))
    assert np.allclose(Q(zs), 1.0 / (zs**4 - 1))
    assert {round(abs(p), 6) for p, _ in Q.poles} == {1.0}
    assert hopf_zero_pole_orders(data) == (4, 0)


def test_hopf_jorge_meeks3():
    data = jorge_meeks(3)
    Q = hopf_differential(data)
    zs = 0.5 * np.exp(1j * RNG.uniform(0, 2 * math.pi, 8))
    assert np.allclose(Q(zs), 2j * zs / (zs**3 - 1) ** 2)
    poles, zeros = hopf_zero_pole_orders(data)
    assert poles == 6 and zeros == 2
    assert poles - zeros == 4  # -2 chi(S^2)


def test_hopf_no_umbilics_at_order_two():
    data = scherk(2)
    assert dg_numerator(data).degree == 0


def test_hopf_degree_bookkeeping_random():
    for n in (2, 3, 4, 5):
        data = random_principal(n)
        poles, zeros = hopf_zero_pole_orders(data)
        assert poles == 2 * n and zeros == 2 * n - 4


def test_hopf_zero_multiset_inversion_symmetric():
    data = build(AngularData(4, tuple(math.pi * j / 4 for j in range(8))),
                 BlaschkeParams((-0.75, 0.0, 0.0)))
    roots = dg_numerator(data).roots()
    finite = [r for r in roots if abs(r) > 1e-8]
    for r in finite:
        assert min(abs(1 / r.conjugate() - s) for s in finite) < 1e-6


# ---------------------------------------------------------------- fold type

def test_fold_type_scherk_normalized_example():
    # example-normalized pair g = z, omega = 2 dz/(z^4-1): dg/(g^2 omega)
    # equals i sin(2 theta) on the circle
    rep = verify_fold_type(scherk(2))
    assert rep.is_fold_type
    assert rep.max_re_condition < 1e-12


def test_fold_type_helicoid_fails_ends():
    rep = verify_fold_type(helicoid_negative().pair)
    assert (rep.ends_on_circle, rep.gauss_circle_ok, rep.fold_condition_ok) == (False, True, True)
    assert not rep.is_fold_type
    assert rep.max_re_condition < 1e-12  # it does admit only folds


def test_fold_type_elliptic_catenoid_fails_ends():
    # dg/(g^2 omega) = -2 on the circle: real, not imaginary
    rep = verify_fold_type(elliptic_catenoid_negative().pair)
    assert (rep.ends_on_circle, rep.gauss_circle_ok, rep.fold_condition_ok) == (False, True, False)
    assert rep.max_re_condition == 2 * rep.re_condition_scale
    assert not rep.is_fold_type


def test_fold_type_general_blaschke():
    data = build(AngularData(3, (0.0, 0.7, 1.4, 2.8, 4.0, 5.5)),
                 BlaschkeParams((0.25, -0.1j)))
    rep = verify_fold_type(data)
    assert rep.is_fold_type


def _ref_effective_poles(num, den, den_poles):
    """Denominator root multiset minus numerator cancellation."""
    f = RationalFn(num, den, poles=den_poles)
    parts = [(p, m, f.principal_part(p)) for p, m in f.poles]
    scale = max((np.abs(c).max() for _, _, c in parts), default=0.0)
    scale = max(scale, 1e-300)
    out = []
    for p, m, coeffs in parts:
        order = m
        while order > 0 and abs(coeffs[order - 1]) <= 1e-9 * scale:
            order -= 1
        if order:
            out.append((p, order))
    return out


def _ref_ends_on_circle(pair):
    """Condition (i) read off the list of ends: every pole of omega, g omega
    and g^2 omega is merged, counted and phase-sorted, then each finite end
    is tested against the circle and the order at infinity against 0; the
    oracle for `weierstrass._ends_on_circle`."""
    gn, gd = pair.g.num, pair.g.den
    on, od = pair.omega.num, pair.omega.den
    den = od * (gd * gd)
    den_poles = weierstrass._merged_poles(pair.omega.poles, pair.g.poles, pair.g.poles)
    if den.degree != sum(m for _, m in den_poles):
        raise InputError("a pole of g lies beyond what double precision resolves in the "
                         "fold-type test; give Blaschke parameters 0 instead of near 0")
    finite = {}
    inf_order = 0
    for num in (on * (gd * gd), on * (gn * gd), on * (gn * gn)):
        for p, m in _ref_effective_poles(num, den, den_poles):
            key = next((q for q in finite if abs(q - p) < 1e-8), None)
            if key is not None:
                finite[key] = max(finite[key], m)
            else:
                finite[complex(p)] = m
        inf_order = max(inf_order, num.degree + 2 - den.degree)
    ends = sorted(finite.items(), key=lambda km: cmath.phase(km[0]) % (2 * math.pi))
    return inf_order <= 0 and all(abs(abs(p) - 1.0) < weierstrass._CIRCLE_TOL for p, _ in ends)


ORACLE_GALLERY = ("scherk:2", "scherk:3", "scherk:4", "scherk:5", "jorge-meeks:2",
                  "jorge-meeks:3", "ruled-enneper", "parabolic", "self-intersecting-fb",
                  "self-intersecting-n3", "helicoid-negative", "elliptic-catenoid-negative")


def random_kobayashi(rng):
    """n = 2..5, a repeated angle in about a third of the draws, Blaschke
    moduli from 1e-9 up to 0.99; drawn again where `build` refuses the
    moduli as too small to resolve."""
    while True:
        n = int(rng.integers(2, 6))
        alphas = np.sort(rng.uniform(0, 2 * math.pi, 2 * n))
        alphas[0] = 0.0
        if rng.random() < 0.35:
            k = int(rng.integers(1, 2 * n))
            alphas[k] = alphas[k - 1]
        b = tuple(rng.choice([1e-9, 1e-3, 0.3, 0.7, 0.99]) * cmath.exp(2j * math.pi * rng.random())
                  for _ in range(0 if n == 2 else int(rng.integers(0, n))))
        try:
            return build(AngularData(n, tuple(alphas)), BlaschkeParams(b))
        except InputError:
            pass


def random_raw_pair(rng):
    """g and omega from roots inside, on and outside the circle (about half
    the draws with every pole on it), some poles repeated, numerators of
    random degree."""
    radii = [1.0] if rng.random() < 0.5 else [0.5, 1.0, 2.0]

    def points(k, radii):
        pts = list(rng.choice(radii, size=k) * np.exp(2j * math.pi * rng.random(k)))
        if pts and rng.random() < 0.3:
            pts.append(pts[0])
        return pts

    def rational(zeros, poles):
        return RationalFn(ComplexPoly.from_roots(zeros, lead=cmath.exp(2j * rng.random())),
                          ComplexPoly.from_roots(poles),
                          poles=[(p, poles.count(p)) for p in dict.fromkeys(poles)])

    g = rational(points(int(rng.integers(0, 3)), [0.5, 1.0, 2.0]),
                 points(int(rng.integers(0, 3)), radii))
    omega = rational(points(int(rng.integers(0, 3)), [0.5, 1.0, 2.0]),
                     points(int(rng.integers(2, 7)), radii))
    return WeierstrassPair(g, omega)


def _as_pair(case):
    """A Kobayashi case as the raw pair the reference reads."""
    if isinstance(case, KobayashiData):
        return WeierstrassPair(case.g, RationalFn(case.omega_num, case.omega_den,
                                                  poles=case.ends))
    return case


def test_ends_on_circle_matches_reference():
    rng = np.random.default_rng(20)
    gallery = [get_entry(nm) for nm in ORACLE_GALLERY]
    gallery = [e.pair if e.data is None else e.data for e in gallery]
    kobayashi = [random_kobayashi(rng) for _ in range(250)]
    raw = [random_raw_pair(rng) for _ in range(300)]
    checked = [(case, verify_fold_type(case)) for case in gallery + raw]
    for case, rep in checked:
        assert rep.ends_on_circle == _ref_ends_on_circle(_as_pair(case)), case
    # fold type by construction; the reference's root-finding misreads some
    # of these (a pole of g near 1/conj(b) for tiny b) or cannot resolve them
    for case in kobayashi:
        assert verify_fold_type(case).is_fold_type, case
    on = [rep.ends_on_circle for _, rep in checked] + [True] * len(kobayashi)
    assert min(sum(on), len(on) - sum(on)) >= 50


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 5), data=st.data())
def test_built_data_is_fold_type(n, data):
    """n = 2..5, repeated angles, |b_i| from 1e-9 to 0.99: whatever `build`
    accepts is reported fold type, and the verifier raises on none."""
    gaps = data.draw(st.lists(st.floats(0.0, 3.0), min_size=2 * n, max_size=2 * n))
    # 0 and 2n - 1 partial sums, scaled below 2 pi; a zero gap repeats an angle
    alphas = np.concatenate([[0.0], np.cumsum(gaps[:-1])]) * (6.0 / max(sum(gaps), 1e-9))
    b = [] if n == 2 else data.draw(st.lists(
        st.builds(lambda r, phi: r * cmath.exp(1j * phi),
                  st.sampled_from([1e-9, 0.99]) | st.floats(-9.0, -0.005).map(lambda e: 10**e),
                  st.floats(0.0, 2 * math.pi)),
        max_size=n - 1))
    try:
        built = build(AngularData(n, tuple(alphas)), BlaschkeParams(tuple(b)))
    except InputError:
        return
    assert verify_fold_type(built).is_fold_type


def _ref_principal_part(self, pole):
    """RationalFn.principal_part through numpy.polynomial's polyval, polyder
    and polymul; the oracle for its written-out Taylor and cofactor
    expansions."""
    p, m = self._find_pole(pole)
    c = np.asarray(self.num.coeffs)
    a = np.empty(m, dtype=complex)
    fact = 1.0
    for i in range(m):
        a[i] = npoly.polyval(p, c) / fact
        c = npoly.polyder(c)
        fact *= i + 1
    b = np.array([self._lead()], dtype=complex)
    for q, k in self.poles:
        if q != p:
            for _ in range(k):
                b = npoly.polymul(b, np.array([p - q, 1.0], dtype=complex))
    b = np.pad(b, (0, max(m - b.size, 0)))[:m]
    g = np.empty(m, dtype=complex)
    for i in range(m):
        g[i] = (a[i] - (g[:i] * b[i:0:-1]).sum()) / b[0]
    return g[::-1].copy()


def _principal_outcomes(case):
    """repr (exact for every float but NaN) of each principal part,
    partial-fraction list and fold-type report of `case`, and the bytes of
    its evaluator matrix; an error stands for its result."""
    forms = (case.phi + (case.g,)) if isinstance(case, KobayashiData) else (case.g, case.omega)

    def outcome(fn, *args):
        try:
            out = fn(*args)
        except ZmcError as exc:
            return repr(exc)
        return out.tobytes() if isinstance(out, np.ndarray) else repr(out)

    got = [outcome(f.principal_part, p) for f in forms for p, _ in f.poles]
    got += [outcome(partial_fractions, f) for f in forms]
    got.append(outcome(verify_fold_type, case))
    if isinstance(case, KobayashiData):
        got.append(outcome(lambda d: SurfaceEvaluator(d)._M, case))
    return got


def _assert_principal_parts_match_reference(case):
    got = _principal_outcomes(case)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(RationalFn, "principal_part", _ref_principal_part)
        assert got == _principal_outcomes(case)


@pytest.mark.parametrize("name", ORACLE_GALLERY + ("order6",))
def test_principal_parts_match_reference_on_gallery(name):
    if name == "order6":  # one end of pole order 6
        case = build(AngularData(3, (0.0,) * 6), BlaschkeParams(()))
    else:
        entry = get_entry(name)
        case = entry.pair if entry.data is None else entry.data
    _assert_principal_parts_match_reference(case)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(6)  # n = 3 with a repeated angle and two nonzero Blaschke parameters
def test_principal_parts_match_reference_on_random_data(seed):
    _assert_principal_parts_match_reference(random_kobayashi(np.random.default_rng(seed)))


# ---------------------------------------------------------------- periods

def test_period_residues_scherk():
    data = scherk(2)
    assert abs(data.phi[1].residue(1.0) - 0.5) < 1e-13
    assert abs(data.phi[2].residue(1.0)) < 1e-13
    assert period_check(data) < 1e-10


def test_period_parabolic_contour_oracle():
    data = build(AngularData(2, (0.0, 0.0, 0.0, math.pi)), BlaschkeParams(()))
    assert period_check(data) < 1e-10
    for k in range(3):
        for pole in (1.0, -1.0):
            ora = contour_residue(data.phi[k], pole, 0.02)
            assert abs(ora.imag) < 1e-8


def test_period_random_data():
    for n in (2, 3, 4):
        data = random_principal(n)
        assert period_check(data) < 1e-10


# ---------------------------------------------------------------- coefficients

def test_coefficients_scherk2():
    c = coefficients(scherk(2))
    assert isinstance(c, PrincipalCoeffs)
    assert np.allclose(c.A, [0.25, -0.25, 0.25, -0.25])


def test_coefficients_sum_rules_and_signs():
    for n in (2, 3, 4, 5, 6):
        data = random_principal(n)
        c = coefficients(data)
        W = c.weights()
        assert np.max(np.abs(W.sum(axis=1))) < 1e-12
        A = np.asarray(c.A)
        # adjacent log-coefficients alternate in sign
        assert np.all(A[:-1] * A[1:] < 0)
        assert A[1] * A[2] < 0


def test_coefficients_general_match_principal_limit():
    data = scherk(3)
    cp = principal_coefficients(data.angular)
    B = []
    for k in range(3):
        B.append([data.phi[k].residue(cmath.exp(1j * a)).real
                  for a in data.angular.alphas])
    ref = np.vstack([-2 * np.asarray(cp.A),
                     2 * np.asarray(cp.A) * np.cos(2 * np.asarray(cp.alphas)),
                     2 * np.asarray(cp.A) * np.sin(2 * np.asarray(cp.alphas))])
    assert np.max(np.abs(np.asarray(B) - ref)) < 1e-12


def test_coefficients_general_type():
    data = build(AngularData(3, (0.0, 0.7, 1.4, 2.8, 4.0, 5.5)),
                 BlaschkeParams((0.25, -0.1j)))
    c = coefficients(data)
    assert isinstance(c, GeneralCoeffs)
    B = np.asarray(c.B)
    assert np.max(np.abs(B.sum(axis=1))) < 1e-10


def test_coefficients_repeated_angles_rejected():
    with pytest.raises(RepeatedAngles):
        coefficients(jorge_meeks(2))


def test_ends_with_multiplicity():
    data = jorge_meeks(3)
    ends = data.ends
    assert len(ends) == 3
    assert all(m == 2 for _, m in ends)
    assert all(abs(abs(e) - 1) < 1e-14 for e, _ in ends)


def test_angle_hugging_two_pi_merges_with_zero_end():
    # an end at 2*pi - eps coincides with the end at 0 to working precision
    ang = AngularData(2, (0.0, 1.5, 3.0, 2 * math.pi - 1e-13))
    assert ang.num_distinct == 3
    assert ang.multiplicities[0] == 2
    data = build(ang, BlaschkeParams(()))
    assert period_check(data) < 1e-9
