import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmc.errors import DegreeError, ParityError, PoleNotFound
from zmc.polycheb import (ComplexPoly, RationalFn, ReciprocalClass, cheb_table,
                          contour_residue, partial_fractions, reciprocal_class,
                          reduce_coeffs, reduce_reciprocal)

RNG = np.random.default_rng(20240811)


# ---------------------------------------------------------------- Chebyshev

def cheb_T(n, u):
    return cheb_table(n, u)[n]


def cheb_U(n, u):
    return cheb_table(n, u, second=True)[n]


def test_cheb_first_values():
    assert cheb_T(0, 0.3) == 1.0
    assert abs(cheb_T(2, 1.25) - 2.125) < 1e-15          # (4 + 0.25)/2 at r = 2
    phi = 0.7
    assert abs(cheb_T(5, math.cos(phi)) - math.cos(5 * phi)) < 1e-14


def test_cheb_second_values():
    assert cheb_U(0, 7.0) == 1.0
    assert abs(cheb_U(1, 1.25) - 2.5) < 1e-15
    assert abs(cheb_U(3, math.cos(math.pi / 4))) < 1e-14


@given(st.integers(0, 20), st.floats(0.1, 10.0))
@settings(max_examples=200, deadline=None)
def test_cheb_halfsum_identities(n, r):
    # scale max(1, r^n, r^-n): the identity value itself grows like r^-n
    # on (0, 1), so an absolute 1e-10 bound is meaningful only relative to it
    u = (r + 1 / r) / 2
    lhs_T = (r**n + r**-n) / 2
    assert abs(lhs_T - cheb_T(n, u)) < 1e-10 * max(1.0, r**n, r**-n)
    lhs_U = (r ** (n + 1) - r ** -(n + 1)) / 2
    rhs_U = ((r - 1 / r) / 2) * cheb_U(n, u)
    assert abs(lhs_U - rhs_U) < 1e-10 * max(1.0, r ** (n + 1), r ** -(n + 1))


def test_cheb_rejects_negative_order():
    with pytest.raises(ValueError):
        cheb_table(-1, 0.5)
    with pytest.raises(ValueError):
        cheb_table(-2, 0.5, second=True)


# ---------------------------------------------------------------- ComplexPoly

def test_poly_normalization_and_degree():
    p = ComplexPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert len(p.coeffs) == 2
    z = ComplexPoly([0])
    assert z.is_zero and z.degree == 0


def test_poly_from_roots_and_eval():
    p = ComplexPoly.from_roots([1, -1, 1j, -1j])
    grid = RNG.standard_normal(8) + 1j * RNG.standard_normal(8)
    assert np.allclose(p(grid), grid**4 - 1)


def test_poly_taylor_shift():
    p = ComplexPoly([1, 0, 0, 2])  # 1 + 2 z^3
    a = p.taylor_at(1.0, 4)
    w = 0.37
    assert abs(sum(a[k] * w**k for k in range(4)) - p(1 + w)) < 1e-12


# ---------------------------------------------------------------- residues

def scherk2_phi0():
    # -2z / (z^4 - 1)
    return RationalFn(ComplexPoly([0, -2]), ComplexPoly.from_roots([1, -1, 1j, -1j]),
                      poles=[(1, 1), (-1, 1), (1j, 1), (-1j, 1)])


def test_residue_simple_pole():
    f = RationalFn(ComplexPoly([1]), ComplexPoly([-1, 1]), poles=[(1, 1)])
    assert abs(f.residue(1) - 1) < 1e-14


def test_residue_scherk_against_contour_oracle():
    f = scherk2_phi0()
    r = f.residue(1.0)
    rad = 1e-2 * abs(1 - 1j)  # of the least distance between the poles 1, -1, i, -i
    oracle = contour_residue(f, 1.0, rad)
    assert abs(r - (-0.5)) < 1e-12
    assert abs(r - oracle) < 1e-8 * max(1, abs(oracle))
    # -2 A_0 with A_0 = 1/4
    assert abs(r + 2 * 0.25) < 1e-12


def test_residue_double_pole_no_simple_part():
    f = RationalFn(ComplexPoly([1]), ComplexPoly.from_roots([1, 1]), poles=[(1, 2)])
    assert abs(f.residue(1)) < 1e-14


def test_residue_double_pole_contour_oracle():
    # (z + 2) / (z - 1)^2 / (z + 1): double pole at 1
    den = ComplexPoly.from_roots([1, 1, -1])
    f = RationalFn(ComplexPoly([2, 1]), den, poles=[(1, 2), (-1, 1)])
    r = f.residue(1)
    oracle = contour_residue(f, 1, 1e-2 * 2.0)
    assert abs(r - oracle) < 1e-8 * max(1, abs(oracle))


def test_residue_unknown_pole():
    f = scherk2_phi0()
    with pytest.raises(PoleNotFound):
        f.residue(0.5)


# ---------------------------------------------------------------- partial fractions

def reconstruct(parts, z):
    return sum(c / (z - p.pole) ** (j + 1)
               for p in parts for j, c in enumerate(p.coeffs))


def test_partial_fractions_simple():
    f = RationalFn(ComplexPoly([1]), ComplexPoly.from_roots([1, -1]),
                   poles=[(1, 1), (-1, 1)])
    parts = {complex(p.pole): p for p in partial_fractions(f)}
    assert abs(parts[(1 + 0j)].coeffs[0] - 0.5) < 1e-14
    assert abs(parts[(-1 + 0j)].coeffs[0] + 0.5) < 1e-14


def test_partial_fractions_cancelling_poles():
    # (1 + z^2)/(z^4 - 1): the poles at +-i cancel entirely
    f = RationalFn(ComplexPoly([1, 0, 1]), ComplexPoly.from_roots([1, -1, 1j, -1j]),
                   poles=[(1, 1), (-1, 1), (1j, 1), (-1j, 1)])
    parts = partial_fractions(f)
    poles = sorted(round(p.pole.real, 6) for p in parts)
    assert poles == [-1.0, 1.0]
    coeffs = {round(p.pole.real): p.coeffs[0] for p in parts}
    assert abs(coeffs[1] - 0.5) < 1e-13 and abs(coeffs[-1] + 0.5) < 1e-13


def test_partial_fractions_third_order():
    # -2z * (-1) / ((z-1)^3 (z+1)): orders 3 and 1
    f = RationalFn(ComplexPoly([0, 2]), ComplexPoly.from_roots([1, 1, 1, -1]),
                   poles=[(1, 3), (-1, 1)])
    parts = {complex(p.pole): p for p in partial_fractions(f)}
    assert parts[1 + 0j].order == 3
    assert parts[-1 + 0j].order == 1
    # oracle: contour integrals of (z - p)^k f around each pole
    for k in range(3):
        ora = contour_residue(lambda z: (z - 1) ** k * f(z), 1.0, 0.02)
        assert abs(parts[1 + 0j].coeffs[k] - ora) < 1e-8 * max(1, abs(ora))


def test_partial_fractions_random_reconstruction():
    for _ in range(12):
        roots = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        mult = [1, 1, 2, 1]
        flat = [r for r, m in zip(roots, mult) for _ in range(m)]
        den = ComplexPoly.from_roots(flat)
        num = ComplexPoly(RNG.standard_normal(4) + 1j * RNG.standard_normal(4))
        f = RationalFn(num, den, poles=list(zip(roots, mult)))
        parts = partial_fractions(f)
        zs = RNG.standard_normal(64) + 1j * RNG.standard_normal(64)
        keep = np.array([min(abs(z - r) for r in flat) > 0.3 for z in zs])
        zs = zs[keep]
        vals = np.array([reconstruct(parts, z) for z in zs])
        ref = f(zs)
        assert np.max(np.abs(vals - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_partial_fractions_degree_error():
    f = RationalFn(ComplexPoly([0, 0, 1]), ComplexPoly.from_roots([1, -1]),
                   poles=[(1, 1), (-1, 1)])
    with pytest.raises(DegreeError):
        partial_fractions(f)


# ---------------------------------------------------------------- reciprocal reduction

def test_reciprocal_class_examples():
    cls, order = reciprocal_class(ComplexPoly([1, 0, 0, 0, 1]))   # r^4 + 1
    assert cls is ReciprocalClass.SELF and order == 4
    cls, order = reciprocal_class(ComplexPoly([-1, 0, 0, 0, 1]))  # r^4 - 1
    assert cls is ReciprocalClass.ANTI and order == 4
    cls, order = reciprocal_class(ComplexPoly([2, 1, 1]))
    assert cls is ReciprocalClass.NEITHER and order is None
    # tiny coefficients are judged by their own size, not against 1
    cls, order = reciprocal_class(ComplexPoly([1e-10, 0, 3e-10]))
    assert cls is ReciprocalClass.NEITHER and order is None
    cls, order = reciprocal_class(ComplexPoly([1e-10, 0, 0, 0, 1e-10]))
    assert cls is ReciprocalClass.SELF and order == 4
    assert reduce_reciprocal(ComplexPoly([1e-10, 0, 0, 0, 1e-10]), 2,
                             ReciprocalClass.SELF).tolist() == [0, 0, 2e-10]


def test_reduce_self_example():
    # q = 2 T_2 (`zmc reduce` prints "2*T2")
    w = reduce_reciprocal(ComplexPoly([1, 0, 0, 0, 1]), 2, ReciprocalClass.SELF)
    assert w.tolist() == [0, 0, 2 + 0j]


def test_reduce_anti_example():
    w = reduce_reciprocal(ComplexPoly([-1, 0, 0, 0, 1]), 2, ReciprocalClass.ANTI)
    assert w.tolist() == [0, 2 + 0j]
    # q = 2 U_1, forced by r^4 - 1 = r^2 (r^2 - r^-2) at e.g. r = 2
    r = 2.0
    u = (r + 1 / r) / 2
    q = w @ cheb_table(1, u, second=True)
    assert abs(r**2 * ((r - 1 / r) / 2) * q - (r**4 - 1)) < 1e-12


def test_reduce_parity_error():
    with pytest.raises(ParityError):
        reduce_reciprocal(ComplexPoly([1, 0, 0, 0, 1]), 2, ReciprocalClass.ANTI)
    with pytest.raises(ParityError):
        reduce_reciprocal(ComplexPoly([1, 0, 0, 0, 1]), 3, ReciprocalClass.SELF)


@pytest.mark.parametrize("parity", [ReciprocalClass.SELF, ReciprocalClass.ANTI])
def test_reduce_random_symmetrized(parity):
    for _ in range(20):
        deg = int(RNG.integers(1, 9))
        base = RNG.standard_normal(deg + 1) + 1j * RNG.standard_normal(deg + 1)
        cc = np.zeros(2 * deg + 1, dtype=complex)
        cc[: deg + 1] += base[::-1]           # r^deg * base(1/r)
        sign = 1.0 if parity is ReciprocalClass.SELF else -1.0
        cc[deg:] += sign * base               # + base(r) * r^deg ... symmetrized
        p = ComplexPoly(cc)
        if p.is_zero:
            continue
        cls, order = reciprocal_class(p)
        if cls is not parity:
            continue
        m = order // 2
        w = reduce_reciprocal(p, m, parity)
        rs = RNG.uniform(0.1, 10.0, size=32)
        u = (rs + 1 / rs) / 2
        lhs = p(rs)
        rhs = rs**m * (w @ cheb_table(w.size - 1, u, parity is ReciprocalClass.ANTI))
        if parity is ReciprocalClass.ANTI:
            rhs = rhs * (rs - 1 / rs) / 2
        scale = np.maximum(1.0, np.abs(lhs))
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-10


@pytest.mark.parametrize("parity", [ReciprocalClass.SELF, ReciprocalClass.ANTI])
@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_reduce_coeffs_columns(parity, m):
    # random (anti-)self-reciprocal columns of order 2m, reduced in one call
    # and checked against p(r) at every r of its column
    N = 40
    base = RNG.standard_normal((2 * m + 1, N))
    sign = 1.0 if parity is ReciprocalClass.SELF else -1.0
    c = base + sign * base[::-1]
    w = reduce_coeffs(c, m, parity)
    assert w.shape == ((m + 1 if sign > 0 else m), N)
    r = RNG.uniform(0.1, 10.0, size=N)
    u = (r + 1 / r) / 2
    p = sum(c[k] * r**k for k in range(2 * m + 1))
    if parity is ReciprocalClass.SELF:
        q = (w * cheb_table(m, u)).sum(axis=0)
        rhs = r**m * q
        terms = r**m * (np.abs(w) * np.abs(cheb_table(m, u))).sum(axis=0)
    else:
        U = cheb_table(max(m - 1, 0), u, second=True)[:m]
        half = (r - 1 / r) / 2
        rhs = r**m * half * (w * U).sum(axis=0)
        terms = r**m * np.abs(half) * (np.abs(w) * np.abs(U)).sum(axis=0)
    # relative to the size of the terms: p itself can cancel to 0
    scale = np.maximum(np.abs(p), terms) + 1e-300
    assert np.max(np.abs(p - rhs) / scale) < 1e-12
