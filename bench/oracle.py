"""Independent references and output parsers used to verify the workloads.

Nothing here is timed or traced.  The references never reuse the route the
checked output came from:

* gallery implicit forms and closed-form graph heights,
* the disk-side quadrature `eval_on_disk` for points with u >= 1, and the
  real 1-form quadrature `integrate_oneform` for points inside the fold
  (u < 1) or too close to an end for a clear disk path; only the order-6
  document also uses `integrate_oneform` in production, and it is checked
  on the disk side only,
* the paper's causal rule: space-like for u > 1, time-like for u < 1.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-8  # scaled error above which a checked item fails
CLEARANCE = 1e-6  # closest approach to the domain boundary the quadrature references take
LABEL_MARGIN = 1e-3  # |1 - |grad lambda|^2| below which a graph label is not checked


def scaled(err, *values):
    """Absolute error over 1 + the largest magnitude of the compared values."""
    scale = 1.0 + np.max(np.abs(np.vstack([np.atleast_1d(v) for v in values])), axis=0)
    return np.abs(err) / scale


# ---------------------------------------------------------------------------
# implicit forms and closed-form graph heights (display coordinates)
# ---------------------------------------------------------------------------

def _parabolic_terms(t, x, y):
    return (0.5 * np.exp(4 * (t + x)), -0.5 + 0 * t, 2 * t, -2 * x, -4 * y**2)


def _enneper_terms(t, x, y):
    return (4 * t**3 / 3, 4 * t**2 * x, 4 * t * x**2, -2 * t * y, t, 4 * x**3 / 3, -2 * x * y)


IMPLICIT = {"parabolic": _parabolic_terms, "ruled-enneper": _enneper_terms}


def implicit_error(name, t, x, y):
    """|Phi| relative to the sum of its terms' magnitudes: the residual that
    rounding the vertex alone would leave is a few ulps.  Zero where every
    term vanishes."""
    terms = np.vstack(IMPLICIT[name](t, x, y))
    size = np.abs(terms).sum(axis=0)
    return np.abs(terms.sum(axis=0)) / np.where(size > 0, size, 1.0)


def _logcosh(a):
    a = np.abs(a)
    return a + np.log1p(np.exp(-2 * a)) - math.log(2.0)


def height_error(name, x, y, lam):
    """Scaled error of graph heights against the gallery closed forms, or
    None when the entry has none.  parabolic's height solves its implicit
    form, whose t-derivative stays >= 2, so |Phi| / Phi_t is the error."""
    if name == "scherk:2":  # cosh x = e^t cosh y
        return scaled(lam - (_logcosh(x) - _logcosh(y)), x, y, lam)
    if name == "jorge-meeks:2":  # t = x tanh 2y
        return scaled(lam - x * np.tanh(2 * y), x, y, lam)
    if name == "parabolic":
        phi = np.sum(_parabolic_terms(lam, x, y), axis=0)
        return scaled(phi / (2 * np.exp(4 * (lam + x)) + 2), x, y, lam)
    return None


def closed_height(name, x, y, guess):
    """lambda(x, y) from the gallery closed forms, or None.  parabolic's
    implicit form is increasing and convex in t, so Newton from `guess`
    converges to its one root."""
    if name == "scherk:2":
        return _logcosh(x) - _logcosh(y)
    if name == "jorge-meeks:2":
        return x * np.tanh(2 * y)
    if name == "parabolic":
        t = np.array(guess, dtype=float)
        for _ in range(60):
            step = np.sum(_parabolic_terms(t, x, y), axis=0) / (2 * np.exp(4 * (t + x)) + 2)
            t = t - step
            if np.all(np.abs(step) <= 1e-15 * (1 + np.abs(t))):
                break
        return t
    return None


def height_gradient(name, x, y, lam):
    """(lambda_x, lambda_y) from the gallery closed forms, or None.  For
    parabolic, implicit differentiation of its form at the given height."""
    if name == "scherk:2":
        return np.tanh(x), -np.tanh(y)
    if name == "jorge-meeks:2":
        return np.tanh(2 * y), 2 * x / np.cosh(2 * y) ** 2
    if name == "parabolic":
        return -np.tanh(2 * (lam + x)), 4 * y / (np.exp(4 * (lam + x)) + 1)
    return None


def stencil_residual(height, x, y, h):
    """(1 - ly^2) lxx + 2 lx ly lxy + (1 - lx^2) lyy by central differences
    of `height` (vectorized over x, y) at step h, and the largest stencil
    height."""
    L = {(i, j): height(x + i * h, y + j * h) for i in (-1, 0, 1) for j in (-1, 0, 1)}
    lx = (L[1, 0] - L[-1, 0]) / (2 * h)
    ly = (L[0, 1] - L[0, -1]) / (2 * h)
    lxx = (L[1, 0] - 2 * L[0, 0] + L[-1, 0]) / h**2
    lyy = (L[0, 1] - 2 * L[0, 0] + L[0, -1]) / h**2
    lxy = (L[1, 1] - L[1, -1] - L[-1, 1] + L[-1, -1]) / (4 * h**2)
    size = np.max(np.abs(np.vstack([np.atleast_1d(v) for v in L.values()])), axis=0)
    return (1 - ly**2) * lxx + 2 * lx * ly * lxy + (1 - lx**2) * lyy, size


def expected_graph_causal(lx, ly):
    """Labels the sign of 1 - |grad lambda|^2 gives; None near zero."""
    q = 1.0 - lx**2 - ly**2
    out = np.where(q > 0, "spacelike", "timelike").astype(object)
    out[np.abs(q) <= LABEL_MARGIN] = None
    return out


# ---------------------------------------------------------------------------
# quadrature references (raw coordinates)
# ---------------------------------------------------------------------------

class Quadrature:
    """(t, x, y) at (u, theta) from the quadrature oracles of zmc.surface."""

    def __init__(self, zmc, data):
        self.zmc = zmc
        self.data = data
        self._forms = None

    def disk(self, u, th):
        z = self.zmc.domain.iota_inverse(self.zmc.domain.FinitePoint(u, th))
        return self.zmc.surface.eval_on_disk(self.data, z).as_array()

    def __call__(self, u, th):
        """Disk side where a path clear of the ends exists, else the 1-forms.
        None within CLEARANCE of the domain boundary, where the quadrature
        needs seconds per point and still misses 1e-8 (2.5e-8 at 1.4e-10)."""
        sf, PathBlocked = self.zmc.surface, self.zmc.errors.PathBlocked
        betas = np.asarray(self.data.angular.betas)
        if u - np.max(np.cos(th - betas)) < CLEARANCE:
            return None
        if u >= 1.0:
            try:
                return self.disk(u, th)
            except PathBlocked:
                pass
        if self._forms is None:
            self._forms = sf.build_oneforms(self.data)
        try:
            return sf.integrate_oneform(self._forms, self.zmc.domain.P_INFINITY,
                                        self.zmc.domain.FinitePoint(u, th),
                                        sf.SurfacePoint(0.0, 0.0, 0.0)).as_array()
        except PathBlocked:
            return None


def fold_side(u, margin=1e-9):
    """+1 where the fold rule says space-like (u > 1), -1 where it says
    time-like (u < 1), 0 within `margin` of the fold."""
    u = np.asarray(u, dtype=float)
    return np.where(u > 1.0 + margin, 1, np.where(u < 1.0 - margin, -1, 0))


def expected_causal(u, margin=1e-9):
    """Labels the fold rule predicts; None within `margin` of the fold."""
    side = fold_side(u, margin)
    out = np.where(side > 0, "spacelike", "timelike").astype(object)
    out[side == 0] = None
    return out


# ---------------------------------------------------------------------------
# parsers for the CLI's output files
# ---------------------------------------------------------------------------

def read_mesh_csv(path):
    """(u, theta, values (3, N), labels) of a `zmc sample --format csv` file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[0] != "u,theta,t,x,y,causal":
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    nums = np.array([r[:5] for r in rows], dtype=float)
    labels = np.array([r[5] for r in rows], dtype=object)
    return nums[:, 0], nums[:, 1], nums[:, 2:].T, labels


def read_obj(path):
    """(vertices (3, N), faces (F, 4), 1-based)."""
    verts, faces = [], []
    with open(path) as fh:
        for ln in fh:
            if ln.startswith("v "):
                verts.append(ln.split()[1:])
            elif ln.startswith("f "):
                faces.append(ln.split()[1:])
    return np.array(verts, dtype=float).T, np.array(faces, dtype=np.int64)


def read_ply(path):
    """(vertices (3, N), faces (F, 4), 0-based) of an ascii ply with quads."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    end = lines.index("end_header")
    header = {ln.split()[1]: int(ln.split()[2]) for ln in lines[:end]
              if ln.startswith("element ")}
    nv, nf = header["vertex"], header["face"]
    body = lines[end + 1:]
    verts = np.array([ln.split() for ln in body[:nv]], dtype=float).T
    faces = np.array([ln.split() for ln in body[nv:nv + nf]], dtype=np.int64)
    if faces.size and (faces[:, 0] != 4).any():
        raise ValueError("ply face is not a quad")
    return verts, faces[:, 1:]


def quad_faces(res):
    """Expected 0-based quad topology of a res x res sample grid, periodic in theta."""
    i, j = np.meshgrid(np.arange(res - 1), np.arange(res), indexing="ij")
    j2 = (j + 1) % res
    return np.stack([i * res + j, i * res + j2, (i + 1) * res + j2,
                     (i + 1) * res + j], axis=-1).reshape(-1, 4)


def read_graph_csv(path):
    """(x, y, lambda, labels, residual) of a `zmc graph` file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[0] != "x,y,lambda,causal,zmc_residual":
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    nums = np.array([[r[0], r[1], r[2], r[4]] for r in rows], dtype=float)
    labels = np.array([r[3] for r in rows], dtype=object)
    return nums[:, 0], nums[:, 1], nums[:, 2], labels, nums[:, 3]
