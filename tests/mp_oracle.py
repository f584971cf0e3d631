"""50-digit references for the evaluator and the inverter: f~ summed term by
term from the partial fractions of the phi forms, with the double
coefficients as exact input."""

import cmath

import mpmath as mp
import numpy as np

from zmc.polycheb import partial_fractions

mp.mp.dps = 50


def mp_reference(data):
    """f~(u, theta) in 50 digits, from the closed form
    S_k = sum_i C(k, i) (-1)^i e^{-i(k-i)s} T_i(u) / (2D)^k - (-1)^k / 2.
    `logs` maps an end j to an exact log D_j, for clearances that u itself
    cannot carry."""
    betas = [mp.mpf(float(b)) for b in data.angular.betas]
    terms = []  # (component, end, k, coefficient); k = 0 is the log term
    for c in range(3):
        for part in partial_fractions(data.phi[c]):
            j = int(np.argmin([abs(cmath.exp(1j * float(b)) - part.pole) for b in betas]))
            terms.append((c, j, 0, part.coeffs[0].real / 2))
            for m in range(2, part.order + 1):
                g = -part.coeffs[m - 1] * cmath.exp(-1j * (m - 1) * float(betas[j])) / (m - 1)
                terms.append((c, j, m - 1, g))

    def f(u, th, logs=None):
        logs = logs or {}
        out = [mp.mpf(0)] * 3
        for c, j, k, g in terms:
            s = th - betas[j]
            D = mp.exp(logs[j]) if j in logs else u - mp.cos(s)
            if k == 0:
                out[c] += g * (logs[j] if j in logs else mp.log(D))
                continue
            T = [mp.mpf(1), u]
            while len(T) <= k:
                T.append(2 * u * T[-1] - T[-2])
            S = mp.fsum(mp.binomial(k, i) * (-1) ** i * mp.expj(-(k - i) * s) * T[i]
                        for i in range(k + 1)) / (2 * D) ** k - mp.mpf(-1) ** k / 2
            out[c] += (mp.mpc(g.real, g.imag) * S).real
        return out
    return f


def mp_corner(data, a, b):
    """f~ in the corner chart (p, q) = (log D_a, log D_b) of the sector from
    end a to end b, in 50 digits: theta, u and every D_j rebuilt from (p, q)."""
    f = mp_reference(data)
    ba, bb = (mp.mpf(float(data.angular.betas[j])) for j in (a, b))
    g = ((bb - ba) % (2 * mp.pi)) / 2

    def F(p, q):
        p, q = mp.mpf(p), mp.mpf(q)
        th = ba + g + mp.asin((mp.exp(p) - mp.exp(q)) / (2 * mp.sin(g)))
        return f(mp.exp(p) + mp.cos(th - ba), th, {a: p, b: q})
    return F


def mp_end(data, j, l, th):
    """f~ at the end-chart point (l, theta) of end j, in 50 digits."""
    l, th = mp.mpf(l), mp.mpf(th)
    bj = mp.mpf(float(data.angular.betas[j]))
    return mp_reference(data)(mp.exp(l) + mp.cos(th - bj), th, {j: l})
