"""Independent numerical oracles used by the test-suite.

Everything here is derived from first principles (quadrature, direct matrix
algebra, elementary probability) without calling into the code paths under
test, so that agreement between the two is meaningful.
"""

from __future__ import annotations

import math

import numpy as np


def binary_shannon(p: float) -> float:
    out = 0.0
    for t in (p, 1.0 - p):
        if t > 0.0:
            out -= t * math.log(t)
    return out


def dihedral_probability(mu: float, factor: float = 1.0) -> float:
    """Violation probability with gamma ~ U[0, 90] deg: P(mu^2 cos(gamma) > f/2)."""
    if mu <= 0.0:
        return 0.0
    x = factor / (2.0 * mu * mu)
    if x >= 1.0:
        return 0.0
    return math.acos(x) / (math.pi / 2.0)


def haar_probability(m: int, factor: float = 1.0, mu: float = 1.0) -> float:
    """Violation probability for independent Haar frames.

    m = 2: the LHS at mu = 1 is |n_A . n_B| for isotropic plane normals, which
    is uniform on [0, 1], so P = clip(1 - f/(2 mu^2), 0, 1).  m = 3: the LHS
    is |det A| |det B| = 1 for orthonormal triads, a step at mu^3 = f sqrt(3)/9.
    """
    if mu <= 0.0:
        return 0.0
    if m == 2:
        return min(max(1.0 - factor / (2.0 * mu * mu), 0.0), 1.0)
    if m == 3:
        return 1.0 if mu ** 3 > factor * math.sqrt(3.0) / 9.0 else 0.0
    raise ValueError(f"m must be 2 or 3, got {m}")


def _pair_tail(x):
    """P(s u > x) for s = |cross| of two isotropic unit vectors, u ~ U[0, 1].

    s has density s/sqrt(1 - s^2) on [0, 1] (the angle between two isotropic
    directions has a uniform cosine); integrating the uniform factor gives
    the tail sqrt(1 - x^2) - x acos(x).  The same tail applies to the
    absolute triple product of three isotropic unit vectors, since
    |det| = s * |cos| with the residual direction isotropic.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = x < 1.0
    xi = x[inside]
    out[inside] = np.sqrt(1.0 - xi * xi) - xi * np.arccos(xi)
    return out


def crm_probability(m: int, factor: float = 1.0, mu: float = 1.0, nodes: int = 800) -> float:
    """Violation probability under i.i.d. isotropic ('completely random') vectors.

    Gauss-Legendre quadrature of the exact 1D reductions:

    * m = 2: LHS = s_A s_B |cos gamma| with |cos gamma| ~ U[0, 1], so
      P = int_c^1 [s/sqrt(1-s^2)] tail(c/s) ds with c = f T_2 / mu^2,
      evaluated with s = sin(phi).
    * m = 3: LHS = v_A v_B where each v = |det| has density acos(v), so
      P = int_c^1 acos(v) tail(c/v) dv with c = f T_3 / mu^3, evaluated
      with v = cos(t) to remove the square-root endpoint singularity.
    """
    if mu <= 0.0:
        return 0.0
    t, w = np.polynomial.legendre.leggauss(nodes)
    if m == 2:
        c = factor * 0.5 / mu ** 2
        if c >= 1.0:
            return 0.0
        lo, hi = math.asin(c), math.pi / 2.0
        phi = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
        vals = np.sin(phi) * _pair_tail(c / np.sin(phi))
        return float(0.5 * (hi - lo) * (w * vals).sum())
    if m == 3:
        c = factor * (math.sqrt(3.0) / 9.0) / mu ** 3
        if c >= 1.0:
            return 0.0
        lo, hi = 0.0, math.acos(c)
        tt = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
        vals = tt * _pair_tail(c / np.cos(tt)) * np.sin(tt)
        return float(0.5 * (hi - lo) * (w * vals).sum())
    raise ValueError(f"m must be 2 or 3, got {m}")


def ks_statistic(samples, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance between samples and a CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    theo = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - theo)
    lower = np.max(theo - np.arange(0, n) / n)
    return float(max(upper, lower))


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance between the empirical CDFs of a and b."""
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    points = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, points, side="right") / a.size
    cdf_b = np.searchsorted(b, points, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))
