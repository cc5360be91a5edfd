"""Generalised entropies and the uncertainty bounds used by the steering tests.

All entropies are in nats.  Order parameters are plain floats: ``q = 1`` /
``r = 1`` select the Shannon limit and ``r = math.inf`` the min-entropy limit;
both limits get dedicated branches rather than large-finite approximations.
The conventions ``0^q = 0`` and ``0 * log(0) = 0`` hold throughout.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .qcore import JointTable, as_array, as_real, as_settings_count

DIST_ATOL = 1e-10


def _as_distribution(p) -> np.ndarray:
    probs = as_array("distribution", p).ravel()
    if probs.size == 0:
        raise ValueError("distribution must be non-empty")
    if probs.min() < -DIST_ATOL:
        raise ValueError(f"distribution has negative entry {probs.min()}")
    total = probs.sum()
    if abs(total - 1.0) > DIST_ATOL:
        raise ValueError(f"distribution sums to {total}, expected 1")
    return np.clip(probs, 0.0, None)


def check_tsallis_order(q) -> float:
    """``q`` as a float; ValueError unless it is finite and >= 1 (q = 1 is the Shannon limit)."""
    return as_real("Tsallis order", q, 1.0, math.inf)


def check_renyi_order(r) -> float:
    """``r`` as a float; ValueError unless r >= 1/2.  inf, the min-entropy order, passes too."""
    if (isinstance(r, (float, np.floating)) and r == math.inf
            or type(r) is int and r > sys.float_info.max):  # an int past float range reads as inf
        return math.inf
    return as_real("Renyi order", r, 0.5, math.inf)


def q_log(x: float, q: float) -> float:
    """Deformed logarithm ln_q(x) = (x^(1-q) - 1)/(1 - q); ln_1 = ln."""
    x = as_real("q-logarithm argument", x, math.ulp(0.0), math.inf)
    q = as_real("q-logarithm order", q, -math.inf, math.inf)
    if q == 1.0:
        return math.log(x)
    return (x ** (1.0 - q) - 1.0) / (1.0 - q)


def shannon_entropy(p) -> float:
    """Shannon entropy -sum p ln p in nats."""
    probs = _as_distribution(p)
    nz = probs[probs > 0.0]
    return float(-(nz * np.log(nz)).sum())


def tsallis_entropy(p, q: float) -> float:
    """Tsallis entropy -sum p^q ln_q(p) = (1 - sum p^q)/(q - 1)."""
    q = check_tsallis_order(q)
    probs = _as_distribution(p)
    if q == 1.0:
        return shannon_entropy(probs)
    return float((1.0 - (probs ** q).sum()) / (q - 1.0))


def renyi_entropy(p, r: float) -> float:
    """Renyi entropy ln(sum p^r)/(1 - r); Shannon at r = 1, -ln(max p) at r = inf."""
    r = check_renyi_order(r)
    probs = _as_distribution(p)
    if r == 1.0:
        return shannon_entropy(probs)
    if r == math.inf:
        return float(-np.log(probs.max()))
    return float(np.log((probs ** r).sum()) / (1.0 - r))


#: Smallest positive normal double: a sum of powers below it has lost digits to underflow.
_TINY = sys.float_info.min


def libm_pow(base, exponent: float) -> np.ndarray:
    """Elementwise ``base ** exponent`` rounded as Python floats and numpy scalars round it.

    numpy's vectorised power differs from the C library's ``pow`` in the last
    bit for a few per cent of inputs.  The marginal and visibility powers go
    through this, so that a batch gives the same bits as one number at a time
    always gave, down to the pinned ``analyze`` output.
    """
    base = np.asarray(base, dtype=float)
    powers = (b ** exponent for b in base.flat)  # numpy scalars: no list of the whole batch
    return np.fromiter(powers, float, count=base.size).reshape(base.shape)


def _plogp(p: np.ndarray) -> np.ndarray:
    # p ln p with 0 ln 0 = 0 (a zero cell takes ln 1), in one buffer
    out = np.where(p > 0.0, p, 1.0)
    np.log(out, out=out)
    out *= p
    return out


def conditional_shannon(probs) -> np.ndarray:
    """Shannon conditional H(B|A) = H(A, B) - H(A) of ``(..., 2, 2)`` tables, in nats.

    Both entropies sum their cells left to right in row-major order, the order
    in which numpy sums a short row, so each value equals
    ``shannon_entropy(joint) - shannon_entropy(marginal)`` to the bit.
    """
    cells = _plogp(probs)
    rows = _plogp(probs[..., 0] + probs[..., 1])
    joint = ((cells[..., 0, 0] + cells[..., 0, 1]) + cells[..., 1, 0]) + cells[..., 1, 1]
    return (rows[..., 0] + rows[..., 1]) - joint


def conditional_tsallis(probs, q: float) -> np.ndarray:
    """Array form of :func:`tsallis_directed_term` over ``(..., 2, 2)`` tables."""
    if q == 1.0:
        return conditional_shannon(probs)
    cells = probs ** q
    marg = probs[..., 0] + probs[..., 1]
    scale = libm_pow(marg, q - 1.0)
    normal = scale >= _TINY  # a zero marginal contributes nothing
    ratio = np.divide(cells[..., 0] + cells[..., 1], scale, out=np.zeros_like(marg), where=normal)
    under = (marg > 0.0) & ~normal
    if under.any():  # p_a^(q-1) underflows at q in the thousands: divide p_ab by p_a first
        low = marg[under]
        ratio[under] = low * ((probs[under] / low[:, None]) ** q).sum(axis=-1)
    return (1.0 - (ratio[..., 0] + ratio[..., 1])) / (q - 1.0)


def conditional_arimoto(probs, r: float) -> np.ndarray:
    """Array form of :func:`arimoto_conditional_renyi` over ``(..., 2, 2)`` tables."""
    if r == 1.0:
        return conditional_shannon(probs)
    peaks = np.maximum(probs[..., 0], probs[..., 1])
    if r == math.inf:
        return -np.log(peaks[..., 0] + peaks[..., 1])
    cells = probs ** r
    sums = cells[..., 0] + cells[..., 1]
    norms = sums ** (1.0 / r)
    under = (sums < _TINY) & (peaks > 0.0)
    if under.any():  # p^r underflows at r in the thousands: factor out the row's largest p
        top = peaks[under]
        norms[under] = top * (((probs[under] / top[:, None]) ** r).sum(axis=-1)) ** (1.0 / r)
    return r / (1.0 - r) * np.log(norms[..., 0] + norms[..., 1])


def tsallis_directed_term(table: JointTable, q: float) -> float:
    """Conditional Tsallis term (1/(q-1)) [1 - sum_ab p_ab^q / p_a^(q-1)].

    This is the per-setting contribution subtracted from the uncertainty
    bound in the Tsallis steering parameter.  Cells with zero Alice marginal
    contribute nothing; ``q = 1`` returns the Shannon conditional entropy.
    """
    return float(conditional_tsallis(table.probs, check_tsallis_order(q)))


def arimoto_conditional_renyi(table: JointTable, r: float) -> float:
    """Arimoto conditional Renyi entropy of Bob given Alice.

    H_r(B|A) = (r/(1-r)) ln sum_a [sum_b p(a,b)^r]^(1/r), with the Shannon
    conditional at r = 1 and -ln sum_a max_b p(a,b) at r = inf.  For the
    2x2 Werner tables used here it evaluates to (1/(1-r)) ln f_r(x) with
    x the state-measurement overlap, which is what the closed-form steering
    expressions require.
    """
    return float(conditional_arimoto(table.probs, check_renyi_order(r)))


def eur_bound_tsallis(q: float, m: int) -> float:
    """Tsallis entropic-uncertainty bound for m orthogonal qubit measurements.

    Returns ln_q(2) for two settings and 2 ln_q(2) for three; other settings
    counts have no built-in bound and raise ``ValueError``.
    """
    q = check_tsallis_order(q)
    return (as_settings_count(m) - 1) * q_log(2.0, q)


def eur_bound_renyi2() -> float:
    """Order-independent Renyi bound for two orthogonal qubit measurements: ln 2."""
    return math.log(2.0)
