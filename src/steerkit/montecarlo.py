"""Violation probabilities of the determinant criterion under random measurements.

Sampling schemes
----------------

``dihedral``
    Random orthogonal pairs (two settings only).  Bob keeps the fixed pair
    (z, x); Alice's measurement plane is drawn with its normal at a dihedral
    angle gamma ~ Uniform[0, 90] degrees from Bob's plane normal, uniform
    azimuth, and uniform in-plane orientation of her pair.
``haar``
    Random orthogonal pairs/triads for both parties from independent
    isotropic rotations.  For pairs this makes |cos gamma| uniform on [0, 1],
    which is *not* the same measure as ``dihedral`` (gamma itself uniform);
    the two give different violation probabilities.  Default for triads.
``isotropic``
    Completely random (generally non-orthogonal) measurements: every
    direction is an independent isotropic unit vector.

A scheme only draws the parties' direction arrays; one reduction turns them
into the criterion's geometric factor.

Determinism
-----------

The engine consumes samples in fixed-size chunks; chunk ``c`` draws from a
dedicated Philox stream keyed by ``(seed, c)``, and per-chunk integer counts
are merged in chunk order.  Results are therefore bit-identical for a given
seed no matter how many worker threads are used.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .criteria import DB_VECTOR_THRESHOLD

ROM_SCHEMES = ("dihedral", "haar")
CRM_SCHEMES = ("isotropic",)
SCHEMES = ROM_SCHEMES + CRM_SCHEMES

#: Samples per RNG chunk.  Fixed: changing it changes which Philox stream a
#: given sample draws from, and hence the (deterministic) estimates.
CHUNK_SIZE = 1 << 16


def measurement_class(scheme: str) -> str:
    """'rom' for orthogonal-measurement schemes, 'crm' for isotropic vectors."""
    if scheme in ROM_SCHEMES:
        return "rom"
    if scheme in CRM_SCHEMES:
        return "crm"
    raise ValueError(f"unknown sampling scheme {scheme!r}")


def _check_bound_factor(factor: float) -> None:
    if not (math.isfinite(factor) and factor > 0.0):
        raise ValueError(f"bound factor must be positive and finite, got {factor}")


@dataclass(frozen=True)
class MCConfig:
    """Configuration of one violation-probability run."""

    m: int
    scheme: str
    mu_grid: tuple
    n_samples: int
    bound_factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.m not in (2, 3):
            raise ValueError(f"settings count must be 2 or 3, got {self.m}")
        measurement_class(self.scheme)  # validates the scheme name
        if self.scheme == "dihedral" and self.m != 2:
            raise ValueError("the dihedral scheme is a two-setting construction; use haar for m = 3")
        mu_grid = tuple(float(mu) for mu in self.mu_grid)
        if not mu_grid:
            raise ValueError("mu grid must be non-empty")
        for mu in mu_grid:
            if not 0.0 <= mu <= 1.0:
                raise ValueError(f"mixing probability must lie in [0, 1], got {mu}")
        object.__setattr__(self, "mu_grid", mu_grid)
        if self.n_samples < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n_samples}")
        _check_bound_factor(self.bound_factor)
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class MCEstimate:
    """Estimated violation probability for one (scenario, threshold) cell."""

    m: int
    scheme: str
    mu: float
    bound_factor: float
    n_samples: int
    p_violation: float
    stderr: float


@dataclass(frozen=True)
class ViolationHistogram:
    """Density of the violation amount, conditioned on violating samples."""

    m: int
    scheme: str
    mu: float
    bound_factor: float
    n_samples: int
    n_violations: int
    bin_edges: np.ndarray
    density: np.ndarray


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Counter-based generator for one chunk; distinct keys, independent streams."""
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rotations_from_quaternions(quat: np.ndarray, columns: int = 3) -> np.ndarray:
    """First ``columns`` columns (n, 3, columns) of rotations from quaternions (n, 4).

    Normalised 4D Gaussians are uniform on the 3-sphere, so the resulting
    rotations are isotropic (Haar) on SO(3).
    """
    w, x, y, z = quat[:, 0], quat[:, 1], quat[:, 2], quat[:, 3]
    norm = np.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    rot = np.empty((quat.shape[0], 3, columns))
    rot[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    rot[:, 1, 0] = 2.0 * (x * y + w * z)
    rot[:, 2, 0] = 2.0 * (x * z - w * y)
    rot[:, 0, 1] = 2.0 * (x * y - w * z)
    rot[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    rot[:, 2, 1] = 2.0 * (y * z + w * x)
    if columns == 3:
        rot[:, 0, 2] = 2.0 * (x * z + w * y)
        rot[:, 1, 2] = 2.0 * (y * z - w * x)
        rot[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return rot


def _dihedral_pairs(uniforms: np.ndarray) -> np.ndarray:
    """Alice pairs (n, 2, 3) from uniforms (n, 3) in the dihedral scheme.

    Columns of ``uniforms`` map to gamma/(pi/2), psi/(2 pi), chi/(2 pi):
    the dihedral angle from Bob's plane normal (y), the azimuth of Alice's
    plane normal around y, and Alice's in-plane orientation.
    """
    gamma = uniforms[:, 0] * (np.pi / 2.0)
    psi = uniforms[:, 1] * (2.0 * np.pi)
    chi = uniforms[:, 2] * (2.0 * np.pi)
    cos_g, sin_g = np.cos(gamma), np.sin(gamma)
    cos_p, sin_p = np.cos(psi), np.sin(psi)
    cos_c, sin_c = np.cos(chi), np.sin(chi)
    # Orthonormal basis of Alice's plane for normal n = cos(g) y + sin(g) d,
    # d = cos(psi) z + sin(psi) x: e1 = -sin(psi) z + cos(psi) x, e2 = n x e1.
    e1_z = -sin_p
    e2_x = -cos_g * sin_p
    e2_z = -cos_g * cos_p
    pairs = np.empty((uniforms.shape[0], 2, 3))
    pairs[:, 0, 0] = cos_c * cos_p + sin_c * e2_x  # cos(chi) e1 + sin(chi) e2
    pairs[:, 0, 1] = sin_c * sin_g
    pairs[:, 0, 2] = cos_c * e1_z + sin_c * e2_z
    pairs[:, 1, 0] = -sin_c * cos_p + cos_c * e2_x  # -sin(chi) e1 + cos(chi) e2
    pairs[:, 1, 1] = cos_c * sin_g
    pairs[:, 1, 2] = -sin_c * e1_z + cos_c * e2_z
    return pairs


#: Bob's fixed (z, x) measurement pair in the dihedral scheme.
_BOB_DIHEDRAL_PAIR = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def _draw_directions(scheme: str, m: int, rng: np.random.Generator, n: int):
    """Alice's and Bob's measurement directions, arrays of shape (n, m, 3).

    Draw layout per chunk is fixed (one array per party in scheme order), so
    a sample's directions depend only on (seed, chunk index, position in
    chunk).  Bob's dihedral pair is fixed and broadcasts as (m, 3).
    """
    if scheme == "dihedral":
        return _dihedral_pairs(rng.random((n, 3))), _BOB_DIHEDRAL_PAIR
    if scheme == "haar":
        # measurement directions are the first m columns of each rotation
        rot_a = _rotations_from_quaternions(rng.standard_normal((n, 4)), m)
        rot_b = _rotations_from_quaternions(rng.standard_normal((n, 4)), m)
        return rot_a.swapaxes(1, 2), rot_b.swapaxes(1, 2)
    if scheme == "isotropic":
        vecs_a = rng.standard_normal((n, m, 3))
        vecs_b = rng.standard_normal((n, m, 3))
        for vecs in (vecs_a, vecs_b):
            x, y, z = vecs[..., 0], vecs[..., 1], vecs[..., 2]
            vecs /= np.sqrt(x * x + y * y + z * z)[..., None]
        return vecs_a, vecs_b
    raise ValueError(f"unknown sampling scheme {scheme!r}")


# ---------------------------------------------------------------------------
# vectorised chunk engine
# ---------------------------------------------------------------------------


def _triple_product(vecs: np.ndarray) -> np.ndarray:
    """det of (..., 3, 3) direction triads as v1 . (v2 x v3)."""
    return np.einsum("...i,...i->...", vecs[..., 0, :], np.cross(vecs[..., 1, :], vecs[..., 2, :]))


def _geometry(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Vector-form LHS at mu = 1 from (..., m, 3) direction arrays.

    |(a1 x a2) . (b1 x b2)| for pairs, |det A| |det B| for triads.
    """
    if alice.shape[-2] == 2:
        normal_a = np.cross(alice[..., 0, :], alice[..., 1, :])
        normal_b = np.cross(bob[..., 0, :], bob[..., 1, :])
        return np.abs(np.einsum("...i,...i->...", normal_a, normal_b))
    return np.abs(_triple_product(alice)) * np.abs(_triple_product(bob))


def _chunk_geometry(scheme: str, m: int, seed: int, chunk_index: int, n: int) -> np.ndarray:
    """Geometric factor per sample of one chunk: the vector-form LHS at mu = 1."""
    return _geometry(*_draw_directions(scheme, m, chunk_rng(seed, chunk_index), n))


def _chunk_plan(n_samples: int):
    n_chunks = (n_samples + CHUNK_SIZE - 1) // CHUNK_SIZE
    return [
        (c, min(CHUNK_SIZE, n_samples - c * CHUNK_SIZE))
        for c in range(n_chunks)
    ]


def _map_chunks(task, plan, n_workers: int):
    """Run ``task`` over the plan in chunk order, on at most one thread per chunk and CPU."""
    if n_workers < 1:
        raise ValueError(f"worker count must be >= 1, got {n_workers}")
    n_threads = min(n_workers, len(plan), os.cpu_count() or 1)
    if n_threads <= 1:
        return [task(c, size) for c, size in plan]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        futures = [pool.submit(task, c, size) for c, size in plan]
        return [f.result() for f in futures]


def _estimate_cells(cfg: MCConfig, factors, n_workers: int, hist_edges=None):
    """One :class:`MCEstimate` per (mu, bound factor) cell, all from one sample set.

    A sample violates a cell when its geometry exceeds factor * T_m / mu^m
    (never where mu^m is 0, also when it underflows).  Each chunk sorts its
    geometry once and counts every threshold by binary search.  With
    ``hist_edges`` (single-mu grid) the same pass also bins the violation
    amount mu^m * geometry - factor * T_m of the violating samples.  Per-chunk
    counts are merged in chunk order.

    Returns ``(estimates, bin_counts)``; ``bin_counts`` is None without edges.
    """
    m, n_samples = cfg.m, cfg.n_samples
    cells = [(mu, factor) for mu in cfg.mu_grid for factor in factors]
    thresholds = np.array(
        [
            factor * DB_VECTOR_THRESHOLD[m] / mu ** m if mu ** m > 0.0 else math.inf
            for mu, factor in cells
        ]
    )

    def task(chunk_index, size):
        geom = _chunk_geometry(cfg.scheme, m, cfg.seed, chunk_index, size)
        counts = size - np.searchsorted(np.sort(geom), thresholds, side="right")
        if hist_edges is None:
            return counts, None
        amounts = cfg.mu_grid[0] ** m * geom - cfg.bound_factor * DB_VECTOR_THRESHOLD[m]
        return counts, np.histogram(amounts[amounts > 0.0], bins=hist_edges)[0]

    results = _map_chunks(task, _chunk_plan(n_samples), n_workers)
    counts = sum(chunk_counts for chunk_counts, _ in results)
    bin_counts = None if hist_edges is None else sum(chunk_bins for _, chunk_bins in results)
    estimates = []
    for (mu, factor), count in zip(cells, counts):
        p = count / n_samples
        stderr = math.sqrt(p * (1.0 - p) / n_samples)
        estimates.append(MCEstimate(m, cfg.scheme, mu, factor, n_samples, p, stderr))
    return estimates, bin_counts


def violation_probability(cfg: MCConfig, n_workers: int = 1, hist_bins: int | None = None):
    """Estimate the violation probability for each mu in the grid.

    Returns one :class:`MCEstimate` per grid point.  A configuration's
    violation counts are bit-identical across worker counts.  With
    ``hist_bins`` the same pass also bins the violation amount, and the
    result is ``(estimates, bin_counts)``; :func:`violation_histogram` turns
    ``bin_counts`` into a density without drawing again.
    """
    if hist_bins is None:
        return _estimate_cells(cfg, (cfg.bound_factor,), n_workers)[0]
    return _estimate_cells(cfg, (cfg.bound_factor,), n_workers, histogram_edges(cfg, hist_bins))


def histogram_edges(cfg: MCConfig, bins: int) -> np.ndarray:
    """Bin edges of the violation-amount histogram; ValueError if it cannot be made.

    Requires a single-mu configuration.  Bins are uniform over the attainable
    violation range (0, mu^m - factor * T_m].
    """
    if len(cfg.mu_grid) != 1:
        raise ValueError("violation_histogram needs a single-mu configuration")
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    mu = cfg.mu_grid[0]
    max_violation = mu ** cfg.m - cfg.bound_factor * DB_VECTOR_THRESHOLD[cfg.m]
    if max_violation <= 0.0:
        raise ValueError(
            f"no attainable violation at mu = {mu} with bound factor {cfg.bound_factor}"
        )
    return np.linspace(0.0, max_violation, bins + 1)


def violation_histogram(
    cfg: MCConfig, bins: int = 50, n_workers: int = 1, bin_counts=None
) -> ViolationHistogram:
    """Histogram of the violation amount (LHS minus bound) as a density.

    Bins are those of :func:`histogram_edges`; the density integrates to 1
    over the violating samples.  ``bin_counts`` from
    ``violation_probability(cfg, hist_bins=bins)`` skips the sampling pass.
    """
    edges = histogram_edges(cfg, bins)
    if bin_counts is None:
        bin_counts = _estimate_cells(cfg, (cfg.bound_factor,), n_workers, edges)[1]
    n_violations = int(bin_counts.sum())
    if n_violations == 0:
        raise ValueError("no violating samples; cannot normalise a density")
    width = edges[1] - edges[0]
    density = bin_counts / (n_violations * width)
    return ViolationHistogram(
        cfg.m,
        cfg.scheme,
        cfg.mu_grid[0],
        cfg.bound_factor,
        cfg.n_samples,
        n_violations,
        edges,
        density,
    )


#: Row layout of the raised-bound study: (settings, scheme) per row.
RAISED_BOUND_ROWS = ((2, "dihedral"), (3, "haar"), (2, "isotropic"), (3, "isotropic"))


def raised_bound_table(
    factors=(1.0, 1.1, 1.2),
    mu: float = 1.0,
    n_samples: int = 1_000_000,
    seed: int = 0,
    n_workers: int = 1,
):
    """Violation probabilities under raised classical bounds.

    Four rows (2/3 settings x orthogonal/completely-random sampling) times
    one estimate per bound factor, all at the same ``mu``.  Each row reuses
    one set of geometry samples across the factors.  The inputs pass the
    :class:`MCConfig` checks before anything is drawn.
    """
    factors = [float(factor) for factor in factors]
    for factor in factors:
        _check_bound_factor(factor)
    configs = [MCConfig(m, scheme, (mu,), n_samples, seed=seed) for m, scheme in RAISED_BOUND_ROWS]
    return [_estimate_cells(cfg, factors, n_workers)[0] for cfg in configs]


MC_CSV_HEADER = ["m", "scheme", "mu", "bound_factor", "n_samples", "p_violation", "stderr"]


def estimates_to_csv(estimates, stream) -> None:
    """Write Monte Carlo estimates as CSV (stable column order)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(MC_CSV_HEADER)
    for est in estimates:
        writer.writerow(
            [
                est.m,
                est.scheme,
                f"{est.mu:.12g}",
                f"{est.bound_factor:.12g}",
                est.n_samples,
                f"{est.p_violation:.12g}",
                f"{est.stderr:.12g}",
            ]
        )


HISTOGRAM_CSV_HEADER = ["bin_left", "bin_right", "density"]


def histogram_to_csv(hist: ViolationHistogram, stream) -> None:
    """Write a violation-amount density as CSV."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(HISTOGRAM_CSV_HEADER)
    for left, right, dens in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.density):
        writer.writerow([f"{left:.12g}", f"{right:.12g}", f"{dens:.12g}"])
