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

What a chunk draws
------------------

The criterion reads a sample's directions only through one geometric factor,
the vector-form LHS at mu = 1: |(a1 x a2) . (b1 x b2)| for pairs, |det A|
|det B| for triads.  Each scheme draws that factor from its law (the
reductions in ``tests/oracles.py``); the measures above are unchanged.  Below,
s = |a1 x a2| = sqrt(1 - c^2) for the cosine c ~ U[-1, 1], and u ~ U[0, 1] is
the |cos| between a plane normal and the other normal (pairs) or the third
direction (triads).

=============  ========  ==============================
scheme, m      uniforms  geometric factor
=============  ========  ==============================
dihedral, 2    1         cos gamma, gamma ~ U[0, pi/2]
haar, 2        1         u
haar, 3        0         exactly 1 (orthonormal triads)
isotropic, 2   3         s_A s_B u
isotropic, 3   4         s_A u_A s_B u_B
=============  ========  ==============================

:data:`STREAM_VERSION` numbers what a seed draws.  Version 1 drew full
direction vectors and reduced them; version 2 draws the scalars above, so a
given seed gives different numbers than under version 1.

Counting
--------

A sample violates a (mu, bound factor) cell when its geometric factor exceeds
the cell's threshold.  A run with one cell counts each chunk in one
comparison pass; the dihedral scheme compares the drawn angle with the
threshold's arccosine instead of taking the cosine of every sample.  Grids of
several cells sort each chunk once and count every threshold by binary
search.  Both give the counts of a sample-by-sample comparison exactly.

Determinism
-----------

The engine consumes samples in fixed-size chunks; chunk ``c`` draws from a
dedicated Philox stream keyed by ``(seed, c)``.  Each chunk's integer counts
are added to a running sum in chunk order; worker threads keep a bounded
window of chunks in flight, so memory does not grow with the run.  Integer
sums are exact, so results are bit-identical for a given seed no matter how
many worker threads are used.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .criteria import DB_VECTOR_THRESHOLD
from .qcore import as_array, as_int, as_list, as_real, as_settings_count, as_visibility

#: Each sampling scheme and its measurement class: 'rom' for orthogonal
#: measurements, 'crm' for isotropic vectors.
SCHEMES = {"dihedral": "rom", "haar": "rom", "isotropic": "crm"}

#: Samples per RNG chunk.  Fixed: changing it changes which Philox stream a
#: given sample draws from, and hence the (deterministic) estimates.
CHUNK_SIZE = 1 << 16

#: Numbers what a seed draws; bumped, with new pins in ``tests/test_pins.py``,
#: by every change to the numbers a given seed gives.
STREAM_VERSION = 2

#: Most chunks one run may plan: 16,384 chunks are 2**30 (about 1.07e9)
#: samples.
MAX_CHUNKS = 1 << 14
MAX_SAMPLES = MAX_CHUNKS * CHUNK_SIZE

#: Most bins of the violation-amount histogram; ``np.linspace`` and
#: ``np.histogram`` allocate every bin.
MAX_HIST_BINS = 1 << 20

#: Chunks in flight per worker thread: the threaded path holds at most this
#: many futures and results per thread before it adds the oldest to the sum.
_CHUNKS_IN_FLIGHT_PER_THREAD = 4


def measurement_class(scheme: str) -> str:
    """'rom' for orthogonal-measurement schemes, 'crm' for isotropic vectors."""
    if not isinstance(scheme, str) or scheme not in SCHEMES:  # a list is unhashable
        raise ValueError(f"unknown sampling scheme {scheme!r}")
    return SCHEMES[scheme]


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
        object.__setattr__(self, "m", as_settings_count(self.m))
        measurement_class(self.scheme)  # validates the scheme name
        if self.scheme == "dihedral" and self.m != 2:
            raise ValueError("the dihedral scheme is a two-setting construction; use haar for m = 3")
        mu_grid = tuple(as_visibility(mu) for mu in as_list("mu grid", self.mu_grid))
        if not mu_grid:
            raise ValueError("mu grid must be non-empty")
        object.__setattr__(self, "mu_grid", mu_grid)
        object.__setattr__(self, "n_samples", as_int("sample count", self.n_samples, 1, MAX_SAMPLES))
        bound_factor = as_real("bound factor", self.bound_factor, math.ulp(0.0), math.inf)
        object.__setattr__(self, "bound_factor", bound_factor)
        object.__setattr__(self, "seed", as_int("seed", self.seed, 0, 2 ** 64 - 1))


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
# chunk engine
# ---------------------------------------------------------------------------


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Counter-based generator for one chunk; distinct keys, independent streams."""
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_geometry(scheme: str, m: int, seed: int, chunk_index: int, n: int) -> np.ndarray:
    """Geometric factor per sample of one chunk: the vector-form LHS at mu = 1.

    The chunk draws one ``(k, n)`` array of uniforms, row ``j`` holding the
    ``j``-th scalar of every sample, with ``k`` as in the module docstring.
    """
    measurement_class(scheme)
    if scheme == "haar" and m == 3:
        return np.ones(n)  # orthonormal triads: |det A| = |det B| = 1
    rng = chunk_rng(seed, chunk_index)
    if scheme == "dihedral":
        return np.cos(rng.random(n) * (np.pi / 2.0))
    if scheme == "haar":
        return rng.random(n)
    # isotropic: s = sqrt(1 - c^2) = 2 sqrt(v (1 - v)) for c = 2v - 1 ~ U[-1, 1]
    uniforms = rng.random((m + 1, n))
    v_a, v_b = uniforms[0], uniforms[1]
    geom = (v_a - v_a * v_a) * (v_b - v_b * v_b)
    np.sqrt(geom, out=geom)
    geom *= 4.0
    for u in uniforms[2:]:
        geom *= u
    return geom


#: Half-width, in radians, of the band around acos(t) in which the dihedral
#: count evaluates np.cos.  Outside the band the true cosine differs from t
#: by at least 1 - cos(1e-7) = 5e-15 (cos is concave on [0, pi/2], so a
#: step of 1e-7 changes it least when the step starts at 0), far beyond the
#: few ulp of error in np.cos, in acos and in scaling the band to u; so
#: comparing u with the band's ends decides every sample as
#: np.cos(u pi/2) > t would.
_DIHEDRAL_BAND = 1e-7


def _dihedral_counts(u: np.ndarray, thresholds) -> np.ndarray:
    """Per threshold t, the samples with np.cos(u * (pi/2)) > t, counted on u.

    cos(u pi/2) > t holds for u below acos(t) / (pi/2); samples within
    :data:`_DIHEDRAL_BAND` of that edge are decided by the cosine itself.
    """
    counts = np.empty(len(thresholds), dtype=np.intp)
    for i, t in enumerate(thresholds):
        edge = math.acos(min(max(t, -1.0), 1.0))
        lo = (edge - _DIHEDRAL_BAND) / (np.pi / 2.0)
        hi = (edge + _DIHEDRAL_BAND) / (np.pi / 2.0)
        count = np.count_nonzero(u < lo)
        if np.count_nonzero(u <= hi) > count:
            near = u[(u >= lo) & (u <= hi)]
            count += np.count_nonzero(np.cos(near * (np.pi / 2.0)) > t)
        counts[i] = count
    return counts


def _chunk_plan(n_samples: int):
    n_chunks = (n_samples + CHUNK_SIZE - 1) // CHUNK_SIZE
    return [
        (c, min(CHUNK_SIZE, n_samples - c * CHUNK_SIZE))
        for c in range(n_chunks)
    ]


def _map_chunks(task, plan, n_workers: int):
    """Sum ``task`` over the plan in chunk order, on at most one thread per chunk and CPU.

    The threaded path keeps a FIFO window of
    :data:`_CHUNKS_IN_FLIGHT_PER_THREAD` futures per thread; when it is full
    the oldest result is added before the next chunk is submitted.
    """
    n_threads = min(as_int("worker count", n_workers, 1, math.inf), len(plan), os.cpu_count() or 1)
    if n_threads <= 1:
        return sum(task(c, size) for c, size in plan)
    total = 0
    in_flight = deque()
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        for c, size in plan:
            if len(in_flight) == n_threads * _CHUNKS_IN_FLIGHT_PER_THREAD:
                total += in_flight.popleft().result()
            in_flight.append(pool.submit(task, c, size))
        while in_flight:
            total += in_flight.popleft().result()
    return total


def _threshold(m: int, mu: float, factor: float) -> float:
    """The geometry a sample must exceed to violate a cell: factor * T_m / mu^m.

    inf where mu^m is 0, also when it underflows.  Where factor * T_m
    underflows, factor and mu are split into mantissa and exponent, so that
    no step leaves the normal range before the last.
    """
    if not mu ** m > 0.0:
        return math.inf
    bound = factor * DB_VECTOR_THRESHOLD[m]
    if bound >= sys.float_info.min:
        return bound / mu ** m
    (f_man, f_exp), (mu_man, mu_exp) = math.frexp(factor), math.frexp(mu)
    return math.ldexp(f_man * DB_VECTOR_THRESHOLD[m] / mu_man ** m, f_exp - m * mu_exp)


def _estimate_cells(cfg: MCConfig, factors, n_workers: int, hist_edges=None):
    """One :class:`MCEstimate` per (mu, bound factor) cell, all from one sample set.

    A sample violates a cell when its geometry exceeds factor * T_m / mu^m
    (never where mu^m is 0, also when it underflows).  With one cell each
    chunk is counted in one comparison pass, the dihedral scheme on its drawn
    angle without the cosine (:func:`_dihedral_counts`); with more cells each
    chunk sorts its geometry once and counts every threshold by binary
    search.  With ``hist_edges`` (single-mu grid) the chunk's geometry also
    gives the violation amount mu^m * geometry - factor * T_m, binned over the
    violating samples.  Each chunk returns one integer vector, its cell
    counts followed by its bin counts, and :func:`_map_chunks` sums the
    vectors in chunk order through its bounded window.

    Returns ``(estimates, bin_counts)``; ``bin_counts`` is empty without edges.
    """
    m, n_samples = cfg.m, cfg.n_samples
    cells = [(mu, factor) for mu in cfg.mu_grid for factor in factors]
    thresholds = np.array([_threshold(m, mu, factor) for mu, factor in cells])

    single = len(cells) == 1
    angle_count = single and hist_edges is None and cfg.scheme == "dihedral"

    def task(chunk_index, size):
        if angle_count:
            # the uniforms _chunk_geometry draws for dihedral, before the cosine
            return _dihedral_counts(chunk_rng(cfg.seed, chunk_index).random(size), thresholds)
        geom = _chunk_geometry(cfg.scheme, m, cfg.seed, chunk_index, size)
        if single:
            counts = np.array([np.count_nonzero(geom > thresholds[0])], dtype=np.intp)
        else:
            counts = size - np.searchsorted(np.sort(geom), thresholds, side="right")
        if hist_edges is None:
            return counts
        amounts = cfg.mu_grid[0] ** m * geom - cfg.bound_factor * DB_VECTOR_THRESHOLD[m]
        return np.concatenate((counts, np.histogram(amounts[amounts > 0.0], bins=hist_edges)[0]))

    totals = _map_chunks(task, _chunk_plan(n_samples), n_workers)
    estimates = []
    for (mu, factor), count in zip(cells, totals):
        p = count / n_samples
        stderr = math.sqrt(p * (1.0 - p) / n_samples)
        estimates.append(MCEstimate(m, cfg.scheme, mu, factor, n_samples, p, stderr))
    return estimates, totals[len(cells):]


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
    violation range (0, mu^m - factor * T_m], each at least the smallest
    normal double wide so that densities (at most 1 / width) stay finite.
    """
    if len(cfg.mu_grid) != 1:
        raise ValueError("violation_histogram needs a single-mu configuration")
    bins = as_int("histogram bin count", bins, 1, MAX_HIST_BINS)
    mu = cfg.mu_grid[0]
    max_violation = mu ** cfg.m - cfg.bound_factor * DB_VECTOR_THRESHOLD[cfg.m]
    if max_violation <= 0.0:
        raise ValueError(
            f"no attainable violation at mu = {mu} with bound factor {cfg.bound_factor}"
        )
    if not max_violation / bins >= sys.float_info.min:
        raise ValueError(f"violation range {max_violation} is too narrow for {bins} bins")
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
    bin_counts = as_array("bin_counts", bin_counts)
    # negated: a NaN count fails; below 2**53 the counts and their sum are exact
    if bin_counts.shape != edges[1:].shape or not np.all(
        (bin_counts >= 0.0) & (bin_counts < 2.0 ** 53) & (bin_counts == np.floor(bin_counts))
    ):
        raise ValueError(f"bin_counts must be {len(edges) - 1} whole counts in [0, 2**53)")
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
    factors = [as_real("bound factor", factor, math.ulp(0.0), math.inf)
               for factor in as_list("bound factors", factors)]
    if not factors:
        raise ValueError("bound factor list must be non-empty")
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
