"""Pinned behaviour: what a seed draws, and the public names of the package.

The violation counts below were recorded from the Monte Carlo engine and pin
its Philox streams, keyed by ``STREAM_VERSION``: any change to what a seed
draws fails here until it bumps the version and records its own pins.
"""

import pytest

import steerkit
from steerkit.criteria import DB_VECTOR_THRESHOLD
from steerkit.montecarlo import STREAM_VERSION, MCConfig, violation_probability

PINNED_MU_GRID = (0.6, 0.8, 0.9, 1.0)

#: Violation counts at PINNED_MU_GRID (seed 2024, 100,000 samples), per
#: stream version: rows of (scheme, m, bound factor, counts).
PINNED_COUNTS = {
    2: [
        ("dihedral", 2, 1.0, [0, 42991, 57571, 66582]),
        ("haar", 2, 1.0, [0, 21863, 38371, 49985]),
        # haar m=3 draws nothing: the factor is exactly 1, and the threshold
        # (1/T_3) T_3 / mu^3 rounds to 1 - 2^-53 at mu = 1, so every sample
        # violates there and none below; this pins the strict comparison
        ("haar", 3, 1.0 / DB_VECTOR_THRESHOLD[3], [0, 0, 0, 100000]),
        ("isotropic", 2, 1.0, [0, 3815, 12334, 21440]),
        ("isotropic", 3, 1.0, [34, 10621, 20236, 29946]),
    ],
}


def test_stream_version_is_pinned():
    assert STREAM_VERSION in PINNED_COUNTS, (
        f"no pinned counts for STREAM_VERSION {STREAM_VERSION}; record them in PINNED_COUNTS"
    )


@pytest.mark.parametrize("scheme, m, bound_factor, counts", PINNED_COUNTS.get(STREAM_VERSION, []))
def test_violation_counts_pinned(scheme, m, bound_factor, counts):
    cfg = MCConfig(
        m=m,
        scheme=scheme,
        mu_grid=PINNED_MU_GRID,
        n_samples=100_000,
        bound_factor=bound_factor,
        seed=2024,
    )
    estimates = violation_probability(cfg)
    assert [round(est.p_violation * est.n_samples) for est in estimates] == counts


def test_public_names_resolve():
    missing = [name for name in steerkit.__all__ if not hasattr(steerkit, name)]
    assert missing == []
