"""Pinned behaviour: what a seed draws, and the public names of the package.

The violation counts below were recorded from the Monte Carlo engine and pin
its Philox streams: any change to what a seed draws fails here.
"""

import pytest

import steerkit
from steerkit.criteria import DB_VECTOR_THRESHOLD
from steerkit.montecarlo import MCConfig, violation_probability

PINNED_MU_GRID = (0.6, 0.8, 0.9, 1.0)


@pytest.mark.parametrize(
    "scheme, m, bound_factor, counts",
    [
        ("dihedral", 2, 1.0, [0, 43055, 57681, 66703]),
        ("haar", 2, 1.0, [0, 21859, 38536, 50220]),
        # |det A| |det B| is 1 up to rounding; a threshold within rounding
        # of 1 (at mu = 1) pins the rounding of every sample
        ("haar", 3, 1.0 / DB_VECTOR_THRESHOLD[3], [0, 0, 0, 53864]),
        ("isotropic", 2, 1.0, [0, 3990, 12407, 21633]),
        ("isotropic", 3, 1.0, [30, 10802, 20299, 29955]),
    ],
)
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
