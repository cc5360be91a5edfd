"""Pinned behaviour: what a seed draws, and the public names of the package.

The violation counts below were recorded from the Monte Carlo engine and pin
its Philox streams, keyed by ``STREAM_VERSION``: any change to what a seed
draws fails here until it bumps the version and records its own pins.

The ``analyze`` pins hold the sha256 of the JSON that fixed counts files and
seeds print, keyed by ``BUDGET_STREAM_VERSION``, so any change to the
bootstrap or jitter draws, or to the arithmetic of the error budget, fails
here too.
"""

import hashlib
from dataclasses import replace

import pytest

import steerkit
from steerkit import cli
from steerkit.criteria import DB_VECTOR_THRESHOLD
from steerkit.expio import BUDGET_STREAM_VERSION
from steerkit.montecarlo import STREAM_VERSION, MCConfig, violation_probability

PINNED_MU_GRID = (0.6, 0.8, 0.9, 1.0)

#: Violation counts at PINNED_MU_GRID (seed 2024, 100,000 samples), per
#: stream version: rows of (scheme, m, bound factor, counts).
PINNED_COUNTS = {
    3: [
        ("dihedral", 2, 1.0, [0, 42918, 57493, 66532]),
        ("haar", 2, 1.0, [0, 21890, 38378, 50087]),
        # haar m=3 draws nothing: the factor is exactly 1, and the threshold
        # (1/T_3) T_3 / mu^3 rounds to 1 - 2^-53 at mu = 1, so every sample
        # violates there and none below; this pins the strict comparison
        ("haar", 3, 1.0 / DB_VECTOR_THRESHOLD[3], [0, 0, 0, 100000]),
        ("isotropic", 2, 1.0, [0, 3871, 12235, 21645]),
        ("isotropic", 3, 1.0, [34, 10596, 20189, 29761]),
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
    # a one-point grid counts without the grid's sort, sample for sample the same
    singles = [violation_probability(replace(cfg, mu_grid=(mu,)))[0] for mu in PINNED_MU_GRID]
    assert [round(est.p_violation * est.n_samples) for est in singles] == counts


def test_public_names_resolve():
    missing = [name for name in steerkit.__all__ if not hasattr(steerkit, name)]
    assert missing == []


#: Counts files for the analyze pins: per setting, the vector columns
#: ax,ay,az,bx,by,bz as written (None for a file without them, whose
#: directions ``--mode`` attaches) and the counts of the outcome pairs
#: (+1,+1), (+1,-1), (-1,+1), (-1,-1).
ANALYZE_FILES = {
    "m2": [
        ("0.24321034680169396,0.088521326901376859,0.96592582628906831,0,0,1", (105, 1936, 1872, 111)),
        ("0.90767337119036873,0.33036608954935215,-0.25881904510252074,1,0,0", (148, 1812, 1845, 145)),
    ],
    "m3": [
        ("0.1503837331804353,0.086824088833465152,0.98480775301220802,0,0,1", (100, 2898, 2923, 96)),
        ("-0.49999999999999994,0.86602540378443871,0,0,1,0", (275, 2714, 2791, 254)),
        ("0.85286853195244328,0.49240387650610395,-0.17364817766693033,1,0,0", (285, 2736, 2632, 285)),
    ],
    "zero-cell": [
        ("0.087155742747658166,0,0.99619469809174555,0,0,1", (0, 192, 180, 6)),
        ("0.99619469809174555,0,-0.087155742747658166,1,0,0", (3, 238, 204, 6)),
    ],
    "bare-m2": [(None, (165, 1873, 1836, 142)), (None, (183, 1796, 1935, 165))],
    "bare-m3": [
        (None, (219, 2689, 2769, 243)), (None, (352, 2620, 2601, 378)),
        (None, (454, 2522, 2525, 418)),
    ],
}

#: (file, flags, sha256 of the JSON analyze prints), per budget stream version.
ANALYZE_PINS = {2: [
    ("m2", ["--criteria", "shannon,tsallis2,renyi,db", "--bootstrap", "200", "--jitter", "0.1",
            "--seed", "11"],
     "a81a4135762e30ecaef95fa2bb1f9d8b5cdb2ee977afc740a47e2f84c1386e1c"),
    ("m3", ["--criteria", "shannon,tsallis2,db", "--bootstrap", "200", "--jitter", "0.1",
            "--seed", "12"],
     "f566ac46463a0db8a47e111b92437da0ffd01f0257b3015e88192273f800f875"),
    ("zero-cell", ["--criteria", "shannon,tsallis2,renyi,db", "--bootstrap", "200",
                   "--jitter", "0.1", "--seed", "13"],
     "8163aeac003c57a0fe1ab119115c379c91203cc65f21510abfaf441398745584"),
    ("bare-m2", ["--criteria", "shannon,tsallis2,renyi,db", "--bootstrap", "200",
                 "--jitter", "0.1", "--seed", "14", "--mode", "mub", "--alpha", "20",
                 "--phi", "10"],
     "c3a4163a5d8fde0040a23d81ef1334666ace82ca6b3246dfd45d192e9ba01438"),
    ("bare-m3", ["--criteria", "shannon,tsallis2,db", "--bootstrap", "200", "--jitter", "0.1",
                 "--seed", "15", "--mode", "nom"],
     "4b8685a3a3de0771d4e28e3baf3684221d01fa20fae809990770505290dd1124"),
]}


def test_budget_stream_version_is_pinned():
    assert BUDGET_STREAM_VERSION in ANALYZE_PINS, (
        f"no analyze pins for BUDGET_STREAM_VERSION {BUDGET_STREAM_VERSION}; record them"
    )


@pytest.mark.parametrize("name, flags, digest", ANALYZE_PINS.get(BUDGET_STREAM_VERSION, []))
def test_analyze_output_pinned(tmp_path, name, flags, digest):
    bare = ANALYZE_FILES[name][0][0] is None
    lines = ["setting,a,b,counts" + ("" if bare else ",ax,ay,az,bx,by,bz")]
    for setting, (vectors, counts) in enumerate(ANALYZE_FILES[name], start=1):
        outcomes = ("+1,+1", "+1,-1", "-1,+1", "-1,-1")
        lines += [f"{setting},{ab},{n}" + ("" if bare else f",{vectors}")
                  for ab, n in zip(outcomes, counts)]
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.json"
    assert cli.main(["analyze", "--input", str(counts_path), "--out", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
