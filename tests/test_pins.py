"""Pinned behaviour: what a seed draws, and the public names of the package.

The violation counts below were recorded from the Monte Carlo engine and pin
its Philox streams, keyed by ``STREAM_VERSION``: any change to what a seed
draws fails here until it bumps the version and records its own pins.  The
``mc --hist`` pins, keyed the same way, hold the sha256 of the estimates CSV
and of the histogram CSV that one histogram run of each scheme writes.

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
    # version 4 draws an isotropic sample's sine factors only if its cosine
    # product can still violate; the other schemes draw what version 3 did
    4: [
        ("dihedral", 2, 1.0, [0, 42918, 57493, 66532]),
        ("haar", 2, 1.0, [0, 21890, 38378, 50087]),
        ("haar", 3, 1.0 / DB_VECTOR_THRESHOLD[3], [0, 0, 0, 100000]),
        ("isotropic", 2, 1.0, [0, 3900, 12336, 21764]),
        ("isotropic", 3, 1.0, [37, 10835, 20360, 30077]),
    ],
}


def test_stream_version_is_pinned():
    assert STREAM_VERSION in PINNED_COUNTS, (
        f"no pinned counts for STREAM_VERSION {STREAM_VERSION}; record them in PINNED_COUNTS"
    )


def test_version_4_moved_only_the_isotropic_draws():
    def kept(version):
        return [row for row in PINNED_COUNTS[version] if row[0] != "isotropic"]

    assert kept(4) == kept(3)


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


#: sha256 of the main CSV and of the ``.hist.csv`` that ``mc --hist 20`` writes
#: at mu = 0.95 (seed 2024, 100,000 samples, bound factor 1), per stream
#: version: rows of (scheme, m, class, main digest, histogram digest).
PINNED_HIST = {
    4: [
        ("dihedral", 2, "rom",
         "a925828247382a24bdc43e1a405fb802e1de373ebc0228caddce1476ea6cf5ea",
         "f0e78fb9bf06111e303c0861c425c855c544731a3900797a950b4413948b1dff"),
        ("haar", 2, "rom",
         "18c460a0969791bc0c42a7a7163ca2a0abbb6359b6837a9c8ac02cc8ba174c9d",
         "53c7d0eb9223e6c6acf5dea539106ab451c1da5cd1a066b4ece9d0f910881ac4"),
        ("haar", 3, "rom",
         "4e2a9963eb5d296dd38566991f0ea1e3b17ac37610127b050369ac6deb8a1e47",
         "2fd8ead2661d02bd5aff20e7d9a8d556c61d374608cc5bc20d7ddea4a39ef751"),
        ("isotropic", 2, "crm",
         "e3e4417c60396d2d8d525899a2be2cbf8845df7922f339f6ae7328133b6d9bb2",
         "f1b78c6ba0237391e08f5542d69a38d65cc85a97aa12251314f7ddebe3c2018b"),
        ("isotropic", 3, "crm",
         "5a291af89bd19159c6d34a8213149ad041ff461832951a1481515cffff4014c7",
         "76b750841ff6ed73ab68a572235bd193902c7d7605473f4be2c3f9412937868b"),
    ],
}


def test_hist_stream_version_is_pinned():
    assert STREAM_VERSION in PINNED_HIST, (
        f"no pinned mc --hist digests for STREAM_VERSION {STREAM_VERSION}; record them"
    )


@pytest.mark.parametrize("scheme, m, mc_class, main_digest, hist_digest",
                         PINNED_HIST.get(STREAM_VERSION, []))
def test_mc_hist_output_pinned(tmp_path, scheme, m, mc_class, main_digest, hist_digest):
    out = tmp_path / "mc.csv"
    argv = ["mc", "--m", str(m), "--class", mc_class, "--scheme", scheme, "--mu-grid", "0.95",
            "--samples", "100000", "--seed", "2024", "--hist", "20", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == main_digest
    hist = tmp_path / "mc.csv.hist.csv"
    assert hashlib.sha256(hist.read_bytes()).hexdigest() == hist_digest


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
