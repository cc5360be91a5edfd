"""The benchmark tracer can still hook every steerkit name it wraps.

``perfbench/tracing.py`` patches wrappers onto module attributes of the
package, some of them private.  Installing it here makes a change that
renames or deletes a hooked name fail in the unit suite, not only in the
benchmark's own smoke run, and so does a change to what a hooked function
returns that the tracer's wrappers do not pass through.
"""

import importlib.util
from pathlib import Path

import pytest

from steerkit import cli, criteria, entropy, expio, montecarlo, qcore

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_current_package():
    modules = (cli, criteria, entropy, expio, montecarlo, qcore, qcore.JointTable)
    before = [dict(vars(module)) for module in modules]
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert any(vars(module) != snapshot for module, snapshot in zip(modules, before))
    finally:
        tracer.uninstall()
    assert [dict(vars(module)) for module in modules] == before


def test_traced_runs_return_the_untraced_estimates(monkeypatch):
    # the tracer wraps _map_chunks and each chunk task; the summed counts pass
    # through, and a histogram's pass records its tasks as hist_task spans
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    n_samples = 20 * montecarlo.CHUNK_SIZE + 7
    grid = montecarlo.MCConfig(2, "isotropic", (0.8, 0.9, 1.0), n_samples, seed=5)
    point = montecarlo.MCConfig(2, "dihedral", (0.95,), n_samples, seed=6)
    haar = montecarlo.MCConfig(2, "haar", (0.9,), n_samples, seed=7)
    expected_haar = montecarlo.violation_probability(haar, n_workers=2)
    expected_grid = montecarlo.violation_probability(grid, n_workers=2)
    expected_point = montecarlo.violation_histogram(point, 10, n_workers=2)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        with tracer.job():
            traced_grid = montecarlo.violation_probability(grid, n_workers=2)
            traced_point = montecarlo.violation_histogram(point, 10, n_workers=2)
        with tracer.job():  # a single haar pair cell, counted on the raw words
            traced_haar = montecarlo.violation_probability(haar, n_workers=2)
    finally:
        tracer.uninstall()
    assert traced_grid == expected_grid
    assert traced_point.estimate == expected_point.estimate
    assert traced_point.n_violations == expected_point.n_violations
    assert traced_point.bin_edges.tolist() == expected_point.bin_edges.tolist()
    assert traced_point.density.tolist() == expected_point.density.tolist()
    assert tracer.jobs[0]["count:montecarlo.count_task"] == 21
    assert tracer.jobs[0]["count:montecarlo.hist_task"] == 21
    assert traced_haar == expected_haar
    assert tracer.jobs[1]["count:montecarlo.count_task"] == 21


def test_traced_analyze_writes_the_untraced_bytes(tmp_path):
    # the tracer splits expio.errors into bootstrap and jitter at the first
    # expio._jittered_vector span; the jitter draws whole batches and calls it
    # only where an axis has norm 0, so the whole span reads as bootstrap
    alice, bob = qcore.mub_settings(2, 10.0, 20.0)
    counts = tmp_path / "counts.csv"
    expio.write_counts(expio.synthesize_counts(0.9, alice, bob, 5000, seed=4), counts)
    bootstrap = 50
    argv = ["analyze", "--input", str(counts), "--criteria", "shannon,tsallis2,renyi,db",
            "--bootstrap", str(bootstrap), "--jitter", "0.1", "--seed", "3", "--out"]
    assert cli.main(argv + [str(tmp_path / "untraced.json")]) == 0
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        with tracer.job(settings=2, bootstrap=bootstrap):
            assert cli.main(argv + [str(tmp_path / "traced.json")]) == 0
    finally:
        tracer.uninstall()
    untraced = (tmp_path / "untraced.json").read_bytes()
    assert (tmp_path / "traced.json").read_bytes() == untraced
    job = tracer.jobs[0]
    assert job["count:expio.errors"] == 1 and job["bootstrap_phase"] > 0.0


@pytest.mark.parametrize("argv", [
    ["--m", "2", "--mode", "mub", "--format", "json"],
    ["--m", "3", "--mode", "nom", "--criteria", "shannon,tsallis2,db"],
])
def test_traced_sweep_writes_the_untraced_bytes(tmp_path, argv):
    # the whole grid is one criteria.sweep span, whatever its length and criteria
    argv = ["sweep", *argv, "--mu", "0.9733", "--phi", "20", "--alpha-grid", "0:90:1", "--out"]
    assert cli.main(argv + [str(tmp_path / "untraced")]) == 0
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        with tracer.job():
            assert cli.main(argv + [str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    assert (tmp_path / "traced").read_bytes() == (tmp_path / "untraced").read_bytes()
    assert tracer.jobs[0]["count:criteria.sweep"] == 1
