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
    # the tracer wraps _map_chunks and each chunk task; the summed counts pass through
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    n_samples = 20 * montecarlo.CHUNK_SIZE + 7
    grid = montecarlo.MCConfig(2, "isotropic", (0.8, 0.9, 1.0), n_samples, seed=5)
    point = montecarlo.MCConfig(2, "dihedral", (0.95,), n_samples, seed=6)
    expected_grid = montecarlo.violation_probability(grid, n_workers=2)
    expected_point, expected_bins = montecarlo.violation_probability(point, n_workers=2, hist_bins=10)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        with tracer.job():
            traced_grid = montecarlo.violation_probability(grid, n_workers=2)
            traced_point, traced_bins = montecarlo.violation_probability(
                point, n_workers=2, hist_bins=10
            )
    finally:
        tracer.uninstall()
    assert traced_grid == expected_grid
    assert traced_point == expected_point
    assert traced_bins.tolist() == expected_bins.tolist()
    assert tracer.jobs[0]["count:montecarlo.count_task"] == 2 * 21


def test_traced_analyze_writes_the_untraced_bytes(tmp_path):
    # the jitter draws each direction through expio._jittered_vector, and the
    # tracer splits expio.errors into bootstrap and jitter at the first of them
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
    assert job["jitter_vectors"] == 2 * bootstrap
    assert job["bootstrap_phase"] > 0.0 and job["jitter_phase"] > 0.0


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
