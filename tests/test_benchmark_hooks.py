"""The benchmark tracer can still hook every steerkit name it wraps.

``perfbench/tracing.py`` patches wrappers onto module attributes of the
package, some of them private.  Installing it here makes a change that
renames or deletes a hooked name fail in the unit suite, not only in the
benchmark's own smoke run, and so does a change to what a hooked function
returns that the tracer's wrappers do not pass through.
"""

import importlib.util
from pathlib import Path

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
