"""The benchmark tracer can still hook every steerkit name it wraps.

``perfbench/tracing.py`` patches wrappers onto module attributes of the
package, some of them private.  Installing it here makes a change that
renames or deletes a hooked name fail in the unit suite, not only in the
benchmark's own smoke run.
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
