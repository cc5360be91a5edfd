"""The runtime is numpy-only: importing steerkit loads numpy and the standard library, nothing else.

Also the suite's own rules: a failing property test is reported and the rest still run, CLI
tests call ``cli.main`` in process, and every property test runs on ``conftest.py``'s profile.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hypothesis

import steerkit

#: Run in a fresh interpreter: numpy first, since the site setup and numpy may
#: load third-party modules of their own, then the package and its CLI.
PROBE = """
import sys
import numpy
before = set(sys.modules)
import steerkit, steerkit.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_steerkit_imports_nothing_past_numpy_and_the_standard_library():
    src = os.path.dirname(os.path.dirname(os.path.abspath(steerkit.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), check=True)
    loaded = result.stdout.split()
    assert "steerkit.cli" in loaded
    foreign = [name for name in loaded if name.partition(".")[0] != "steerkit"
               and name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def _functions_naming(tree, name):
    """The innermost function around each reference to ``name``, '' at module level."""
    def visit(node, owner):
        if (isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.alias) and name in (node.name, node.asname)):
            yield owner
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)
    return list(visit(tree, ""))


def test_only_the_array_rule_and_libm_pow_convert_arrays_with_numpy():
    # every other array input goes through qcore.as_array, as_probabilities or as_counts
    found = []
    for path in sorted(Path(steerkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.stem}.{owner}" for owner in _functions_naming(tree, "asarray")]
    assert found == ["entropy.libm_pow", "qcore.as_array"]


#: A test file with one failing property test and one passing test.
FAILING_PROPERTY = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 0

def test_passes():
    pass
"""


def test_a_failing_property_test_reports_and_the_rest_still_run(tmp_path):
    # hypothesis imports libcst to explain a failure, and libcst's import-time
    # DeprecationWarning, made an error by the repo's filters, ended the run
    # with INTERNALERROR before the passing test ran
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "pyproject.toml").write_text((root / "pyproject.toml").read_text())
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "test_probe.py"], capture_output=True, text=True, cwd=tmp_path)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert "Falsifying example: test_fails(" in result.stdout


#: Where tests/ references subprocess: the imports, the CLI tests whose property is the
#: process itself, the import probe and the failing-property run.
PROCESS_TESTS = {
    "test_cli.py": {"", "run_python_m_steerkit"},
    "test_runtime.py": {"", "test_steerkit_imports_nothing_past_numpy_and_the_standard_library",
                        "test_a_failing_property_test_reports_and_the_rest_still_run"},
}


def test_tier_one_runs_each_thing_one_way():
    # the CLI in process but for the named process tests, and every property test on the
    # fixed-example profile of conftest.py with only its own max_examples
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(__file__).parent.glob("*.py"))}
    uses = {name: set(_functions_naming(tree, "subprocess")) for name, tree in trees.items()}
    assert {name: owners for name, owners in uses.items() if owners} == PROCESS_TESTS
    assert set(_functions_naming(trees["test_cli.py"], "run_python_m_steerkit")) == {
        "test_byte_determinism", "test_version"}
    knobs = [(name, keyword.arg) for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and "settings" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
             for keyword in node.keywords if keyword.arg in ("derandomize", "deadline", "database")]
    assert knobs == []
    assert hypothesis.settings.default.derandomize is True
    assert hypothesis.settings.default.deadline is None
