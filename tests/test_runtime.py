"""The runtime is numpy-only: importing steerkit loads numpy and the standard library, nothing else."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
