"""The runtime is numpy-only: importing steerkit loads numpy and the standard library, nothing else."""

import os
import subprocess
import sys

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
