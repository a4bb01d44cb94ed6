"""The package root and what importing a submodule loads."""

import os
import subprocess
import sys
from pathlib import Path

import noma_limits


def test_rate_layer_import_leaves_numpy_unloaded():
    # the package root re-exports nothing, so the pure-Python rate layer
    # loads without numpy and the Monte Carlo lab
    src = str(Path(noma_limits.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, noma_limits.rates; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

