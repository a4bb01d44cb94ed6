"""The package root and what importing a submodule loads."""

import os
import subprocess
import sys
from pathlib import Path

import noma_limits


def _loads_numpy(module: str) -> bool:
    src = str(Path(noma_limits.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = f"import sys, {module}; sys.exit('numpy' in sys.modules)"
    return subprocess.run([sys.executable, "-c", code], env=env).returncode != 0


def test_rate_layer_import_leaves_numpy_unloaded():
    # the package root re-exports nothing, so the pure-Python rate layer
    # loads without numpy and the Monte Carlo lab
    assert not _loads_numpy("noma_limits.rates")


def test_cli_import_leaves_numpy_unloaded():
    # only `mc` and `verify` import numpy, the lab and the suite
    assert not _loads_numpy("noma_limits.cli")

