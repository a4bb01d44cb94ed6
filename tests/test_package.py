"""The package root and what importing a submodule loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import noma_limits


def _loaded(module: str, names: list[str]) -> list[str]:
    """Those of ``names`` that a fresh interpreter has loaded after
    importing ``module``."""
    src = str(Path(noma_limits.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = f"import sys, {module}; print(*(n for n in {names!r} if n in sys.modules))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return run.stdout.split()


def test_rate_layer_import_leaves_numpy_unloaded():
    # the package root re-exports nothing, so the pure-Python rate layer
    # loads without numpy and the Monte Carlo lab
    assert _loaded("noma_limits.rates", ["numpy"]) == []


def test_cli_import_leaves_numpy_unloaded():
    # only `mc` and `verify` import numpy, the lab and the suite, so the
    # `curve` path never loads them
    lab = ["numpy", "noma_limits.ensemble_lab", "noma_limits.verification"]
    assert _loaded("noma_limits.cli", lab) == []


def test_cli_import_leaves_the_pool_and_ctypes_unloaded():
    # `curve` pays for every module on this path at each start: the
    # thread pool is imported only by a map on several workers, and
    # ctypes only by the lab's BLAS thread lookup
    heavy = ["concurrent.futures", "ctypes", "numpy"]
    assert _loaded("noma_limits.cli", heavy) == []


def test_benchmark_probes_bind_and_restore(monkeypatch):
    # the benchmark's probes wrap names bound in rates, cli, verification
    # and parallel; a renamed one would otherwise fail only in traced runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    probes = importlib.import_module("probes")
    tracing = importlib.import_module("tracing")
    from noma_limits import cli, rates, verification

    modules = (cli, rates, verification)
    before = [dict(vars(m)) for m in modules]
    forward = rates.spectral_efficiency
    with probes.installed(tracing.Tracer(run_id=0)):
        assert rates.spectral_efficiency is not forward
    for m, names in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in names.items())
