"""Short runs of the benchmark command itself."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd, *args, timeout=600):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def _result(workload, seed, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == KEYS
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_run_reports_every_metric(workload):
    result = _result(workload, seed=1, trace=0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload != "points":
        assert result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_repeat_every_count():
    a, b = _result("points", seed=1, trace=1), _result("points", seed=2, trace=1)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in a["metrics"].items()} == units
    counts = [k for k, u in units.items() if u == "count"]
    assert counts
    assert {k: a["metrics"][k]["value"] for k in counts} == \
        {k: b["metrics"][k]["value"] for k in counts}
    assert a["failed"] / a["attempted"] == b["failed"] / b["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "--workload", "points", "--seed", "1", "--seconds", "1",
                "--trace", "0", timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
