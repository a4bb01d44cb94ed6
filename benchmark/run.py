#!/usr/bin/env python3
"""Benchmark of noma_limits: end-to-end timings, or per-layer spans.

Run from the root of a source checkout:

    python3 benchmark/run.py                      # all workloads, one fresh process each
    python3 benchmark/run.py --workload points --seed 3 --seconds 20 --trace 0

With ``--workload`` the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The program is imported from ``src/`` of the checkout
and never from an installed copy; without it the benchmark exits 1
and prints no result.
See ``benchmark/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from workloads import WORKLOADS, passes_for, probe_latency  # noqa: E402

SETUP_SPAWNS = 5
# the first round of a process runs cold (allocator, page faults); with
# three rounds or more the median is a warm one
MIN_ROUNDS = 3
SPAWN_TIMEOUT_S = 120


def unit_of(metric: str) -> str:
    """Unit of a metric, read from its name."""
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_mb", "MB"), ("per_s", "1/s"),
                         ("efficiency", "frac"), ("_s", "s"), (".s", "s")):
        if metric.endswith(suffix):
            return unit
    if "_us." in metric:
        return "us"
    return "count"


def _import_program() -> None:
    """Put the checkout's src/ first on the path and make sure the
    program imported is the one there."""
    if not (SRC / "noma_limits" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program at {SRC / 'noma_limits'}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import noma_limits

    where = Path(noma_limits.__file__).resolve().parent
    if where != SRC / "noma_limits":
        sys.exit(f"benchmark: imported noma_limits from {where}, not {SRC}")


def _setup_probe(workload: str, seed: int) -> None:
    """Child process: set up, then announce that the first op can run."""
    _import_program()
    WORKLOADS[workload]().prepare(seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from spawning a fresh interpreter to the moment
    its first op could run, imports included.  One untimed spawn first
    writes bytecode caches and warms the file cache."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=SPAWN_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"benchmark: setup probe exited {proc.returncode}")
        if i:
            times.append(ready - t0)
    return stats.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_round(work):
    w0, c0 = time.perf_counter(), time.process_time()
    out = work.run_round()
    return out, time.perf_counter() - w0, time.process_time() - c0


def run_end_to_end(work, seed: int, seconds: float) -> tuple[dict, list, dict]:
    setup_s = measure_setup(work.name, seed)
    work.prepare(seed)
    rounds, walls, cpus, lat = [], [], [], []
    probing, probe = not hasattr(work, "latencies"), None
    start = time.perf_counter()
    # whole rounds only, so failed ops are the same share of every run
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        out, wall, cpu = _timed_round(work)
        rounds.append(out)
        walls.append(wall)
        cpus.append(cpu)
        if not probing:
            continue
        # sweep and verify-full make no single-point calls of their own:
        # time forward calls at their operating points between rounds,
        # so the samples span the run as the points workload's do
        if probe is None:
            probe = work.probe_points(rounds)
        lat += probe_latency(probe, passes_for(len(probe) * MIN_ROUNDS))
    peak = _peak_rss_mb()
    if not probing:
        lat = work.latencies(rounds)
    metrics = {
        "setup_s": setup_s,
        "wall_s": stats.median(walls),
        "cpu_s": stats.median(cpus),
        "peak_rss_mb": peak,
        "point_p50_us": stats.percentile(lat, 50) * 1e6,
        "point_p99_us": stats.percentile(lat, 99) * 1e6,
    }
    detail = {"rounds": len(rounds), "round_wall_s": walls, "round_cpu_s": cpus,
              "latency_samples": len(lat)}
    return metrics, rounds, detail


def run_traced(work, seed: int) -> tuple[dict, list, dict]:
    from probes import installed, layer_metrics
    from tracing import Tracer

    work.prepare(seed)
    before, before_wall, _ = _timed_round(work)
    tracer = Tracer(run_id=seed)
    with installed(tracer):
        traced, traced_wall, _ = _timed_round(work)
    after, after_wall, _ = _timed_round(work)
    plain_wall = (before_wall + after_wall) / 2
    trace = tracer.collect()
    metrics = layer_metrics(trace)
    # untraced rounds on both sides of the traced one cancel a slow drift
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    RESULTS.mkdir(exist_ok=True)
    trace.save(RESULTS / f"trace-{work.name}-seed{seed}.npz")
    detail = {"spans": len(trace), "plain_wall_s": [before_wall, after_wall],
              "traced_wall_s": traced_wall}
    return metrics, [before, traced, after], detail


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    work = WORKLOADS[name]()
    if trace:
        metrics, rounds, detail = run_traced(work, seed)
    else:
        metrics, rounds, detail = run_end_to_end(work, seed, seconds)
    verdict = work.check(rounds)
    for problem in verdict.problems[:20]:
        print(f"benchmark: {name}: {problem}", file=sys.stderr)
    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=name, seed=seed, trace=trace, faults=verdict.faults,
                  problems=verdict.problems[:100], detail=detail)
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"faults {json.dumps(verdict.faults, sort_keys=True)}; detail in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, then one table per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        if len(lines) > 1:
            print(f"   {lines[-2]}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:44s} {m['value']:>16.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="noma_limits benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase; whole rounds only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced round")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
