import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tracing import Trace, Tracer


def _trace(rows, names):
    ids, name, parent, start, end = (np.array(c) for c in zip(*rows))
    return Trace(run_id=0, names=names, ids=ids, name=name, parent=parent,
                 start=start.astype(float), end=end.astype(float), counts={})


def test_self_time_counts_overlapping_pool_children_once():
    # map [0, 10] runs two pool tasks on two threads, [1, 6] and [2, 9];
    # the first task nests a child [3, 5]
    trace = _trace([
        (0, 0, -1, 0.0, 10.0),
        (1, 1, 0, 1.0, 6.0),
        (2, 1, 0, 2.0, 9.0),
        (3, 2, 1, 3.0, 5.0),
    ], ["map", "task", "leaf"])
    self_t = trace.self_times()
    # union of [1, 6] and [2, 9] is [1, 9]: 8 of the map's 10 seconds
    assert self_t.tolist() == pytest.approx([2.0, 3.0, 7.0, 2.0])


def test_self_time_clips_children_to_the_parent():
    trace = _trace([(0, 0, -1, 0.0, 4.0), (1, 1, 0, 3.0, 6.0), (2, 1, 0, 0.5, 1.0)],
                   ["outer", "inner"])
    assert trace.self_times().tolist() == pytest.approx([2.5, 3.0, 0.5])


def test_pool_threads_nest_under_the_submitting_span():
    tracer = Tracer(run_id=7)
    barrier = threading.Barrier(2, timeout=10)

    def task(i):
        with tracer.span("task", parent=map_span):
            barrier.wait()  # both tasks open at once, on two threads
            with tracer.span("leaf"):
                time.sleep(0.01)
        return i

    with tracer.span("map") as map_span:
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(task, range(2))) == [0, 1]
    trace = tracer.collect()
    names = [trace.names[i] for i in trace.name]
    by_id = dict(zip(trace.ids.tolist(), names))
    parents = {n: [] for n in ("map", "task", "leaf")}
    for n, p in zip(names, trace.parent.tolist()):
        parents[n].append(by_id.get(p))
    assert parents == {"map": [None], "task": ["map", "map"], "leaf": ["task", "task"]}
    tasks = trace.select(lambda n: n == "task")
    m = trace.select(lambda n: n == "map")
    # the barrier holds both tasks open at once, so they cover one
    # interval, and the map's self time is what lies outside it
    covered = trace.end[tasks].max() - trace.start[tasks].min()
    assert covered < trace.durations()[tasks].sum()
    assert trace.self_times()[m][0] == pytest.approx(trace.durations()[m][0] - covered)


def test_within_follows_ancestors():
    trace = _trace([(0, 0, -1, 0, 9), (1, 1, 0, 1, 8), (2, 2, 1, 2, 3), (3, 2, -1, 10, 11)],
                   ["outer", "mid", "leaf"])
    leaf = trace.select(lambda n: n == "leaf")
    outer = trace.select(lambda n: n == "outer")
    mid = trace.select(lambda n: n == "mid")
    assert trace.within(leaf, outer).tolist() == [False, False, True, False]
    assert trace.within(leaf, outer, direct=True).tolist() == [False] * 4
    assert trace.within(leaf, mid, direct=True).tolist() == [False, False, True, False]
