"""In-memory span recorder and the self-time arithmetic over its spans.

A span is (id, name, parent, start, end).  Each thread keeps its own
stack of open spans, so spans opened by pool workers nest under the span
that submitted the work when that parent is passed explicitly.  Spans
and counters are appended to per-thread buffers, which are merged only
when the run ends; no lock is taken on the hot path.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_FIELDS = 5  # id, name index, parent id, start, end


class Tracer:
    """Records spans and named counters for one run."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self._ids = itertools.count()
        self._names: dict[str, int] = {}
        self._names_lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[tuple[array, defaultdict]] = []

    def _state(self):
        local = self._local
        try:
            return local.stack, local.spans, local.counts
        except AttributeError:
            local.stack, local.spans, local.counts = [], array("d"), defaultdict(float)
            # list.append is atomic, so each new thread registers itself
            self._buffers.append((local.spans, local.counts))
            return local.stack, local.spans, local.counts

    def name_id(self, name: str) -> int:
        nid = self._names.get(name)
        if nid is None:
            with self._names_lock:
                nid = self._names.setdefault(name, len(self._names))
        return nid

    def open(self, name: str, parent: int | None = None) -> tuple[int, int, float]:
        stack, _, _ = self._state()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else -1
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, name: str, handle: tuple[int, int, float]) -> float:
        end = time.perf_counter()
        stack, spans, _ = self._state()
        sid, parent, start = handle
        stack.pop()
        spans.extend((sid, self.name_id(name), parent, start, end))
        return end - start

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        handle = self.open(name, parent)
        try:
            yield handle[0]
        finally:
            self.close(name, handle)

    def count(self, key: str, n: float = 1) -> None:
        self._state()[2][key] += n

    def collect(self) -> "Trace":
        """Merge every thread's buffer; call once the traced work has ended."""
        spans = array("d")
        counts: dict[str, float] = defaultdict(float)
        for buf, c in self._buffers:
            spans.extend(buf)
            for k, v in c.items():
                counts[k] += v
        table = np.frombuffer(spans, dtype=float).reshape(-1, _FIELDS)
        table = table[np.argsort(table[:, 0], kind="stable")]
        names = sorted(self._names, key=self._names.get)
        return Trace(run_id=self.run_id, names=names,
                     ids=table[:, 0].astype(np.int64),
                     name=table[:, 1].astype(np.int64),
                     parent=table[:, 2].astype(np.int64),
                     start=table[:, 3].copy(), end=table[:, 4].copy(),
                     counts=dict(counts))


@dataclass
class Trace:
    """Closed spans of one run as columns, sorted by span id."""

    run_id: int
    names: list[str]
    ids: np.ndarray
    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    counts: dict[str, float]

    def __len__(self) -> int:
        return len(self.ids)

    def select(self, predicate) -> np.ndarray:
        """Row mask of the spans whose name satisfies ``predicate``."""
        wanted = [i for i, n in enumerate(self.names) if predicate(n)]
        return np.isin(self.name, wanted)

    def durations(self) -> np.ndarray:
        return self.end - self.start

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the part of it that its direct
        children cover; overlapping children (pool workers) are counted
        once, as the length of the union of their intervals."""
        row_of = {int(s): i for i, s in enumerate(self.ids)}
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p >= 0 and int(p) in row_of:
                children[row_of[int(p)]].append(i)
        out = self.durations().copy()
        for row, kids in children.items():
            lo, hi = self.start[row], self.end[row]
            intervals = sorted((max(lo, self.start[k]), min(hi, self.end[k])) for k in kids)
            covered = 0.0
            cur_a = cur_b = None
            for a, b in intervals:
                if b <= a:
                    continue
                if cur_b is None or a > cur_b:
                    if cur_b is not None:
                        covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                else:
                    cur_b = max(cur_b, b)
            if cur_b is not None:
                covered += cur_b - cur_a
            out[row] -= covered
        return out

    def within(self, inner: np.ndarray, outer: np.ndarray, direct: bool = False) -> np.ndarray:
        """Mask of ``inner`` rows whose parent (``direct``) or some
        ancestor lies in the ``outer`` rows."""
        outer_ids = set(self.ids[outer].tolist())
        parent_of = dict(zip(self.ids.tolist(), self.parent.tolist()))
        hit = np.zeros(len(self.ids), dtype=bool)
        for row in np.flatnonzero(inner):
            p = int(self.parent[row])
            while p >= 0:
                if p in outer_ids:
                    hit[row] = True
                    break
                if direct:
                    break
                p = parent_of.get(p, -1)
        return hit

    def save(self, path) -> None:
        np.savez(path, run=np.full(len(self.ids), self.run_id), id=self.ids,
                 parent=self.parent, name=self.name, start=self.start, end=self.end,
                 names=np.array(self.names))
