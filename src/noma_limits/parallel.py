"""Thread fan-out control.

NOMA_LIMITS_THREADS caps worker threads for the two places where
threads pay: ``curve`` maps over a sweep's schemes, and the
matched-filter Monte Carlo (``ensemble_lab.mc_sumf_rate``, so ``mc sumf``
and verify criterion 8) runs its keyed sample blocks on worker slots,
where numpy's generator fills and ufuncs release the GIL.  Unset, empty,
or 0 means one worker per CPU this process may run on; 1 forces serial
execution.  Results are always reduced in input order, or by an exactly
rounded sum, so the thread count never changes any output bit.

The thread pool is imported only when a map runs on more than one
worker, so importing the CLI loads neither ``concurrent.futures`` nor
the ``logging`` it pulls in.  numpy's BLAS threads are not these
workers and this variable does not set them; the dense log-det
(``ensemble_lab.mc_ds_fading_logdet``) holds them at one for its small
Grams.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import DomainError

_T = TypeVar("_T")
_R = TypeVar("_R")

ENV_VAR = "NOMA_LIMITS_THREADS"


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one (a pinned or cgroup-limited process sees fewer than the
    machine has), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def thread_count() -> int:
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return _usable_cpus()
    try:
        n = int(raw)
    except ValueError:
        raise DomainError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if n < 0:
        raise DomainError(f"{ENV_VAR} must be >= 0, got {n}")
    return n if n > 0 else _usable_cpus()


def thread_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """Map preserving order; runs serially unless more than one worker
    is allowed and there is more than one item."""
    seq: Sequence[_T] = list(items)
    workers = min(thread_count(), len(seq))
    if workers <= 1:
        return [fn(x) for x in seq]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seq))
