"""Order statistics under the rule the benchmark reports by: a tail
percentile is reported only when at least ten samples lie beyond it."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def samples_beyond(n: int, pct: int) -> int:
    """Samples above the nearest-rank ``pct``-th percentile of ``n``."""
    return n - -(-pct * n // 100)


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile for an integer ``pct`` in 1..99.

    Raises ValueError when fewer than ten samples lie beyond it, since
    such a figure would describe a handful of calls, not a tail.
    """
    if not 0 < pct < 100:
        raise ValueError(f"pct must lie in 1..99, got {pct}")
    n = len(values)
    beyond = samples_beyond(n, pct)
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{pct} of {n} samples has {beyond} beyond it; "
                         f"at least {MIN_BEYOND} are needed")
    ordered = sorted(values)
    return ordered[n - beyond - 1]


def median(values) -> float:
    return float(statistics.median(values))
