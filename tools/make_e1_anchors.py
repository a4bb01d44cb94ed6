#!/usr/bin/env python3
"""Rebuild the anchor table of the order-1 exponential-integral kernel.

``numerics`` evaluates f(x) = e^x E_1(x) on 1 < x < 16 by a Taylor
expansion about the nearest anchor x0 of a geometric grid with ratio
1.08.  Each anchor is 1.08^j rounded to a multiple of 1/64, so it is a
short exact binary fraction, and its value f(x0) is taken from mpmath
at 40 digits and rounded once to a double.  The table printed here is
pasted into ``src/noma_limits/numerics.py`` as ``_E1_ANCHORS``; a test
recomputes it and checks that the two agree bit for bit.

Run from the repository root (takes well under a second):

    python tools/make_e1_anchors.py
"""

from __future__ import annotations

import mpmath as mp

RATIO = "1.08"
LAST = 36  # 1.08^36 ~ 15.97, the last anchor below x = 16
GRID = 64  # anchors are multiples of 1/GRID


def anchors() -> tuple[tuple[float, float], ...]:
    """(x0, e^x0 E_1(x0)) for each anchor, in increasing x0."""
    with mp.workdps(40):
        ratio = mp.mpf(RATIO)
        table = []
        for j in range(LAST + 1):
            x0 = mp.nint(GRID * ratio ** j) / GRID
            table.append((float(x0), float(mp.exp(x0) * mp.e1(x0))))
    return tuple(table)


def main() -> None:
    print("_E1_ANCHORS = (")
    for x0, f0 in anchors():
        print(f"    ({x0!r}, {f0!r}),")
    print(")")


if __name__ == "__main__":
    main()
