#!/usr/bin/env python3
"""Rebuild the mpmath values of the four dense-spreading rates.

``tests/test_rates.py`` pins ``ds-{mmse,opt}-{nofading,fading}`` on a
grid of loads from 1e-6 to 1e4 and SNRs from 1e-3 to 1e300 against the
values written here, each rounded to 45 significant digits.  Nothing
here comes from ``noma_limits``:

- without fading, the three-term closed form of Verdu & Shamai (IEEE
  T-IT 45(2), 1999) with F(gamma, beta) taken at 700 digits, where the
  differences gamma - F/4 and beta gamma - F/4 keep about 390;
- with fading, the multiuser efficiency x solves
  x = 1 - beta + beta E[1/(1 + x gamma Z)], Z ~ Exp(1), by bisection in
  ln(x - max(0, 1 - beta)) at 80 digits; the MMSE rate is
  beta/ln2 e^c E_1(c) at c = 1/(x gamma), and the optimum rate adds
  (x - 1 - ln x)/ln 2.

Run from the repository root (takes about half a minute):

    python tools/make_dense_anchors.py
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent.parent / "tests" / "dense_mpmath.json"
LOADS = (1e-6, 0.1, 1.0, 2.0, 100.0, 1e3, 1e4)
SNRS = (1e-3, 10.0, 1e10, 1e100, 1e200, 1e300)
DIGITS = 45


def nofading(beta, gamma):
    """(MMSE, optimum) rates from F(gamma, beta), at 700 digits."""
    with mp.workdps(700):
        b, g = mp.mpf(beta), mp.mpf(gamma)
        f = (mp.sqrt(g * (1 + mp.sqrt(b)) ** 2 + 1) - mp.sqrt(g * (1 - mp.sqrt(b)) ** 2 + 1)) ** 2
        mmse = b * mp.log1p(g - f / 4)
        opt = mmse + mp.log1p(b * g - f / 4) - f / (4 * g)
        return mmse / mp.log(2), opt / mp.log(2)


def efficiency(b, g):
    lo = max(mp.mpf(0), 1 - b)
    excess = max(mp.mpf(0), b - 1)

    def residual(d):
        c = 1 / ((lo + d) * g)
        return d + excess - b * c * mp.exp(c) * mp.e1(c)

    a, top = mp.mpf(-2000), mp.log(1 - lo)
    if residual(mp.exp(a)) > 0:
        raise ArithmeticError("fixed point below the bisection range")
    while top - a > mp.mpf(10) ** (10 - mp.mp.dps):
        m = (a + top) / 2
        if residual(mp.exp(m)) > 0:
            top = m
        else:
            a = m
    return lo + mp.exp((a + top) / 2)


def fading(beta, gamma):
    """(MMSE, optimum) rates from the fixed point, at 80 digits."""
    with mp.workdps(80):
        b, g = mp.mpf(beta), mp.mpf(gamma)
        x = efficiency(b, g)
        c = 1 / (x * g)
        mmse = b * mp.exp(c) * mp.e1(c)
        return mmse / mp.log(2), (mmse + x - 1 - mp.log(x)) / mp.log(2)


def main() -> None:
    rows = []
    for beta in LOADS:
        for gamma in SNRS:
            for law, pair in (("nofading", nofading(beta, gamma)),
                              ("fading", fading(beta, gamma))):
                for detector, value in zip(("mmse", "opt"), pair):
                    rows.append([f"ds-{detector}-{law}", beta, gamma,
                                 mp.nstr(value, DIGITS, strip_zeros=False)])
                    print(*rows[-1])
    OUT.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    main()
