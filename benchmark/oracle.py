"""Independent reference values for the ten supported schemes.

Every rate here is computed with mpmath from a representation chosen to
differ from the program's own route, and nothing is imported from
``noma_limits``:

* sparse spreading without fading, and sparse optimum decoding with
  fading, use the Laplace (Frullani) form
  ``E ln(1 + Y) = int_0^inf e^(-s) (1 - E e^(-s Y)) / s ds``; the
  Poisson mixture over occupancies then sums in closed form inside the
  integrand, so no series is truncated;
* the sparse matched filter with fading uses the Poisson series
  ``beta/ln2 sum_m Pois(beta; m) e^x E_(m+1)(x)`` at ``x = 1/gamma``,
  obtained by expanding the collision factor instead of integrating it;
* dense spreading without fading uses the Tse-Hanly SINR, the positive
  root of ``s^2 + (1 + (beta - 1) gamma) s - gamma = 0``, in a form free
  of cancellation, instead of ``gamma - F(gamma, beta)/4``;
* dense spreading with fading solves the multiuser-efficiency fixed
  point by bisection in the logarithm of its distance to the lower end
  of its range, at 40 digits.

Run ``python3 benchmark/oracle.py --rebuild`` to regenerate the stored
reference table of the ``points`` workload from these routines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
POINTS_REFERENCE = HERE / "reference" / "points.json"

_DPS = 40


def _breaks(*scales):
    """Integration nodes at every decade spanned by the scales the
    integrand changes on, two decades past each end; the integrands
    behave like 1/s between scales, which one tanh-sinh panel cannot
    follow across hundreds of decades."""
    exps = [int(mp.floor(mp.log10(s))) for s in scales]
    decades = [mp.mpf(10) ** k for k in range(min(exps) - 2, max(exps) + 3)]
    return [mp.mpf(0)] + decades + [mp.inf]


def _laplace(fn, beta, gamma):
    # the integrands below vary on s ~ 1/gamma, s ~ 1/(beta gamma) and s ~ 1
    return mp.quad(fn, _breaks(1 / gamma, 1 / (beta * gamma), mp.mpf(1)))


def _lds_opt_fading(beta, gamma):
    # E[exp(-s gamma X)] over the Poisson(beta)-Erlang occupancy law is
    # exp(-beta s gamma / (1 + s gamma))
    def f(s):
        return mp.exp(-s) * -mp.expm1(-beta * s * gamma / (1 + s * gamma)) / s

    return _laplace(f, beta, gamma) / mp.log(2)


def _lds_opt_nofading(beta, gamma):
    # E[exp(-s gamma K)] for K ~ Poisson(beta) is exp(-beta (1 - e^(-s gamma)))
    def f(s):
        return mp.exp(-s) * -mp.expm1(-beta * -mp.expm1(-s * gamma)) / s

    return _laplace(f, beta, gamma) / mp.log(2)


def _lds_linear_nofading(beta, gamma):
    # E ln(1 + (K+1) gamma) - E ln(1 + K gamma) for the collision count K
    def f(s):
        a = -mp.expm1(-s * gamma)
        return mp.exp(-s) * a * mp.exp(-beta * a) / s

    return beta * _laplace(f, beta, gamma) / mp.log(2)


def _poisson_window(beta, width=12):
    # Poisson(beta) mass outside mean +- width * sd is below 1e-30
    sd = mp.sqrt(beta)
    lo = max(0, int(mp.floor(beta - width * sd - 5)))
    hi = int(mp.ceil(beta + width * sd + 40))
    return lo, hi


def _scaled_en_run(x, lo, hi):
    """e^x E_n(x) for n = lo..hi from one direct evaluation, spread by
    the three-term recurrence in the direction in which it is stable:
    upward where n > x, downward where n < x."""
    n0 = min(max(int(mp.nint(x)), lo), hi)
    # e^x E_n(x) = int_0^inf e^(-x u) (1 + u)^(-n) du
    start = mp.quad(lambda u: mp.exp(-x * u) / (1 + u) ** n0,
                    _breaks(1 / x, mp.mpf(1) / n0))
    out = {n0: start}
    for n in range(n0, hi):
        out[n + 1] = (1 - x * out[n]) / n
    for n in range(n0 - 1, lo - 1, -1):
        out[n] = (1 - n * out[n + 1]) / x
    return out


def _lds_sumf_fading(beta, gamma):
    x = 1 / gamma
    lo, hi = _poisson_window(beta)
    scaled = _scaled_en_run(x, lo + 1, hi + 1)
    log_beta = mp.log(beta)
    total = mp.mpf(0)
    for m in range(lo, hi + 1):
        w = mp.exp(-beta + m * log_beta - mp.loggamma(m + 1))
        total += w * scaled[m + 1]
    return beta * total / mp.log(2)


def _ds_sinr(beta, gamma):
    b = 1 + (beta - 1) * gamma
    root = mp.sqrt(b * b + 4 * gamma)
    return 2 * gamma / (b + root) if b > 0 else (root - b) / 2


def _ds_mmse_nofading(beta, gamma):
    return beta * mp.log1p(_ds_sinr(beta, gamma)) / mp.log(2)


def _ds_opt_nofading(beta, gamma):
    s = _ds_sinr(beta, gamma)
    # gamma - F/4 is the SINR s, so beta gamma - F/4 = (beta - 1) gamma + s
    return (beta * mp.log1p(s) + mp.log1p((beta - 1) * gamma + s)
            - (1 - s / gamma)) / mp.log(2)


def _scaled_e1(x):
    return mp.exp(x) * mp.e1(x)


def _shrinkage(c):
    # E[1 / (1 + c Z)] for a unit-mean exponential Z
    return _scaled_e1(1 / c) / c


def ds_efficiency(beta, gamma):
    """Multiuser efficiency x of dense MMSE under fading, with the
    distance d = x - max(0, 1 - beta) found by bisection in ln d."""
    lo = max(mp.mpf(0), 1 - beta)
    excess = max(mp.mpf(0), beta - 1)

    def residual(d):
        return d + excess - beta * _shrinkage((lo + d) * gamma)

    a, b = mp.mpf(-2000), mp.log(1 - lo)
    if residual(mp.exp(a)) > 0:
        raise ArithmeticError("fixed point below the bisection range")
    while b - a > mp.mpf(10) ** (8 - mp.mp.dps):
        m = (a + b) / 2
        if residual(mp.exp(m)) > 0:
            b = m
        else:
            a = m
    return lo + mp.exp((a + b) / 2)


def _ds_mmse_fading(beta, gamma, x=None):
    x = ds_efficiency(beta, gamma) if x is None else x
    return beta * _scaled_e1(1 / (gamma * x)) / mp.log(2)


def _ds_opt_fading(beta, gamma):
    x = ds_efficiency(beta, gamma)
    return _ds_mmse_fading(beta, gamma, x) + (x - 1 - mp.log(x)) / mp.log(2)


_ROUTES = {
    "ds-mmse-fading": _ds_mmse_fading,
    "ds-mmse-nofading": _ds_mmse_nofading,
    "ds-opt-fading": _ds_opt_fading,
    "ds-opt-nofading": _ds_opt_nofading,
    "lds-mmse-nofading": _lds_linear_nofading,
    "lds-opt-fading": _lds_opt_fading,
    "lds-opt-nofading": _lds_opt_nofading,
    "lds-sumf-fading": _lds_sumf_fading,
    "lds-sumf-nofading": _lds_linear_nofading,
    "lds-zf-nofading": _lds_linear_nofading,
}


def rate(scheme: str, beta: float, gamma: float, digits: int = _DPS) -> float:
    """Spectral efficiency in bits per dimension, rounded to a double.

    ``digits`` is the working precision; 20 digits still leave the
    result within 1e-12 relative of the 40-digit value.
    """
    if scheme not in _ROUTES:
        raise ValueError(f"unknown scheme {scheme!r}")
    with mp.workdps(digits):
        return float(_ROUTES[scheme](mp.mpf(beta), mp.mpf(gamma)))


def lds_fading_moment(beta: float, order: int) -> float:
    """order-th moment of the sparse fading spectral law: a dimension
    hit by K ~ Poisson(beta) users holds an Erlang(K) power, whose
    order-th moment is the rising factorial K (K+1) ... (K+order-1)."""
    with mp.workdps(_DPS):
        beta = mp.mpf(beta)
        lo, hi = _poisson_window(beta)
        return float(mp.fsum(
            mp.exp(-beta + k * mp.log(beta) - mp.loggamma(k + 1)) * mp.rf(k, order)
            for k in range(max(lo, 1), hi + 1)))


def _rebuild_points() -> None:
    from grids import point_calls

    rows = []
    cache: dict[tuple[str, float, float], float] = {}
    for scheme, beta, gamma in point_calls():
        # the three linear sparse detectors share one closed form
        route = _ROUTES[scheme]
        key = (route.__name__, beta, gamma)
        if key not in cache:
            cache[key] = rate(scheme, beta, gamma)
        rows.append([scheme, beta, gamma, cache[key]])
    POINTS_REFERENCE.parent.mkdir(exist_ok=True)
    with POINTS_REFERENCE.open("w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {len(rows)} reference values to {POINTS_REFERENCE}")


def load_points_reference() -> dict[tuple[str, float, float], float]:
    """The stored oracle values of the points workload."""
    with POINTS_REFERENCE.open(encoding="utf-8") as fh:
        return {(s, b, g): v for s, b, g, v in json.load(fh)}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rebuild", action="store_true",
                        help=f"recompute {POINTS_REFERENCE.relative_to(HERE.parent)}")
    if not parser.parse_args().rebuild:
        parser.print_help()
        sys.exit(2)
    _rebuild_points()
