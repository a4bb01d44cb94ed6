"""Self-verification suite: every releasable claim as an executable check.

Thirteen numbered criteria cover the analytic limits (energy-per-bit
floor, wideband and high-SNR slopes, agreement of independent
representations, derivative anchors, hand-evaluable values, curve-level
orderings, moment determinacy) and the Monte Carlo cross-validation
(moments, spectral law, matched-filter rate, optimum-decoding rate,
dense-spreading log-det).  The analytic criteria form the fast suite;
the Monte Carlo criteria join them in the full suite.

Every expected number is a closed form (the slopes come from
``rates.low_snr_slope`` and ``rates.high_snr_slope``), a constant
written into the check, or an independent route to the same rate.  No
criterion reads stored values.  A Monte Carlo check may compare at
3 standard errors of its own estimate; every other tolerance is fixed
in the check.  The tightest are criterion 4's: the series of every
sparse scheme against its Laplace-form quadrature
(``rates.laplace_rate``), to 1e-10 bits.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .combinatorics import EnsembleKind, carleman_bound_holds, exact_moments, moment_coefficients
from .ensemble_lab import (
    LsdMixture,
    draw_gram,
    # no criterion calls these two; they stay bound because the
    # benchmark's probes wrap them here by name
    draw_system,
    empirical_lsd_cdf_distance,
    empirical_moments,
    empirical_opt_se,
    gram_diagonal,
    mc_ds_fading_logdet,
    mc_sumf_rate,
)
from .errors import DomainError
from .numerics import Tolerance
from .rates import (
    LN2,
    SUPPORTED_SCHEMES,
    ChannelPoint,
    SchemeSpec,
    gamma_from_eta,
    high_snr_slope,
    laplace_rate,
    low_snr_slope,
    mmse_efficiency_ds_fading,
    mmse_se_ds_nofading,
    opt_se_ds_nofading,
    opt_se_lds_fading,
    spectral_efficiency,
)

__all__ = [
    "CheckResult",
    "VerifyReport",
    "Criterion",
    "CRITERIA",
    "run_criterion",
    "run_suite",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 42
# the multiplier is an arbitrary prime large enough to keep criterion
# seed blocks disjoint; 1002, criterion 10's last, is the largest tag
_SEED_STRIDE = 1_000_003
_LAST_TAG = 1002
# the largest seed whose derived seeds all fit the lab's 64-bit keys
_MAX_SEED = ((1 << 64) - 1 - _LAST_TAG) // _SEED_STRIDE

_THREE_DB_DECADES = 3.0 * math.log2(10.0)  # log2-span of one 1e3 SNR ratio


@dataclass(frozen=True)
class CheckResult:
    """One comparison: passes when |observed - expected| <= tolerance."""

    name: str
    expected: float
    observed: float
    tolerance: float
    passed: bool

    @classmethod
    def compare(cls, name: str, expected: float, observed: float,
                tolerance: float) -> "CheckResult":
        ok = math.isfinite(observed) and abs(observed - expected) <= tolerance
        return cls(name=name, expected=expected, observed=observed,
                   tolerance=tolerance, passed=ok)

    @classmethod
    def condition(cls, name: str, holds: bool) -> "CheckResult":
        # qualitative claims are encoded as expected 1.0 with zero slack
        return cls(name=name, expected=1.0, observed=1.0 if holds else 0.0,
                   tolerance=0.0, passed=bool(holds))

    def as_dict(self) -> dict:
        return {"name": self.name, "expected": self.expected,
                "observed": self.observed, "tolerance": self.tolerance,
                "passed": self.passed}


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a suite run; overall is the AND of all passed flags.
    ``criterion_time_s`` maps each criterion run, by key, to its wall
    time in seconds, and ``criterion_cpu_s``, keyed the same way, to the
    CPU seconds the process spent in it, summed over all its threads
    (BLAS and worker threads included)."""

    checks: tuple[CheckResult, ...]
    overall: bool
    seeds: tuple[int, ...]
    wall_time_s: float
    criterion_time_s: dict[str, float]
    criterion_cpu_s: dict[str, float]

    def to_json(self) -> str:
        payload = {
            "checks": [c.as_dict() for c in self.checks],
            "criterion_cpu_s": self.criterion_cpu_s,
            "criterion_time_s": self.criterion_time_s,
            "overall": self.overall,
            "seeds": list(self.seeds),
            "wall_time_s": self.wall_time_s,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _derived_seed(master: int, tag: int) -> int:
    # distinct, reproducible sub-seeds
    return master * _SEED_STRIDE + tag


# ----------------------------------------------------------------------
# 1. energy-per-bit floor
# ----------------------------------------------------------------------

def _check_eta_floor(seed: int) -> list[CheckResult]:
    """beta*gamma/rate of all ten schemes at gamma = 1e-4 equals
    ln 2 (1 + q gamma), q = beta/S0 with S0 from low_snr_slope, within
    2 ln 2 (q gamma)^2.

    The energy per bit leaves its ln 2 floor to first order as
    ln 2 (1 + q gamma), since the rate in nats is
    beta gamma (1 - q gamma + O(gamma^2)).  The next term,
    (eta/ln 2 - 1 - q gamma)/(q gamma)^2, measured between -0.973 and
    -0.333 over the ten schemes at beta in {0.5, 1, 2}, at gamma = 1e-5
    and 1e-4 alike.  So the tolerance holds it with a factor 2 to spare,
    and it is 2 q gamma <= 6e-4 of the first-order term."""
    del seed
    gamma = 1e-4
    tol = Tolerance(rel=1e-12, abs=1e-15)
    out = []
    for scheme in map(SchemeSpec.parse, SUPPORTED_SCHEMES):
        for beta in (0.5, 1.0, 2.0):
            rate = spectral_efficiency(scheme, ChannelPoint(beta, gamma), tol).bits_per_dim
            q_gamma = beta / low_snr_slope(scheme, beta) * gamma
            out.append(CheckResult.compare(
                f"eta-floor.{scheme.name}.beta{beta:g}", LN2 * (1.0 + q_gamma),
                beta * gamma / rate, 2.0 * LN2 * q_gamma * q_gamma))
    return out


# ----------------------------------------------------------------------
# 2. wideband slopes
# ----------------------------------------------------------------------

def _wideband_slope(rate_fn: Callable[[float], float]) -> float:
    # slope in bits per 3 dB at the energy-per-bit floor, from central
    # finite differences of the rate near zero SNR
    g0, h = 1e-4, 5e-5
    c_minus, c_mid, c_plus = rate_fn(g0 - h), rate_fn(g0), rate_fn(g0 + h)
    d1 = (c_plus - c_minus) / (2.0 * h)
    d2 = (c_plus - 2.0 * c_mid + c_minus) / (h * h)
    return 2.0 * LN2 * d1 * d1 / (-d2)


def _check_wideband_slopes(seed: int) -> list[CheckResult]:
    """Finite-difference wideband slopes of all ten schemes match
    low_snr_slope."""
    del seed
    tol = Tolerance(rel=1e-12, abs=1e-15)
    out = []
    for beta in (0.5, 1.0, 2.0):
        for scheme in map(SchemeSpec.parse, SUPPORTED_SCHEMES):
            slope = _wideband_slope(
                lambda g: spectral_efficiency(scheme, ChannelPoint(beta, g), tol).bits_per_dim)
            expected = low_snr_slope(scheme, beta)
            out.append(CheckResult.compare(
                f"wideband.{scheme.name}.beta{beta:g}", expected, slope, 0.01 * expected))
    return out


# ----------------------------------------------------------------------
# 3. high-SNR slopes
# ----------------------------------------------------------------------

def _measured_high_snr_slope(scheme: SchemeSpec, beta: float) -> float:
    lo = spectral_efficiency(scheme, ChannelPoint(beta, 1e5)).bits_per_dim
    hi = spectral_efficiency(scheme, ChannelPoint(beta, 1e8)).bits_per_dim
    return (hi - lo) / _THREE_DB_DECADES


def _check_high_snr_slopes(seed: int) -> list[CheckResult]:
    """Per-3dB growth measured between SNR 1e5 and 1e8 matches
    high_snr_slope: beta e^-beta (sparse, linear), 1 - e^-beta (sparse,
    optimum), min(beta, 1) (dense, optimum) and the piecewise dense-MMSE
    values.  Dense MMSE with fading is left out: at beta = 1 its slope
    nears 1/2 only like 1/ln gamma and reads 0.533 here."""
    del seed
    out = []
    for beta in (0.5, 1.0, 2.0):
        for name in ("lds-sumf-nofading", "lds-sumf-fading", "lds-opt-nofading",
                     "lds-opt-fading", "ds-mmse-nofading", "ds-opt-nofading",
                     "ds-opt-fading"):
            scheme = SchemeSpec.parse(name)
            expected = high_snr_slope(scheme, beta)
            tol = 0.02 * expected if expected > 0.0 else 0.02
            out.append(CheckResult.compare(
                f"high-snr.{name}.beta{beta:g}", expected,
                _measured_high_snr_slope(scheme, beta), tol))
    return out


# ----------------------------------------------------------------------
# 4. representation equality
# ----------------------------------------------------------------------

_GRID_BETAS = (0.5, 1.0, 2.0, 4.0)
_GRID_GAMMAS = (0.1, 1.0, 10.0, 100.0)
# (check-name prefix, scheme) for the six sparse schemes
_REPRESENTATION_CHECKS = (
    ("opt-routes", "lds-opt-fading"),
    ("sumf-forms", "lds-sumf-fading"),
    ("opt-nofading", "lds-opt-nofading"),
    ("sumf-nofading", "lds-sumf-nofading"),
    ("mmse-nofading", "lds-mmse-nofading"),
    ("zf-nofading", "lds-zf-nofading"),
)


def _check_representations(seed: int) -> list[CheckResult]:
    """Every sparse scheme's production rate, through
    ``spectral_efficiency``, agrees with the Laplace form of its rate
    (``rates.laplace_rate``: one integral, no Poisson sum) to 1e-10 bits
    on the 16-point grid.  Each scheme has its own check-name prefix;
    the benchmark reads its latency grid from the opt-routes names."""
    del seed
    tol = Tolerance(rel=1e-12, abs=1e-14)
    out = []
    for prefix, name in _REPRESENTATION_CHECKS:
        scheme = SchemeSpec.parse(name)
        for beta in _GRID_BETAS:
            for gamma in _GRID_GAMMAS:
                point = ChannelPoint(beta, gamma)
                out.append(CheckResult.compare(
                    f"{prefix}.beta{beta:g}.gamma{gamma:g}",
                    laplace_rate(scheme, point, tol).bits_per_dim,
                    spectral_efficiency(scheme, point, tol).bits_per_dim, 1e-10))
    return out


# ----------------------------------------------------------------------
# 5. derivative anchors
# ----------------------------------------------------------------------

def _check_derivative_anchors(seed: int) -> list[CheckResult]:
    """First and second SNR derivatives of the sparse-fading optimum rate
    at zero equal beta/ln2 and -(2 beta + beta^2)/ln2."""
    del seed
    tol = Tolerance(rel=1e-12, abs=1e-14)
    out = []
    for beta in (0.5, 1.0, 2.0):
        def rate(g: float) -> float:
            return opt_se_lds_fading(ChannelPoint(beta, g), tol).bits_per_dim

        h1 = 1e-6
        first = rate(h1) / h1  # rate(0) = 0 exactly
        expected1 = beta / LN2
        out.append(CheckResult.compare(
            f"derivative-1.beta{beta:g}", expected1, first, 0.001 * expected1))
        h2 = 1e-4
        second_neg = (2.0 * rate(h2) - rate(2.0 * h2)) / (h2 * h2)
        expected2 = (2.0 * beta + beta * beta) / LN2
        out.append(CheckResult.compare(
            f"derivative-2.beta{beta:g}", expected2, second_neg, 0.01 * expected2))
    return out


# ----------------------------------------------------------------------
# 6. spectral moments vs the moment polynomials
# ----------------------------------------------------------------------

def _check_moments(seed: int) -> list[CheckResult]:
    """Empirical moments at N=1e5 sit within 3 standard errors (from 20
    draws) of the ordered-block-count polynomial; its row 4 is exact."""
    n_dims, n_draws, l_max = 100_000, 20, 4
    out = []
    for b_idx, beta in enumerate((0.5, 1.5)):
        n_users = round(beta * n_dims)
        samples = np.empty((n_draws, l_max))
        for i in range(n_draws):
            gram = draw_gram(n_dims, n_users, _derived_seed(seed, 600 + 100 * b_idx + i))
            samples[i] = empirical_moments(gram, l_max).values
        mean = samples.mean(axis=0)
        std_err = samples.std(axis=0, ddof=1) / math.sqrt(n_draws)
        expected = exact_moments(EnsembleKind.LDS_FADING, l_max, beta).values
        for order in range(1, l_max + 1):
            out.append(CheckResult.compare(
                f"moments.beta{beta:g}.order{order}", expected[order - 1],
                float(mean[order - 1]), 3.0 * float(std_err[order - 1])))
    row = moment_coefficients(EnsembleKind.LDS_FADING, 4)
    out.append(CheckResult.condition(
        "moments.coefficient-row-4", list(row) == [24, 36, 12, 1]))
    return out


# ----------------------------------------------------------------------
# 7. spectral law
# ----------------------------------------------------------------------

def _check_lsd(seed: int) -> list[CheckResult]:
    """KS distance between a N=1e5 draw's spectrum and the limiting
    compound-Poisson mixture stays below 0.01."""
    n_dims = 100_000
    gram = draw_gram(n_dims, n_dims, _derived_seed(seed, 710))
    dist = empirical_lsd_cdf_distance(gram, LsdMixture(1.0))
    return [CheckResult.compare("lsd.ks-distance.beta1", 0.0, dist, 0.01)]


# ----------------------------------------------------------------------
# 8. matched-filter Monte Carlo
# ----------------------------------------------------------------------

def _check_sumf_mc(seed: int) -> list[CheckResult]:
    """Finite-size matched-filter Monte Carlo agrees with the analytic
    rate (the estimate's reference) within 3 standard errors and within
    0.5% relative.

    The estimator samples N = 1e4 exactly, so its mean is the same
    series as the limit with Binomial(K - 1, 1/N) collision weights in
    place of Poisson(beta) ones; at the three points that exact rate is
    3.5e-5, 5.4e-6 and 2.7e-5 above the limit, relative, well inside
    3 standard errors."""
    out = []
    for tag, (beta, gamma) in enumerate(((1.0, 10.0), (3.0, 10.0), (0.5, 1.0)), start=1):
        est = mc_sumf_rate(10_000, beta, gamma, 10_000_000, _derived_seed(seed, 800 + tag))
        analytic = est.reference
        label = f"sumf-mc.beta{beta:g}.gamma{gamma:g}"
        out.append(CheckResult.compare(
            f"{label}.3se", analytic, est.mean, 3.0 * est.std_error))
        out.append(CheckResult.compare(
            f"{label}.rel", analytic, est.mean, 0.005 * analytic))
    return out


# ----------------------------------------------------------------------
# 9. optimum-decoding Monte Carlo
# ----------------------------------------------------------------------

def _check_opt_mc(seed: int) -> list[CheckResult]:
    """A single N=1e6 draw's per-dimension log-sum lands within 0.5% of
    the sparse-fading optimum rate."""
    n_dims = 1_000_000
    out = []
    for tag, (beta, gamma) in enumerate(((1.0, 10.0), (2.0, 1.0)), start=1):
        # one spectrum at a time: the draw is not kept past its log-sum
        observed = empirical_opt_se(
            draw_gram(n_dims, round(beta * n_dims), _derived_seed(seed, 900 + tag)), gamma)
        analytic = opt_se_lds_fading(ChannelPoint(beta, gamma)).bits_per_dim
        out.append(CheckResult.compare(
            f"opt-mc.beta{beta:g}.gamma{gamma:g}", analytic, observed, 0.005 * analytic))
    return out


# ----------------------------------------------------------------------
# 10. dense-spreading log-det Monte Carlo
# ----------------------------------------------------------------------

def _check_ds_logdet(seed: int) -> list[CheckResult]:
    """Finite-size dense-spreading log-det sits within 3 standard errors
    of the fixed-point rate (the estimate's reference), and the
    fixed-point residual stays below 1e-10.  At 200 trials of N = 256,
    3 standard errors are about 0.9% and 0.3% of the rate at the two
    points."""
    out = []
    for tag, (beta, gamma) in enumerate(((0.5, 10.0), (2.0, 10.0)), start=1):
        est = mc_ds_fading_logdet(256, beta, gamma, 200, _derived_seed(seed, 1000 + tag))
        out.append(CheckResult.compare(f"ds-logdet.beta{beta:g}.gamma{gamma:g}",
                                       est.reference, est.mean, 3.0 * est.std_error))
        residual = mmse_efficiency_ds_fading(ChannelPoint(beta, gamma)).residual
        out.append(CheckResult.compare(
            f"ds-fixed-point-residual.beta{beta:g}.gamma{gamma:g}", 0.0, residual, 1e-10))
    return out


# ----------------------------------------------------------------------
# 11. curve-level orderings
# ----------------------------------------------------------------------

def _check_curve_orderings(seed: int) -> list[CheckResult]:
    """On the load sweep at 10 dB energy per bit: sparse matched
    filtering beats dense MMSE when overloaded and loses when
    underloaded; fading helps the matched filter only when overloaded;
    sparse optimum decoding never beats dense optimum decoding."""
    del seed
    eta = 10.0  # 10 dB is exactly 10 in linear units
    tol = Tolerance(rel=1e-7, abs=1e-9)
    grid = [10.0 ** (-1.0 + 2.0 * i / 20.0) for i in range(21)]

    def rate_at_eta(name: str, beta: float) -> float:
        scheme = SchemeSpec.parse(name)
        gamma = gamma_from_eta(scheme, beta, eta, tol)
        return spectral_efficiency(scheme, ChannelPoint(beta, gamma), tol).bits_per_dim

    def curve(name: str) -> list[float]:
        # each inversion starts from the previous root, extrapolated in
        # log gamma once there are two, as cli._curve_chain does
        scheme = SchemeSpec.parse(name)
        rates, prev, last = [], None, None
        for beta in grid:
            guess = last if prev is None else last * (last / prev)
            if guess is not None and not 0.0 < guess < math.inf:
                guess = last
            prev, last = last, gamma_from_eta(scheme, beta, eta, tol, guess)
            rates.append(spectral_efficiency(scheme, ChannelPoint(beta, last), tol).bits_per_dim)
        return rates

    curves = {name: curve(name) for name in (
        "lds-sumf-fading", "lds-sumf-nofading", "ds-mmse-fading", "ds-mmse-nofading",
        "lds-opt-fading", "lds-opt-nofading", "ds-opt-fading", "ds-opt-nofading")}

    out = []
    # measured crossovers at 10 dB: beta = 1.232 without fading, 1.631
    # with fading, so the overloaded-side assertion starts at 1.5 and
    # 2.0 respectively; the flip itself is pinned by the bracket check
    for fading, over_from in (("fading", 2.0), ("nofading", 1.5)):
        lds = curves[f"lds-sumf-{fading}"]
        ds = curves[f"ds-mmse-{fading}"]
        over = all(lds[i] > ds[i] for i, b in enumerate(grid) if b >= over_from)
        under = all(lds[i] < ds[i] for i, b in enumerate(grid) if b <= 0.5)
        out.append(CheckResult.condition(f"ordering.linear.overloaded.{fading}", over))
        out.append(CheckResult.condition(f"ordering.linear.underloaded.{fading}", under))
        gaps = [l - d for l, d in zip(lds, ds)]
        single_flip = sum(1 for a, b in zip(gaps, gaps[1:])
                          if (a > 0) != (b > 0)) == 1
        out.append(CheckResult.condition(
            f"ordering.linear.single-crossover.{fading}", single_flip))
    out.append(CheckResult.condition(
        "ordering.fading-gain.beta3",
        rate_at_eta("lds-sumf-fading", 3.0) > rate_at_eta("lds-sumf-nofading", 3.0)))
    out.append(CheckResult.condition(
        "ordering.fading-loss.beta0.3",
        rate_at_eta("lds-sumf-fading", 0.3) < rate_at_eta("lds-sumf-nofading", 0.3)))
    for fading in ("fading", "nofading"):
        lds = curves[f"lds-opt-{fading}"]
        ds = curves[f"ds-opt-{fading}"]
        out.append(CheckResult.condition(
            f"ordering.optimum.{fading}", all(l <= d for l, d in zip(lds, ds))))
    return out


# ----------------------------------------------------------------------
# 12. moment determinacy bound
# ----------------------------------------------------------------------

def _check_carleman(seed: int) -> list[CheckResult]:
    """Even-moment growth keeps the spectral law moment-determinate."""
    del seed
    return [CheckResult.condition(f"carleman.beta{beta:g}", carleman_bound_holds(beta, 10))
            for beta in (0.1, 1.0, 10.0)]


# ----------------------------------------------------------------------
# 13. hand-evaluable anchors
# ----------------------------------------------------------------------

def _check_hand_anchors(seed: int) -> list[CheckResult]:
    """Dense spreading without fading at beta=1, gamma=2: MMSE rate is
    exactly 1 bit and the optimum rate is 2 - 1/(2 ln 2), each within
    8 machine epsilons of its value, the closed forms' stated error."""
    del seed
    point = ChannelPoint(1.0, 2.0)
    out = []
    for name, route, expected in (("ds-mmse", mmse_se_ds_nofading, 1.0),
                                  ("ds-opt", opt_se_ds_nofading, 2.0 - 1.0 / (2.0 * LN2))):
        out.append(CheckResult.compare(f"anchor.{name}", expected,
                                       route(point).bits_per_dim, 8.0 * math.ulp(1.0) * expected))
    return out


# ----------------------------------------------------------------------
# registry and runners
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Criterion:
    index: int
    key: str
    title: str
    suite: str  # "fast" or "full"
    run: Callable[[int], list[CheckResult]]


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "eta-floor", "energy per bit floor is ln 2", "fast", _check_eta_floor),
    Criterion(2, "wideband-slopes", "wideband slopes match closed forms", "fast",
              _check_wideband_slopes),
    Criterion(3, "high-snr-slopes", "high-SNR slopes match closed forms", "fast",
              _check_high_snr_slopes),
    Criterion(4, "representations", "independent rate representations agree", "fast",
              _check_representations),
    Criterion(5, "derivative-anchors", "zero-SNR derivatives match closed forms", "fast",
              _check_derivative_anchors),
    Criterion(6, "moments", "empirical moments match the moment polynomials", "full",
              _check_moments),
    Criterion(7, "spectral-law", "empirical spectrum matches the limiting mixture", "full",
              _check_lsd),
    Criterion(8, "sumf-monte-carlo", "matched-filter Monte Carlo matches the rate", "full",
              _check_sumf_mc),
    Criterion(9, "opt-monte-carlo", "optimum-decoding Monte Carlo matches the rate", "full",
              _check_opt_mc),
    Criterion(10, "ds-logdet", "dense log-det matches the fixed-point rate", "full",
              _check_ds_logdet),
    Criterion(11, "curve-orderings", "curve-level orderings hold on the load sweep", "fast",
              _check_curve_orderings),
    Criterion(12, "carleman", "moment growth satisfies the determinacy bound", "fast",
              _check_carleman),
    Criterion(13, "hand-anchors", "hand-evaluable dense-spreading anchors", "fast",
              _check_hand_anchors),
)


def run_criterion(criterion: Criterion, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """All checks of one criterion, each name prefixed by its key."""
    return [CheckResult(name=f"{criterion.index:02d}.{c.name}", expected=c.expected,
                        observed=c.observed, tolerance=c.tolerance, passed=c.passed)
            for c in criterion.run(seed)]


def run_suite(suite: str = "fast", seed: int = DEFAULT_SEED) -> VerifyReport:
    """Run the fast (analytic) or full (analytic + Monte Carlo) suite.
    A seed whose derived seeds do not all fit the lab's 64-bit keys
    raises DomainError before the first criterion, whichever the suite."""
    if suite not in ("fast", "full"):
        raise ValueError(f"suite must be 'fast' or 'full', got {suite!r}")
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed <= _MAX_SEED):
        raise DomainError(f"seed must be an integer in [0, {_MAX_SEED}], got {seed!r}")
    seed = int(seed)
    start = time.perf_counter()
    checks: list[CheckResult] = []
    times: dict[str, float] = {}
    cpu: dict[str, float] = {}
    for criterion in CRITERIA:
        if suite == "fast" and criterion.suite != "fast":
            continue
        begin, begin_cpu = time.perf_counter(), time.process_time()
        checks.extend(run_criterion(criterion, seed))
        times[criterion.key] = time.perf_counter() - begin
        cpu[criterion.key] = time.process_time() - begin_cpu
    wall = time.perf_counter() - start
    return VerifyReport(checks=tuple(checks),
                        overall=all(c.passed for c in checks),
                        seeds=(seed,),
                        wall_time_s=wall,
                        criterion_time_s=times,
                        criterion_cpu_s=cpu)
