"""Large-system spectral-efficiency limits for randomly spread multiple access.

Two spreading families are covered: dense spreading, where every user
occupies all dimensions, and maximally sparse spreading, where every
user occupies exactly one uniformly chosen dimension.  Each family is
evaluated with and without unit-mean Rayleigh fading (exponentially
distributed received powers) under the detector for which a closed form
exists: single-user matched filtering, linear MMSE, zero forcing, or
jointly optimum decoding.

All rates are returned in bits per dimension (equivalently bit/s/Hz);
``gamma`` is the per-symbol SNR, ``beta`` the user-per-dimension load,
and ``eta = gamma * beta / rate`` the energy per bit over the noise
level, whose universal minimum is ln 2.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DegenerateRateError,
    DomainError,
    FixedPointError,
    NoSolutionError,
    NonConvergenceError,
    UnsupportedSchemeError,
)
from .numerics import (
    DEFAULT_TOLERANCE,
    Tolerance,
    exp_integral_en_scaled,
    find_root_bracketed,
    integrate_interval,
    # no route calls it; it stays bound because the benchmark's probes
    # wrap rates.integrate_semi_infinite by name
    integrate_semi_infinite,
    poisson_weighted_sum,
)

__all__ = [
    "LN2",
    "ChannelPoint",
    "Spreading",
    "Fading",
    "Detector",
    "SchemeSpec",
    "RateValue",
    "MmseEfficiency",
    "SUPPORTED_SCHEMES",
    "sumf_rate_lds_fading",
    "sumf_rate_lds_nofading",
    "opt_se_lds_nofading",
    "opt_se_lds_fading",
    "laplace_rate",
    "opt_se_ds_nofading",
    "mmse_se_ds_nofading",
    "mmse_efficiency_ds_fading",
    "mmse_se_ds_fading",
    "opt_se_ds_fading",
    "spectral_efficiency",
    "eta_min",
    "low_snr_slope",
    "high_snr_slope",
    "eta_from_gamma",
    "gamma_from_eta",
]

LN2 = math.log(2.0)
_LN3 = math.log(3.0)
# the largest load and SNR a rate route accepts: every route is checked
# up to both.  Nothing overflows just above 1e4 (the sparse series match
# laplace_rate to 4e-14 at 1e5), but the Poisson window reaches its
# 10,000-term cap near 2.9e5; the dense fading efficiency stays within
# 1.7e-15 of mpmath at 1e6 and 1e8.  Near 1e307 the MMSE SINR and the
# series overflow.
_MAX_LOAD = 1e4
_MAX_SNR = 1e303


@dataclass(frozen=True)
class ChannelPoint:
    """Operating point: load beta and per-symbol SNR gamma."""

    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not (isinstance(self.beta, (int, float)) and math.isfinite(self.beta) and self.beta > 0):
            raise DomainError(f"beta must be a positive finite real, got {self.beta!r}")
        if not (isinstance(self.gamma, (int, float)) and math.isfinite(self.gamma) and self.gamma >= 0):
            raise DomainError(f"gamma must be a nonnegative finite real, got {self.gamma!r}")


class Spreading(Enum):
    DENSE = "ds"
    ONE_SPARSE = "lds"


class Fading(Enum):
    NONE = "nofading"
    RAYLEIGH = "fading"


class Detector(Enum):
    SUMF = "sumf"
    MMSE = "mmse"
    ZF = "zf"
    OPTIMUM = "opt"


@dataclass(frozen=True)
class SchemeSpec:
    """A (spreading, fading, detector) combination."""

    spreading: Spreading
    fading: Fading
    detector: Detector

    @property
    def name(self) -> str:
        return f"{self.spreading.value}-{self.detector.value}-{self.fading.value}"

    @classmethod
    def parse(cls, text: str) -> "SchemeSpec":
        """Parse '<spreading>-<detector>[-<fading>]'; fading defaults to nofading."""
        if not isinstance(text, str):
            raise DomainError(f"scheme must be a string, got {text!r}")
        parts = text.strip().lower().split("-")
        if len(parts) == 2:
            parts.append("nofading")
        if len(parts) != 3:
            raise DomainError(f"scheme {text!r} is not of the form spreading-detector[-fading]")
        try:
            spreading = Spreading(parts[0])
            detector = Detector(parts[1])
            fading = Fading(parts[2])
        except ValueError:
            raise DomainError(f"scheme {text!r} has an unknown token") from None
        return cls(spreading=spreading, fading=fading, detector=detector)


@dataclass(frozen=True)
class RateValue:
    """Spectral efficiency in bits per dimension with an error bound."""

    bits_per_dim: float
    err_estimate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bits_per_dim) and self.bits_per_dim >= 0):
            raise DomainError(
                f"rate must be finite and nonnegative, got {self.bits_per_dim!r}")
        if not (math.isfinite(self.err_estimate) and self.err_estimate >= 0):
            raise DomainError(f"err_estimate must be finite and nonnegative, got {self.err_estimate!r}")


@dataclass(frozen=True)
class MmseEfficiency:
    """Multiuser efficiency of the dense MMSE receiver under fading.

    ``value`` lies in the closed range [max(0, 1 - beta), 1]: an end is
    returned when the root lies within rounding of it.  ``residual`` is the
    magnitude of the fixed-point residual at the returned value, in the
    form that :func:`mmse_efficiency_ds_fading` solves there.
    """

    value: float
    residual: float


_Formula = Callable[[ChannelPoint, Tolerance], RateValue]


def _rate_route(formula: _Formula) -> _Formula:
    """A public rate route: loads above 1e4 and SNRs above 1e303 raise
    DomainError, and tiny SNRs get the first-order rate.  Every rate is
    beta gamma/ln2 * (1 - (beta/S0) gamma + O(gamma^2)), S0 its wideband
    slope, and beta/S0 <= 1 + beta for every scheme (:func:`low_snr_slope`);
    below the test that term is the rate to double precision, and
    1/gamma, which some formulas form, can overflow."""
    @functools.wraps(formula)
    def route(point: ChannelPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> RateValue:
        beta, gamma = point.beta, point.gamma
        if beta > _MAX_LOAD:
            raise DomainError(f"beta = {beta!r} exceeds the largest supported load, 1e4")
        if gamma > _MAX_SNR:
            raise DomainError(f"gamma = {gamma!r} exceeds the largest supported SNR, 1e303")
        if (1.0 + 2.0 * beta) * gamma < 1e-17:
            value = beta * gamma / LN2  # exactly zero at zero SNR
            return RateValue(value, tol.rel * value)
        return formula(point, tol)
    return route


def _log_growth_bound(gamma: float) -> float:
    # certifies |term(k)| <= bound * log(2 + k) for every per-user term
    # of the form log2(1 + gamma * (k-ish)); uses log(2+k) >= log 3.
    return 1.25 * (max(0.0, math.log1p(gamma)) / (LN2 * _LN3) + 1.0 / LN2)


# ----------------------------------------------------------------------
# Sparse spreading, Rayleigh fading
# ----------------------------------------------------------------------

@_rate_route
def sumf_rate_lds_fading(point: ChannelPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> RateValue:
    """Matched-filter rate under one-dimension-per-user spreading and fading.

    beta/ln2 times the integral over z >= 0 of
    exp(-z/gamma) * exp(-beta z/(1+z)) / (1+z): the outer exponential is
    the fading mixture of the useful power, the inner factor is the
    collision interference averaged over occupancy and fading.  With
    u = 1 + z and e^(beta/u) expanded in powers, it is the series
    beta/ln2 * sum over m >= 0 of Pois(beta; m) e^x E_(m+1)(x), x = 1/gamma,
    a mixture over the number m of users colliding with this one.
    """
    beta, gamma = point.beta, point.gamma
    x = 1.0 / gamma
    orders: Iterator[float] | None = None

    def term(m: int) -> float:
        nonlocal orders
        if orders is None:  # the window's first m; the rest follow in order
            orders = _scaled_en_orders(x, first=m + 1)
        return next(orders)

    # the terms are at most 1; the sum is scaled by beta/ln2 afterwards
    inner_tol = Tolerance(rel=tol.rel, abs=min(1.0, tol.abs * LN2 / beta))
    collided = poisson_weighted_sum(beta, term, 1.0, inner_tol)
    value = beta / LN2 * (math.exp(-beta) * exp_integral_en_scaled(1, x) + collided)
    return RateValue(value, tol.abs + tol.rel * value)


def _scaled_en_orders(z: float, first: int = 1) -> Iterator[float]:
    """e^z E_q(z) for q = first, first + 1, ...

    Once q - 1 >= z each order comes from the one before it through
    E_q = (e^-z - z E_(q-1)) / (q - 1) (Abramowitz & Stegun 5.1.14):
    a step scales the inherited error by z/(q - 1) <= 1, and
    1 - z e^z E_(q-1) stays above 0.4, so nothing cancels.  The first
    order, and lower ones where the recurrence would amplify rounding,
    are evaluated directly.
    """
    q = first
    e = exp_integral_en_scaled(q, z)
    while True:
        yield e
        q += 1
        e = (1.0 - z * e) / (q - 1) if q - 1 >= z else exp_integral_en_scaled(q, z)


@_rate_route
def opt_se_lds_fading(point: ChannelPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> RateValue:
    """Optimum-decoding spectral efficiency under sparse spreading and fading.

    Dimensions decouple in the large-system limit: a dimension hit by k
    users sees a unit-rate Erlang-k received power, so the rate is the
    Poisson(beta) mixture over k >= 1 of E[log2(1 + gamma * X_k)].  That
    expectation is the cumulative sum
    E[ln(1 + gamma X_k)] = sum_{q=1..k} e^z E_q(z) at z = 1/gamma.
    """
    beta, gamma = point.beta, point.gamma
    sums = itertools.accumulate(_scaled_en_orders(1.0 / gamma))
    cumulative: list[float] = []

    def term(k: int) -> float:
        while len(cumulative) < k:
            cumulative.append(next(sums))
        return cumulative[k - 1] / LN2

    value = poisson_weighted_sum(beta, term, _log_growth_bound(gamma), tol)
    return RateValue(value, tol.abs + tol.rel * value)


# ----------------------------------------------------------------------
# Sparse spreading, no fading
# ----------------------------------------------------------------------

@_rate_route
def opt_se_lds_nofading(point: ChannelPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> RateValue:
    """Optimum-decoding rate for sparse spreading with unit gains:
    Poisson(beta) mixture of log2(1 + k * gamma) over occupancy k >= 1."""
    beta, gamma = point.beta, point.gamma
    value = poisson_weighted_sum(
        beta, lambda k: math.log1p(k * gamma) / LN2, _log_growth_bound(gamma), tol)
    return RateValue(value, tol.abs + tol.rel * value)


@_rate_route
def sumf_rate_lds_nofading(point: ChannelPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> RateValue:
    """Linear-detection rate for sparse spreading with unit gains.

    A user colliding with k others sees SNR gamma/(k gamma + 1); matched
    filter, MMSE and zero forcing all coincide here because each
    dimension is a scalar channel.
    """
    beta, gamma = point.beta, point.gamma
    solo = math.exp(-beta) * math.log1p(gamma) / LN2
    rest = poisson_weighted_sum(
        beta, lambda k: math.log1p(gamma / (k * gamma + 1.0)) / LN2,
        _log_growth_bound(gamma), tol)
    value = beta * (solo + rest)
    return RateValue(value, tol.abs + tol.rel * value)


# ----------------------------------------------------------------------
# Sparse spreading: the Laplace-form cross-check
# ----------------------------------------------------------------------

def _laplace_integral(optimum: bool, fading: bool, point: ChannelPoint,
                      tol: Tolerance) -> RateValue:
    beta, gamma = point.beta, point.gamma
    log_gamma = math.log(gamma)

    def integrand(u: float) -> float:
        # t = s gamma as one exponential: at huge gamma, s = e^u underflows
        t = math.exp(u + log_gamma)
        a = t / (1.0 + t) if fading else -math.expm1(-t)
        decay = math.exp(-math.exp(u))
        return decay * (-math.expm1(-beta * a) if optimum else math.exp(-beta * a) * a)

    # cuts at each turn (s = 1, t = 1, beta t = 1) and 4 e-folds either
    # side keep GK15 from accepting a wide flat panel across a turn; the
    # integrand falls like e^u below the lowest turn and like e^-s above
    # s = 1, so the ends leave 4e-18 and 2e-22 of it
    turns = (0.0, -log_gamma, -log_gamma - math.log(beta))
    lo, hi = min(turns) - 40.0, math.log(50.0)
    cuts = sorted({lo, hi} | {c + d for c in turns for d in (-4.0, 0.0, 4.0) if lo < c + d < hi})
    scale = (1.0 if optimum else beta) / LN2
    q = integrate_interval(integrand, cuts, Tolerance(rel=tol.rel, abs=tol.abs / scale))
    return RateValue(scale * q.value, scale * q.err_estimate)


def laplace_rate(scheme: SchemeSpec, point: ChannelPoint,
                 tol: Tolerance = DEFAULT_TOLERANCE) -> RateValue:
    """Rate of a sparse scheme from the Laplace transform of the power
    in a dimension, with no Poisson sum: the cross-check of the series.

    E ln(1 + Y) = integral over s > 0 of e^-s (1 - E e^(-sY)) / s.  The
    power is a Poisson(beta) sum of user powers with transform
    L(t) = 1/(1+t) under fading and e^-t without, so at t = s gamma its
    transform is M = exp(-beta A), A = 1 - L.  In u = ln s the optimum
    rate is 1/ln2 times the integral of e^-s (1 - M) du, and the matched
    filter (E ln(1 + P/(1 + I)), a difference of two such integrals) is
    beta/ln2 times that of e^-s M A du; without fading MMSE and zero
    forcing coincide with it.  ``err_estimate`` is the quadrature's own.
    Dense schemes raise UnsupportedSchemeError.
    """
    _formula(scheme)
    if scheme.spreading is not Spreading.ONE_SPARSE:
        raise UnsupportedSchemeError(f"no Laplace form for {scheme.name}; sparse schemes only")
    return _rate_route(functools.partial(
        _laplace_integral, scheme.detector is Detector.OPTIMUM,
        scheme.fading is Fading.RAYLEIGH))(point, tol)


# ----------------------------------------------------------------------
# Dense spreading: one efficiency pair (x, 1 - x)
# ----------------------------------------------------------------------

def _divergence(x: float, d: float) -> float:
    """D(d) = -d - ln(1 - d) = x - 1 - ln x >= 0 at d = 1 - x: each
    optimum rate is its MMSE rate plus D/ln 2 (Verdu & Shamai, IEEE T-IT
    45(2), 1999), so it is never below it.  D is the series of d^k/k,
    k >= 2, below d = 1e-3 (the terms from k = 8 on are below 3e-19 of
    it), and x - 1 - ln x once d >= 1/2, where ln x keeps a tiny x."""
    if d >= 0.5:
        return x - 1.0 - math.log(x)
    if d >= 1e-3:
        return -d - math.log1p(-d)
    return d * d * (1 / 2 + d * (1 / 3 + d * (1 / 4 + d * (1 / 5 + d * (1 / 6 + d / 7)))))


def _mmse_sinr(gamma: float, b: float) -> float:
    """The MMSE SINR without fading for b = 1 + (beta - 1) gamma: the
    positive root of s^2 + b s - gamma = 0 (Tse & Hanly, 1999).  The
    root is taken in whichever form adds terms of one sign, so nothing
    cancels at any SNR; hypot keeps b^2 from overflowing."""
    r = math.hypot(b, 2.0 * math.sqrt(gamma))
    return 2.0 * gamma / (b + r) if b >= 0.0 else 0.5 * (r - b)


def _ds_nofading_parts(point: ChannelPoint) -> tuple[float, float, float]:
    """x = s/gamma, 1 - x = beta s/(1 + s) and the MMSE rate beta log2(1 + s),
    s the MMSE SINR, as s(1 + s) = gamma (1 - (beta - 1) s).  In Verdu &
    Shamai's optimum rate, ln(1 + beta gamma - F/4) = -ln x, F/(4 gamma) = 1 - x."""
    beta, gamma = point.beta, point.gamma
    s = _mmse_sinr(gamma, 1.0 + (beta - 1.0) * gamma)
    return s / gamma, beta * s / (1.0 + s), beta * math.log1p(s) / LN2


@_rate_route
def opt_se_ds_nofading(point: ChannelPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> RateValue:
    """Optimum-decoding spectral efficiency of dense random spreading
    with unit gains: the MMSE rate plus D(1 - x)/ln 2."""
    x, d, mmse = _ds_nofading_parts(point)
    value = mmse + _divergence(x, d) / LN2
    return RateValue(value, 8.0 * 2.220446049250313e-16 * value)


@_rate_route
def mmse_se_ds_nofading(point: ChannelPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> RateValue:
    """Linear-MMSE spectral efficiency of dense random spreading with
    unit gains: beta log2(1 + s), s the MMSE SINR."""
    value = _ds_nofading_parts(point)[2]
    return RateValue(value, 8.0 * 2.220446049250313e-16 * value)


def _efficiency_bracket(beta: float, gamma: float) -> list[float]:
    """The bracket [a, b] of :func:`mmse_efficiency_ds_fading`."""
    lo = max(0.0, 1.0 - beta)
    return sorted(min(1.0, max(lo, bound)) for bound in (
        _mmse_sinr(gamma, 1.0 + (beta - 1.0) * gamma) / gamma,
        _mmse_sinr(beta * math.log1p(gamma) / gamma, beta - 1.0)))


def mmse_efficiency_ds_fading(point: ChannelPoint) -> MmseEfficiency:
    """Multiuser efficiency x of the dense MMSE receiver under fading.

    Solves x = 1 - beta + beta * E[1/(1 + x gamma Z)], Z ~ Exp(1), with
    the residual in one of two forms of the same function, at
    c = 1/(x gamma), as c e^c E_1(c) = 1 - e^c E_2(c):

    - x - 1 + beta e^c E_2(c) where c > 16.  No term exceeds 1, so it
      rounds at about eps, not beta eps.  Below x gamma = 1e-17,
      e^c E_2(c) is x gamma to double precision; 1/(x gamma) can overflow.
    - x + (beta - 1) - beta c e^c E_1(c) elsewhere, where x can be tiny
      (1e-49 at beta = 1, gamma = 1e100) and x - 1 would round it away.

    The residual strictly increases in x, as the expectation falls, so
    it has one root.  Brent's method runs on [a, b], within a factor of
    about beta * ln(gamma) of the root (at beta >= 1 and huge gamma it
    lies hundreds of decades below 1):

    - a, the no-fading efficiency (the positive root of
      gamma x^2 + (1 + (beta - 1) gamma) x - 1), is a lower bound: by
      Jensen's inequality for the convex 1/(1 + s),
      E[1/(1 + x gamma Z)] >= 1/(1 + x gamma), so the residual at a is
      at most the no-fading residual, which is zero there.
    - b, the positive root of x^2 + (beta - 1) x = beta ln(1 + gamma)/gamma,
      is an upper bound: E[1/(1 + s Z)] = z e^z E_1(z) < z ln(1 + 1/z)
      at z = 1/s, so for x <= 1 the residual exceeds
      (x^2 + (beta - 1) x - beta ln(1 + gamma)/gamma)/x, zero at b.

    Both are clamped to [max(0, 1-beta), 1] and sorted, as a computed
    pair can cross by an ulp.  If the residual is >= 0 at a, or <= 0 at
    b, the root lies within rounding of that end (as at x = 1 once
    beta * gamma is below the rounding error of beta - 1, or at
    x = 1 - beta once gamma is huge), and the end is returned.
    FixedPointError is raised when a residual is not a number.
    """
    beta, gamma = point.beta, point.gamma
    if gamma == 0.0:
        return MmseEfficiency(1.0, 0.0)

    # cached because Brent evaluates the bracket ends again, and its
    # returned root is one of the points it has already evaluated
    @functools.lru_cache(maxsize=None)
    def residual_fn(x: float) -> float:
        s = x * gamma
        if s < 1.0 / 16.0:
            return x - 1.0 + beta * (s if s < 1e-17 else exp_integral_en_scaled(2, 1.0 / s))
        z = 1.0 / s
        return x + (beta - 1.0) - beta * (z * exp_integral_en_scaled(1, z))

    # the width test alone decides: an absolute residual floor would
    # accept x ~ 1e-12 where the root is x ~ 1e-49
    root_tol = Tolerance(rel=1e-14, abs=0.0)
    a, b = _efficiency_bracket(beta, gamma)
    r_a = residual_fn(a)
    if r_a >= 0.0:
        return MmseEfficiency(a, abs(r_a))
    r_b = residual_fn(b)
    if r_b <= 0.0:
        return MmseEfficiency(b, abs(r_b))
    if not r_a < 0.0 < r_b:
        raise FixedPointError(
            f"no sign change on [{a}, {b}]: residual {r_a:.3e} and {r_b:.3e} "
            f"at beta={beta}, gamma={gamma}")
    x = find_root_bracketed(residual_fn, a, b, root_tol)
    return MmseEfficiency(x, abs(residual_fn(x)))


def _ds_fading_parts(point: ChannelPoint) -> tuple[float, float, float]:
    """x, 1 - x and the MMSE rate beta/ln2 * e^z E_1(z) at z = 1/(gamma x)."""
    x = mmse_efficiency_ds_fading(point).value
    return x, 1.0 - x, point.beta / LN2 * exp_integral_en_scaled(1, 1.0 / (point.gamma * x))


@_rate_route
def mmse_se_ds_fading(point: ChannelPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> RateValue:
    """Linear-MMSE spectral efficiency of dense spreading under fading:
    beta/ln2 * e^z E_1(z) at z = 1/(gamma x), x the multiuser efficiency."""
    _, _, value = _ds_fading_parts(point)
    return RateValue(value, tol.abs + tol.rel * value)


@_rate_route
def opt_se_ds_fading(point: ChannelPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> RateValue:
    """Optimum-decoding spectral efficiency of dense spreading under
    fading: the MMSE rate plus D(1 - x)/ln 2 at the same x."""
    x, d, mmse = _ds_fading_parts(point)
    value = mmse + _divergence(x, d) / LN2
    return RateValue(value, tol.abs + tol.rel * value)


# ----------------------------------------------------------------------
# Scheme dispatch
# ----------------------------------------------------------------------

_FORMULAS = {
    "lds-sumf-nofading": sumf_rate_lds_nofading,
    "lds-mmse-nofading": sumf_rate_lds_nofading,
    "lds-zf-nofading": sumf_rate_lds_nofading,
    "lds-opt-nofading": opt_se_lds_nofading,
    "lds-sumf-fading": sumf_rate_lds_fading,
    "lds-opt-fading": opt_se_lds_fading,
    "ds-mmse-nofading": mmse_se_ds_nofading,
    "ds-opt-nofading": opt_se_ds_nofading,
    "ds-mmse-fading": mmse_se_ds_fading,
    "ds-opt-fading": opt_se_ds_fading,
}

SUPPORTED_SCHEMES = tuple(sorted(_FORMULAS))


def _formula(scheme: SchemeSpec) -> _Formula:
    try:
        return _FORMULAS[scheme.name]
    except KeyError:
        raise UnsupportedSchemeError(
            f"no closed form for {scheme.name}; supported: {', '.join(SUPPORTED_SCHEMES)}"
        ) from None


def spectral_efficiency(scheme: SchemeSpec, point: ChannelPoint,
                        tol: Tolerance = DEFAULT_TOLERANCE) -> RateValue:
    """Rate of the given scheme at the given operating point, in bits
    per dimension.  Loads above 1e4 and SNRs above 1e303 raise
    DomainError."""
    return _formula(scheme)(point, tol)


# ----------------------------------------------------------------------
# Wideband and high-SNR anchors
# ----------------------------------------------------------------------

def eta_min(scheme: SchemeSpec) -> float:
    """Minimum energy per bit over noise level: ln 2 for every supported
    scheme (fading included, since received powers have unit mean)."""
    _formula(scheme)
    return LN2


def low_snr_slope(scheme: SchemeSpec, beta: float) -> float:
    """Wideband slope S0 = 2 C'(0)^2 / -C''(0) in bit/s/Hz per 3 dB at
    eta_min, C the rate in nats (Verdu, IEEE T-IT 48(6), 2002).  With m2
    = E Z^2 of a unit-mean received power Z (1, or 2 under fading), a
    linear detector's SINR is gamma Z (1 - beta gamma) + ..., so
    S0 = 2 beta/(2 beta + m2); optimum decoding averages ln(1 + gamma x)
    over a spectrum of second moment beta m2 + beta^2 (Shamai & Verdu,
    IEEE T-IT 47(4), 2001), so S0 = 2 beta/(beta + m2)."""
    ChannelPoint(beta, 0.0)  # domain check on beta
    _formula(scheme)
    m2 = 2.0 if scheme.fading is Fading.RAYLEIGH else 1.0
    load_weight = 1.0 if scheme.detector is Detector.OPTIMUM else 2.0
    return 2.0 * beta / (load_weight * beta + m2)


def high_snr_slope(scheme: SchemeSpec, beta: float) -> float:
    """High-SNR slope in bit/s/Hz per 3 dB.

    Sparse spreading keeps the same slope with or without fading:
    beta e^(-beta) for the linear detectors (only collision-free users
    keep growing) and 1 - e^(-beta) for optimum decoding (every hit
    dimension keeps growing).  Dense optimum decoding grows with the
    rank fraction min(K, N)/N = min(beta, 1) (Lozano, Tulino & Verdu,
    IEEE T-IT 51(12), 2005).  Dense MMSE follows the piecewise rule
    beta, 1/2, 0 for loads below, at, and above one.

    With fading at beta = 1, dense MMSE nears its 1/2 only like
    1/ln gamma.  There the efficiency solves x = E[1/(1 + sZ)] at
    s = x gamma, which is (ln s - gamma_E)/s + O(ln s/s^2), so
    s^2 ~ gamma ln s.  The rate is (ln s - gamma_E)/ln 2 + o(1), and
    ln s = (ln gamma + ln ln s)/2 grows by 1/2 + 1/(4 ln s), about
    1/2 + 1/(2 ln gamma), bits per 3 dB: 0.533 between 1e5 and 1e8.
    """
    ChannelPoint(beta, 0.0)  # domain check on beta
    _formula(scheme)
    if scheme.spreading is Spreading.ONE_SPARSE:
        if scheme.detector is Detector.OPTIMUM:
            return 1.0 - math.exp(-beta)
        return beta * math.exp(-beta)
    if scheme.detector is Detector.OPTIMUM:
        return min(beta, 1.0)
    if beta < 1.0:
        return beta
    if beta == 1.0:
        return 0.5
    return 0.0


# ----------------------------------------------------------------------
# Energy-per-bit conversions
# ----------------------------------------------------------------------

# ln gamma searched by gamma_from_eta, up to the largest SNR a route accepts
_T_MIN = -700.0
_T_MAX = math.log(_MAX_SNR)


def eta_from_gamma(scheme: SchemeSpec, beta: float, gamma: float,
                   tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Energy per bit over noise level at the given per-symbol SNR."""
    point = ChannelPoint(beta=beta, gamma=gamma)
    if gamma == 0.0:
        raise DegenerateRateError("eta is undefined at zero SNR (zero rate)")
    rate = spectral_efficiency(scheme, point, tol).bits_per_dim
    if rate <= 0.0:
        raise DegenerateRateError(f"rate vanished at beta={beta}, gamma={gamma}")
    return gamma * beta / rate


def gamma_from_eta(scheme: SchemeSpec, beta: float, eta: float,
                   tol: Tolerance = DEFAULT_TOLERANCE,
                   guess: float | None = None) -> float:
    """Per-symbol SNR at which the scheme operates at the given energy
    per bit.  Raises NoSolutionError at or below the ln 2 minimum.

    eta grows with gamma, so the root of eta(gamma) - eta in t = ln gamma
    is bracketed by walking t until the sign changes, and then found by
    Brent's method.  Without ``guess`` the walk starts at gamma = 1 and
    goes by decades.  With a ``guess`` (the root of a nearby problem, as
    in a sweep) it starts at ln(guess) with a step of 0.01 that doubles
    each time, up to one decade.  NonConvergenceError is raised unless
    the returned gamma reproduces eta to the root tolerance.
    """
    if not (isinstance(eta, (int, float)) and math.isfinite(eta) and eta > 0):
        raise DomainError(f"eta must be a positive finite real, got {eta!r}")
    if guess is not None and not (isinstance(guess, (int, float))
                                  and math.isfinite(guess) and guess > 0):
        raise DomainError(f"guess must be a positive finite real, got {guess!r}")
    _formula(scheme)
    if eta <= LN2:
        raise NoSolutionError(
            f"eta = {eta} does not exceed the universal minimum ln 2 = {LN2}")

    # memoised: the bracket ends are evaluated again by the root finder
    @functools.lru_cache(maxsize=None)
    def offset(t: float) -> float:
        g = math.exp(t)
        # scale the absolute rate target with the SNR: the rate itself is
        # O(gamma) near zero, and a fixed absolute floor would bury the
        # excess of eta over ln 2 in series truncation error for eta near
        # the floor
        point_tol = Tolerance(rel=tol.rel, abs=tol.abs * min(1.0, g))
        return eta_from_gamma(scheme, beta, g, point_tol) - eta

    decade = math.log(10.0)
    if guess is None:
        step, growth = decade, 1.0
        t_lo = t_hi = 0.0
    else:
        step, growth = 0.01, 2.0
        t_lo = t_hi = min(max(math.log(guess), _T_MIN), _T_MAX)
    f = offset(t_lo)
    if f == 0.0:
        return math.exp(t_lo)
    if f < 0.0:
        while f < 0.0:
            if t_hi >= _T_MAX:
                raise NonConvergenceError(f"eta = {eta} not reached below gamma = 1e303")
            if guess is not None:
                t_lo = t_hi
            # the last step stops at the bound rather than stepping past
            # a root below it into the refused SNRs
            t_hi = min(t_hi + step, _T_MAX)
            step = min(step * growth, decade)
            f = offset(t_hi)
    else:
        while f > 0.0:
            if guess is not None:
                t_hi = t_lo
            t_lo -= step
            step = min(step * growth, decade)
            if t_lo < _T_MIN:
                raise NonConvergenceError(f"eta = {eta} not bracketed above gamma = 1e-304")
            f = offset(t_lo)
    # the residual floor scales with eta - ln 2: just above the minimum a
    # floor fixed in eta would pass any gamma in a band of about 10%
    root_tol = Tolerance(rel=1e-11, abs=1e-10 * (eta - LN2))
    t = find_root_bracketed(offset, t_lo, t_hi, root_tol)
    # Brent stops once |offset| <= abs or the bracket is narrower than
    # rel |t|; as d ln(eta)/d ln(gamma) lies in [0, 1], the latter
    # leaves |offset| <= eta rel |t|.  A larger residual means the sign
    # change was a jump, not a root.  offset(t) was evaluated by the
    # root finder, so this reads the cache.
    residual = offset(t)
    if not abs(residual) <= root_tol.abs + eta * root_tol.rel * abs(t):
        raise NonConvergenceError(
            f"gamma = {math.exp(t)!r} gives eta {residual + eta!r}, not {eta!r}")
    return math.exp(t)
