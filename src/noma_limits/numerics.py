"""Scalar numerical substrate for the rate formulas and the Monte Carlo lab.

Provides the exponentially scaled exponential integral e^x E_n(x) of
integer order, adaptive Gauss-Kronrod quadrature on finite and
semi-infinite intervals, the window of a unimodal pmf walked out from
its mode, Poisson-weighted series over that window with a certified
truncation bound, and a bracketed root finder (Brent's method).

Every routine is a pure function of its arguments; the only module
data are constant tables, built at import and never written, so
concurrent calls from any number of threads are safe.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import BadBracketError, DomainError, NonConvergenceError

__all__ = [
    "Tolerance",
    "QuadResult",
    "DEFAULT_TOLERANCE",
    "exp_integral_en_scaled",
    "integrate_interval",
    "integrate_semi_infinite",
    "pmf_window",
    "poisson_weighted_sum",
    "find_root_bracketed",
]

_EULER_GAMMA = 0.5772156649015328606
_EPS = 2.220446049250313e-16
_TINY = 1e-300
_SUBNORMAL_MIN = 5e-324  # smallest positive double
_POISSON_MAX_TERMS = 10_000  # about 1e7 would lie in the window at beta = 1e12
_POISSON_CUT = 1e-17  # tail weight left out on each side, relative to the mode's
_QUAD_MAX_EVALS = 200_000  # per call; the test suite's largest call takes 810
_ROOT_MAX_EVALS = 200_000  # per Brent call; the test suite's largest takes 40


@dataclass(frozen=True)
class Tolerance:
    """Accuracy asked of an iterative routine: ``rel`` and ``abs`` combine
    as ``max(abs, rel * |value|)``.  Each routine fixes its own budget."""

    rel: float = 1e-10
    abs: float = 1e-12

    def __post_init__(self) -> None:
        if not (isinstance(self.rel, (int, float)) and math.isfinite(self.rel) and self.rel > 0):
            raise DomainError(f"rel must be a positive finite real, got {self.rel!r}")
        if not (isinstance(self.abs, (int, float)) and math.isfinite(self.abs) and self.abs >= 0):
            raise DomainError(f"abs must be a nonnegative finite real, got {self.abs!r}")

    def target(self, value: float) -> float:
        return max(self.abs, self.rel * abs(value))


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an error estimate and the evaluation count."""

    value: float
    err_estimate: float
    evals: int


def _require_positive_finite(name: str, x: float) -> None:
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise DomainError(f"{name} must be a positive finite real, got {x!r}")


def _require_order(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"order must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"order must be >= 1, got {n}")


# ----------------------------------------------------------------------
# Exponential integrals
# ----------------------------------------------------------------------

def _en_cf_scaled(n: int, x: float) -> float:
    # Modified Lentz continued fraction for e^x E_n(x), stable for x > 1.
    b = x + n
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        a = -i * (n - 1 + i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = _TINY
        d = 1.0 / d
        c = b + a / c
        if c == 0.0:
            c = _TINY
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise NonConvergenceError(f"continued fraction for order {n} at x={x} did not settle")


# Anchors x0 of the order-1 Taylor kernel, 1.08^j rounded to a multiple
# of 1/64, with f(x0) = e^x0 E_1(x0) from mpmath at 40 digits; rebuilt
# by tools/make_e1_anchors.py
_E1_ANCHORS = (
    (1.0, 0.5963473623231941),
    (1.078125, 0.5665270490341118),
    (1.171875, 0.5347361156532366),
    (1.265625, 0.5065601996997992),
    (1.359375, 0.4813899376663978),
    (1.46875, 0.4551942476247754),
    (1.59375, 0.4287262092416077),
    (1.71875, 0.40531747193868534),
    (1.84375, 0.3844494748256118),
    (2.0, 0.3613286168882226),
    (2.15625, 0.340937536631778),
    (2.328125, 0.32110365127849033),
    (2.515625, 0.30202614152835755),
    (2.71875, 0.2838374343028771),
    (2.9375, 0.26661611228288795),
    (3.171875, 0.2503989191096918),
    (3.421875, 0.2351912109302192),
    (3.703125, 0.22019393342649007),
    (4.0, 0.20634564990105583),
    (4.3125, 0.19356486796472752),
    (4.65625, 0.18124557354330917),
    (5.03125, 0.1695029300355393),
    (5.4375, 0.15840715278999296),
    (5.875, 0.14799329863048738),
    (6.34375, 0.1382700452665574),
    (6.84375, 0.12922709040852723),
    (7.390625, 0.12061104958188884),
    (7.984375, 0.11247875009834427),
    (8.625, 0.10485871626509317),
    (9.3125, 0.0977582761429816),
    (10.0625, 0.09103907803287771),
    (10.875, 0.0847346461192685),
    (11.734375, 0.07895556245377791),
    (12.671875, 0.07349101789491633),
    (13.6875, 0.06836776255916267),
    (14.78125, 0.06359563503235988),
    (15.96875, 0.05911742806860407),
)
_E1_INV_LOG_RATIO = 1.0 / math.log(1.08)
_E1_TAYLOR_MAX = 16.0


def _e1_series(x: float) -> float:
    # E_1(x) = -EulerGamma - ln x - sum_{k >= 1} (-x)^k / (k k!), for x <= 1
    total = 0.0
    fact = 1.0  # (-x)^k / k!
    k = 0
    while True:
        k += 1
        fact *= -x / k
        term = fact / k
        total += term
        if abs(term) <= 0.5 * _EPS * abs(total):
            return -_EULER_GAMMA - math.log(x) - total


def _e1_taylor_scaled(x: float) -> float:
    # f(x) = e^x E_1(x) about the nearest anchor x0, for 1 < x < 16.
    # f' = f - 1/x gives a_k = (a_(k-1) - (-1)^(k-1)/x0^k)/k for the
    # coefficients of (x - x0)^k; with b_k = a_k x0^k and u = (x - x0)/x0
    # that is b_k = (x0 b_(k-1) + (-1)^k)/k and f = sum b_k u^k.  |u| is
    # below 0.05 and the series converges like u^k, as f is analytic on
    # a disc of radius x0 about x0.
    x0, b = _E1_ANCHORS[round(math.log(x) * _E1_INV_LOG_RATIO)]
    u = (x - x0) / x0
    total = b
    power = 1.0
    sign = 1.0  # (-1)^k
    k = 0
    while True:
        k += 1
        sign = -sign
        b = (x0 * b + sign) / k
        power *= u
        term = b * power
        total += term
        if abs(term) <= 0.5 * _EPS * total:
            return total


def _e1_scaled(x: float) -> float:
    # e^x E_1(x) for a validated x > 0
    if x <= 1.0:
        return math.exp(x) * _e1_series(x)
    if x < _E1_TAYLOR_MAX:
        return _e1_taylor_scaled(x)
    return _en_cf_scaled(1, x)


def exp_integral_en_scaled(n: int, x: float) -> float:
    """e^x times the order-n exponential integral, safe for very large x.

    The plain value underflows near x ~ 746 while the scaled one decays
    only like 1/x, so rate formulas work with this form throughout.
    Order 1 takes its power series up to x = 1, a Taylor expansion about
    the nearest of 37 tabulated anchors on 1 < x < 16 and the modified
    Lentz continued fraction beyond; higher orders take the upward
    recurrence from order 1 up to x = 1 and the continued fraction above.
    """
    _require_order(n)
    _require_positive_finite("x", x)
    if n == 1:
        return _e1_scaled(x)
    if x > 1.0:
        return _en_cf_scaled(n, x)
    # E_(q+1) = (e^-x - x E_q)/q (Abramowitz & Stegun 5.1.14): for
    # x <= 1 each step scales the inherited error by x/q <= 1
    e = _e1_scaled(x)
    for q in range(1, n):
        e = (1.0 - x * e) / q
    return e


# ----------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ----------------------------------------------------------------------

# 15-point Kronrod extension of 7-point Gauss (positive abscissae; the
# Gauss subset sits at indices 1, 3, 5 plus the midpoint).
_GK_X = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_GK_WK = (
    0.02293532201052922,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.16900472663926790,
    0.19035057806478540,
    0.20443294007529889,
)
_GK_WK_CENTER = 0.20948214108472782
_GK_WG = (0.12948496616886969, 0.27970539148927664, 0.38183005050511894)
_GK_WG_CENTER = 0.41795918367346939


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = _GK_WK_CENTER * fc
    resg = _GK_WG_CENTER * fc
    for i in range(7):
        dx = h * _GK_X[i]
        s = f(c - dx) + f(c + dx)
        resk += _GK_WK[i] * s
        if i % 2 == 1:
            resg += _GK_WG[i // 2] * s
    return resk * h, abs((resk - resg) * h)


def _adaptive(pieces: Sequence[tuple[Callable[[float], float], float, float]],
              tol: Tolerance) -> QuadResult:
    heap: list = []
    ticket = 0
    evals = 0
    total = 0.0
    toterr = 0.0
    for f, a, b in pieces:
        v, e = _gk15(f, a, b)
        evals += 15
        total += v
        toterr += e
        heapq.heappush(heap, (-e, ticket, a, b, v, e, f))
        ticket += 1
    while toterr > tol.target(total):
        if not heap:
            break  # every panel is at floating-point resolution
        if evals + 30 > _QUAD_MAX_EVALS:
            raise NonConvergenceError(
                f"quadrature would exceed {_QUAD_MAX_EVALS} evaluations "
                f"(error estimate {toterr:.3e}, value {total:.6e})")
        _, _, a, b, v, e, f = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if not (a < m < b):
            continue  # cannot be split further; its error stays booked
        v1, e1 = _gk15(f, a, m)
        v2, e2 = _gk15(f, m, b)
        evals += 30
        total += (v1 + v2) - v
        toterr += (e1 + e2) - e
        heapq.heappush(heap, (-e1, ticket, a, m, v1, e1, f))
        ticket += 1
        heapq.heappush(heap, (-e2, ticket, m, b, v2, e2, f))
        ticket += 1
    return QuadResult(total, max(toterr, 0.0), evals)


def integrate_interval(f: Callable[[float], float], points: Sequence[float],
                       tol: Tolerance = DEFAULT_TOLERANCE) -> QuadResult:
    """Adaptive 15-point Gauss-Kronrod integral of f from points[0] to
    points[-1], cut at the interior points; one heap refines every panel."""
    panels = list(zip(points, points[1:]))
    if not (panels and all(a < b for a, b in panels) and math.isfinite(points[-1] - points[0])):
        raise DomainError(f"need two or more finite increasing points, got {points!r}")
    return _adaptive([(f, a, b) for a, b in panels], tol)


def integrate_semi_infinite(f: Callable[[float], float],
                            tol: Tolerance = DEFAULT_TOLERANCE) -> QuadResult:
    """Adaptive integration of a decaying f over [0, inf).

    [0, 1] is integrated directly; [1, inf) is mapped onto the unit
    interval by z = 1 + u/(1-u), and both halves share one refinement
    heap and one evaluation budget.
    """

    def tail(u: float) -> float:
        t = 1.0 - u
        if t <= 0.0:
            return 0.0
        fz = f(1.0 + u / t)
        if fz == 0.0:
            return 0.0
        return fz / t / t

    return _adaptive([(f, 0.0, 1.0), (tail, 0.0, 1.0)], tol)


# ----------------------------------------------------------------------
# Poisson and binomial windows
# ----------------------------------------------------------------------

def pmf_window(mode: int, ratio: Callable[[int], float], last: float,
               negligible: Callable[[int, float], bool],
               max_terms: float = math.inf) -> tuple[int, list[float]]:
    """The counts of a unimodal pmf on 0..last that hold all but a
    negligible tail on each side, walked outward from the mode.

    ratio(c) = pmf(c + 1) / pmf(c) must fall as c grows.  Weights are
    taken relative to the mode's, so no factor such as e^(-beta) is
    formed and nothing underflows.  Once the ratio r at a count c on the
    way out is below 1 it only falls further, so the weights beyond c
    sum to at most w(c) r / (1 - r); each side stops at the first c for
    which negligible(c, that bound) is true.  A bound that underflows
    is 0.  A window that would hold more than ``max_terms`` counts
    raises NonConvergenceError.

    Returns the first count kept and the kept weights in ascending count
    order, relative to the mode's weight of 1 and not normalized.
    """

    def side(step: int, end: float, room: float) -> list[float]:
        kept, c, w = [], mode, 1.0
        while c != end:
            r = ratio(c) if step > 0 else 1.0 / ratio(c - 1)
            if r < 1.0 and negligible(c, w * r / (1.0 - r)):
                break
            if len(kept) >= room:
                raise NonConvergenceError(
                    f"pmf window still above its cut after {max_terms} terms")
            c, w = c + step, w * r
            kept.append(w)
        return kept

    up = side(1, last, max_terms - 1)
    down = side(-1, 0, max_terms - 1 - len(up))
    return mode - len(down), down[::-1] + [1.0] + up


def poisson_weighted_sum(beta: float, term: Callable[[int], float],
                         term_growth_bound: float,
                         tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Sum of e^(-beta) beta^k / k! * term(k) over k >= 1.

    The caller certifies |term(k)| <= term_growth_bound * log(2 + k).
    The weights are a pmf_window walked out from the mode by the ratios
    beta / (k + 1), so the cost grows like sqrt(beta) rather than beta.
    A side is cut where its tail weight is at most 1e-17 of the mode's
    and the part of the sum it leaves out is at most ``tol.abs / 2``.
    Past a count c where a side stops, with ratio r, that part is at
    most the tail weight times term_growth_bound *
    (log(2 + c) + 1 / ((1 - r) (2 + c))), as log(2 + k) is at most
    log(2 + c) + |k - c| / (2 + c); a side stops only where
    (1 - r) (2 + c) >= 1, so the factor is at most
    term_growth_bound * (log(2 + c) + 1).  The mode's weight is at most
    1, so cuts relative to it are conservative.

    The weights are normalized over the whole window, k = 0 included
    when the window reaches it.  Then term(k) is called once for each
    k >= 1 of the window, in ascending order.  A window of more than
    10,000 terms raises NonConvergenceError before any term is called.
    """
    _require_positive_finite("beta", beta)
    if not (isinstance(term_growth_bound, (int, float))
            and math.isfinite(term_growth_bound) and term_growth_bound >= 0):
        raise DomainError(f"term_growth_bound must be nonnegative, got {term_growth_bound!r}")
    tail_tol = 0.5 * tol.abs

    def negligible(c: int, tail: float) -> bool:
        return (tail <= _POISSON_CUT
                and tail * term_growth_bound * (math.log(2.0 + c) + 1.0) <= tail_tol)

    first, weights = pmf_window(int(beta), lambda k: beta / (k + 1), math.inf, negligible,
                                _POISSON_MAX_TERMS)
    start = max(first, 1)  # k = 0 has no term
    total = math.fsum([w * term(k) for k, w in enumerate(weights[start - first:], start)])
    return total / math.fsum(weights)


# ----------------------------------------------------------------------
# Bracketed root finding
# ----------------------------------------------------------------------

def find_root_bracketed(g: Callable[[float], float], lo: float, hi: float,
                        tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Root of g on [lo, hi] by Brent's method.

    Each step takes an inverse-quadratic or secant step and falls back
    to bisection whenever that step would not shrink the bracket fast
    enough (Brent, *Algorithms for Minimization without Derivatives*,
    1973, ch. 4), so convergence is superlinear on smooth roots while
    the bracket keeps shrinking on rough ones.

    Returns the first point where |g| <= ``tol.abs``, an endpoint
    included, or the better end of a sign-change bracket once its width
    falls below ``tol.rel`` times the root's magnitude.  Endpoints that
    neither straddle a sign change nor meet ``tol.abs`` raise
    BadBracketError.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    f_lo = g(lo)
    f_hi = g(hi)
    evals = 2
    if abs(f_lo) <= tol.abs:
        return lo
    if abs(f_hi) <= tol.abs:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise BadBracketError(
            f"g({lo}) = {f_lo:.6e} and g({hi}) = {f_hi:.6e} have the same sign")
    # b is the best estimate, c the point across the sign change from b,
    # a the previous b; d is the last step and e the one before it
    a, f_a = lo, f_lo
    b, f_b = hi, f_hi
    c, f_c = a, f_a
    d = e = b - a
    while True:
        if (f_b > 0) == (f_c > 0):
            c, f_c = a, f_a
            d = e = b - a
        if abs(f_c) < abs(f_b):
            a, b, c = b, c, b
            f_a, f_b, f_c = f_b, f_c, f_b
        step_floor = max(0.5 * tol.rel, 2.0 * _EPS) * abs(b) + _SUBNORMAL_MIN
        half = 0.5 * (c - b)
        if abs(half) <= step_floor:
            return b
        if evals >= _ROOT_MAX_EVALS:
            raise NonConvergenceError(
                f"root not located to tolerance within {_ROOT_MAX_EVALS} evaluations")
        if abs(e) >= step_floor and abs(f_a) > abs(f_b):
            s = f_b / f_a
            if a == c:
                p = 2.0 * half * s  # secant
                q = 1.0 - s
            else:
                q = f_a / f_c  # inverse quadratic interpolation
                r = f_b / f_c
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * half * q - abs(step_floor * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, f_a = b, f_b
        b += d if abs(d) > step_floor else math.copysign(step_floor, half)
        f_b = g(b)
        evals += 1
        if abs(f_b) <= tol.abs:
            return b
