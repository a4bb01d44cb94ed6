"""Finite-size Monte Carlo laboratory for the spreading ensembles.

Draws finite systems (n_dims dimensions, n_users users), exposes the
exactly diagonal Gram structure of one-dimension-per-user spreading,
and estimates empirical moments, spectral-distribution distances, and
achievable rates that the closed forms in :mod:`noma_limits.rates` must
match as the system grows.

Each ``mc_*`` estimator owns its run end to end: it checks its sizes
and seed, then computes its analytic reference (which checks the
reference's domain), then draws, and returns an :class:`McEstimate`
that carries the reference next to the estimate.  So a run that cannot
be compared fails before anything is drawn.

Reproducibility: every routine is a pure function of its arguments.
Randomness comes from a counter-based generator keyed by
(seed, stream tag, block index), so results are bit-for-bit identical
for a given seed no matter how calls are scheduled across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import MomentVector
from .errors import DomainError, FactorizationError
from .parallel import thread_count, thread_map
from .rates import LN2, ChannelPoint, opt_se_ds_fading, opt_se_lds_fading, sumf_rate_lds_fading

__all__ = [
    "SystemDraw",
    "GramDiagonal",
    "LsdMixture",
    "McEstimate",
    "draw_system",
    "gram_diagonal",
    "draw_gram",
    "empirical_moments",
    "empirical_opt_se",
    "empirical_lsd_cdf_distance",
    "mc_lsd_distance",
    "mc_opt_se",
    "mc_sumf_rate",
    "mc_ds_fading_logdet",
    "independence_diagnostic",
]

_BLOCK = 1_000_000
_CHUNK = 1 << 16  # samples per pass of the streamed draws, 512 kB of float64
_MAX_ENTRIES = 1 << 24  # largest dense spreading matrix, about 128 MB of float64
_MAX_USERS = 1 << 31  # the count law spans about 37 sqrt(K) counts at N = 2
# largest system draw_system builds: 16 bytes per user (position, power)
# and 8 per dimension for the sums gram_diagonal bins, about 400 MB at the
# limit; draw_gram holds 4 bytes per user and 8 per dimension, about 192 MB
_MAX_DRAW = 1 << 24
# largest sample and trial counts of the estimators: a count beyond any
# machine's reach fails at once instead of looping over blocks; both stay
# far below the 2^48 block indices a key holds
_MAX_SAMPLES = 10**12
_MAX_TRIALS = 10**6

# stream tags keep independent estimators on disjoint key spaces
_STREAM_SYSTEM = 1
_STREAM_SUMF = 2
_STREAM_DS = 3
_STREAM_INDEP = 4


def _check_seed(seed: int) -> int:
    """The seed as a 64-bit key word; a larger one would alias a smaller."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if seed >= 1 << 64:
        raise DomainError(f"seed must be below 2^64, got {seed}")
    return int(seed)


def _generator(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    key = np.array([np.uint64(_check_seed(seed)),
                    np.uint64(((stream & 0xFFFF) << 48) | (index & 0xFFFFFFFFFFFF))],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_size(name: str, v: int, hi: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {v!r}")
    if v < 1:
        raise DomainError(f"{name} must be >= 1, got {v}")
    if hi is not None and v > hi:
        raise DomainError(f"{name} must be <= {hi}, got {v}")
    return int(v)


def _user_count(n_dims: int, beta: float, limit: int = _MAX_USERS) -> int:
    """beta * n_dims rounded to a user count in [1, limit]."""
    try:
        n_users = round(beta * n_dims)
    except (OverflowError, ValueError):
        # n_dims can be too long to print
        raise DomainError(f"beta * n_dims is not a finite user count (beta={beta})") from None
    if n_users < 1:
        raise DomainError(f"beta * n_dims rounds to zero users (beta={beta}, n_dims={n_dims})")
    if n_users > limit:
        raise DomainError(f"beta * n_dims = {beta * n_dims:g} users exceeds the limit: "
                          f"n_users must be <= {limit}")
    return n_users


def _blocks(seed: int, stream: int, n: int, first: int = 0, step: int = 1):
    """(generator, size) for the fixed-size blocks first, first + step,
    ... of n draws, each generator keyed by its block's index."""
    for index in range(first, -(-n // _BLOCK), step):
        yield _generator(seed, stream, index), min(_BLOCK, n - index * _BLOCK)


@dataclass(frozen=True)
class SystemDraw:
    """One finite system: per-user dimension choices and unit-mean
    exponential fading powers.  Chip signs are not drawn: they never
    change the Gram spectrum (see gram_diagonal)."""

    n_dims: int
    n_users: int
    positions: np.ndarray   # 0-based dimension index per user, in [0, n_dims)
    fade_powers: np.ndarray  # Exp(1) per user
    seed: int

    def __post_init__(self) -> None:
        for name in ("positions", "fade_powers"):
            if len(getattr(self, name)) != self.n_users:
                raise DomainError(f"{name} must have length n_users={self.n_users}")


@dataclass(frozen=True)
class GramDiagonal:
    """Eigenvalues of the one-sparse Gram matrix: the per-dimension sums
    of fading powers of the users that landed there."""

    values: np.ndarray

    @property
    def n_dims(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error, and the analytic
    reference it estimates."""

    mean: float
    std_error: float
    n_samples: int
    seed: int
    reference: float


def draw_system(n_dims: int, n_users: int, seed: int) -> SystemDraw:
    """Draw one system: uniform dimension per user, Exp(1) fading power.
    Deterministic in (n_dims, n_users, seed).  Each size is at most
    2^24; a larger one raises DomainError before anything is allocated."""
    n_dims = _check_size("n_dims", n_dims, _MAX_DRAW)
    n_users = _check_size("n_users", n_users, _MAX_DRAW)
    rng = _generator(seed, _STREAM_SYSTEM)
    positions = rng.integers(0, n_dims, size=n_users)
    fade_powers = rng.standard_exponential(n_users)
    return SystemDraw(n_dims=n_dims, n_users=n_users, positions=positions,
                      fade_powers=fade_powers, seed=int(seed))


def gram_diagonal(draw: SystemDraw) -> GramDiagonal:
    """Per-dimension received-power sums, computed in O(n_users) without
    forming any matrix.

    With one chip per user the cross terms of the Gram matrix vanish
    identically (each product contains a structurally zero factor), so
    these sums are exactly its eigenvalues, whatever the chip signs.
    """
    values = np.bincount(draw.positions, weights=draw.fade_powers,
                         minlength=draw.n_dims)
    return GramDiagonal(values=values)


def draw_gram(n_dims: int, n_users: int, seed: int) -> GramDiagonal:
    """gram_diagonal(draw_system(n_dims, n_users, seed)), bit for bit,
    without holding the draw: the same stream gives int32 positions (for
    ranges below 2^32 numpy draws the same values as for int64) and then
    the powers, one chunk at a time, each chunk added in user order as
    bincount adds them.  Same size and seed checks as draw_system."""
    n_dims = _check_size("n_dims", n_dims, _MAX_DRAW)
    n_users = _check_size("n_users", n_users, _MAX_DRAW)
    rng = _generator(seed, _STREAM_SYSTEM)
    positions = rng.integers(0, n_dims, size=n_users, dtype=np.int32)
    values = np.zeros(n_dims)
    chunk = np.empty(min(_CHUNK, n_users))
    for lo in range(0, n_users, _CHUNK):
        powers = chunk[:min(_CHUNK, n_users - lo)]
        rng.standard_exponential(out=powers)
        np.add.at(values, positions[lo:lo + len(powers)], powers)
    return GramDiagonal(values=values)


def empirical_moments(gram: GramDiagonal, l_max: int) -> MomentVector:
    """Spectral moments (1/N) sum_i lambda_i^L for L = 1..l_max; the load
    field carries the first moment, the natural empirical load estimate.

    Each sum is numpy's pairwise summation.  The terms are nonnegative,
    so its relative error stays within about ceil(log2 N) machine
    epsilons (about 4e-15 at N = 1e5), far below the sampling error the
    moments are compared at."""
    l_max = _check_size("l_max", l_max, 64)
    lam = gram.values
    values = []
    power = np.ones_like(lam)
    for _ in range(l_max):
        power = power * lam
        values.append(float(np.sum(power)) / gram.n_dims)
    return MomentVector(beta=values[0], orders=tuple(range(1, l_max + 1)),
                        values=tuple(values))


def _opt_terms(gram: GramDiagonal, gamma: float) -> np.ndarray:
    """ln(1 + gamma lambda_i) for each dimension: the per-dimension term,
    in nats, of the optimum-decoding rate of one draw."""
    if not (isinstance(gamma, (int, float)) and math.isfinite(gamma) and gamma >= 0):
        raise DomainError(f"gamma must be a nonnegative finite real, got {gamma!r}")
    return np.log1p(gamma * gram.values)


def empirical_opt_se(gram: GramDiagonal, gamma: float) -> float:
    """Optimum-decoding spectral efficiency of one draw:
    (1/N) sum_i log2(1 + gamma lambda_i), using the diagonal eigenvalues."""
    return float(np.sum(_opt_terms(gram, gamma)) / (gram.n_dims * LN2))


def _draw_size(n_dims: int, beta: float) -> tuple[int, int]:
    """(n_dims, n_users) of one system draw, checked before anything is
    drawn: the user count first, as a huge n_dims may not even convert
    to a float."""
    n_users = _user_count(n_dims, beta, _MAX_DRAW)
    return _check_size("n_dims", n_dims, _MAX_DRAW), n_users


def mc_opt_se(n_dims: int, beta: float, gamma: float, seed: int) -> McEstimate:
    """Optimum-decoding rate of one sparse-fading draw: the mean over its
    n_dims dimensions of log2(1 + gamma lambda_i), with the standard
    error of that mean (0 for one dimension), against the limit
    opt_se_lds_fading."""
    n_dims, n_users = _draw_size(n_dims, beta)
    seed = _check_seed(seed)
    reference = opt_se_lds_fading(ChannelPoint(beta, gamma)).bits_per_dim
    terms = _opt_terms(draw_gram(n_dims, n_users, seed), gamma) / LN2
    se = float(terms.std(ddof=1) / math.sqrt(n_dims)) if n_dims > 1 else 0.0
    return McEstimate(float(terms.mean()), se, n_dims, seed, reference)


def _pmf_from_mode(mode: int, ratio, last: float, cut: float) -> tuple[int, np.ndarray]:
    """A unimodal pmf on the counts 0..last, walked outward from its mode.

    ratio(c) = pmf(c + 1) / pmf(c) must fall as c grows.  Terms are taken
    relative to the mode's, so no factor such as e^(-beta) is formed and
    nothing underflows; each side stops once a geometric bound on its
    tail, valid because the ratio only falls away from the mode, drops
    below ``cut`` times the mode's term.  Returns the first count kept
    and the kept terms normalized to unit sum.
    """
    up, c, w = [], mode, 1.0
    while c < last:
        r = ratio(c)
        if r < 1.0 and w * r < cut * (1.0 - r):
            break
        c, w = c + 1, w * r
        up.append(w)
    down, c, w = [], mode, 1.0
    while c > 0:
        r = 1.0 / ratio(c - 1)
        if r < 1.0 and w * r < cut * (1.0 - r):
            break
        c, w = c - 1, w * r
        down.append(w)
    pmf = np.array(down[::-1] + [1.0] + up)
    return mode - len(down), pmf / pmf.sum()


class LsdMixture:
    """Limiting spectral law of the one-sparse fading ensemble at load
    beta: an atom at zero of mass e^(-beta) plus Poisson(beta)-weighted
    unit-rate Erlang components of shapes k >= 1.

    The Poisson weights are walked out from the mode (_pmf_from_mode),
    so large loads do not underflow; the tails cut on either side hold
    less than 1e-17 of the mass, and shapes in the lower cut tail keep a
    zero weight.  Loads above 1e5 are refused: the weights are stored for
    every shape up to about beta."""

    def __init__(self, beta: float):
        if not (isinstance(beta, (int, float)) and math.isfinite(beta) and beta > 0):
            raise DomainError(f"beta must be a positive finite real, got {beta!r}")
        if beta > 1e5:
            raise DomainError(f"beta must be at most 1e5 for the limiting mixture, got {beta!r}")
        self.beta = float(beta)
        first, pmf = _pmf_from_mode(int(beta), lambda k: beta / (k + 1), math.inf, 1e-17)
        weights = np.concatenate([np.zeros(first), pmf])  # indexed by shape, from 0
        self.atom_weight = float(weights[0])
        self.component_weights = weights[1:]

    @property
    def n_components(self) -> int:
        return len(self.component_weights)

    def cdf(self, xs: np.ndarray) -> np.ndarray:
        """Mixture CDF at each point of a one-dimensional array; a
        non-finite entry raises DomainError.

        Uses the complement identity: summing Erlang CDFs against
        Poisson(beta) weights equals one minus the expectation, over a
        Poisson(x) count J, of the upper Poisson(beta) tail above J.  Each
        Poisson(x) term is formed in log space, since e^(-x) alone
        underflows for x > 745.  The tests compare it with scipy's
        regularized lower gamma function summed over the components.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1:
            raise DomainError("xs must be one-dimensional")
        if not np.all(np.isfinite(xs)):
            raise DomainError("xs must be finite")
        # upper[j] = mixture mass on components of shape strictly above j
        upper = self.component_weights[::-1].cumsum()[::-1]
        out = np.zeros_like(xs)
        pos = xs > 0
        x_pos = xs[pos]
        log_x = np.log(x_pos)
        acc = np.zeros_like(x_pos)
        for j in range(self.n_components):
            acc += np.exp(j * log_x - x_pos - math.lgamma(j + 1.0)) * upper[j]
        out[pos] = np.clip(1.0 - acc, 0.0, 1.0)
        out[xs == 0.0] = self.atom_weight
        return out


def empirical_lsd_cdf_distance(gram: GramDiagonal, mixture: LsdMixture) -> float:
    """Kolmogorov-Smirnov distance between the draw's empirical spectral
    distribution and the limiting mixture, evaluated exactly at the jump
    points (both sides of each jump)."""
    n = gram.n_dims
    uniq, counts = np.unique(gram.values, return_counts=True)
    ecdf_hi = np.cumsum(counts) / n
    ecdf_lo = ecdf_hi - counts / n
    model = mixture.cdf(uniq)
    # the lower comparison needs the model's left limit; the mixture is
    # continuous except for its single atom at zero
    model_left = np.where(uniq == 0.0, 0.0, model)
    return float(max(np.max(np.abs(model - ecdf_hi)),
                     np.max(np.abs(model_left - ecdf_lo))))


def mc_lsd_distance(n_dims: int, beta: float, seed: int) -> McEstimate:
    """Kolmogorov-Smirnov distance between one draw's spectrum and the
    limiting mixture at load beta.  Its reference is 0, and it reports
    no standard error (0).  The mixture, which refuses loads above 1e5,
    is built before the draw."""
    n_dims, n_users = _draw_size(n_dims, beta)
    seed = _check_seed(seed)
    mixture = LsdMixture(beta)
    gram = draw_gram(n_dims, n_users, seed)
    return McEstimate(empirical_lsd_cdf_distance(gram, mixture), 0.0, n_dims, seed, 0.0)


def _count_law(n: int, p: float) -> tuple[int, np.ndarray]:
    """Binomial(n, p) pmf as (c0, pmf) over the counts c0, c0 + 1, ...
    that hold all but at most 1e-300 of the mass on each side."""
    if p == 1.0:
        return n, np.ones(1)
    q = 1.0 - p
    return _pmf_from_mode(min(n, int((n + 1) * p)),
                          lambda c: (n - c) * p / ((c + 1) * q), n, 1e-300)


def _sumf_block(rng: np.random.Generator, own: np.ndarray, scratch: np.ndarray,
                first: int, pmf: np.ndarray, gamma: float) -> tuple[float, float]:
    """Sum and sum of squares of one block's sample values
    log2(1 + gamma a / (1 + gamma I)), every step in place in ``own``,
    whose length is the block's size.  The interference is drawn one
    chunk of a count group at a time into ``scratch``: the draws and
    every sample's arithmetic are those of one block-long buffer."""
    rng.standard_exponential(out=own)
    end = 0
    for c, size in enumerate(rng.multinomial(len(own), pmf).tolist(), start=first):
        start, end = end, end + size
        for lo in range(start, end, _CHUNK):
            hi = min(lo + _CHUNK, end)
            interference, value = scratch[:hi - lo], own[lo:hi]
            if c > 0:
                rng.standard_gamma(c, out=interference)
            else:
                interference.fill(0.0)
            np.multiply(interference, gamma, out=interference)
            np.add(interference, 1.0, out=interference)
            np.multiply(value, gamma, out=value)
            np.divide(value, interference, out=value)
            np.log1p(value, out=value)
            np.divide(value, LN2, out=value)
    total = float(np.sum(own))
    np.multiply(own, own, out=own)
    return total, float(np.sum(own))


def mc_sumf_rate(n_dims: int, beta: float, gamma: float, n_samples: int,
                 seed: int) -> McEstimate:
    """Monte Carlo matched-filter rate at finite n_dims.

    Per sample: own power Exp(1), collision count Binomial(K-1, 1/N)
    with K = round(beta * n_dims), interference Gamma(count, 1); the
    sample value is log2(1 + gamma a / (1 + gamma interference)) and the
    reported mean is beta times the sample average, i.e. the rate in
    bits per dimension.  The reference is the limit sumf_rate_lds_fading.
    The estimator's expectation, the exact finite-N rate, is the limit's
    series beta/ln2 * sum_m w_m e^x E_(m+1)(x), x = 1/gamma, with the
    Binomial(K-1, 1/N) weights of _count_law in place of Poisson(beta)
    ones; at N = 1e4 it differs from the limit by at most 3.5e-5
    relative at the three points of verification criterion 8.

    The samples of a block are exchangeable and only their sum and sum
    of squares are kept, so a block draws its m collision counts as a
    whole: how many samples take each count c is Multinomial(m, pmf)
    over the binomial pmf (_count_law), and each count group takes one
    Gamma(c, 1) draw of its size, c = 0 needing none.  This is the same
    joint law as m independent (count, interference) pairs listed in
    count order; the own powers are independent of both, so pairing
    them by position leaves the law unchanged.  Only count tails below
    1e-300 are cut.

    Draws are generated in fixed-size blocks, each keyed by its index.
    The blocks run on W = min(thread_count(), blocks) worker slots of
    the thread pool; slot w takes blocks w, w + W, ... in one buffer of
    one block and one chunk of interference, so memory stays at about
    8.5 MB per slot.  The block sums are reduced with math.fsum, which
    is exactly rounded, so the result is bit-for-bit reproducible
    whatever the worker count.
    """
    n_dims = _check_size("n_dims", n_dims)
    n_samples = _check_size("n_samples", n_samples, _MAX_SAMPLES)
    seed = _check_seed(seed)
    point = ChannelPoint(beta, gamma)  # before the user count, which reads beta
    n_users = _user_count(n_dims, beta)
    reference = sumf_rate_lds_fading(point).bits_per_dim
    if gamma == 0.0:
        return McEstimate(0.0, 0.0, n_samples, seed, reference)
    first, pmf = _count_law(n_users - 1, 1.0 / n_dims)
    slots = min(thread_count(), -(-n_samples // _BLOCK))
    size = min(_BLOCK, n_samples)
    # the caller allocates every slot's buffers: worker threads that
    # allocated their own would keep them in per-thread malloc arenas
    buffers = [(np.empty(size), np.empty(min(_CHUNK, size))) for _ in range(slots)]

    def run_slot(slot: int) -> list[tuple[float, float]]:
        own, scratch = buffers[slot]
        return [_sumf_block(rng, own[:m], scratch, first, pmf, gamma)
                for rng, m in _blocks(seed, _STREAM_SUMF, n_samples, slot, slots)]

    sums = [block for slot_sums in thread_map(run_slot, range(slots)) for block in slot_sums]
    s1 = math.fsum(total for total, _ in sums)
    s2 = math.fsum(total_sq for _, total_sq in sums)
    mean_term = s1 / n_samples
    var_term = max(0.0, s2 / n_samples - mean_term * mean_term)
    return McEstimate(mean=beta * mean_term,
                      std_error=beta * math.sqrt(var_term / n_samples),
                      n_samples=n_samples, seed=seed, reference=reference)


def _logdet_capacity(received: np.ndarray, gamma: float) -> float:
    """log2 det(I + gamma B B*) / n_dims for the received signatures
    B = S diag(|h|), real because only the received powers enter.

    By Sylvester's determinant identity det(I_N + gamma B B^T) equals
    det(I_K + gamma B^T B), so the Gram is formed on the smaller side;
    both operands are one buffer, which lets numpy use BLAS syrk, and
    I + gamma G is formed in the Gram's own buffer.  The log-det comes
    from one Cholesky factorization of the symmetric positive definite
    matrix and is still divided by n_dims.
    """
    n_dims, n_users = received.shape
    g = received.T @ received if n_users < n_dims else received @ received.T
    g *= gamma
    g.reshape(-1)[::len(g) + 1] += 1.0
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"Cholesky factorization failed: {exc}") from exc
    return float(2.0 * np.sum(np.log2(np.diagonal(chol))) / n_dims)


def mc_ds_fading_logdet(n_dims: int, beta: float, gamma: float, n_trials: int,
                        seed: int) -> McEstimate:
    """Monte Carlo optimum-decoding rate of dense spreading under fading
    at finite size: (1/N) log2 det(I + gamma B B*) averaged over draws.

    Chips are +-1/sqrt(N), each from one random bit (1 is +1), drawn
    before the fading; a spreading matrix of more than 2^24 entries
    raises DomainError.  Fading coefficients h are standard complex
    Gaussian; only the received powers |h|^2, unit-mean exponential,
    enter the log-det, so the received signatures +-|h|/sqrt(N) are
    formed directly from the two normal draws.  The trials run serially:
    the Gram and the factorization already use the BLAS threads.  A
    failed factorization raises FactorizationError; it is never retried
    or jittered.  The reference is the limit opt_se_ds_fading.
    """
    n_dims = _check_size("n_dims", n_dims, hi=2048)
    n_trials = _check_size("n_trials", n_trials, _MAX_TRIALS)
    seed = _check_seed(seed)
    point = ChannelPoint(beta, gamma)  # before the user count, which reads beta
    n_users = _user_count(n_dims, beta)
    if n_dims * n_users > _MAX_ENTRIES:
        raise DomainError(f"n_dims * n_users = {n_dims * n_users} spreading entries "
                          f"exceed the limit of {_MAX_ENTRIES}")
    reference = opt_se_ds_fading(point).bits_per_dim
    if gamma == 0.0:
        return McEstimate(0.0, 0.0, n_trials, seed, reference)
    n_chips = n_dims * n_users
    scale = 1.0 / math.sqrt(n_dims)
    vals = np.empty(n_trials)
    for trial in range(n_trials):
        rng = _generator(seed, _STREAM_DS, trial)
        chips = np.frombuffer(rng.bytes(-(-n_chips // 8)), dtype=np.uint8)
        signs = np.unpackbits(chips, count=n_chips).reshape(n_dims, n_users).view(np.int8)
        signs *= 2
        signs -= 1
        re = rng.standard_normal(n_users)
        im = rng.standard_normal(n_users)
        amplitude = np.sqrt(0.5 * (re * re + im * im)) * scale
        # bit b gives (2b - 1) |h| / sqrt(N), exactly
        received = np.multiply(signs, amplitude)
        vals[trial] = _logdet_capacity(received, gamma)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    return McEstimate(mean=mean, std_error=se, n_samples=n_trials, seed=seed,
                      reference=reference)


# the monomials d1^a d2^b of the shifted powers whose block sums the
# independence diagnostic keeps
_MONOMIALS = tuple((a, b) for a in range(5) for b in range(5 - a) if a + b)


def independence_diagnostic(n_dims: int, beta: float, n_draws: int, seed: int) -> McEstimate:
    """Pearson correlation between the received powers of two fixed
    dimensions across independent draws, against its exact value.

    The pair is sampled from its exact joint law: the first dimension's
    occupancy is Binomial(K, 1/N), the second's is Binomial over the
    remaining users with success 1/(N-1), and powers are the
    corresponding Erlang sums; the other N-2 dimensions never need to be
    materialized.  The tests cross-check this shortcut against full
    draws at small sizes.

    The reference -1/(2N - 1) is exact at any K = round(beta N).  With
    S_i = sum_k P_k 1{user k in dimension i} and unit-mean exponential
    powers (E P^2 = 2), each user adds 2/N - 1/N^2 to Var S_i and, as
    no user sits in both dimensions, -1/N^2 to Cov(S_1, S_2); so
    Var S_i = K (2/N - 1/N^2) and Cov = -K/N^2.  It vanishes in the
    large-system limit (asymptotic independence).

    The standard error is the delta method's for Pearson's r,
    sqrt(Var psi / n) with psi = z1 z2 - r (z1^2 + z2^2) / 2 over the
    standardized powers: Var psi = mu22 - r (mu31 + mu13)
    + r^2 (mu40 + 2 mu22 + mu04) / 4 in their central moments mu_ab.
    Zero variance in either dimension gives r = 0 with standard error 0.

    Draws come in keyed blocks like mc_sumf_rate's, and only per-block
    sums of d1^a d2^b, a + b <= 4, are kept, with d the powers shifted
    by the first block's means so the sums do not cancel; they become
    central moments once, after the last block.  Memory stays at one
    block.
    """
    n_dims = _check_size("n_dims", n_dims)
    if n_dims < 2:
        raise DomainError("need at least two dimensions to correlate")
    n_draws = _check_size("n_draws", n_draws, _MAX_SAMPLES)
    seed = _check_seed(seed)
    ChannelPoint(beta, 0.0)  # domain check on beta
    n_users = _user_count(n_dims, beta)
    reference = -1.0 / (2 * n_dims - 1)
    shift = None
    sums = []
    for rng, m in _blocks(seed, _STREAM_INDEP, n_draws):
        k1 = rng.binomial(n_users, 1.0 / n_dims, size=m)
        k2 = rng.binomial(n_users - k1, 1.0 / (n_dims - 1))
        s1 = rng.standard_gamma(k1)
        s2 = rng.standard_gamma(k2)
        if shift is None:
            shift = float(s1.mean()), float(s2.mean())
        p1, p2 = [1.0, s1 - shift[0]], [1.0, s2 - shift[1]]  # powers of d1 and d2
        for _ in range(3):
            p1.append(p1[-1] * p1[1])
            p2.append(p2[-1] * p2[1])
        sums.append([float(np.sum(p1[a] * p2[b])) for a, b in _MONOMIALS])
    raw = dict(zip(_MONOMIALS, (math.fsum(column) / n_draws for column in zip(*sums))))
    raw[0, 0] = 1.0
    m1, m2 = raw[1, 0], raw[0, 1]

    def central(a: int, b: int) -> float:
        # mean of (d1 - m1)^a (d2 - m2)^b, by the binomial theorem
        return math.fsum(math.comb(a, i) * math.comb(b, j) * (-m1) ** (a - i)
                         * (-m2) ** (b - j) * raw[i, j]
                         for i in range(a + 1) for j in range(b + 1))

    var1, var2 = central(2, 0), central(0, 2)
    if var1 <= 0.0 or var2 <= 0.0:
        return McEstimate(0.0, 0.0, n_draws, seed, reference)

    def mu(a: int, b: int) -> float:
        return central(a, b) / (var1 ** (a / 2) * var2 ** (b / 2))

    r = mu(1, 1)
    var_psi = (mu(2, 2) - r * (mu(3, 1) + mu(1, 3))
               + 0.25 * r * r * (mu(4, 0) + 2.0 * mu(2, 2) + mu(0, 4)))
    return McEstimate(mean=r, std_error=math.sqrt(max(0.0, var_psi) / n_draws),
                      n_samples=n_draws, seed=seed, reference=reference)
