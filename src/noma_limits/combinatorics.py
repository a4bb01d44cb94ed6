"""Exact coefficient families behind the limiting spectral moments.

Three integer triangles, one per ensemble: non-crossing partition
counts for dense spreading, set-partition counts for sparse spreading
with unit gains, and ordered-list partition counts for sparse spreading
with exponential fading.  The moment of order L is the degree-L
polynomial in the load whose coefficients are the corresponding row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

__all__ = [
    "L_MAX",
    "EnsembleKind",
    "MomentVector",
    "lah",
    "stirling2",
    "narayana",
    "moment_coefficients",
    "lsd_moment",
    "exact_moments",
    "carleman_bound_holds",
]

L_MAX = 64


class EnsembleKind(Enum):
    DS_NO_FADING = "ds-nofading"
    LDS_NO_FADING = "lds-nofading"
    LDS_FADING = "lds-fading"


def _check_index(name: str, v: int, lo: int, hi: int) -> None:
    if isinstance(v, bool) or not isinstance(v, int):
        raise DomainError(f"{name} must be an integer, got {v!r}")
    if not lo <= v <= hi:
        raise DomainError(f"{name}={v} outside [{lo}, {hi}]")


def _check_pair(order: int, parts: int) -> None:
    _check_index("order", order, 1, L_MAX)
    _check_index("parts", parts, 1, order)


def lah(order: int, parts: int) -> int:
    """Partitions of `order` labeled items into `parts` nonempty ordered lists."""
    _check_pair(order, parts)
    return math.comb(order - 1, parts - 1) * (math.factorial(order) // math.factorial(parts))


def stirling2(order: int, parts: int) -> int:
    """Partitions of `order` labeled items into `parts` nonempty blocks."""
    _check_pair(order, parts)
    total = sum((-1) ** (parts - j) * math.comb(parts, j) * j ** order
                for j in range(parts + 1))
    return total // math.factorial(parts)


def narayana(order: int, parts: int) -> int:
    """Non-crossing partitions of `order` items into `parts` blocks."""
    _check_pair(order, parts)
    return math.comb(order, parts) * math.comb(order, parts - 1) // order


_COEFF = {
    EnsembleKind.DS_NO_FADING: narayana,
    EnsembleKind.LDS_NO_FADING: stirling2,
    EnsembleKind.LDS_FADING: lah,
}


def moment_coefficients(kind: EnsembleKind, order: int) -> list[int]:
    """Row of exact coefficients of the order-`order` moment polynomial."""
    if not isinstance(kind, EnsembleKind):
        raise DomainError(f"kind must be an EnsembleKind, got {kind!r}")
    _check_index("order", order, 1, L_MAX)
    fn = _COEFF[kind]
    return [fn(order, parts) for parts in range(1, order + 1)]


def lsd_moment(kind: EnsembleKind, order: int, beta: float) -> float:
    """Order-`order` moment of the limiting spectral law at load `beta`.
    A moment beyond the largest double raises DomainError."""
    if not (isinstance(beta, (int, float)) and math.isfinite(beta) and beta > 0):
        raise DomainError(f"beta must be a positive finite real, got {beta!r}")
    coeffs = moment_coefficients(kind, order)
    # all terms positive, summed low degree first
    try:
        value = float(sum(c * beta ** (idx + 1) for idx, c in enumerate(coeffs)))
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(f"the order-{order} moment at beta={beta!r} overflows a double")
    return value


@dataclass(frozen=True)
class MomentVector:
    """Moments of orders 1..L, tagged with the load they belong to."""

    beta: float
    orders: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        # beta = 0 with all-zero values is allowed: it is what an
        # all-zero empirical diagonal produces.
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise DomainError(f"beta must be nonnegative and finite, got {self.beta!r}")
        if len(self.orders) != len(self.values) or not self.orders:
            raise DomainError("orders and values must be nonempty and equally long")
        if list(self.orders) != list(range(1, len(self.orders) + 1)):
            raise DomainError(f"orders must be 1..L, got {self.orders!r}")
        for v in self.values:
            if not (math.isfinite(v) and v >= 0):
                raise DomainError(f"moments must be finite and nonnegative, got {v!r}")


def exact_moments(kind: EnsembleKind, l_max: int, beta: float) -> MomentVector:
    """MomentVector of the limiting law for orders 1..l_max."""
    _check_index("l_max", l_max, 1, L_MAX)
    values = tuple(lsd_moment(kind, order, beta) for order in range(1, l_max + 1))
    return MomentVector(beta=float(beta), orders=tuple(range(1, l_max + 1)), values=values)


def carleman_bound_holds(beta: float, k_max: int) -> bool:
    """True when the fading ensemble's even moments stay below
    ((2k-1)(1+beta))^(2k) for k = 1..k_max.

    That growth rate keeps the reciprocal-root moment series divergent,
    which pins the limiting law uniquely to its moments.  Evaluated in
    log space so large orders and loads cannot overflow.
    """
    if not (isinstance(beta, (int, float)) and math.isfinite(beta) and beta > 0):
        raise DomainError(f"beta must be a positive finite real, got {beta!r}")
    _check_index("k_max", k_max, 1, L_MAX // 2)
    log_beta = math.log(beta)
    for k in range(1, k_max + 1):
        order = 2 * k
        logs = [math.log(lah(order, parts)) + parts * log_beta
                for parts in range(1, order + 1)]
        peak = max(logs)
        log_moment = peak + math.log(sum(math.exp(v - peak) for v in logs))
        log_bound = order * (math.log(order - 1.0) + math.log1p(beta))
        if not log_moment < log_bound:
            return False
    return True
