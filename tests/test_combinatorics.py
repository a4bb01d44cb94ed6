"""Exact coefficient triangles and the limiting-spectrum moment polynomials."""

import math
from itertools import combinations

import numpy as np
import pytest

from noma_limits.combinatorics import (
    L_MAX,
    EnsembleKind,
    MomentVector,
    carleman_bound_holds,
    exact_moments,
    lah,
    lsd_moment,
    moment_coefficients,
    narayana,
    stirling2,
)
from noma_limits.errors import DomainError


def set_partitions(items: list[int]):
    """All partitions of `items` into nonempty blocks (each a frozenset)."""
    if len(items) == 1:
        yield [frozenset(items)]
        return
    head, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] | {head}] + partial[i + 1:]
        yield [frozenset({head})] + partial


def is_noncrossing(partition) -> bool:
    for b1, b2 in combinations(partition, 2):
        for a, c in combinations(sorted(b1), 2):
            if any(a < b < c for b in b2) and any(d < a or d > c for d in b2):
                return False
    return True


# ----------------------------------------------------------------------
# Triangle values
# ----------------------------------------------------------------------

class TestTriangles:
    def test_lah_base_cases(self):
        assert lah(1, 1) == 1
        assert lah(3, 2) == 6
        assert [lah(4, parts) for parts in range(1, 5)] == [24, 36, 12, 1]

    def test_lah_recurrence(self):
        # L(n+1, l) = L(n, l-1) + (n + l) L(n, l), with L(n, 0) = 0
        def at(n, l):
            return lah(n, l) if 1 <= l <= n else 0

        for n in range(1, 30):
            for l in range(1, n + 2):
                assert at(n + 1, l) == at(n, l - 1) + (n + l) * at(n, l)

    def test_stirling2_base_cases(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        for order in range(1, 11):
            assert stirling2(order, order) == 1

    def test_narayana_base_cases(self):
        assert narayana(3, 2) == 3
        assert narayana(4, 2) == 6
        for order in range(1, 11):
            assert narayana(order, 1) == 1

    def test_stirling2_counts_set_partitions(self):
        for order in range(1, 9):
            by_blocks = [0] * (order + 1)
            for partition in set_partitions(list(range(order))):
                by_blocks[len(partition)] += 1
            for parts in range(1, order + 1):
                assert stirling2(order, parts) == by_blocks[parts]

    def test_narayana_counts_noncrossing_partitions(self):
        for order in range(1, 9):
            by_blocks = [0] * (order + 1)
            for partition in set_partitions(list(range(order))):
                if is_noncrossing(partition):
                    by_blocks[len(partition)] += 1
            for parts in range(1, order + 1):
                assert narayana(order, parts) == by_blocks[parts]

    def test_lah_counts_ordered_list_partitions(self):
        # a block of size s can be ordered s! ways
        for order in range(1, 9):
            by_blocks = [0] * (order + 1)
            for partition in set_partitions(list(range(order))):
                weight = math.prod(math.factorial(len(b)) for b in partition)
                by_blocks[len(partition)] += weight
            for parts in range(1, order + 1):
                assert lah(order, parts) == by_blocks[parts]

    def test_row_sums(self):
        def catalan(n):
            return math.comb(2 * n, n) // (n + 1)

        bell = [1]
        for order in range(1, 11):
            bell.append(sum(math.comb(order - 1, j) * bell[j] for j in range(order)))
        for order in range(1, 11):
            assert sum(narayana(order, l) for l in range(1, order + 1)) == catalan(order)
            assert sum(stirling2(order, l) for l in range(1, order + 1)) == bell[order]
            assert sum(lah(order, l) for l in range(1, order + 1)) == sum(
                math.comb(order - 1, l - 1) * math.factorial(order) // math.factorial(l)
                for l in range(1, order + 1))

    @pytest.mark.parametrize("fn", [lah, stirling2, narayana])
    def test_range_errors(self, fn):
        for order, parts in ((0, 1), (3, 0), (3, 4), (L_MAX + 1, 1), (-2, 1)):
            with pytest.raises(DomainError):
                fn(order, parts)
        with pytest.raises(DomainError):
            fn(True, 1)
        with pytest.raises(DomainError):
            fn(3, 2.0)


# ----------------------------------------------------------------------
# Moment polynomials
# ----------------------------------------------------------------------

class TestMoments:
    def test_second_moment_identities(self):
        assert lsd_moment(EnsembleKind.LDS_FADING, 2, 2.0) == pytest.approx(8.0)
        assert lsd_moment(EnsembleKind.DS_NO_FADING, 2, 2.0) == pytest.approx(6.0)
        for beta in (0.3, 1.0, 4.0):
            assert lsd_moment(EnsembleKind.LDS_FADING, 2, beta) == pytest.approx(
                2.0 * beta + beta * beta, rel=1e-14)

    def test_no_fading_third_moment_is_poisson_raw_moment(self):
        # E[X^3] for X ~ Poisson(beta) by direct series
        for beta in (0.5, 2.0):
            brute = math.fsum(
                k ** 3 * math.exp(-beta + k * math.log(beta) - math.lgamma(k + 1.0))
                for k in range(1, 201))
            assert lsd_moment(EnsembleKind.LDS_NO_FADING, 3, beta) == pytest.approx(
                brute, rel=1e-12)
            assert lsd_moment(EnsembleKind.LDS_NO_FADING, 3, beta) == pytest.approx(
                beta + 3.0 * beta ** 2 + beta ** 3, rel=1e-14)

    def test_order_three_coefficient_rows(self):
        # unit-gain sparse and dense ensembles coincide at order 3;
        # the fading ensemble does not
        assert moment_coefficients(EnsembleKind.LDS_NO_FADING, 3) == [1, 3, 1]
        assert moment_coefficients(EnsembleKind.DS_NO_FADING, 3) == [1, 3, 1]
        assert moment_coefficients(EnsembleKind.LDS_FADING, 3) == [6, 6, 1]

    def test_first_moment_is_load(self):
        for kind in EnsembleKind:
            for beta in (0.25, 1.0, 3.0):
                assert lsd_moment(kind, 1, beta) == pytest.approx(beta, rel=1e-15)

    def test_moment_root_sequence_nondecreasing(self):
        # for a nonnegative law, m_L^(1/L) is nondecreasing in L
        for kind in EnsembleKind:
            for beta in (0.5, 1.0, 2.0):
                vector = exact_moments(kind, 8, beta)
                roots = [v ** (1.0 / order)
                         for order, v in zip(vector.orders, vector.values)]
                assert all(a <= b * (1 + 1e-12) for a, b in zip(roots, roots[1:]))

    def test_exact_moments_structure(self):
        vector = exact_moments(EnsembleKind.LDS_FADING, 4, 1.5)
        assert vector.beta == 1.5
        assert vector.orders == (1, 2, 3, 4)
        assert vector.values[0] == pytest.approx(1.5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            lsd_moment(EnsembleKind.LDS_FADING, 1, 0.0)
        with pytest.raises(DomainError):
            lsd_moment(EnsembleKind.LDS_FADING, 0, 1.0)
        with pytest.raises(DomainError):
            lsd_moment(EnsembleKind.LDS_FADING, L_MAX + 1, 1.0)
        with pytest.raises(DomainError):
            moment_coefficients("lds-fading", 2)
        with pytest.raises(DomainError):
            exact_moments(EnsembleKind.LDS_FADING, 0, 1.0)

    @pytest.mark.parametrize("kind, order, beta", [
        (EnsembleKind.LDS_FADING, 4, 1e308),
        (EnsembleKind.LDS_FADING, 64, 1e100),
        (EnsembleKind.DS_NO_FADING, 2, 1e200),
        # every power is finite here, and only the sum overflows
        (EnsembleKind.LDS_FADING, 64, 65501.3),
    ])
    def test_a_moment_beyond_a_double_raises(self, kind, order, beta):
        with pytest.raises(DomainError, match="overflows a double"):
            lsd_moment(kind, order, beta)
        with pytest.raises(DomainError, match="overflows a double"):
            exact_moments(kind, order, beta)

    def test_fading_moments_match_compound_poisson_sampling(self):
        # independent distributional route: a Poisson(beta) count of
        # unit-rate exponentials is Gamma(count, 1)
        rng = np.random.Generator(np.random.Philox(key=[2026, 816]))
        n = 300_000
        for beta in (0.5, 1.0, 2.0):
            counts = rng.poisson(beta, size=n)
            values = rng.standard_gamma(counts)
            for order in range(1, 5):
                powers = values ** order
                mean = float(powers.mean())
                se = float(powers.std(ddof=1) / math.sqrt(n))
                exact = lsd_moment(EnsembleKind.LDS_FADING, order, beta)
                assert abs(mean - exact) <= 3.0 * se, (beta, order, mean, exact, se)


# ----------------------------------------------------------------------
# MomentVector invariants
# ----------------------------------------------------------------------

class TestMomentVector:
    def test_all_zero_vector_allowed(self):
        v = MomentVector(beta=0.0, orders=(1, 2), values=(0.0, 0.0))
        assert v.beta == 0.0

    def test_rejects_inconsistent_fields(self):
        with pytest.raises(DomainError):
            MomentVector(beta=-1.0, orders=(1,), values=(1.0,))
        with pytest.raises(DomainError):
            MomentVector(beta=1.0, orders=(1, 2), values=(1.0,))
        with pytest.raises(DomainError):
            MomentVector(beta=1.0, orders=(2, 1), values=(1.0, 1.0))
        with pytest.raises(DomainError):
            MomentVector(beta=1.0, orders=(), values=())
        with pytest.raises(DomainError):
            MomentVector(beta=1.0, orders=(1,), values=(-0.5,))
        with pytest.raises(DomainError):
            MomentVector(beta=1.0, orders=(1,), values=(float("nan"),))


# ----------------------------------------------------------------------
# Carleman determinacy bound
# ----------------------------------------------------------------------

class TestCarlemanBound:
    def test_holds_on_reference_loads(self):
        for beta in (0.1, 1.0, 10.0):
            assert carleman_bound_holds(beta, 10)

    def test_first_order_by_hand(self):
        # m_2 = 2 beta + beta^2 = 0.21 at beta = 0.1, bound (1.1)^2 = 1.21
        assert lsd_moment(EnsembleKind.LDS_FADING, 2, 0.1) == pytest.approx(0.21)
        assert carleman_bound_holds(0.1, 1)

    def test_holds_across_wide_load_range(self):
        for beta in (1e-3, 0.5, 5.0, 100.0):
            assert carleman_bound_holds(beta, L_MAX // 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            carleman_bound_holds(0.0, 5)
        with pytest.raises(DomainError):
            carleman_bound_holds(1.0, 0)
        with pytest.raises(DomainError):
            carleman_bound_holds(1.0, L_MAX // 2 + 1)
