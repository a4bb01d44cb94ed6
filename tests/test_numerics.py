"""Scalar substrate: special functions, quadrature, series, root finding."""

import dataclasses
import importlib.util
import math
import random
from pathlib import Path

import pytest

from noma_limits import numerics
from noma_limits.errors import BadBracketError, DomainError, NonConvergenceError
from noma_limits.numerics import (
    DEFAULT_TOLERANCE,
    Tolerance,
    exp_integral_en_scaled,
    find_root_bracketed,
    integrate_interval,
    integrate_semi_infinite,
    pmf_window,
    poisson_weighted_sum,
)


# ----------------------------------------------------------------------
# Tolerance
# ----------------------------------------------------------------------

class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_TOLERANCE.rel == 1e-10
        assert DEFAULT_TOLERANCE.abs == 1e-12

    def test_holds_accuracy_only(self):
        # evaluation budgets belong to the routines, not to the request
        assert [f.name for f in dataclasses.fields(Tolerance)] == ["rel", "abs"]
        assert numerics._QUAD_MAX_EVALS == 200_000
        assert numerics._ROOT_MAX_EVALS == 200_000

    def test_target_combines_rel_and_abs(self):
        tol = Tolerance(rel=1e-3, abs=1e-6)
        assert tol.target(10.0) == pytest.approx(1e-2)
        assert tol.target(0.0) == 1e-6

    @pytest.mark.parametrize("kwargs", [
        {"rel": 0.0}, {"rel": -1e-3}, {"rel": float("nan")}, {"rel": float("inf")},
        {"abs": -1e-6}, {"abs": float("nan")},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            Tolerance(**kwargs)


# ----------------------------------------------------------------------
# Exponential integrals
# ----------------------------------------------------------------------

def _plain_en(n: int, x: float) -> float:
    """E_n(x) itself, from the scaled form the library provides."""
    return math.exp(-x) * exp_integral_en_scaled(n, x)


class TestExpIntegralE1:
    """E_1 is e^-x times ``exp_integral_en_scaled(1, .)``."""

    def test_value_at_one_matches_golden(self, golden):
        assert _plain_en(1, 1.0) == pytest.approx(golden["e1_at_1"]["value"], abs=1e-10)

    def test_large_argument_asymptotic(self):
        # x e^x E_1(x) -> 1, so E_1(100) is close to e^-100/100
        assert _plain_en(1, 100.0) == pytest.approx(math.exp(-100.0) / 100.0, rel=0.015)

    def test_strictly_decreasing(self):
        assert _plain_en(1, 0.5) > _plain_en(1, 1.0) > _plain_en(1, 2.0)

    @pytest.mark.parametrize("x", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_argument(self, x):
        with pytest.raises(DomainError):
            exp_integral_en_scaled(1, x)


class TestExpIntegralEn:
    def test_order_one_series_up_to_one(self):
        # the order-1 kernel is the power series for E_1 up to x = 1
        import mpmath

        for x in (1e-300, 0.05, 0.7, 1.0):
            assert exp_integral_en_scaled(1, x) == math.exp(x) * numerics._e1_series(x)
            with mpmath.workdps(40):
                assert numerics._e1_series(x) == pytest.approx(float(mpmath.e1(x)), rel=4e-15)

    def test_order_two_at_one_matches_golden(self, golden):
        assert _plain_en(2, 1.0) == pytest.approx(golden["e2_at_1"]["value"], abs=1e-9)

    def test_decreasing_in_order(self):
        for x in (0.3, 1.0, 5.0):
            values = [_plain_en(n, x) for n in range(1, 8)]
            assert all(v > 0.0 for v in values)
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_recurrence_closure(self):
        # n E_{n+1}(x) + x E_n(x) = e^{-x}
        for x in (0.1, 1.0, 10.0):
            for n in range(1, 51):
                lhs = n * _plain_en(n + 1, x) + x * _plain_en(n, x)
                assert abs(lhs - math.exp(-x)) <= 1e-12

    @pytest.mark.parametrize("n", [0, -1, 1.5, True])
    def test_rejects_bad_order(self, n):
        with pytest.raises(DomainError):
            exp_integral_en_scaled(n, 1.0)

    def test_rejects_bad_argument(self):
        with pytest.raises(DomainError):
            exp_integral_en_scaled(3, 0.0)


def _load_anchor_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "make_e1_anchors.py"
    spec = importlib.util.spec_from_file_location("make_e1_anchors", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOrderOneKernel:
    """The order-1 kernel of exp_integral_en_scaled(1, .): series,
    anchored Taylor expansion and continued fraction."""

    @staticmethod
    def _arguments() -> list[float]:
        rng = random.Random(2024)
        lo, hi = math.log(1e-300), math.log(1e300)
        xs = [math.exp(rng.uniform(lo, hi)) for _ in range(3000)]
        anchors = [x0 for x0, _ in numerics._E1_ANCHORS]
        xs += anchors + [0.5 * (a + b) for a, b in zip(anchors, anchors[1:])]
        # the ends of each route
        xs += [1.0, math.nextafter(1.0, 2.0), math.nextafter(16.0, 0.0), 16.0]
        return xs

    def test_matches_mpmath_to_4e_15(self):
        import mpmath

        worst_plain = worst_scaled = 0.0
        with mpmath.workdps(40):
            for x in self._arguments():
                ref = mpmath.e1(x)
                ref_scaled = mpmath.exp(x) * ref
                scaled = exp_integral_en_scaled(1, x)
                worst_scaled = max(worst_scaled, float(abs(scaled / ref_scaled - 1)))
                if x <= 690.0:  # beyond, e^-x leaves the normal range
                    plain = _plain_en(1, x)
                    worst_plain = max(worst_plain, float(abs(plain / ref - 1)))
        assert worst_scaled <= 4e-15
        assert worst_plain <= 4e-15

    def test_anchor_table_is_rebuilt_bit_for_bit(self):
        assert _load_anchor_tool().anchors() == numerics._E1_ANCHORS


class TestHigherOrdersUpToOne:
    """Orders n >= 2 at x <= 1 by upward recurrence from order 1."""

    def test_matches_mpmath_to_4e_15(self):
        import mpmath

        rng = random.Random(2025)
        cases = [(round(math.exp(rng.uniform(math.log(2.0), math.log(2e4)))),
                  math.exp(rng.uniform(math.log(1e-300), 0.0))) for _ in range(100)]
        cases += [(n, 1.0) for n in (2, 3, 40, 3000, 20000)]
        worst_plain = worst_scaled = 0.0
        with mpmath.workdps(40):
            for n, x in cases:
                ref = mpmath.expint(n, x)
                worst_scaled = max(worst_scaled, float(abs(
                    exp_integral_en_scaled(n, x) / (mpmath.exp(x) * ref) - 1)))
                worst_plain = max(worst_plain, float(abs(_plain_en(n, x) / ref - 1)))
        assert worst_scaled <= 4e-15
        assert worst_plain <= 4e-15


class TestExpIntegralEnScaled:
    def test_matches_mpmath_at_moderate_argument(self):
        import mpmath

        with mpmath.workdps(40):
            for n in (1, 2, 5):
                for x in (0.2, 1.0, 4.0):
                    expected = float(mpmath.exp(x) * mpmath.expint(n, x))
                    assert exp_integral_en_scaled(n, x) == pytest.approx(expected, rel=1e-12)

    def test_survives_arguments_where_plain_value_underflows(self):
        # e^x E_1(x) ~ 1/x (1 - 1/x + ...) stays representable at x = 1000,
        # where E_1 itself, about e^-1000/1000, is below the smallest double
        scaled = exp_integral_en_scaled(1, 1000.0)
        assert scaled == pytest.approx(1.0 / 1000.0 * (1.0 - 1.0 / 1000.0), rel=1e-4)


# ----------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------

class TestIntegrateInterval:
    def test_polynomial(self):
        q = integrate_interval(lambda x: x * x, (0.0, 1.0))
        assert q.value == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert q.evals >= 15

    def test_needs_refinement(self):
        q = integrate_interval(lambda x: math.exp(-x * x), (-6.0, 6.0))
        assert q.value == pytest.approx(math.sqrt(math.pi), rel=1e-11)

    def test_kink_at_a_break_point(self):
        # |x - 1/3| is linear on each side of the break, so GK15 is exact
        # on both panels and neither is split; without the break the kink
        # inside the one panel forces refinement
        def f(x):
            return abs(x - 1.0 / 3.0)

        q = integrate_interval(f, [0.0, 1.0 / 3.0, 1.0])
        assert q.value == pytest.approx(5.0 / 18.0, rel=1e-15)
        assert q.evals == 30
        whole = integrate_interval(f, (0.0, 1.0))
        assert whole.value == pytest.approx(5.0 / 18.0, rel=1e-10)
        assert whole.evals > 30

    def test_panels_share_one_budget(self, monkeypatch):
        # three first passes of 15 evaluations leave 15 of a budget of
        # 60, less than one split of 30, so the call stops before any
        # split; budgets of 60 per panel would each have allowed one
        monkeypatch.setattr(numerics, "_QUAD_MAX_EVALS", 60)
        calls = []

        def f(x):
            calls.append(x)
            return math.sqrt(abs(x))

        with pytest.raises(NonConvergenceError, match="60 evaluations"):
            integrate_interval(f, (-1.0, 0.0, 0.5, 1.0), Tolerance(rel=1e-15, abs=0.0))
        assert len(calls) == 45

    def test_rejects_bad_interval(self):
        for points in ((), (0.0,), (1.0, 1.0), (2.0, 1.0), (0.0, float("inf")),
                       (float("nan"), 1.0), (0.0, float("nan"), 1.0), (0.0, 2.0, 1.0),
                       (0.0, 1.0, 1.0, 2.0), (-1e308, 1e308)):
            with pytest.raises(DomainError):
                integrate_interval(lambda x: x, points)


class TestIntegrateSemiInfinite:
    def test_plain_exponential(self):
        q = integrate_semi_infinite(lambda z: math.exp(-z))
        assert q.value == pytest.approx(1.0, abs=1e-12)

    def test_exponential_over_one_plus_z_matches_golden(self, golden):
        q = integrate_semi_infinite(lambda z: math.exp(-z) / (1.0 + z))
        assert q.value == pytest.approx(
            golden["exp_weighted_reciprocal_integral"]["value"], abs=1e-10)

    def test_first_moment_of_exponential(self):
        q = integrate_semi_infinite(lambda z: z * math.exp(-2.0 * z))
        assert q.value == pytest.approx(0.25, abs=1e-12)

    def test_agrees_with_scaled_exponential_integral(self):
        # integral of e^{-a z}/(1+z) over the half line equals e^a E_1(a)
        for alpha in (0.1, 1.0, 10.0):
            q = integrate_semi_infinite(
                lambda z, a=alpha: math.exp(-a * z) / (1.0 + z))
            assert q.value == pytest.approx(
                exp_integral_en_scaled(1, alpha), rel=1e-10)

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "_QUAD_MAX_EVALS", 60)
        tol = Tolerance(rel=1e-15, abs=1e-300)
        with pytest.raises(NonConvergenceError):
            integrate_semi_infinite(lambda z: math.exp(-z) / (1.0 + z), tol)


# ----------------------------------------------------------------------
# Poisson-weighted series
# ----------------------------------------------------------------------

class TestPoissonWeightedSum:
    def test_unit_term_gives_mass_above_zero(self):
        for beta in (0.25, 1.0, 2.0, 4.0):
            value = poisson_weighted_sum(beta, lambda k: 1.0, 1.0)
            assert value == pytest.approx(1.0 - math.exp(-beta), abs=1e-12)

    def test_linear_term_gives_mean(self):
        assert poisson_weighted_sum(3.0, lambda k: float(k), 10.0) == pytest.approx(
            3.0, rel=1e-12)

    def test_quadratic_term_matches_brute_force(self):
        # E[K(K+1)] = beta^2 + 2 beta = 3 at beta = 1
        value = poisson_weighted_sum(1.0, lambda k: float(k * (1 + k)), 20.0)
        brute = math.fsum(
            math.exp(-1.0 - math.lgamma(k + 1.0)) * k * (1 + k) for k in range(1, 201))
        assert value == pytest.approx(3.0, rel=1e-12)
        assert value == pytest.approx(brute, rel=1e-13)

    def test_window_around_the_mode_at_large_load(self):
        beta = 1e4
        seen = []

        def term(k):
            seen.append(k)
            return math.log1p(k)  # |log(1 + k)| <= 1.0 * log(2 + k)

        value = poisson_weighted_sum(beta, term, 1.0)
        # the weights outside 8000..12000, 20 standard deviations from the
        # mode, hold less than 1e-80 of the mass; double-precision weights
        # share a rounding near 1e-11 and cannot serve as the reference
        import mpmath

        with mpmath.workdps(30):
            log_beta = mpmath.log(beta)
            exact = float(mpmath.fsum(
                mpmath.exp(-beta + k * log_beta - mpmath.loggamma(k + 1)) * mpmath.log1p(k)
                for k in range(8000, 12_001)))
        assert len(seen) < 3000
        assert seen == list(range(seen[0], seen[0] + len(seen)))
        assert value == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("beta", [1e2, 1e3, 3e3, 1e4])
    def test_window_weights_sum_to_the_mass_above_zero(self, beta):
        # unnormalised, the window's lgamma weights summed to 1 + 3.8e-14,
        # 1 - 2.5e-13, 1 - 2.7e-12 and 1 + 8.86e-12 at these loads
        value = poisson_weighted_sum(beta, lambda k: 1.0, 1.0)
        assert value == pytest.approx(-math.expm1(-beta), rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("beta", [0.5, 2.0, 30.0])
    def test_small_loads_start_at_one(self, beta):
        seen = []
        poisson_weighted_sum(beta, lambda k: seen.append(k) or 1.0, 1.0)
        assert seen[0] == 1

    def test_hard_cap_raises(self):
        # at this load the window around the mode holds about 1e7 terms,
        # past the cap of 10,000
        seen = []
        with pytest.raises(NonConvergenceError, match="after 10000 terms"):
            poisson_weighted_sum(1e12, lambda k: seen.append(k) or 1.0, 1.0)
        assert seen == []

    def test_cap_counts_both_sides_of_the_window(self):
        # about 5,800 terms lie in the window at 1e5 and about 18,700 at
        # 1e6, some 9,350 on each side of the mode: neither side alone
        # reaches the cap
        seen = []
        value = poisson_weighted_sum(1e5, lambda k: seen.append(k) or 1.0, 1.0)
        assert value == 1.0 and len(seen) < 10_000
        seen.clear()
        with pytest.raises(NonConvergenceError, match="after 10000 terms"):
            poisson_weighted_sum(1e6, lambda k: seen.append(k) or 1.0, 1.0)
        assert seen == []

    @pytest.mark.parametrize("beta", [0.5, 10.0, 1e3])
    def test_zero_absolute_tolerance_stops_where_the_tail_underflows(self, beta):
        seen = []
        value = poisson_weighted_sum(beta, lambda k: seen.append(k) or 1.0, 1.0,
                                     Tolerance(abs=0.0))
        assert value == pytest.approx(-math.expm1(-beta), rel=0.0, abs=1e-15)
        assert len(seen) < 10_000

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            poisson_weighted_sum(0.0, lambda k: 1.0, 1.0)
        with pytest.raises(DomainError):
            poisson_weighted_sum(1.0, lambda k: 1.0, -1.0)


class TestPmfWindow:
    @pytest.mark.parametrize("beta", [0.3, 7.5, 400.0])
    def test_each_cut_tail_is_below_its_bound(self, beta):
        def pmf(k):
            return math.exp(-beta + k * math.log(beta) - math.lgamma(k + 1.0))

        cut = 1e-12
        first, weights = pmf_window(int(beta), lambda k: beta / (k + 1), math.inf,
                                    lambda c, tail: tail <= cut)
        last = first + len(weights) - 1
        assert weights[int(beta) - first] == 1.0
        below = math.fsum(pmf(k) for k in range(first))
        above = math.fsum(pmf(k) for k in range(last + 1, last + 400))
        assert below <= cut * pmf(int(beta)) and above <= cut * pmf(int(beta))
        # at the count before the last the geometric bound on the upper
        # tail, w(last) / (1 - r), was still above the cut
        assert weights[-1] / (1.0 - beta / last) > cut

    def test_cap_raises_during_the_walk(self):
        calls = []

        def ratio(c):
            calls.append(c)
            return 1e6 / (c + 1)

        with pytest.raises(NonConvergenceError, match="after 50 terms"):
            pmf_window(1_000_000, ratio, math.inf, lambda c, tail: tail <= 1e-17, 50)
        assert len(calls) <= 50


# ----------------------------------------------------------------------
# Root finding
# ----------------------------------------------------------------------

class TestFindRootBracketed:
    def test_linear(self):
        assert find_root_bracketed(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_exp_decay_crossing_matches_golden(self, golden):
        root = find_root_bracketed(lambda x: math.exp(-x) - x, 0.0, 1.0)
        assert root == pytest.approx(golden["exp_decay_crossing"]["value"], abs=1e-9)

    def test_same_sign_without_interior_root_raises(self):
        with pytest.raises(BadBracketError):
            find_root_bracketed(lambda x: x * x - 5.0, 3.0, 4.0)

    def test_same_sign_ends_raise_after_two_evaluations(self):
        # x^2 on [-1, 1] touches zero inside, but only the ends are read
        g, calls = self._counted(lambda x: x * x)
        with pytest.raises(BadBracketError):
            find_root_bracketed(g, -1.0, 1.0)
        assert calls == [-1.0, 1.0]

    def test_endpoint_root_returned_directly(self):
        assert find_root_bracketed(lambda x: x, 0.0, 1.0) == 0.0

    def test_idempotent_on_shrunken_bracket(self):
        g = lambda x: math.exp(-x) - x
        root = find_root_bracketed(g, 0.0, 1.0)
        again = find_root_bracketed(g, root - 1e-6, root + 1e-6)
        assert again == pytest.approx(root, abs=1e-9)

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            find_root_bracketed(lambda x: x, 1.0, 1.0)
        with pytest.raises(DomainError):
            find_root_bracketed(lambda x: x, 0.0, float("inf"))

    @staticmethod
    def _counted(g):
        calls = []

        def wrapped(x):
            calls.append(x)
            return g(x)

        return wrapped, calls

    def test_smooth_root_converges_superlinearly(self):
        g, calls = self._counted(lambda x: math.exp(-x) - x)
        root = find_root_bracketed(g, 0.0, 1.0)
        assert root == pytest.approx(0.5671432904097838, rel=1e-10)
        assert len(calls) <= 10

    def test_cubic_on_wide_bracket(self):
        g, calls = self._counted(lambda x: x ** 3 - 2.0)
        root = find_root_bracketed(g, 0.0, 10.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-10)
        assert len(calls) <= 20

    def test_relative_width_alone_resolves_a_tiny_root(self):
        # with no absolute floor the stop is the bracket width relative
        # to the root, so a root far below 1e-12 is still found
        tol = Tolerance(rel=1e-14, abs=0.0)
        root = find_root_bracketed(lambda x: x - 1e-49, 0.0, 1.0, tol)
        assert root == pytest.approx(1e-49, rel=1e-14)

    def test_eval_cap_raises(self, monkeypatch):
        # a step-like function forces pure bisection; 16 evals cannot
        # shrink [0, 1] to the requested relative width
        monkeypatch.setattr(numerics, "_ROOT_MAX_EVALS", 16)
        tol = Tolerance(rel=1e-300, abs=0.0 + 1e-320)
        with pytest.raises(NonConvergenceError):
            find_root_bracketed(lambda x: math.copysign(1.0, x - 1.0 / 3.0), 0.0, 1.0, tol)
