"""Finite-size Monte Carlo laboratory: draws, spectra, estimators."""

import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from noma_limits import ensemble_lab
from noma_limits.combinatorics import EnsembleKind, exact_moments
from noma_limits.ensemble_lab import (
    _STREAM_DS,
    _STREAM_INDEP,
    _STREAM_SUMF,
    _STREAM_SYSTEM,
    GramDiagonal,
    _count_law,
    _generator,
    _logdet_capacity,
    LsdMixture,
    SystemDraw,
    draw_gram,
    draw_system,
    empirical_lsd_cdf_distance,
    empirical_moments,
    empirical_opt_se,
    gram_diagonal,
    independence_diagnostic,
    mc_ds_fading_logdet,
    mc_lsd_distance,
    mc_opt_se,
    mc_sumf_rate,
)
from noma_limits.errors import DomainError, FactorizationError
from noma_limits.numerics import exp_integral_en_scaled
from noma_limits.rates import (
    LN2,
    ChannelPoint,
    opt_se_ds_fading,
    opt_se_lds_fading,
    sumf_rate_lds_fading,
)


def combined_z(est_mean, est_se, ref_mean, ref_se) -> float:
    return abs(est_mean - ref_mean) / math.hypot(est_se, ref_se)


# ----------------------------------------------------------------------
# System draws
# ----------------------------------------------------------------------

class TestDrawSystem:
    def test_deterministic_in_seed(self):
        a = draw_system(50, 80, 123)
        b = draw_system(50, 80, 123)
        c = draw_system(50, 80, 124)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.fade_powers, b.fade_powers)
        assert not np.array_equal(a.fade_powers, c.fade_powers)

    def test_single_dimension_forces_all_positions(self):
        draw = draw_system(1, 3, 7)
        assert list(draw.positions) == [0, 0, 0]

    def test_field_ranges(self):
        draw = draw_system(40, 500, 99)
        assert draw.positions.min() >= 0 and draw.positions.max() <= 39
        assert draw.fade_powers.min() >= 0.0

    def test_positions_are_the_one_based_draw_shifted(self):
        # zero-based positions are the same draw as integers(1, n + 1) - 1
        for n_dims, n_users in ((7, 3), (1, 5), (1000, 2000)):
            draw = draw_system(n_dims, n_users, 17)
            old = _generator(17, _STREAM_SYSTEM).integers(1, n_dims + 1, size=n_users) - 1
            assert np.array_equal(draw.positions, old)

    def test_fade_power_mean_is_one(self):
        draw = draw_system(10, 1_000_000, 2026)
        assert float(draw.fade_powers.mean()) == pytest.approx(1.0, abs=0.003)

    def test_occupancy_uniformity_chi_square(self, golden):
        # N = K = 1000; expected count 1 per dimension; 99%-level
        # critical value frozen from the statistics oracle
        draw = draw_system(1000, 1000, 4242)
        counts = np.bincount(draw.positions, minlength=1000)
        statistic = float(np.sum((counts - 1.0) ** 2))
        assert statistic < golden["chi2_ppf_99_dof999"]["value"]

    def test_rejects_bad_sizes_and_seeds(self):
        with pytest.raises(DomainError):
            draw_system(0, 5, 1)
        with pytest.raises(DomainError):
            draw_system(5, 0, 1)
        with pytest.raises(DomainError):
            draw_system(5, 5, -1)
        with pytest.raises(DomainError):
            draw_system(5, 5, 1.5)
        with pytest.raises(DomainError, match="below 2\\^64"):
            draw_system(5, 5, 2 ** 64 + 5)  # once the same draw as seed 5

    def test_seed_spans_the_whole_key_word(self):
        last = draw_system(50, 50, 2 ** 64 - 1)
        assert not np.array_equal(last.fade_powers, draw_system(50, 50, 0).fade_powers)
        with pytest.raises(DomainError, match="below 2\\^64"):
            _generator(2 ** 64, _STREAM_SUMF)

    def test_validates_field_lengths(self):
        with pytest.raises(DomainError):
            SystemDraw(n_dims=4, n_users=3, positions=np.array([0, 1]),
                       fade_powers=np.ones(3), seed=0)


class TestDrawGram:
    """The streamed draw: the spectrum of draw_system's draw, bit for
    bit, without holding the per-user powers."""

    @pytest.mark.parametrize("n_dims, n_users", [
        (1, 1), (1, 3), (7, 13), (50, 80), (1000, 65536), (1000, 65537), (10, 1_000_000)])
    @pytest.mark.parametrize("seed", [0, 17, 2 ** 64 - 1])
    def test_equals_the_binned_draw(self, n_dims, n_users, seed):
        expected = gram_diagonal(draw_system(n_dims, n_users, seed)).values
        assert np.array_equal(draw_gram(n_dims, n_users, seed).values, expected)

    @pytest.mark.parametrize("args", [
        (0, 5, 1), (5, 0, 1), (2 ** 24 + 1, 5, 1), (5, 2 ** 24 + 1, 1),
        (True, 5, 1), (5, True, 1), (5, 5, -1), (5, 5, 1.5), (5, 5, 2 ** 64 + 5)])
    def test_refuses_what_draw_system_refuses(self, args):
        with pytest.raises(DomainError) as refused:
            draw_system(*args)
        with pytest.raises(DomainError, match=f"^{re.escape(str(refused.value))}$"):
            draw_gram(*args)

    def test_holds_the_sums_and_two_chunks(self):
        # 8 bytes per dimension, plus a chunk of positions and one of
        # powers; the drawn positions and powers of draw_system take 38 MB
        # here.  The first call imports part of numpy's machinery, so it
        # runs untraced.
        draw_gram(10, 20, 5)
        n_dims, n_users = 10 ** 6, 2 * 10 ** 6
        tracemalloc.start()
        try:
            draw_gram(n_dims, n_users, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_dims + (2 << 20)


# ----------------------------------------------------------------------
# Gram diagonal
# ----------------------------------------------------------------------

class TestGramDiagonal:
    def test_single_user_places_its_power(self):
        draw = SystemDraw(n_dims=4, n_users=1, positions=np.array([2]),
                          fade_powers=np.array([2.5]), seed=0)
        assert list(gram_diagonal(draw).values) == [0.0, 0.0, 2.5, 0.0]

    def test_bins_the_positions_without_a_copy(self):
        # zero-based positions go to bincount as drawn: the peak is the
        # per-dimension sums, not a shifted copy of 8 bytes per user
        draw = draw_system(1000, 1_000_000, 3)
        tracemalloc.start()
        try:
            gram_diagonal(draw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_mass_conservation(self):
        for seed in (1, 2, 3):
            draw = draw_system(100, 250, seed)
            gram = gram_diagonal(draw)
            assert float(np.sum(gram.values)) == pytest.approx(
                float(np.sum(draw.fade_powers)), rel=1e-13)

    def test_matches_brute_force_matrix_product(self):
        # materialize S with random +-1 chips and the fading diagonal
        # explicitly: one-sparse columns make every off-diagonal Gram
        # entry structurally zero, whatever the signs
        rng = np.random.Generator(np.random.Philox(key=[12, 34]))
        for seed in range(6):
            n_dims, n_users = 8, 16
            draw = draw_system(n_dims, n_users, 1000 + seed)
            s = np.zeros((n_dims, n_users))
            s[draw.positions, np.arange(n_users)] = rng.choice([-1.0, 1.0], size=n_users)
            m = s @ np.diag(draw.fade_powers) @ s.T
            off_diag = m - np.diag(np.diagonal(m))
            assert np.all(off_diag == 0.0)
            assert np.allclose(np.diagonal(m), gram_diagonal(draw).values,
                               rtol=1e-13, atol=0.0)


# ----------------------------------------------------------------------
# Empirical moments
# ----------------------------------------------------------------------

class TestEmpiricalMoments:
    def test_all_zero_diagonal(self):
        vector = empirical_moments(GramDiagonal(values=np.zeros(5)), 3)
        assert vector.beta == 0.0
        assert vector.values == (0.0, 0.0, 0.0)

    def test_first_moment_is_realized_load(self):
        draw = draw_system(1000, 2000, 5)
        gram = gram_diagonal(draw)
        vector = empirical_moments(gram, 2)
        assert vector.values[0] == pytest.approx(
            float(np.sum(draw.fade_powers)) / 1000, rel=1e-12)

    def test_matches_moment_polynomials_within_sampling_error(self):
        n_dims, n_draws, l_max, beta = 50_000, 12, 3, 1.0
        samples = np.empty((n_draws, l_max))
        for i in range(n_draws):
            draw = draw_system(n_dims, n_dims, 31_000 + i)
            samples[i] = empirical_moments(gram_diagonal(draw), l_max).values
        mean = samples.mean(axis=0)
        std_err = samples.std(axis=0, ddof=1) / math.sqrt(n_draws)
        exact = exact_moments(EnsembleKind.LDS_FADING, l_max, beta).values
        for order in range(l_max):
            assert abs(mean[order] - exact[order]) <= 4.0 * std_err[order]

    def test_across_draw_variance_shrinks_with_size(self):
        variances = []
        for n_dims in (1_000, 10_000, 100_000):
            thirds = [
                empirical_moments(
                    gram_diagonal(draw_system(n_dims, n_dims, 500 + i)), 3).values[2]
                for i in range(12)]
            variances.append(float(np.var(thirds)))
        assert variances[0] > variances[1] > variances[2]

    def test_pairwise_sums_match_exact_sums(self):
        gram = gram_diagonal(draw_system(100_000, 150_000, 77))
        values = empirical_moments(gram, 4).values
        power = np.ones_like(gram.values)
        for order in range(4):
            power = power * gram.values
            exact = math.fsum(power.tolist()) / gram.n_dims
            assert values[order] == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_rejects_bad_order(self):
        gram = GramDiagonal(values=np.ones(4))
        with pytest.raises(DomainError):
            empirical_moments(gram, 0)
        with pytest.raises(DomainError):
            empirical_moments(gram, 65)


class TestEmpiricalOptSe:
    def test_zero_snr(self):
        gram = GramDiagonal(values=np.array([0.5, 2.0]))
        assert empirical_opt_se(gram, 0.0) == 0.0

    def test_single_unit_eigenvalue(self):
        gram = GramDiagonal(values=np.array([1.0]))
        assert empirical_opt_se(gram, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_agrees_with_frozen_oracle_draw(self, golden):
        # the frozen value came from an independent script with its own
        # draw path; agreement is statistical at the draw-to-draw scale
        entry = golden["mc_opt_lds_fading_b1_g10"]
        draw = draw_system(entry["n_dims"], round(entry["beta"] * entry["n_dims"]),
                           entry["seed"])
        value = empirical_opt_se(gram_diagonal(draw), entry["gamma"])
        assert combined_z(value, entry["std_error"],
                          entry["estimate"], entry["std_error"]) < 3.0
        analytic = opt_se_lds_fading(
            ChannelPoint(entry["beta"], entry["gamma"])).bits_per_dim
        assert abs(value - analytic) < 3.0 * entry["std_error"]

    def test_rejects_bad_snr(self):
        gram = GramDiagonal(values=np.array([1.0]))
        with pytest.raises(DomainError):
            empirical_opt_se(gram, -1.0)

    def test_chunk_sums_match_an_exact_sum(self):
        gram = draw_gram(200_000, 300_000, 8)
        exact = math.fsum(np.log1p(10.0 * gram.values).tolist()) / (gram.n_dims * LN2)
        assert empirical_opt_se(gram, 10.0) == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_sums_the_spectrum_one_chunk_at_a_time(self):
        # one 512 kB scratch chunk on top of the 8 MB spectrum; the
        # whole-array log-sum took two spectrum-long temporaries, 16 MB
        gram = draw_gram(10 ** 6, 10 ** 6, 6)
        empirical_opt_se(gram, 10.0)
        tracemalloc.start()
        try:
            empirical_opt_se(gram, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_one_draw_estimate_holds_the_spectrum_and_two_chunks(self):
        # the spectrum, and the chunks of the draw and of the log-sums
        n_dims = 10 ** 6
        mc_opt_se(10, 2.0, 1.0, 5)
        tracemalloc.start()
        try:
            mc_opt_se(n_dims, 2.0, 1.0, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_dims + (2 << 20)


# ----------------------------------------------------------------------
# Limiting spectral mixture
# ----------------------------------------------------------------------

class TestLsdMixture:
    def test_weights_sum_to_one(self):
        for beta in (0.3, 1.0, 5.0):
            mix = LsdMixture(beta)
            total = mix.atom_weight + float(np.sum(mix.component_weights))
            assert total == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _scipy_cdf(mix: LsdMixture, xs: np.ndarray) -> np.ndarray:
        """The mixture CDF at nonnegative xs as the atom plus the
        Poisson-weighted Erlang CDFs, through scipy's regularized lower
        gamma function."""
        from scipy.special import gammainc

        shapes = np.arange(1, mix.n_components + 1)
        return mix.atom_weight + gammainc(shapes, xs[:, None]) @ mix.component_weights

    def test_cdf_shape(self):
        mix = LsdMixture(1.0)
        assert mix.cdf(np.array([-0.5]))[0] == 0.0
        assert mix.cdf(np.array([0.0]))[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert mix.cdf(np.array([60.0]))[0] == pytest.approx(1.0, abs=1e-10)
        vals = mix.cdf(0.1 * np.arange(200))
        assert np.all(vals[:-1] <= vals[1:] + 1e-15)

    def test_cdf_matches_scipy_mixture(self):
        for beta in (0.4, 1.0, 2.5):
            mix = LsdMixture(beta)
            xs = np.array([0.0, 1e-4, 0.3, 1.0, 2.7, 8.0, 25.0])
            assert np.allclose(mix.cdf(xs), self._scipy_cdf(mix, xs), rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("beta", [745.0, 746.0, 1e4])
    def test_weights_sum_to_one_at_large_loads(self, beta):
        # e^(-beta) underflows here; the weights are walked from the mode
        mix = LsdMixture(beta)
        total = mix.atom_weight + float(np.sum(mix.component_weights))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta, x, expected", [
        # mpmath at 40 digits: Poisson(beta) weights times the
        # regularized lower gamma, summed over every shape that matters
        (700.0, 760.0, 0.94336845366510591),
        (746.0, 700.0, 0.11571392009175746),
        (746.0, 800.0, 0.91717313711130682),
    ])
    def test_large_load_cdf_matches_mpmath(self, beta, x, expected):
        mix = LsdMixture(beta)
        assert self._scipy_cdf(mix, np.array([x]))[0] == pytest.approx(expected, rel=1e-15)
        assert mix.cdf(np.array([x]))[0] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("beta", [1.0, 100.0, 746.0, 1e4])
    def test_cdf_error_is_within_its_stated_bound(self, beta):
        # the docstring's bound, 4e-15 * max(1, beta) absolute, across the
        # mixture's bulk and at (746, 700) and (1e4, 9800)
        mix = LsdMixture(beta)
        spread = 10.0 * math.sqrt(beta)
        xs = np.concatenate([np.linspace(max(0.0, beta - spread), beta + spread + 10.0, 81),
                             [700.0, 9800.0]])
        error = np.max(np.abs(mix.cdf(xs) - self._scipy_cdf(mix, xs)))
        assert error <= 4e-15 * max(1.0, beta)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            LsdMixture(0.0)
        with pytest.raises(DomainError):
            LsdMixture(1.1e5)
        with pytest.raises(DomainError):
            LsdMixture(1.0).cdf(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_points(self, bad):
        # a NaN once read as probability 0
        with pytest.raises(DomainError, match="finite"):
            LsdMixture(1.0).cdf(np.array([0.5, bad]))


class TestLsdDistance:
    def test_sample_from_the_mixture_itself(self, golden):
        # Poisson(beta) occupancy with Gamma(count) mass IS the mixture;
        # the KS distance then sits under the 1% critical band
        n = 100_000
        rng = np.random.Generator(np.random.Philox(key=[7, 7]))
        counts = rng.poisson(1.0, size=n)
        gram = GramDiagonal(values=rng.standard_gamma(counts))
        dist = empirical_lsd_cdf_distance(gram, LsdMixture(1.0))
        assert dist < golden["ks_critical_1pct"]["value"] / math.sqrt(n)

    def test_system_draw_against_mixture(self):
        n = 100_000
        gram = gram_diagonal(draw_system(n, n, 606))
        assert empirical_lsd_cdf_distance(gram, LsdMixture(1.0)) < 0.01

    def test_distance_decreases_with_size(self):
        dists = [
            empirical_lsd_cdf_distance(
                gram_diagonal(draw_system(n, n, 11)), LsdMixture(1.0))
            for n in (1_000, 10_000, 100_000)]
        assert dists[0] > dists[1] > dists[2]

    def test_atom_only_empirical(self):
        # an all-zero diagonal matches the mixture exactly at the atom
        dist = empirical_lsd_cdf_distance(GramDiagonal(np.zeros(100)), LsdMixture(1.0))
        assert dist == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


# ----------------------------------------------------------------------
# Matched-filter Monte Carlo
# ----------------------------------------------------------------------

class TestMcSumfRate:
    def test_zero_snr_exact(self):
        est = mc_sumf_rate(100, 1.0, 0.0, 1000, 3)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_deterministic_in_seed(self):
        a = mc_sumf_rate(100, 1.0, 2.0, 50_000, 9)
        b = mc_sumf_rate(100, 1.0, 2.0, 50_000, 9)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_single_user_matches_rayleigh_capacity(self):
        # beta 1e-4 with N = 1e4 rounds to one user: no interference
        gamma = 3.0
        est = mc_sumf_rate(10_000, 1e-4, gamma, 200_000, 17)
        expected = 1e-4 * exp_integral_en_scaled(1, 1.0 / gamma) / LN2
        assert combined_z(est.mean, est.std_error, expected, 0.0) < 3.0

    def test_agrees_with_analytic_rate(self):
        est = mc_sumf_rate(10_000, 1.0, 10.0, 1_000_000, 314)
        analytic = sumf_rate_lds_fading(ChannelPoint(1.0, 10.0)).bits_per_dim
        assert combined_z(est.mean, est.std_error, analytic, 0.0) < 4.0

    def test_reproduces_frozen_oracle_run(self, golden):
        # the frozen estimate was produced by an independent script;
        # agreement is statistical, not bitwise
        entry = golden["mc_sumf_b1_g10"]
        est = mc_sumf_rate(entry["n_dims"], entry["beta"], entry["gamma"],
                           entry["n_samples"], entry["seed"])
        assert combined_z(est.mean, est.std_error,
                          entry["estimate"], entry["std_error"]) < 3.0

    def test_rejects_degenerate_user_count(self):
        with pytest.raises(DomainError):
            mc_sumf_rate(10, 0.01, 1.0, 100, 0)

    @pytest.mark.parametrize("seed", [41, 271, 1009])
    def test_overloaded_case_agrees_with_analytic_rate(self, seed):
        est = mc_sumf_rate(10_000, 3.0, 10.0, 1_000_000, seed)
        analytic = sumf_rate_lds_fading(ChannelPoint(3.0, 10.0)).bits_per_dim
        assert combined_z(est.mean, est.std_error, analytic, 0.0) < 4.0

    @pytest.mark.parametrize("threads", ["1", "2", "5"])
    @pytest.mark.parametrize("args, mean, std_error", [
        ((10_000, 1.0, 10.0, 2_500_000, 7), 1.6491760882204278, 0.0009071569253896835),
        ((100, 3.0, 10.0, 1234, 5), 1.9962576402450893, 0.07538387295453436),
    ])
    def test_worker_count_leaves_every_bit(self, monkeypatch, threads, args, mean, std_error):
        # the values of the serial block loop; 5 workers exceed the
        # three blocks of the first case and the one block of the second
        monkeypatch.setenv("NOMA_LIMITS_THREADS", threads)
        est = mc_sumf_rate(*args)
        assert (est.mean, est.std_error) == (mean, std_error)

    def test_slots_share_no_buffer_under_fast_switching(self, monkeypatch):
        # three slots on fewer cores, switching threads every microsecond:
        # two slots writing one buffer would change the sums
        monkeypatch.setenv("NOMA_LIMITS_THREADS", "3")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            est = mc_sumf_rate(10_000, 1.0, 10.0, 2_500_000, 7)
        finally:
            sys.setswitchinterval(interval)
        assert (est.mean, est.std_error) == (1.6491760882204278, 0.0009071569253896835)

    def test_blocks_reuse_the_slot_buffers(self, monkeypatch):
        # two slots hold a chunk of own powers and one of interference,
        # 0.5 MB each; a block-long buffer would add 8 MB
        monkeypatch.setenv("NOMA_LIMITS_THREADS", "2")
        tracemalloc.start()
        try:
            mc_sumf_rate(10_000, 3.0, 10.0, 2_000_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (0.5 + 0.5) * (1 << 20) + (1 << 20)


class TestCollisionCountLaw:
    """The grouped draw behind mc_sumf_rate: how many of a block's
    samples take each collision count c ~ Binomial(K - 1, 1/N), drawn
    as one multinomial over the pmf from _count_law."""

    @staticmethod
    def _groups(n_dims, n_users, m, seed=5, block=0):
        first, pmf = _count_law(n_users - 1, 1.0 / n_dims)
        sizes = _generator(seed, _STREAM_SUMF, block).multinomial(m, pmf)
        return np.arange(first, first + len(sizes)), sizes

    @pytest.mark.parametrize("m", [1, 7, 1_000_000])
    def test_each_block_places_every_sample(self, m):
        for block in range(3):
            _, sizes = self._groups(10_000, 30_000, m, block=block)
            assert sizes.sum() == m and sizes.min() >= 0

    @pytest.mark.parametrize("n_dims, n_users",
                             [(2, 3), (100, 100), (10, 10_000), (10_000, 30_000)])
    def test_mean_and_variance_match_the_binomial(self, n_dims, n_users):
        m = 1_000_000
        counts, sizes = self._groups(n_dims, n_users, m)
        n, p = n_users - 1, 1.0 / n_dims
        var = n * p * (1.0 - p)
        # fourth central moment of the binomial, for the variance's error
        mu4 = var * (1.0 + 3.0 * (n - 2) * p * (1.0 - p))
        mean_hat = float(counts @ sizes) / m
        var_hat = float(((counts - mean_hat) ** 2) @ sizes) / (m - 1)
        assert abs(mean_hat - n * p) < 4.0 * math.sqrt(var / m)
        assert abs(var_hat - var) < 4.0 * math.sqrt((mu4 - var * var) / m)

    def test_one_dimension_puts_every_sample_on_all_other_users(self):
        counts, sizes = self._groups(1, 5, 1000)
        assert list(counts) == [4] and list(sizes) == [1000]

    def test_one_user_has_no_collisions(self):
        counts, sizes = self._groups(100, 1, 1000)
        assert list(counts) == [0] and list(sizes) == [1000]

    def test_chain_reproduces_the_exact_pmf(self):
        # _count_law walks term ratios out from the mode; the multinomial
        # takes its last probability as what the others leave
        n, p = 20, 0.3
        first, pmf = _count_law(n, p)
        assert first == 0 and len(pmf) == n + 1
        assert math.fsum(pmf) == pytest.approx(1.0, rel=0.0, abs=1e-12)
        for c, value in enumerate(pmf):
            exact = math.comb(n, c) * p ** c * (1.0 - p) ** (n - c)
            assert value == pytest.approx(exact, rel=1e-12)


class TestEstimatorReference:
    """Each estimator checks its sizes, then computes its analytic
    reference, then draws, and reports the reference with the estimate."""

    RUNS = {
        "sumf": lambda beta, gamma: mc_sumf_rate(10, beta, gamma, 3_000_000, 0),
        "logdet": lambda beta, gamma: mc_ds_fading_logdet(16, beta, gamma, 5, 0),
        "opt": lambda beta, gamma: mc_opt_se(800, beta, gamma, 0),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    @pytest.mark.parametrize("beta, gamma, message", [
        (2e4, 1.0, "largest supported load"),
        (2.0, 1e304, "largest supported SNR"),
    ])
    def test_refuses_an_out_of_domain_reference_before_drawing(self, monkeypatch, name,
                                                               beta, gamma, message):
        def no_draws(*_args):
            raise AssertionError("drew before checking the reference's domain")

        monkeypatch.setattr(ensemble_lab, "_generator", no_draws)
        with pytest.raises(DomainError, match=message):
            self.RUNS[name](beta, gamma)

    def test_mixture_load_is_refused_before_drawing(self, monkeypatch):
        def no_draws(*_args):
            raise AssertionError("drew before building the limiting mixture")

        monkeypatch.setattr(ensemble_lab, "_generator", no_draws)
        with pytest.raises(DomainError, match="at most 1e5 for the limiting mixture"):
            mc_lsd_distance(80, 2e5, 0)

    @pytest.mark.parametrize("reference, run", [
        ("sumf_rate_lds_fading", lambda: mc_sumf_rate(10, 1.0, 1.0, 10 ** 12 + 1, 0)),
        ("opt_se_ds_fading", lambda: mc_ds_fading_logdet(2048, 100.0, 1.0, 1, 0)),
        ("opt_se_lds_fading", lambda: mc_opt_se(10 ** 8, 0.001, 1.0, 0)),
        ("sumf_rate_lds_fading", lambda: mc_sumf_rate(10, 1.0, 1.0, 10, 2 ** 64)),
    ])
    def test_sizes_and_seed_are_checked_before_the_reference(self, monkeypatch, reference, run):
        def no_reference(*_args):
            raise AssertionError("computed the reference before checking the sizes")

        monkeypatch.setattr(ensemble_lab, reference, no_reference)
        with pytest.raises(DomainError):
            run()

    def test_each_estimate_carries_its_reference(self):
        point = ChannelPoint(1.0, 3.0)
        assert (mc_sumf_rate(100, 1.0, 3.0, 1000, 1).reference
                == sumf_rate_lds_fading(point).bits_per_dim)
        assert (mc_ds_fading_logdet(16, 1.0, 3.0, 2, 1).reference
                == opt_se_ds_fading(point).bits_per_dim)
        assert mc_opt_se(100, 1.0, 3.0, 1).reference == opt_se_lds_fading(point).bits_per_dim
        assert mc_lsd_distance(100, 1.0, 1).reference == 0.0
        assert independence_diagnostic(100, 1.0, 10, 1).reference == -1.0 / 199.0
        # also where no sample is drawn
        assert mc_sumf_rate(100, 1.0, 0.0, 10, 1).reference == 0.0

    def test_one_draw_estimators_read_the_same_draw(self):
        # more dimensions than one 65,536-term chunk of the log-sums
        n_dims, beta, gamma, seed = 70_000, 1.5, 10.0, 4
        gram = gram_diagonal(draw_system(n_dims, round(beta * n_dims), seed))
        opt = mc_opt_se(n_dims, beta, gamma, seed)
        assert opt.mean == pytest.approx(empirical_opt_se(gram, gamma), rel=1e-14)
        terms = np.log2(1.0 + gamma * gram.values)
        assert opt.std_error == pytest.approx(np.std(terms, ddof=1) / math.sqrt(n_dims),
                                              rel=1e-12)
        assert (opt.n_samples, opt.seed) == (n_dims, seed)
        lsd = mc_lsd_distance(n_dims, beta, seed)
        assert lsd.mean == empirical_lsd_cdf_distance(gram, LsdMixture(beta))
        assert (lsd.std_error, lsd.n_samples) == (0.0, n_dims)


class TestEstimatorDomain:
    """The three estimators share ChannelPoint's (beta, gamma) checks and
    one user-count check."""

    RUNS = {
        "sumf": lambda beta, gamma: mc_sumf_rate(100, beta, gamma, 10, 0),
        "logdet": lambda beta, gamma: mc_ds_fading_logdet(16, beta, gamma, 2, 0),
        "independence": lambda beta, gamma: independence_diagnostic(100, beta, 10, 0),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf"), "1"])
    def test_rejects_bad_load(self, name, beta):
        with pytest.raises(DomainError, match="beta must be a positive finite real"):
            self.RUNS[name](beta, 1.0)

    @pytest.mark.parametrize("name", ["sumf", "logdet"])
    @pytest.mark.parametrize("gamma", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_snr(self, name, gamma):
        with pytest.raises(DomainError, match="gamma must be a nonnegative finite real"):
            self.RUNS[name](1.0, gamma)

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_rejects_zero_users(self, name):
        with pytest.raises(DomainError, match="rounds to zero users"):
            self.RUNS[name](0.001, 1.0)

    @pytest.mark.parametrize("name", sorted(RUNS))
    @pytest.mark.parametrize("beta", [1e19, 1e300])
    def test_rejects_more_than_2_to_the_31_users(self, name, beta):
        with pytest.raises(DomainError, match="users exceeds the limit"):
            self.RUNS[name](beta, 1.0)


# ----------------------------------------------------------------------
# Dense-spreading log-det Monte Carlo
# ----------------------------------------------------------------------

class TestMcDsFadingLogdet:
    def test_zero_snr_exact(self):
        est = mc_ds_fading_logdet(16, 1.0, 0.0, 10, 4)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_deterministic_in_seed(self):
        a = mc_ds_fading_logdet(32, 1.0, 5.0, 8, 21)
        b = mc_ds_fading_logdet(32, 1.0, 5.0, 8, 21)
        assert a.mean == b.mean

    def test_scalar_system_matches_fading_capacity(self):
        # N = K = 1: the log-det is log2(1 + gamma Z) for Exp(1) Z
        gamma = 5.0
        est = mc_ds_fading_logdet(1, 1.0, gamma, 4000, 88)
        expected = exp_integral_en_scaled(1, 1.0 / gamma) / LN2
        assert combined_z(est.mean, est.std_error, expected, 0.0) < 4.0

    def test_approaches_fixed_point_rate(self, golden):
        entry = golden["mc_ds_logdet_b0.5_g10_n256"]
        est = mc_ds_fading_logdet(256, entry["beta"], entry["gamma"],
                                  entry["trials"], entry["seed"])
        assert combined_z(est.mean, est.std_error,
                          entry["estimate"], entry["std_error"]) < 3.0
        analytic = opt_se_ds_fading(
            ChannelPoint(entry["beta"], entry["gamma"])).bits_per_dim
        assert est.mean == pytest.approx(analytic, rel=0.02)

    def test_rejects_oversized_system(self):
        with pytest.raises(DomainError):
            mc_ds_fading_logdet(4096, 1.0, 1.0, 2, 0)

    def test_rejects_more_than_2_to_the_24_spreading_entries(self, monkeypatch):
        def no_draws(*_args):
            raise AssertionError("drew before checking the matrix size")

        monkeypatch.setattr(ensemble_lab, "_generator", no_draws)
        with pytest.raises(DomainError, match="spreading entries"):
            mc_ds_fading_logdet(2048, 100.0, 1.0, 1, 0)
        with pytest.raises(DomainError, match="spreading entries"):
            mc_ds_fading_logdet(2048, 8193 / 2048, 1.0, 1, 0)
        with pytest.raises(AssertionError, match="drew before"):
            mc_ds_fading_logdet(2048, 4.0, 1.0, 1, 0)  # exactly 2^24 entries

    @pytest.mark.parametrize("n_dims, n_users", [(1, 1), (8, 4), (8, 8), (8, 16), (64, 32)])
    def test_logdet_matches_complex_slogdet(self, n_dims, n_users):
        # reference: the complex B = S diag(h) and a general log-det,
        # with neither the real Gram nor the smaller side
        rng = np.random.Generator(np.random.Philox(key=[n_dims, n_users]))
        s = rng.standard_normal((n_dims, n_users)) / math.sqrt(n_dims)
        h = (rng.standard_normal(n_users) + 1j * rng.standard_normal(n_users)) / math.sqrt(2.0)
        b = s * h[None, :]
        for gamma in (0.1, 10.0, 1e4):
            sign, logdet = np.linalg.slogdet(np.eye(n_dims) + gamma * (b @ b.conj().T))
            assert sign.real == pytest.approx(1.0, abs=1e-12)
            expected = logdet / (n_dims * LN2)
            got = _logdet_capacity(s * np.abs(h), gamma)
            assert got == pytest.approx(expected, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_estimate_matches_complex_route_on_the_same_draws(self, beta):
        # per trial: one random bit per chip (1 is +1), then the real
        # and imaginary fading parts
        n_dims, n_trials, seed, gamma = 32, 20, 9, 10.0
        n_users = round(beta * n_dims)
        n_chips = n_dims * n_users
        vals = []
        for trial in range(n_trials):
            rng = _generator(seed, _STREAM_DS, trial)
            bits = np.unpackbits(np.frombuffer(rng.bytes(-(-n_chips // 8)), dtype=np.uint8),
                                 count=n_chips).reshape(n_dims, n_users)
            s = (bits * 2.0 - 1.0) / math.sqrt(n_dims)
            h = (rng.standard_normal(n_users) + 1j * rng.standard_normal(n_users)) / math.sqrt(2.0)
            b = s * h[None, :]
            vals.append(np.linalg.slogdet(np.eye(n_dims) + gamma * (b @ b.conj().T))[1]
                        / (n_dims * LN2))
        est = mc_ds_fading_logdet(n_dims, beta, gamma, n_trials, seed)
        assert est.mean == pytest.approx(np.mean(vals), rel=0.0, abs=1e-13)
        assert est.std_error == pytest.approx(
            np.std(vals, ddof=1) / math.sqrt(n_trials), rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("n_dims, beta", [(64, 2.0), (256, 2.0), (128, 0.5)])
    def test_signatures_are_the_float_chips_scaled(self, monkeypatch, n_dims, beta):
        # the int8 signs times the amplitudes give, bit for bit, the
        # float chips 2b - 1 times the same amplitudes
        received = []

        def record(matrix, _gamma):
            received.append(matrix.copy())
            return 1.0

        monkeypatch.setattr(ensemble_lab, "_logdet_capacity", record)
        mc_ds_fading_logdet(n_dims, beta, 10.0, 2, 3)
        n_users = round(beta * n_dims)
        n_chips = n_dims * n_users
        for trial, got in enumerate(received):
            rng = _generator(3, _STREAM_DS, trial)
            bits = np.unpackbits(np.frombuffer(rng.bytes(-(-n_chips // 8)), dtype=np.uint8),
                                 count=n_chips).reshape(n_dims, n_users)
            re_h, im_h = rng.standard_normal(n_users), rng.standard_normal(n_users)
            amplitude = np.sqrt(0.5 * (re_h * re_h + im_h * im_h)) * (1.0 / math.sqrt(n_dims))
            assert got.dtype == np.float64
            assert np.array_equal(got, (2.0 * bits - 1.0) * amplitude)
        assert len(received) == 2

    def test_factors_the_gram_on_the_smaller_side(self, monkeypatch):
        shapes = []
        cholesky = np.linalg.cholesky

        def recording(matrix):
            shapes.append(matrix.shape)
            return cholesky(matrix)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        mc_ds_fading_logdet(16, 0.5, 10.0, 2, 0)
        mc_ds_fading_logdet(16, 2.0, 10.0, 2, 0)
        assert shapes == [(8, 8), (8, 8), (16, 16), (16, 16)]

    def test_factorization_failure_is_reported_not_retried(self, monkeypatch):
        calls = {"n": 0}

        def broken_cholesky(_matrix):
            calls["n"] += 1
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", broken_cholesky)
        with pytest.raises(FactorizationError):
            mc_ds_fading_logdet(8, 1.0, 1.0, 5, 0)
        assert calls["n"] == 1


# ----------------------------------------------------------------------
# One BLAS thread for the log-det's small Grams
# ----------------------------------------------------------------------

_BLAS = ensemble_lab._blas_thread_control()


@pytest.fixture
def two_blas_threads():
    """The BLAS thread count set to two for the test, so that lowering
    it shows on a one-CPU machine too; yields the count read back, and
    restores the count found."""
    get, set_ = _BLAS
    found = get()
    set_(2)
    try:
        yield get()
    finally:
        set_(found)


@pytest.mark.skipif(_BLAS is None, reason="numpy's BLAS has no OpenBLAS thread-count functions")
class TestOneBlasThread:
    @staticmethod
    def spy_on_threads(monkeypatch, pause: float = 0.0) -> list[int]:
        """The BLAS thread count at each trial's log-det, which waits
        ``pause`` seconds after reading it."""
        seen = []
        logdet = ensemble_lab._logdet_capacity

        def spy(received, gamma):
            seen.append(_BLAS[0]())
            time.sleep(pause)
            return logdet(received, gamma)

        monkeypatch.setattr(ensemble_lab, "_logdet_capacity", spy)
        return seen

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_small_grams_run_on_one_thread(self, monkeypatch, two_blas_threads, beta):
        seen = self.spy_on_threads(monkeypatch)
        mc_ds_fading_logdet(256, beta, 10.0, 3, 0)
        assert seen == [1, 1, 1]
        assert _BLAS[0]() == two_blas_threads

    def test_side_512_keeps_the_threads(self, monkeypatch, two_blas_threads):
        seen = self.spy_on_threads(monkeypatch)
        mc_ds_fading_logdet(512, 1.0, 10.0, 1, 0)
        assert seen == [two_blas_threads]
        assert _BLAS[0]() == two_blas_threads

    def test_failed_factorization_restores_the_count(self, monkeypatch, two_blas_threads):
        def broken_cholesky(_matrix):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", broken_cholesky)
        with pytest.raises(FactorizationError):
            mc_ds_fading_logdet(64, 1.0, 1.0, 3, 0)
        assert _BLAS[0]() == two_blas_threads

    def test_concurrent_callers_restore_the_count(self, monkeypatch, two_blas_threads):
        # more callers than CPUs, switching often, pausing 1 ms in each
        # of 8 trials and starting 1 ms apart, so all are in their trials
        # before the first ends: without the lock, the first caller
        # restores the threads under the others, and the last to end
        # leaves the count at one
        seen = self.spy_on_threads(monkeypatch, pause=1e-3)
        expected = [mc_ds_fading_logdet(64, 1.0, 10.0, 8, seed) for seed in range(4)]
        seen.clear()
        results = [None] * 4
        start = threading.Barrier(4)

        def call(seed):
            start.wait(timeout=10)
            time.sleep(1e-3 * seed)
            results[seed] = mc_ds_fading_logdet(64, 1.0, 10.0, 8, seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=call, args=(seed,)) for seed in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert results == expected
        assert seen == [1] * 32
        assert _BLAS[0]() == two_blas_threads

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_estimate_does_not_depend_on_the_thread_count_found(self, two_blas_threads, beta):
        get, set_ = _BLAS
        threaded = mc_ds_fading_logdet(256, beta, 10.0, 20, 5)
        set_(1)
        try:
            serial = mc_ds_fading_logdet(256, beta, 10.0, 20, 5)
        finally:
            set_(two_blas_threads)
        assert threaded == serial

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_no_thread_control_gives_the_same_estimate(self, monkeypatch, two_blas_threads,
                                                        beta):
        # without the lookup the trials run on the threads found, and
        # OpenBLAS's threaded factorization may round a trial's log-det
        # differently in its last bits, so the estimate agrees to rounding
        normal = mc_ds_fading_logdet(256, beta, 10.0, 20, 5)
        monkeypatch.setattr(ensemble_lab, "_blas_thread_control", lambda: None)
        seen = self.spy_on_threads(monkeypatch)
        unscoped = mc_ds_fading_logdet(256, beta, 10.0, 20, 5)
        assert seen == [two_blas_threads] * 20
        assert unscoped.mean == pytest.approx(normal.mean, rel=1e-15)
        assert unscoped.std_error == pytest.approx(normal.std_error, rel=1e-14)
        assert (unscoped.n_samples, unscoped.seed, unscoped.reference) == (
            normal.n_samples, normal.seed, normal.reference)


# ----------------------------------------------------------------------
# Asymptotic independence diagnostic
# ----------------------------------------------------------------------

class TestIndependenceDiagnostic:
    def test_deterministic_in_seed(self):
        a = independence_diagnostic(100, 1.0, 5000, 3)
        b = independence_diagnostic(100, 1.0, 5000, 3)
        assert a == b

    def test_large_system_correlation_vanishes(self):
        est = independence_diagnostic(10_000, 1.0, 100_000, 12)
        assert abs(est.mean) < 3.0 / math.sqrt(100_000) + 1.0 / 10_000

    def test_tiny_system_correlates_negatively(self):
        # with two dimensions the occupancies compete for the same users:
        # the correlation is -1/(2N - 1) = -1/3 at any load
        est = independence_diagnostic(2, 8.0, 4000, 6)
        assert est.mean < -0.1
        assert est.reference == -1.0 / 3.0
        assert abs(est.mean - est.reference) < 3.0 * est.std_error

    def test_shortcut_matches_full_draws_at_small_size(self):
        # the diagnostic samples the pair from its exact joint law; a
        # brute-force simulation of whole systems must agree
        n_dims, n_users, n = 3, 6, 200_000
        shortcut = independence_diagnostic(n_dims, 2.0, n, 41)
        rng = np.random.Generator(np.random.Philox(key=[8, 16]))
        positions = rng.integers(0, n_dims, size=(n, n_users))
        powers = rng.standard_exponential((n, n_users))
        s1 = np.sum(np.where(positions == 0, powers, 0.0), axis=1)
        s2 = np.sum(np.where(positions == 1, powers, 0.0), axis=1)
        full = float(np.corrcoef(s1, s2)[0, 1])
        assert shortcut.mean == pytest.approx(full, abs=0.02)

    @pytest.mark.parametrize("n_dims, beta", [(50, 2.0), (10, 1000.0)])
    def test_block_sums_match_two_pass_pearson(self, monkeypatch, n_dims, beta):
        # five blocks, the last one short; the reference keeps every draw
        monkeypatch.setattr(ensemble_lab, "_BLOCK", 1000)
        n_draws, seed = 4500, 8
        n_users = round(beta * n_dims)
        s1, s2 = [], []
        for block in range(5):
            rng = _generator(seed, _STREAM_INDEP, block)
            k1 = rng.binomial(n_users, 1.0 / n_dims, size=min(1000, n_draws - 1000 * block))
            k2 = rng.binomial(n_users - k1, 1.0 / (n_dims - 1))
            s1.append(rng.standard_gamma(k1))
            s2.append(rng.standard_gamma(k2))
        d1 = np.concatenate(s1)
        d2 = np.concatenate(s2)
        d1 -= d1.mean()
        d2 -= d2.mean()
        expected = float(np.sum(d1 * d2)) / math.sqrt(float(np.sum(d1 * d1) * np.sum(d2 * d2)))
        # the delta method's influence function of r, on the standardized draws
        z1 = d1 / math.sqrt(float(np.mean(d1 * d1)))
        z2 = d2 / math.sqrt(float(np.mean(d2 * d2)))
        psi = z1 * z2 - expected * (z1 * z1 + z2 * z2) / 2.0
        expected_se = math.sqrt(float(np.mean(psi * psi)) / n_draws)
        est = independence_diagnostic(n_dims, beta, n_draws, seed)
        assert est.mean == pytest.approx(expected, rel=0.0, abs=1e-12)
        assert est.std_error == pytest.approx(expected_se, rel=1e-9)
        assert (est.n_samples, est.seed) == (n_draws, seed)

    def test_zero_variance_gives_zero_correlation_and_error(self):
        # one user among a million dimensions lands in neither of the two
        # in any of the ten draws
        est = independence_diagnostic(10 ** 6, 1e-6, 10, 0)
        assert (est.mean, est.std_error) == (0.0, 0.0)
        assert est.reference == -1.0 / (2 * 10 ** 6 - 1)

    def test_seed_is_checked_before_any_draw(self, monkeypatch):
        def no_draws(*_args):
            raise AssertionError("drew before checking the seed")

        monkeypatch.setattr(ensemble_lab, "_generator", no_draws)
        with pytest.raises(DomainError, match="seed must be below 2"):
            independence_diagnostic(10, 1.0, 10, 2 ** 64)

    def test_rejects_single_dimension(self):
        with pytest.raises(DomainError):
            independence_diagnostic(1, 1.0, 100, 0)
