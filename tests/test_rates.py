"""Closed-form rate formulas, asymptotic anchors, and conversions."""

import functools
import itertools
import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from noma_limits import rates
from noma_limits.errors import (
    DegenerateRateError,
    DomainError,
    NoSolutionError,
    NomaLimitsError,
    NonConvergenceError,
    UnsupportedSchemeError,
)
from noma_limits.numerics import DEFAULT_TOLERANCE, Tolerance, exp_integral_en_scaled
from noma_limits.rates import (
    LN2,
    _scaled_en_orders,
    ChannelPoint,
    Detector,
    Fading,
    RateValue,
    SchemeSpec,
    Spreading,
    SUPPORTED_SCHEMES,
    eta_from_gamma,
    eta_min,
    gamma_from_eta,
    high_snr_slope,
    laplace_rate,
    low_snr_slope,
    mmse_efficiency_ds_fading,
    mmse_se_ds_fading,
    mmse_se_ds_nofading,
    opt_se_ds_fading,
    opt_se_ds_nofading,
    opt_se_lds_fading,
    opt_se_lds_nofading,
    spectral_efficiency,
    sumf_rate_lds_fading,
    sumf_rate_lds_nofading,
)

ALL_SCHEMES = [SchemeSpec.parse(name) for name in SUPPORTED_SCHEMES]
SPARSE_SCHEMES = [s for s in ALL_SCHEMES if s.spreading is Spreading.ONE_SPARSE]
DENSE_NAMES = [s.name for s in ALL_SCHEMES if s.spreading is Spreading.DENSE]
# every public rate route: the production route of each scheme and the
# Laplace form of each sparse scheme
ALL_ROUTES = [pytest.param(route, id=route.__name__) for route in (
    sumf_rate_lds_fading, sumf_rate_lds_nofading,
    opt_se_lds_nofading, opt_se_lds_fading,
    opt_se_ds_nofading, mmse_se_ds_nofading, mmse_se_ds_fading, opt_se_ds_fading,
)] + [pytest.param(functools.partial(laplace_rate, scheme), id=f"laplace-{scheme.name}")
      for scheme in SPARSE_SCHEMES]


def single_user_rayleigh_capacity(gamma: float) -> float:
    """E[log2(1 + gamma Z)] for unit-mean exponential Z."""
    return exp_integral_en_scaled(1, 1.0 / gamma) / LN2


# ----------------------------------------------------------------------
# Domain types
# ----------------------------------------------------------------------

class TestChannelPoint:
    def test_accepts_valid_points(self):
        ChannelPoint(1.0, 0.0)
        ChannelPoint(0.5, 10.0)

    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0, "gamma": 1.0},
        {"beta": -1.0, "gamma": 1.0},
        {"beta": float("nan"), "gamma": 1.0},
        {"beta": float("inf"), "gamma": 1.0},
        {"beta": 1.0, "gamma": -0.1},
        {"beta": 1.0, "gamma": float("nan")},
    ])
    def test_rejects_bad_points(self, kwargs):
        with pytest.raises(DomainError):
            ChannelPoint(**kwargs)


class TestSchemeSpec:
    def test_parse_full_form(self):
        s = SchemeSpec.parse("lds-sumf-fading")
        assert (s.spreading, s.detector, s.fading) == (
            Spreading.ONE_SPARSE, Detector.SUMF, Fading.RAYLEIGH)
        assert s.name == "lds-sumf-fading"

    def test_parse_defaults_to_no_fading(self):
        assert SchemeSpec.parse("ds-mmse").name == "ds-mmse-nofading"

    def test_parse_normalizes_case_and_space(self):
        assert SchemeSpec.parse("  LDS-OPT-FADING ").name == "lds-opt-fading"

    @pytest.mark.parametrize("text", [
        "lds", "lds-sumf-fading-extra", "xx-sumf-fading", "lds-xx-fading",
        "lds-sumf-maybe", "", 7,
    ])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(DomainError):
            SchemeSpec.parse(text)

    def test_supported_schemes_roster(self):
        assert len(SUPPORTED_SCHEMES) == 10
        assert "lds-mmse-fading" not in SUPPORTED_SCHEMES
        assert "ds-sumf-nofading" not in SUPPORTED_SCHEMES
        assert "lds-zf-nofading" in SUPPORTED_SCHEMES


class TestRateValue:
    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            RateValue(-0.1, 0.0)
        with pytest.raises(DomainError):
            RateValue(float("nan"), 0.0)
        with pytest.raises(DomainError):
            RateValue(1.0, -1e-9)


# ----------------------------------------------------------------------
# Golden anchors (each value frozen from an independent oracle)
# ----------------------------------------------------------------------

class TestGoldenAnchors:
    @pytest.mark.parametrize("key,fn", [
        ("sumf_lds_fading_b0.5_g1", sumf_rate_lds_fading),
        ("sumf_lds_fading_b1_g10", sumf_rate_lds_fading),
        ("sumf_lds_fading_b3_g10", sumf_rate_lds_fading),
        ("opt_lds_fading_b1_g1", opt_se_lds_fading),
        ("opt_lds_fading_b1_g10", opt_se_lds_fading),
        ("opt_lds_fading_b2_g1", opt_se_lds_fading),
        ("opt_lds_fading_b2_g100", opt_se_lds_fading),
        ("sumf_lds_nofading_b2_g10", sumf_rate_lds_nofading),
        ("opt_lds_nofading_b1_g1", opt_se_lds_nofading),
        ("mmse_se_ds_fading_b1.5_g10", mmse_se_ds_fading),
        ("opt_ds_fading_b0.5_g10", opt_se_ds_fading),
        ("opt_ds_fading_b2_g10", opt_se_ds_fading),
    ])
    def test_rate_values(self, golden, key, fn):
        entry = golden[key]
        point = ChannelPoint(entry["beta"], entry["gamma"])
        assert fn(point).bits_per_dim == pytest.approx(entry["value"], rel=1e-9)

    def test_mmse_efficiency_values(self, golden):
        for beta in (0.5, 1.0, 1.5, 2.0):
            entry = golden[f"mmse_efficiency_ds_fading_b{beta:g}_g10"]
            eff = mmse_efficiency_ds_fading(ChannelPoint(beta, 10.0))
            assert eff.value == pytest.approx(entry["value"], rel=1e-10)

    def test_opt_lds_nofading_series_anchor(self, golden):
        # direct-series oracle value at beta = gamma = 1
        rate = opt_se_lds_nofading(ChannelPoint(1.0, 1.0)).bits_per_dim
        assert rate == pytest.approx(golden["opt_lds_nofading_b1_g1"]["value"], abs=5e-13)
        assert rate == pytest.approx(0.8274, abs=5e-4)

    def test_eta_from_gamma_anchor(self, golden):
        eta = eta_from_gamma(SchemeSpec.parse("lds-opt-nofading"), 1.0, 1.0)
        assert eta == pytest.approx(golden["eta_lds_opt_nofading_b1_g1"]["value"], rel=1e-10)

    def test_gamma_from_eta_anchors(self, golden):
        for key, name in (
                ("gamma_from_eta_lds_opt_fading_b1_eta10", "lds-opt-fading"),
                ("gamma_from_eta_lds_sumf_fading_b1_eta10db", "lds-sumf-fading")):
            entry = golden[key]
            scheme = SchemeSpec.parse(name)
            gamma = gamma_from_eta(scheme, entry["beta"], entry["eta"])
            assert gamma == pytest.approx(entry["value"], rel=1e-8)
            rate = spectral_efficiency(scheme, ChannelPoint(entry["beta"], gamma))
            assert rate.bits_per_dim == pytest.approx(entry["rate_at_root"], rel=1e-8)


# ----------------------------------------------------------------------
# Representation equalities
# ----------------------------------------------------------------------

class TestRepresentations:
    def test_laplace_route_matches_mixture_route(self):
        tol = Tolerance(rel=1e-11, abs=1e-12)
        scheme = SchemeSpec.parse("lds-opt-fading")
        for beta, gamma in ((1.0, 1.0), (2.0, 100.0)):
            point = ChannelPoint(beta, gamma)
            a = opt_se_lds_fading(point, tol).bits_per_dim
            b = laplace_rate(scheme, point, tol).bits_per_dim
            assert abs(a - b) <= 1e-8

    def test_matched_filter_forms_agree(self):
        tol = Tolerance(rel=1e-12, abs=1e-14)
        scheme = SchemeSpec.parse("lds-sumf-fading")
        for beta, gamma in ((0.5, 0.1), (1.0, 10.0), (4.0, 100.0)):
            point = ChannelPoint(beta, gamma)
            a = sumf_rate_lds_fading(point, tol).bits_per_dim
            b = laplace_rate(scheme, point, tol).bits_per_dim
            assert abs(a - b) <= 1e-10

    @pytest.mark.parametrize("name", [
        "lds-opt-fading", "lds-opt-nofading", "lds-sumf-fading", "lds-sumf-nofading"])
    def test_laplace_route_matches_mpmath(self, name):
        # the same integral in u = ln s at 20 digits, broken at each turn
        # of the integrand (s = 1, t = 1 and beta t = 1, t = s gamma) and
        # 4 e-folds either side of it.  It runs from 60 e-folds below the
        # lowest turn, where the integrand has fallen like e^u, to u = 6,
        # where e^-s is e^-403: wider than the route's range, so its cut
        # ends are checked too.  (An infinite end costs mpmath minutes.)
        import mpmath

        scheme = SchemeSpec.parse(name)
        optimum, fading = scheme.detector is Detector.OPTIMUM, scheme.fading is Fading.RAYLEIGH
        tol = Tolerance(rel=1e-13, abs=0.0)
        with mpmath.workdps(20):
            for beta, gamma in itertools.product((1e-6, 1.0, 1e3, 1e4), (1e-3, 1.0, 1e8, 1e300)):
                b, lg = mpmath.mpf(beta), mpmath.log(gamma)

                def integrand(u):
                    t = mpmath.exp(u + lg)
                    a = t / (1 + t) if fading else -mpmath.expm1(-t)
                    inner = -mpmath.expm1(-b * a) if optimum else mpmath.exp(-b * a) * a
                    return mpmath.exp(-mpmath.exp(u)) * inner

                turns = (mpmath.mpf(0), -lg, -lg - mpmath.log(b))
                breaks = sorted({c + d for c in turns for d in (-4, 0, 4)})
                integral = mpmath.quad(integrand, [min(turns) - 60, *breaks, 6])
                expected = float((1 if optimum else b) * integral / mpmath.log(2))
                rate = laplace_rate(scheme, ChannelPoint(beta, gamma), tol)
                error = abs(rate.bits_per_dim - expected)
                assert error <= 1e-12 * expected, (beta, gamma, rate, expected)
                # the estimate is the panels' own, which covers the error
                # up to rounding, not the tolerance restated
                assert error <= rate.err_estimate + 4 * math.ulp(expected), (beta, gamma)
                assert rate.err_estimate <= tol.rel * rate.bits_per_dim, (beta, gamma)

    def test_laplace_route_covers_the_sparse_schemes_only(self):
        point = ChannelPoint(2.0, 10.0)
        matched_filter = laplace_rate(SchemeSpec.parse("lds-sumf-nofading"), point)
        for name in ("lds-mmse-nofading", "lds-zf-nofading"):
            assert laplace_rate(SchemeSpec.parse(name), point) == matched_filter
        for scheme in ALL_SCHEMES:
            if scheme.spreading is Spreading.DENSE:
                with pytest.raises(UnsupportedSchemeError, match="no Laplace form"):
                    laplace_rate(scheme, point)

    @pytest.mark.parametrize("z", [1e-12, 1e-3, 0.5, 1.0, 3.0, 300.0, 1e4])
    def test_recurrence_built_orders_match_direct_evaluation(self, z):
        orders = itertools.islice(_scaled_en_orders(z), 2000)
        for q, e in enumerate(orders, start=1):
            assert e == pytest.approx(exp_integral_en_scaled(q, z), rel=1e-13), q

    @pytest.mark.parametrize("z", [1e-3, 1.0, 300.0, 1e12])
    @pytest.mark.parametrize("first", [2, 57, 9000])
    def test_orders_started_late_match_those_started_at_one(self, z, first):
        late = list(itertools.islice(_scaled_en_orders(z, first), 50))
        full = list(itertools.islice(_scaled_en_orders(z), first - 1, first + 49))
        assert late == pytest.approx(full, rel=1e-13)


# ----------------------------------------------------------------------
# Sparse spreading with fading: the matched-filter Poisson series
# ----------------------------------------------------------------------

class TestMatchedFilterSeries:
    # mpmath at 60 digits; where quadrature converges it agrees with the
    # series when the integral over z is broken at 1/(beta gamma), 1 and
    # gamma (without the breaks it gives 54.49 at gamma = 1e300)
    @pytest.mark.parametrize("beta, gamma, expected", [
        (100.0, 1e3, 1.4574045198363859),
        (1e3, 10.0, 1.4439957953743844),
        (50.0, 298.8, 1.4726734549900378),
        (1e4, 10.0, 1.4428249066762235),
        (1.0, 1e100, 122.60001546589472),
        (1.0, 1e300, 367.01382569767010),
    ])
    def test_matches_mpmath(self, beta, gamma, expected):
        rate = sumf_rate_lds_fading(ChannelPoint(beta, gamma)).bits_per_dim
        assert abs(rate - expected) <= DEFAULT_TOLERANCE.target(expected)


# ----------------------------------------------------------------------
# Sparse spreading at the largest stated load
# ----------------------------------------------------------------------

class TestLoadTenThousand:
    # mpmath at 250 digits: Poisson sums over k in beta +- 40 sqrt(beta);
    # for lds-opt-fading the inner sums of e^z E_q(z), z = 0.1, come from
    # the upward recurrence, which is stable at that z
    @pytest.mark.parametrize("name, gamma, expected", [
        ("lds-opt-nofading", 10.0, 16.609582761993692268),
        ("lds-opt-nofading", 1e8, 39.863064997885434905),
        ("lds-sumf-nofading", 10.0, 1.4427527579743818795),
        ("lds-sumf-nofading", 1e8, 1.4427671876652708174),
        ("lds-mmse-nofading", 10.0, 1.4427527579743818795),
        ("lds-zf-nofading", 10.0, 1.4427527579743818795),
        ("lds-opt-fading", 10.0, 16.609510620267373536),
    ])
    def test_matches_mpmath_quickly(self, name, gamma, expected):
        scheme, point = SchemeSpec.parse(name), ChannelPoint(1e4, gamma)
        t0 = time.perf_counter()
        rate = spectral_efficiency(scheme, point).bits_per_dim
        elapsed = time.perf_counter() - t0
        assert rate == pytest.approx(expected, rel=1e-10)
        # the series sums a window of ~1600 terms around the mode, not 1e4
        assert elapsed < 0.1

    @pytest.mark.parametrize("gamma", [1e120, 1e300])
    def test_sparse_optimum_stays_below_dense(self, gamma):
        # the true relative gaps are -8.76e-12 and -3.57e-12 (mpmath); an
        # unnormalised Poisson window, 8.86e-12 heavy here, flipped both
        point = ChannelPoint(1e4, gamma)
        sparse = spectral_efficiency(SchemeSpec.parse("lds-opt-nofading"), point).bits_per_dim
        dense = spectral_efficiency(SchemeSpec.parse("ds-opt-nofading"), point).bits_per_dim
        assert sparse < dense


# ----------------------------------------------------------------------
# The stated domain: loads 1e-6..1e4, SNRs 1e-12..1e300
# ----------------------------------------------------------------------

class TestStatedDomain:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    @pytest.mark.parametrize("beta", [1e8, 1e12, 1e20, 1e300])
    def test_loads_above_ten_thousand_raise(self, scheme, beta):
        # beyond 1e4 the series weights overflow and the dense fixed point
        # rounds to zero, so a value there would be wrong or a traceback
        for gamma in (1e-12, 10.0, 1e300):
            with pytest.raises(NomaLimitsError, match="largest supported load"):
                spectral_efficiency(scheme, ChannelPoint(beta, gamma))
        with pytest.raises(NomaLimitsError, match="largest supported load"):
            gamma_from_eta(scheme, beta, 10.0)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_load_ten_thousand_is_accepted(self, scheme):
        rate = spectral_efficiency(scheme, ChannelPoint(1e4, 10.0)).bits_per_dim
        assert math.isfinite(rate) and rate > 0.0

    @pytest.mark.parametrize("route", ALL_ROUTES)
    def test_every_route_enforces_the_domain_when_called_directly(self, route):
        for beta, gamma in itertools.product((1.0, 1e4), (1e-310, 5e-324)):
            rate = route(ChannelPoint(beta, gamma))
            assert rate.bits_per_dim == beta * gamma / LN2
        with pytest.raises(DomainError, match="largest supported load"):
            route(ChannelPoint(1.0001e4, 1.0))
        with pytest.raises(DomainError, match="largest supported SNR"):
            route(ChannelPoint(1.0, 1e304))
        assert math.isfinite(route(ChannelPoint(1e4, 1e303)).bits_per_dim)

    @settings(max_examples=800, deadline=None, derandomize=True)
    @given(name=st.sampled_from(SUPPORTED_SCHEMES), log_beta=st.floats(-6.0, 4.0),
           log_gamma=st.floats(-12.0, 300.0))
    def test_rate_is_finite_and_nondecreasing_in_snr(self, name, log_beta, log_gamma):
        scheme = SchemeSpec.parse(name)
        beta, gamma = 10.0 ** log_beta, 10.0 ** log_gamma
        rate = spectral_efficiency(scheme, ChannelPoint(beta, gamma)).bits_per_dim
        higher = spectral_efficiency(scheme, ChannelPoint(beta, 1.5 * gamma)).bits_per_dim
        assert math.isfinite(rate) and rate >= 0.0
        assert math.isfinite(higher)
        assert higher >= rate - DEFAULT_TOLERANCE.target(rate)


# ----------------------------------------------------------------------
# Structural properties
# ----------------------------------------------------------------------

class TestProperties:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_zero_snr_rate_is_exactly_zero(self, scheme):
        rate = spectral_efficiency(scheme, ChannelPoint(1.0, 0.0))
        assert rate.bits_per_dim == 0.0
        assert rate.err_estimate == 0.0

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    @pytest.mark.parametrize("beta", [1.0, 1e4])
    @pytest.mark.parametrize("gamma", [1e-200, 1e-310, 5e-324])
    def test_tiny_snr_gives_first_order_rate(self, scheme, beta, gamma):
        # every rate equals beta gamma/ln2 to double precision here; 1/gamma
        # overflows below 5.6e-309, and at 1e-200 F(gamma, beta) underflowed,
        # which doubled the ds-opt-nofading rate
        rate = spectral_efficiency(scheme, ChannelPoint(beta, gamma))
        assert rate.bits_per_dim == beta * gamma / LN2

    def test_no_scheme_reaches_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a production route called quadrature")

        monkeypatch.setattr("noma_limits.rates.integrate_semi_infinite", refuse)
        monkeypatch.setattr("noma_limits.rates.integrate_interval", refuse)
        for scheme in ALL_SCHEMES:
            for beta in (10.0 ** e for e in range(-6, 5)):
                for gamma in (10.0 ** e for e in range(-12, 301, 12)):
                    rate = spectral_efficiency(scheme, ChannelPoint(beta, gamma))
                    assert rate.bits_per_dim > 0.0, (scheme.name, beta, gamma)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_nondecreasing_in_snr(self, scheme):
        rates = [spectral_efficiency(scheme, ChannelPoint(1.2, g)).bits_per_dim
                 for g in (0.5, 1.0, 2.0, 8.0)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("name", [
        "lds-opt-nofading", "lds-opt-fading", "ds-opt-nofading", "ds-opt-fading"])
    def test_optimum_rate_nondecreasing_in_load(self, name):
        scheme = SchemeSpec.parse(name)
        rates = [spectral_efficiency(scheme, ChannelPoint(b, 1.0)).bits_per_dim
                 for b in (0.5, 1.0, 2.0, 4.0)]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_optimum_dominates_linear_detection(self):
        for beta, gamma in ((0.5, 1.0), (1.0, 10.0), (3.0, 10.0)):
            point = ChannelPoint(beta, gamma)
            assert (opt_se_lds_fading(point).bits_per_dim
                    >= sumf_rate_lds_fading(point).bits_per_dim)
            assert (opt_se_ds_fading(point).bits_per_dim
                    >= mmse_se_ds_fading(point).bits_per_dim)
            assert (opt_se_ds_nofading(point).bits_per_dim
                    >= mmse_se_ds_nofading(point).bits_per_dim)

    def test_small_load_collapse_to_single_user_capacity(self):
        beta = 1e-3
        for gamma in (0.5, 2.0):
            lim = single_user_rayleigh_capacity(gamma)
            for fn in (sumf_rate_lds_fading, opt_se_lds_fading):
                per_user = fn(ChannelPoint(beta, gamma)).bits_per_dim / beta
                assert per_user == pytest.approx(lim, rel=0.002)

    def test_small_load_collapse_without_fading(self):
        beta = 1e-6
        per_user = sumf_rate_lds_nofading(ChannelPoint(beta, 3.0)).bits_per_dim / beta
        assert per_user == pytest.approx(2.0, rel=1e-5)

    def test_linear_detector_aliases_coincide(self):
        point = ChannelPoint(1.3, 7.0)
        values = {
            spectral_efficiency(SchemeSpec.parse(f"lds-{d}-nofading"), point).bits_per_dim
            for d in ("sumf", "mmse", "zf")}
        assert len(values) == 1


# ----------------------------------------------------------------------
# Dense spreading without fading
# ----------------------------------------------------------------------

class TestDenseNoFading:
    def test_hand_anchors(self):
        point = ChannelPoint(1.0, 2.0)
        assert mmse_se_ds_nofading(point).bits_per_dim == pytest.approx(1.0, abs=1e-12)
        assert opt_se_ds_nofading(point).bits_per_dim == pytest.approx(
            2.0 - 1.0 / (2.0 * LN2), abs=1e-12)

    # mpmath at 250 digits; ds-opt-nofading at beta = 0.1 also matches
    # beta * E[log2(1 + gamma L)] over the Marchenko-Pastur law of L
    @pytest.mark.parametrize("fn, beta, gamma, expected", [
        (opt_se_ds_nofading, 0.1, 1e100, 33.211814228885273970),
        (mmse_se_ds_nofading, 2.0, 1e15, 1.9999999999999971146),
    ])
    def test_high_snr_without_cancellation(self, fn, beta, gamma, expected):
        # the plain differences gamma - F/4 and beta gamma - F/4 lose every digit here
        assert fn(ChannelPoint(beta, gamma)).bits_per_dim == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fn", [mmse_se_ds_nofading, opt_se_ds_nofading])
    def test_rate_does_not_fall_with_snr_at_high_load(self, fn):
        gammas = [10.0 ** (e / 4) for e in range(-12, 1201)]
        rates = [fn(ChannelPoint(5000.0, g)).bits_per_dim for g in gammas]
        for g, lower, upper in zip(gammas[1:], rates, rates[1:]):
            # the MMSE rate saturates at beta log2(1 + 1/(beta - 1)):
            # allow rounding of the last few bits there, nothing more
            assert upper >= lower * (1.0 - 1e-14), g

    def test_tiny_snr_stays_nonnegative(self):
        # the cancellation-free form keeps the rate positive where the
        # naive difference of square roots loses every digit
        for gamma in (1e-12, 1e-9, 1e-6):
            rate = opt_se_ds_nofading(ChannelPoint(1.0, gamma)).bits_per_dim
            assert rate > 0.0
            # leading order: beta * gamma / ln2 at beta = 1
            assert rate == pytest.approx(gamma / LN2, rel=0.01)


# ----------------------------------------------------------------------
# Dense spreading with fading: fixed point
# ----------------------------------------------------------------------

class TestMmseEfficiency:
    def test_residual_and_range(self):
        for beta in (0.3, 1.0, 2.5):
            for gamma in (0.5, 10.0, 1000.0):
                eff = mmse_efficiency_ds_fading(ChannelPoint(beta, gamma))
                assert eff.residual <= 1e-10
                assert max(0.0, 1.0 - beta) < eff.value <= 1.0

    def test_zero_snr_is_exactly_one(self):
        eff = mmse_efficiency_ds_fading(ChannelPoint(2.0, 0.0))
        assert eff.value == 1.0
        assert eff.residual == 0.0

    def test_vanishing_load_approaches_one(self):
        eff = mmse_efficiency_ds_fading(ChannelPoint(1e-9, 10.0))
        assert eff.value == pytest.approx(1.0, abs=1e-8)

    def test_small_load_mmse_rate_collapses(self):
        beta = 1e-4
        rate = mmse_se_ds_fading(ChannelPoint(beta, 5.0)).bits_per_dim
        assert rate / beta == pytest.approx(
            single_user_rayleigh_capacity(5.0), rel=1e-3)

    def test_optimum_correction_nonnegative_and_vanishing_at_small_load(self):
        point = ChannelPoint(1e-6, 10.0)
        mmse = mmse_se_ds_fading(point).bits_per_dim
        opt = opt_se_ds_fading(point).bits_per_dim
        assert opt >= mmse
        assert opt == pytest.approx(mmse, abs=1e-10)


    # mpmath values at 40 digits, from the benchmark's independent oracle
    @pytest.mark.parametrize("name, beta, gamma, expected", [
        ("ds-mmse-fading", 0.1, 1e100, 33.120806021801435),
        ("ds-mmse-fading", 0.1, 1e300, 99.55936791954868),
        ("ds-opt-fading", 0.1, 1e100, 33.128539611157585),
        ("ds-opt-fading", 0.1, 1e300, 99.56710150890484),
    ])
    def test_root_at_rounded_lower_end(self, name, beta, gamma, expected):
        # the root lies within rounding of x = 1 - beta, where a residual
        # written as x - 1 + beta * (1 - E) rounds positive and leaves no
        # sign change; the rate must come out, not a FixedPointError
        rate = spectral_efficiency(SchemeSpec.parse(name), ChannelPoint(beta, gamma))
        assert rate.bits_per_dim == pytest.approx(expected, rel=1e-10)

    def test_root_at_rounded_upper_end(self):
        # beta * gamma ~ 4e-18 is below the rounding of beta - 1, so the
        # residual at x = 1 rounds negative; the root is within 4e-18 of 1
        point = ChannelPoint(3.656964017422588e-06, 1.0321711517116266e-12)
        assert mmse_efficiency_ds_fading(point).value == pytest.approx(1.0, abs=1e-15)
        for fn in (mmse_se_ds_fading, opt_se_ds_fading):
            assert fn(point).bits_per_dim == pytest.approx(5.4456151124756891e-18, rel=1e-10)

    @pytest.mark.parametrize("beta, gamma", itertools.product((0.5, 2.0), (1e-310, 5e-324)))
    def test_subnormal_snr_gives_unit_efficiency(self, beta, gamma):
        # x gamma is subnormal, so 1/(x gamma) would overflow; the
        # expectation is 1 - x gamma + O((x gamma)^2) there
        eff = mmse_efficiency_ds_fading(ChannelPoint(beta, gamma))
        assert eff.value == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("name, gamma, expected", [
        ("ds-mmse-fading", 1e8, 14.099885970636537),
        ("ds-mmse-fading", 1e100, 168.69842673513455),
        ("ds-mmse-fading", 1e300, 501.677392927966),
        ("ds-opt-fading", 1e8, 24.30093171995191),
        ("ds-opt-fading", 1e100, 329.9173682705704),
        ("ds-opt-fading", 1e300, 994.3029872480429),
    ])
    def test_tiny_root_at_unit_load(self, name, gamma, expected):
        # at beta = 1 the efficiency falls to ~1e-49 (gamma = 1e100),
        # far below any absolute residual floor
        rate = spectral_efficiency(SchemeSpec.parse(name), ChannelPoint(1.0, gamma))
        assert rate.bits_per_dim == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("beta, gamma", itertools.product(
        (1.0, 1.01, 1.1, 2.0, 3.16), (1e50, 1e100, 1e300)))
    def test_huge_snr_root_is_found_in_few_evaluations(self, monkeypatch, beta, gamma):
        # the root sits hundreds of decades below x = 1; the Jensen and
        # e^z E_1(z) < ln(1 + 1/z) bounds bracket it within a factor of
        # about beta ln(gamma), where the full bracket took up to 1000 calls
        calls = []

        def counting(n, x):
            calls.append(x)
            return exp_integral_en_scaled(n, x)

        monkeypatch.setattr("noma_limits.rates.exp_integral_en_scaled", counting)
        eff = mmse_efficiency_ds_fading(ChannelPoint(beta, gamma))
        assert 0.0 < eff.value < 1e-10
        assert len(calls) <= 30

    # mpmath at 50 digits (bisection in ln(x - max(0, 1 - beta))); the
    # root lies within rounding of an end of the bound bracket at all
    # but the last point
    ROUNDED_ENDS = [
        (1e-6, 1e-12, 0.999999999999999999),
        (1e-6, 1e100, 0.9999990000000000000000453),
        (0.01, 1e100, 0.9899999999999999997918332),
        (0.0316, 1e300, 0.96839999999999999691358),
        (0.1, 1e-12, 0.9999999999999000000000002),
        (0.1, 1e100, 0.8999999999999999944488849),
    ]

    @pytest.mark.parametrize("beta, gamma, expected", ROUNDED_ENDS + [
        (5418.855621354425, 8.058778763955284e-09, 0.99995633254902704711735),
    ])
    def test_matches_mpmath_on_the_bound_bracket(self, beta, gamma, expected):
        eff = mmse_efficiency_ds_fading(ChannelPoint(beta, gamma))
        assert eff.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("beta, gamma", [p[:2] for p in ROUNDED_ENDS])
    def test_root_at_a_rounded_end_takes_two_residuals(self, monkeypatch, beta, gamma):
        # the root lies within rounding of an end of the bound bracket,
        # so one residual per end settles it
        calls = []

        def counting(n, x):
            calls.append(x)
            return exp_integral_en_scaled(n, x)

        monkeypatch.setattr("noma_limits.rates.exp_integral_en_scaled", counting)
        mmse_efficiency_ds_fading(ChannelPoint(beta, gamma))
        assert len(calls) <= 2

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(log_beta=st.floats(-6.0, 4.0), log_gamma=st.floats(-12.0, 300.0))
    def test_bounds_bracket_the_root(self, log_beta, log_gamma):
        # the exact residual, in mpmath, is at most 0 four ulps below the
        # lower bound and at least 0 four ulps above the upper one
        import mpmath

        beta, gamma = 10.0 ** log_beta, 10.0 ** log_gamma

        def residual(x: float):
            if x <= 0.0:
                return -1  # x + (beta - 1) - beta at x = 0
            z = 1 / (mpmath.mpf(x) * gamma)
            return x + (mpmath.mpf(beta) - 1) - beta * z * mpmath.exp(z) * mpmath.e1(z)

        a, b = rates._efficiency_bracket(beta, gamma)
        assert max(0.0, 1.0 - beta) <= a <= b <= 1.0
        with mpmath.workdps(30):
            assert residual(a - 4 * math.ulp(a)) <= 0 <= residual(b + 4 * math.ulp(b))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(log_beta=st.floats(-3.0, 3.0), log_gamma=st.floats(-12.0, 300.0))
    def test_fixed_point_over_the_whole_domain(self, log_beta, log_gamma):
        beta, gamma = 10.0 ** log_beta, 10.0 ** log_gamma
        try:
            eff = mmse_efficiency_ds_fading(ChannelPoint(beta, gamma))
            rates = {
                name: [spectral_efficiency(SchemeSpec.parse(name), ChannelPoint(beta, g))
                       .bits_per_dim for g in (gamma / 1e3, gamma)]
                for name in ("ds-mmse-fading", "ds-opt-fading")}
        except NomaLimitsError:
            return  # a typed refusal is allowed; a wrong value is not
        x = eff.value
        assert max(0.0, 1.0 - beta) <= x <= 1.0
        shrinkage = exp_integral_en_scaled(1, 1.0 / (x * gamma)) / (x * gamma)
        residual = x + (beta - 1.0) - beta * shrinkage
        assert abs(residual) <= 1e-12 * max(1.0, 1.0 / x)
        for lower, upper in rates.values():
            # flat at high SNR for beta > 1, so allow the default tolerance
            assert upper >= lower - DEFAULT_TOLERANCE.target(lower)


# ----------------------------------------------------------------------
# Dense spreading: one efficiency pair and one decomposition
# ----------------------------------------------------------------------

# (scheme, beta, gamma, rate as a 45-digit string), rebuilt by
# tools/make_dense_anchors.py from mpmath with nothing from noma_limits
DENSE_MPMATH = json.loads(Path(__file__).with_name("dense_mpmath.json").read_text("utf-8"))


class TestDenseEfficiencyPair:
    @pytest.mark.parametrize("name, beta, gamma, expected", DENSE_MPMATH,
                             ids=[f"{n}-{b:g}-{g:g}" for n, b, g, _ in DENSE_MPMATH])
    def test_matches_mpmath(self, name, beta, gamma, expected):
        tol = Tolerance(rel=1e-13, abs=0.0)
        rate = spectral_efficiency(SchemeSpec.parse(name), ChannelPoint(beta, gamma), tol)
        assert rate.bits_per_dim == pytest.approx(float(expected), rel=tol.rel, abs=0.0)

    @pytest.mark.parametrize("d", [0.0, 1e-300, 1e-8, 9.99e-4, 1e-3, 0.3, 0.4999, 0.5, 0.9,
                                   1.0 - 2.0 ** -40])
    def test_divergence_matches_mpmath(self, d):
        import mpmath

        # only the branch from d = 1/2 on reads x, and 1 - d is exact there
        x = 1.0 - d
        with mpmath.workdps(50):
            expected = float(-d - mpmath.log1p(-mpmath.mpf(d)))
        # within two ulps of -ln x = d + D, the share of the rate D adds to
        # in nats (the MMSE rate is at least d); between 1e-3 and 1/2,
        # -d - log1p(-d) loses up to 2/d ulps of D itself
        assert abs(rates._divergence(x, d) - expected) <= 2 * 2.2e-16 * (d + expected)
        if d < 1e-3 or d >= 0.5:
            assert rates._divergence(x, d) == pytest.approx(expected, rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("law", ["nofading", "fading"])
    def test_optimum_never_below_mmse(self, law):
        # both optimum routes add a nonnegative D/ln 2 to the MMSE rate
        # they share, so no tolerance is needed; the three-term formula
        # fell below MMSE at 7 of these points, by up to 4.3e-16
        opt, mmse = SchemeSpec.parse(f"ds-opt-{law}"), SchemeSpec.parse(f"ds-mmse-{law}")
        for beta in (10.0 ** (e / 2) for e in range(-12, 9)):
            for gamma in (10.0 ** (1.5 * e) for e in range(-8, 201)):
                point = ChannelPoint(beta, gamma)
                assert (spectral_efficiency(opt, point).bits_per_dim
                        >= spectral_efficiency(mmse, point).bits_per_dim), (beta, gamma)

    def test_mmse_fading_does_not_fall_with_snr_at_the_largest_load(self):
        # the residual x + (beta - 1) - beta E rounded at about beta eps
        # and let 938 of these steps fall by more than 1e-14
        scheme = SchemeSpec.parse("ds-mmse-fading")
        gammas = [10.0 ** (-12.0 + 312.0 * i / 1999) for i in range(2000)]
        values = [spectral_efficiency(scheme, ChannelPoint(1e4, g)).bits_per_dim for g in gammas]
        for g, lower, upper in zip(gammas[1:], values, values[1:]):
            assert upper >= lower * (1.0 - 2e-15), g


# ----------------------------------------------------------------------
# Asymptotic anchors
# ----------------------------------------------------------------------

class TestSlopesAndFloor:
    def test_eta_min_is_ln2_everywhere(self):
        for scheme in ALL_SCHEMES:
            assert eta_min(scheme) == LN2

    def test_low_snr_slopes(self):
        slopes = (
            (("lds-sumf-nofading", "lds-mmse-nofading", "lds-zf-nofading", "ds-mmse-nofading"),
             lambda b: 2.0 * b / (1.0 + 2.0 * b)),
            (("lds-opt-nofading", "ds-opt-nofading"), lambda b: 2.0 * b / (1.0 + b)),
            (("lds-sumf-fading", "ds-mmse-fading"), lambda b: b / (1.0 + b)),
            (("lds-opt-fading", "ds-opt-fading"), lambda b: 2.0 * b / (2.0 + b)),
        )
        assert sorted(n for names, _ in slopes for n in names) == sorted(SUPPORTED_SCHEMES)
        assert low_snr_slope(SchemeSpec.parse("lds-sumf-fading"), 1.0) == pytest.approx(0.5)
        assert low_snr_slope(SchemeSpec.parse("lds-opt-fading"), 2.0) == pytest.approx(1.0)
        for names, slope in slopes:
            for scheme in map(SchemeSpec.parse, names):
                for beta in (0.5, 1.0, 2.0, 1e4):
                    assert low_snr_slope(scheme, beta) == pytest.approx(slope(beta), rel=1e-15)
                for beta in (1e-6, 1e-9):
                    assert low_snr_slope(scheme, beta) < 2e-6
                # the first-order rule of the rate routes rests on beta/S0 <= 1 + beta
                for beta in (1e-6, 0.3, 1.0, 5.0, 1e4):
                    assert beta / low_snr_slope(scheme, beta) <= (1.0 + beta) * (1.0 + 1e-15)

    @pytest.mark.parametrize("name, beta, epsilon", itertools.product(
        SUPPORTED_SCHEMES, (1e-6, 1.0, 1e3, 1e4), (1e-9, 1e-6)))
    def test_floor_inversion_follows_the_wideband_slope(self, name, beta, epsilon):
        # eta = ln 2 (1 + epsilon) is reached at gamma = epsilon / q to first
        # order, q = beta / S0 (the wideband slope S0 of Verdu 2002)
        scheme = SchemeSpec.parse(name)
        gamma = gamma_from_eta(scheme, beta, LN2 * (1.0 + epsilon))
        q = beta / low_snr_slope(scheme, beta)
        assert gamma == pytest.approx(epsilon / q, rel=1e-5, abs=0.0)

    def test_low_snr_slope_unsupported(self):
        with pytest.raises(UnsupportedSchemeError):
            low_snr_slope(SchemeSpec.parse("ds-zf-nofading"), 1.0)

    def test_high_snr_slopes(self):
        assert high_snr_slope(SchemeSpec.parse("lds-sumf-fading"), 1.0) == pytest.approx(
            math.exp(-1.0))
        assert high_snr_slope(SchemeSpec.parse("lds-opt-fading"), 1.0) == pytest.approx(
            1.0 - math.exp(-1.0))
        ds_mmse = SchemeSpec.parse("ds-mmse-nofading")
        assert high_snr_slope(ds_mmse, 0.5) == 0.5
        assert high_snr_slope(ds_mmse, 1.0) == 0.5
        assert high_snr_slope(ds_mmse, 2.0) == 0.0

    @pytest.mark.parametrize("name", ["ds-opt-nofading", "ds-opt-fading"])
    def test_dense_optimum_high_snr_slope_is_the_rank_fraction(self, name):
        scheme = SchemeSpec.parse(name)
        for beta in (1e-3, 0.5, 1.0, 2.0, 1e4):
            assert high_snr_slope(scheme, beta) == min(beta, 1.0)

    def test_high_snr_slope_unsupported(self):
        with pytest.raises(UnsupportedSchemeError):
            high_snr_slope(SchemeSpec.parse("ds-zf-nofading"), 1.0)

    def test_measured_high_snr_slope_realized(self):
        scheme = SchemeSpec.parse("lds-sumf-fading")
        lo = spectral_efficiency(scheme, ChannelPoint(1.0, 1e5)).bits_per_dim
        hi = spectral_efficiency(scheme, ChannelPoint(1.0, 1e8)).bits_per_dim
        measured = (hi - lo) / (3.0 * math.log2(10.0))
        assert measured == pytest.approx(high_snr_slope(scheme, 1.0), rel=0.02)


# ----------------------------------------------------------------------
# Energy-per-bit conversions
# ----------------------------------------------------------------------

class TestEtaConversions:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_round_trip_at_eta_ten(self, scheme):
        for beta in (0.5, 1.0, 2.0):
            gamma = gamma_from_eta(scheme, beta, 10.0)
            assert eta_from_gamma(scheme, beta, gamma) == pytest.approx(10.0, rel=1e-8)

    def test_eta_never_below_floor(self):
        for scheme in ALL_SCHEMES:
            for gamma in (1e-4, 1.0, 100.0):
                assert eta_from_gamma(scheme, 1.0, gamma) > LN2

    def test_near_floor_solution_is_tiny(self):
        gamma = gamma_from_eta(SchemeSpec.parse("lds-sumf-fading"), 1.0,
                               LN2 * (1.0 + 1e-9))
        assert 0.0 < gamma < 1e-6

    @staticmethod
    def _warm_cold_spread(name: str, beta: float, excess: float) -> float:
        scheme, eta = SchemeSpec.parse(name), LN2 * (1.0 + excess)
        cold = gamma_from_eta(scheme, beta, eta)
        roots = [cold] + [gamma_from_eta(scheme, beta, eta, guess=cold * factor)
                          for factor in (1.3, 0.02, 1e6)]
        return (max(roots) - min(roots)) / cold

    @pytest.mark.parametrize("name, beta", [
        (name, beta) for name in SUPPORTED_SCHEMES for beta in (1e-6, 1.0)])
    @pytest.mark.parametrize("excess", [1e-9, 1e-3])
    def test_warm_and_cold_roots_agree_near_the_floor(self, name, beta, excess):
        # the root tolerance scales with eta - ln 2, so any start lands on
        # the same gamma even where eta - ln 2 is 1e-9 of ln 2
        bound = 1e-8 if excess > 1e-9 else 1e-5
        assert self._warm_cold_spread(name, beta, excess) <= bound

    @pytest.mark.parametrize("name", DENSE_NAMES)
    @pytest.mark.parametrize("excess", [1e-9, 1e-3])
    def test_warm_and_cold_roots_agree_near_the_floor_at_the_largest_load(self, name, excess):
        # the spread was 1.3e-4 for ds-mmse-fading at 1e-9 while its fixed
        # point rounded at about beta * eps; it is 3.9e-7 now
        bound = 1e-8 if excess > 1e-9 else 1e-5
        assert self._warm_cold_spread(name, 1e4, excess) <= bound

    def test_below_floor_raises(self):
        scheme = SchemeSpec.parse("lds-sumf-fading")
        with pytest.raises(NoSolutionError):
            gamma_from_eta(scheme, 1.0, LN2)
        with pytest.raises(NoSolutionError):
            gamma_from_eta(scheme, 1.0, 0.5)

    def test_degenerate_rate_at_zero_snr(self):
        with pytest.raises(DegenerateRateError):
            eta_from_gamma(SchemeSpec.parse("lds-opt-fading"), 1.0, 0.0)

    def test_rejects_bad_eta(self):
        scheme = SchemeSpec.parse("lds-opt-fading")
        for eta in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                gamma_from_eta(scheme, 1.0, eta)

    # float.hex of each root: ``expected`` as found since the Poisson
    # weights are walked out from the mode (the sparse cases; the dense
    # ones since the order-1 exponential integral is a Taylor expansion
    # about tabulated anchors), ``before`` as found with the continued
    # fraction there (and before the SNR probes were memoised).  The
    # bracket walks up from gamma = 1 in the first two and last cases,
    # and down in the third.
    INVERSION_ROOTS = [
        ("lds-sumf-fading", 1.0, 10.0, "0x1.4036c648a888fp+4", "0x1.4036c648a8892p+4"),
        ("ds-mmse-fading", 2.0, 10.0, "0x1.3602e9607e960p+3", "0x1.3602e9607e965p+3"),
        ("lds-opt-fading", 0.5, 1.0, "0x1.e38cb1e1f1d11p-2", "0x1.e38cb1e1f1c58p-2"),
        ("ds-opt-nofading", 3.0, 1e4, "0x1.bd9f35b83614ap+15", "0x1.bd9f35b83614ap+15"),
    ]

    @staticmethod
    def _record_snrs(monkeypatch) -> list:
        seen = []
        forward = rates.eta_from_gamma

        def recording(scheme, beta_, gamma, *args):
            seen.append(gamma)
            return forward(scheme, beta_, gamma, *args)

        monkeypatch.setattr(rates, "eta_from_gamma", recording)
        return seen

    @pytest.mark.parametrize("name, beta, eta, expected, before", INVERSION_ROOTS)
    def test_inversion_evaluates_each_snr_once(self, monkeypatch, name, beta, eta,
                                               expected, before):
        seen = self._record_snrs(monkeypatch)
        gamma = gamma_from_eta(SchemeSpec.parse(name), beta, eta)
        assert len(seen) == len(set(seen))
        assert gamma == float.fromhex(expected)
        assert gamma == pytest.approx(float.fromhex(before), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name, beta, eta, expected, before", INVERSION_ROOTS)
    @pytest.mark.parametrize("factor", [1.0, 1.003, 0.5, 1e3])
    def test_warm_inversion_evaluates_each_snr_once(self, monkeypatch, name, beta, eta,
                                                    expected, before, factor):
        root = float.fromhex(expected)
        seen = self._record_snrs(monkeypatch)
        gamma = gamma_from_eta(SchemeSpec.parse(name), beta, eta, guess=root * factor)
        assert len(seen) == len(set(seen))
        assert gamma == pytest.approx(root, rel=1e-9, abs=0.0)

    def test_warm_start_needs_fewer_evaluations(self, monkeypatch):
        scheme = SchemeSpec.parse("ds-mmse-fading")
        seen = self._record_snrs(monkeypatch)
        cold = gamma_from_eta(scheme, 2.0, 10.0)
        n_cold = len(seen)
        seen.clear()
        gamma_from_eta(scheme, 2.0, 10.0, guess=cold * 1.01)
        assert len(seen) < n_cold

    @pytest.mark.parametrize("guess", [None, 9e301, 9.5e302])
    def test_root_just_below_the_largest_snr(self, guess):
        # from 9e301 the doubling steps of a warm walk would jump from
        # below the root to 1.15e303, past the largest SNR a route accepts
        scheme = SchemeSpec.parse("lds-opt-nofading")
        eta = eta_from_gamma(scheme, 1.0, 9e302)
        # the root tolerance, 1e-11 relative in ln gamma = 697, fixes gamma to 7e-9
        assert gamma_from_eta(scheme, 1.0, eta, guess=guess) == pytest.approx(9e302, rel=1e-8)

    @pytest.mark.parametrize("guess", [None, 1e300, 1e303])
    def test_root_above_the_largest_snr_is_not_reached(self, guess):
        scheme = SchemeSpec.parse("lds-opt-nofading")
        eta = 1.01 * eta_from_gamma(scheme, 1.0, 1e303)
        with pytest.raises(NonConvergenceError, match="not reached below gamma = 1e303"):
            gamma_from_eta(scheme, 1.0, eta, guess=guess)

    @pytest.mark.parametrize("guess", [0.0, -1.0, float("nan"), float("inf"), "1"])
    def test_rejects_bad_guess(self, guess):
        with pytest.raises(DomainError):
            gamma_from_eta(SchemeSpec.parse("lds-opt-fading"), 1.0, 10.0, guess=guess)

    @pytest.mark.parametrize("guess", [None, 2.0, 1e-3])
    def test_jump_in_the_forward_rate_is_not_a_root(self, monkeypatch, guess):
        # eta(gamma) wobbles and is not monotone, and it crosses the
        # target only by a jump at gamma = 3; the bracket closes on the
        # jump, where no gamma reproduces eta
        def jumping(scheme, beta, gamma, *args):
            return 10.0 * ((1.5 if gamma > 3.0 else 0.5) + 0.1 * math.sin(gamma))

        monkeypatch.setattr(rates, "eta_from_gamma", jumping)
        with pytest.raises(NonConvergenceError, match="not 10.0"):
            gamma_from_eta(SchemeSpec.parse("lds-opt-fading"), 1.0, 10.0, guess=guess)


# ----------------------------------------------------------------------
# Unsupported combinations
# ----------------------------------------------------------------------

class TestUnsupportedSchemes:
    @pytest.mark.parametrize("name", [
        "lds-mmse-fading", "lds-zf-fading", "ds-sumf-nofading",
        "ds-sumf-fading", "ds-zf-nofading", "ds-zf-fading",
    ])
    def test_rejected_everywhere(self, name):
        scheme = SchemeSpec.parse(name)
        with pytest.raises(UnsupportedSchemeError):
            spectral_efficiency(scheme, ChannelPoint(1.0, 1.0))
        with pytest.raises(UnsupportedSchemeError):
            eta_min(scheme)
        with pytest.raises(UnsupportedSchemeError):
            gamma_from_eta(scheme, 1.0, 10.0)
