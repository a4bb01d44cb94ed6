"""The oracle against the golden file's analytic entries, the hand
anchors, and second routes of its own."""

import json
import math
from pathlib import Path

import mpmath as mp
import pytest

import oracle

GOLDEN = Path(__file__).resolve().parents[2] / "src" / "noma_limits" / "golden" / "values.json"
# golden entries computed with mpmath or exact series, by key prefix
ANALYTIC = {
    "opt_lds_fading_b": "lds-opt-fading",
    "opt_lds_nofading_b": "lds-opt-nofading",
    "sumf_lds_fading_b": "lds-sumf-fading",
    "sumf_lds_nofading_b": "lds-sumf-nofading",
    "mmse_se_ds_fading_b": "ds-mmse-fading",
    "opt_ds_fading_b": "ds-opt-fading",
}


def _golden():
    with GOLDEN.open(encoding="utf-8") as fh:
        return json.load(fh)


def _analytic_entries():
    return [(key, scheme, e) for key, e in sorted(_golden().items())
            for prefix, scheme in ANALYTIC.items() if key.startswith(prefix)]


@pytest.mark.parametrize("key, scheme, entry", _analytic_entries(),
                         ids=[k for k, _, _ in _analytic_entries()])
def test_rates_match_golden(key, scheme, entry):
    got = oracle.rate(scheme, entry["beta"], entry["gamma"])
    assert got == pytest.approx(entry["value"], rel=1e-13)


def test_fixed_points_match_golden():
    entries = {k: e for k, e in _golden().items() if k.startswith("mmse_efficiency_ds_fading")}
    assert len(entries) == 4
    for e in entries.values():
        with mp.workdps(40):
            x = oracle.ds_efficiency(mp.mpf(e["beta"]), mp.mpf(e["gamma"]))
        assert float(x) == pytest.approx(e["value"], rel=1e-13)


@pytest.mark.parametrize("key, scheme", [
    ("gamma_from_eta_lds_opt_fading_b1_eta10", "lds-opt-fading"),
    ("gamma_from_eta_lds_sumf_fading_b1_eta10db", "lds-sumf-fading"),
])
def test_inverse_points_of_golden(key, scheme):
    e = _golden()[key]
    rate = oracle.rate(scheme, e["beta"], e["value"])
    assert rate == pytest.approx(e["rate_at_root"], rel=1e-12)
    assert e["beta"] * e["value"] / rate == pytest.approx(e["eta"], rel=1e-12)


def test_hand_anchors():
    # dense spreading without fading at beta = 1, gamma = 2
    assert oracle.rate("ds-mmse-nofading", 1.0, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert oracle.rate("ds-opt-nofading", 1.0, 2.0) == pytest.approx(
        2.0 - 1.0 / (2.0 * math.log(2.0)), rel=1e-15)


def _poisson_series(beta, gamma, term):
    with mp.workdps(40):
        beta, gamma = mp.mpf(beta), mp.mpf(gamma)
        lo, hi = oracle._poisson_window(beta)
        return float(mp.fsum(mp.exp(-beta + k * mp.log(beta) - mp.loggamma(k + 1))
                             * term(k, gamma) for k in range(lo, hi + 1)) / mp.log(2))


@pytest.mark.parametrize("beta, gamma", [(1e-6, 1e-12), (3.1622776601683795, 1e-3),
                                         (100.0, 1e6), (0.1, 1e100)])
def test_laplace_forms_match_direct_series(beta, gamma):
    opt = _poisson_series(beta, gamma, lambda k, g: mp.log1p(k * g))
    lin = beta * _poisson_series(beta, gamma,
                                 lambda k, g: mp.log1p((k + 1) * g) - mp.log1p(k * g))
    assert oracle.rate("lds-opt-nofading", beta, gamma) == pytest.approx(opt, rel=1e-13)
    assert oracle.rate("lds-sumf-nofading", beta, gamma) == pytest.approx(lin, rel=1e-13)


@pytest.mark.parametrize("beta, gamma, expected", [(100.0, 1e3, 1.4574045198363859),
                                                   (1000.0, 10.0, 1.4439957953743843)])
def test_sumf_series_matches_the_integral(beta, gamma, expected):
    # beta/ln2 * int_0^inf exp(-z/gamma - beta z/(1+z)) / (1+z) dz, by
    # tanh-sinh on decade panels: the route the series replaces
    with mp.workdps(40):
        b, g = mp.mpf(beta), mp.mpf(gamma)
        f = lambda z: mp.exp(-z / g - b * z / (1 + z)) / (1 + z)  # noqa: E731
        direct = float(b * mp.quad(f, oracle._breaks(g, 1 / b)) / mp.log(2))
    assert oracle.rate("lds-sumf-fading", beta, gamma) == pytest.approx(direct, rel=1e-13)
    assert direct == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("beta, gamma", [(100.0, 1e6), (2.0, 1e15), (0.5, 30.0)])
def test_tse_hanly_sinr_matches_f_transform(beta, gamma):
    # gamma - F(gamma, beta)/4 at enough digits to survive the cancellation
    with mp.workdps(80):
        b, g = mp.mpf(beta), mp.mpf(gamma)
        f = (mp.sqrt(g * (1 + mp.sqrt(b)) ** 2 + 1) - mp.sqrt(g * (1 - mp.sqrt(b)) ** 2 + 1)) ** 2
        q = f / 4
        mmse = b * mp.log1p(g - q) / mp.log(2)
        opt = (b * mp.log1p(g - q) + mp.log1p(b * g - q) - q / g) / mp.log(2)
    assert oracle.rate("ds-mmse-nofading", beta, gamma) == pytest.approx(float(mmse), rel=1e-14)
    assert oracle.rate("ds-opt-nofading", beta, gamma) == pytest.approx(float(opt), rel=1e-14)


def test_dense_fading_optimum_integrates_the_efficiency():
    # d/dgamma log det(I + gamma B B*) = sum_k (1 - mmse_k) / gamma, and
    # beta (1 - E mmse) = 1 - x at the fixed point, so
    # C_opt(gamma) = int_0^gamma (1 - x(t)) / t dt / ln 2
    beta, gamma = 2.0, 10.0
    with mp.workdps(20):
        f = lambda t: (1 - oracle.ds_efficiency(mp.mpf(beta), t)) / t  # noqa: E731
        integral = float(mp.quad(f, [0, 1, gamma]) / mp.log(2))
    assert oracle.rate("ds-opt-fading", beta, gamma) == pytest.approx(integral, rel=1e-12)


def test_stored_points_reference_is_the_oracle():
    table = oracle.load_points_reference()
    moderate = sorted(k for k in table if 1e-3 <= k[2] <= 1e3 and k[1] <= 10)
    for key in moderate[::23]:
        assert oracle.rate(*key) == pytest.approx(table[key], rel=1e-13, abs=1e-300), key


def test_moments_are_lah_polynomials():
    # the rising-factorial moments of a Poisson count equal the
    # Lah-number polynomial; row 4 is 24, 36, 12, 1
    for beta in (0.5, 1.5):
        want = 24 * beta + 36 * beta ** 2 + 12 * beta ** 3 + beta ** 4
        assert oracle.lds_fading_moment(beta, 4) == pytest.approx(want, rel=1e-14)
        assert oracle.lds_fading_moment(beta, 1) == pytest.approx(beta, rel=1e-14)
