"""Acceptance gate: the thirteen numbered release criteria.

Each criterion runs through the same entry point the ``verify``
subcommand uses, at the default seed, and reports one PASS/FAIL line.
A criterion fails the gate if any of its checks fails; the assertion
message then carries the offending comparisons verbatim.
"""

import dataclasses
import tracemalloc

import pytest

from noma_limits import ensemble_lab, numerics, rates, verification
from noma_limits.ensemble_lab import McEstimate
from noma_limits.verification import _MAX_SEED, CRITERIA, DEFAULT_SEED, run_criterion


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[f"{c.index:02d}-{c.key}" for c in CRITERIA])
def test_criterion(criterion, capsys):
    checks = run_criterion(criterion, DEFAULT_SEED)
    assert checks, "a criterion must perform at least one check"
    failed = [c for c in checks if not c.passed]
    verdict = "PASS" if not failed else "FAIL"
    with capsys.disabled():
        print(f"{verdict} criterion {criterion.index:02d} [{criterion.key}] "
              f"{criterion.title}: {len(checks) - len(failed)}/{len(checks)} checks")
    detail = "; ".join(
        f"{c.name}: observed {c.observed!r}, expected {c.expected!r} "
        f"within {c.tolerance!r}" for c in failed)
    assert not failed, detail


def test_every_criterion_is_numbered_uniquely():
    indices = [c.index for c in CRITERIA]
    assert indices == list(range(1, 14))
    assert len({c.key for c in CRITERIA}) == 13


def test_the_largest_seed_derives_the_largest_key(monkeypatch):
    # every seed the Monte Carlo criteria derive, with the draws replaced
    # by recorders: at the largest seed run_suite accepts, the largest
    # derived seed fits a 64-bit key and one seed more would not
    seeds = []

    def record_draw(_n_dims, _n_users, seed):
        seeds.append(seed)
        return ensemble_lab.draw_gram(4, 4, 0)

    def record_estimate(*args):
        seeds.append(args[-1])
        return McEstimate(1.0, 1.0, 1, args[-1], 1.0)

    monkeypatch.setattr(verification, "draw_gram", record_draw)
    monkeypatch.setattr(verification, "mc_sumf_rate", record_estimate)
    monkeypatch.setattr(verification, "mc_ds_fading_logdet", record_estimate)
    for criterion in CRITERIA:
        if criterion.suite == "full":
            run_criterion(criterion, _MAX_SEED)
    assert max(seeds) < 2 ** 64 <= max(seeds) + 1_000_003


def _criterion(key):
    return next(c for c in CRITERIA if c.key == key)


def test_opt_monte_carlo_holds_one_spectrum_at_a_time():
    # each 1e6-dimension spectrum is 8 MB; holding the first while the
    # second is drawn read 24 MB
    criterion = _criterion("opt-monte-carlo")
    run_criterion(criterion, DEFAULT_SEED)
    tracemalloc.start()
    try:
        run_criterion(criterion, DEFAULT_SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20


def test_ds_logdet_fails_a_reference_one_percent_off(monkeypatch):
    # 3 standard errors are 0.86% and 0.30% of the rate at seed 42
    real = verification.mc_ds_fading_logdet

    def scaled(*args):
        est = real(*args)
        return dataclasses.replace(est, reference=1.01 * est.reference)

    monkeypatch.setattr(verification, "mc_ds_fading_logdet", scaled)
    failed = {c.name for c in run_criterion(_criterion("ds-logdet")) if not c.passed}
    assert failed == {"10.ds-logdet.beta0.5.gamma10", "10.ds-logdet.beta2.gamma10"}


@pytest.mark.parametrize("route, check", [
    ("mmse_se_ds_nofading", "13.anchor.ds-mmse"),
    ("opt_se_ds_nofading", "13.anchor.ds-opt"),
])
def test_hand_anchors_fail_a_route_1e_12_off(monkeypatch, route, check):
    real = getattr(verification, route)

    def scaled(point):
        value = real(point)
        return dataclasses.replace(value, bits_per_dim=(1.0 + 1e-12) * value.bits_per_dim)

    monkeypatch.setattr(verification, route, scaled)
    failed = [c.name for c in run_criterion(_criterion("hand-anchors")) if not c.passed]
    assert failed == [check]


@pytest.mark.parametrize("route", [
    "lds-mmse-nofading", "lds-opt-fading", "lds-opt-nofading",
    "lds-sumf-fading", "lds-sumf-nofading", "lds-zf-nofading", "laplace_rate"])
def test_representations_fail_a_route_1e_9_off(monkeypatch, route):
    # a sparse name's production route, as spectral_efficiency dispatches
    # it (the names sharing that route stay exact), or the Laplace form
    def scaled(real):
        def wrapper(*args):
            value = real(*args)
            return dataclasses.replace(value, bits_per_dim=(1.0 + 1e-9) * value.bits_per_dim)
        return wrapper

    if route == "laplace_rate":
        monkeypatch.setattr(verification, route, scaled(verification.laplace_rate))
    else:
        monkeypatch.setitem(rates._FORMULAS, route, scaled(rates._FORMULAS[route]))
    assert not all(c.passed for c in run_criterion(_criterion("representations")))


def test_curve_orderings_chain_each_curve_as_curve_does(monkeypatch):
    # per curve of 21 loads: a cold first inversion, then the previous
    # root, then the previous root extrapolated in log gamma
    real = verification.gamma_from_eta
    calls = {}

    def recording(scheme, beta, eta, tol, guess=None):
        gamma = real(scheme, beta, eta, tol, guess)
        calls.setdefault(scheme.name, []).append((guess, gamma))
        return gamma

    monkeypatch.setattr(verification, "gamma_from_eta", recording)
    assert all(c.passed for c in run_criterion(_criterion("curve-orderings")))
    assert len(calls) == 8
    for chain in calls.values():
        guesses, roots = zip(*chain[:21])
        expected = [None, roots[0]] + [b * (b / a) for a, b in zip(roots, roots[1:20])]
        assert list(guesses) == expected


def test_representations_grid_names_the_latency_probe_reads():
    # the benchmark picks verify-full's 160 latency points from these
    # names, so a renamed or regridded check would move its point_p50_us
    names = [c.name for c in run_criterion(_criterion("representations"))
             if c.name.startswith("04.opt-routes.")]
    assert names == [f"04.opt-routes.beta{b:g}.gamma{g:g}"
                     for b in (0.5, 1.0, 2.0, 4.0) for g in (0.1, 1.0, 10.0, 100.0)]


def test_evaluation_budgets_never_bind(monkeypatch):
    # the fixed budgets in numerics are a backstop, not an accuracy knob:
    # the fast suite's largest quadrature and Brent calls stay below 1%
    # of them
    quad_evals, root_evals = [], []
    real_adaptive, real_root = numerics._adaptive, rates.find_root_bracketed

    def counted_adaptive(pieces, tol):
        result = real_adaptive(pieces, tol)
        quad_evals.append(result.evals)
        return result

    def counted_root(g, *args):
        calls = []

        def counted(x):
            calls.append(x)
            return g(x)

        try:
            return real_root(counted, *args)
        finally:
            root_evals.append(len(calls))

    monkeypatch.setattr(numerics, "_adaptive", counted_adaptive)
    monkeypatch.setattr(rates, "find_root_bracketed", counted_root)
    assert verification.run_suite("fast").overall
    assert quad_evals and root_evals
    assert max(quad_evals) < 0.01 * numerics._QUAD_MAX_EVALS
    assert max(root_evals) < 0.01 * numerics._ROOT_MAX_EVALS
