"""Every failed call of the points workload belongs to a named fault."""

import pytest

import workloads


@pytest.mark.parametrize("scheme, beta, gamma, error, fault", [
    ("lds-sumf-fading", 100.0, 1e3, None, "F1"),
    ("lds-sumf-fading", 1e4, 10.0, None, "F1"),
    ("ds-mmse-nofading", 100.0, 1e6, None, "F2"),
    ("ds-mmse-nofading", 100.0, 1e300, None, "F2"),
    ("ds-opt-nofading", 100.0, 1e100, "ValueError", "F2"),
    ("ds-mmse-fading", 0.1, 1e100, "FixedPointError", "F3"),
    ("ds-opt-fading", 0.1, 1e100, "FixedPointError", "F3"),
    ("lds-zf-nofading", 1e4, 1.0, "NonConvergenceError", "F4"),
    ("lds-opt-nofading", 1e4, 1e300, "NonConvergenceError", "F4"),
    ("ds-mmse-fading", 1.0, 1e100, None, "F5"),
])
def test_named_fault_points(scheme, beta, gamma, error, fault):
    assert workloads.attribute(scheme, beta, gamma, error) == fault


@pytest.mark.parametrize("scheme, beta, gamma, error", [
    ("lds-sumf-fading", 10.0, 1e3, None),          # F1 starts above beta 30
    ("lds-opt-fading", 1.0, 10.0, None),
    ("ds-mmse-nofading", 100.0, 10.0, None),        # cancellation needs high SNR
    ("ds-mmse-nofading", 100.0, 1e6, "ZeroDivisionError"),
    ("ds-mmse-fading", 2.0, 10.0, "FixedPointError"),
    ("lds-opt-nofading", 100.0, 1.0, "NonConvergenceError"),
])
def test_other_failures_are_not_attributed(scheme, beta, gamma, error):
    assert workloads.attribute(scheme, beta, gamma, error) is None


def test_one_round_fails_only_on_named_faults():
    work = workloads.Points()
    work.prepare(seed=5)
    verdict = work.check([work.run_round()])
    assert verdict.attempted == len(work.calls) > 1000
    assert verdict.problems == []
    assert verdict.failed == sum(verdict.faults.values())
    assert set(verdict.faults) <= {"F1", "F2", "F3", "F4", "F5"}
