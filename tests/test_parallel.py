"""The worker count of the thread pool and its order-preserving map."""

import os

import pytest

from noma_limits import parallel
from noma_limits.errors import DomainError


@pytest.fixture
def pinned_to_three_cpus(monkeypatch):
    # a process pinned to three CPUs of a 64-CPU machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)


@pytest.mark.parametrize("raw", [None, "", "0", " 0 "])
def test_auto_counts_only_the_cpus_the_process_may_run_on(monkeypatch, pinned_to_three_cpus,
                                                          raw):
    if raw is None:
        monkeypatch.delenv(parallel.ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(parallel.ENV_VAR, raw)
    assert parallel.thread_count() == 3


def test_explicit_cap_is_kept(monkeypatch, pinned_to_three_cpus):
    monkeypatch.setenv(parallel.ENV_VAR, "5")
    assert parallel.thread_count() == 5


def test_without_an_affinity_set_the_machine_count_is_used(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    monkeypatch.delenv(parallel.ENV_VAR, raising=False)
    assert parallel.thread_count() == 6


@pytest.mark.parametrize("raw", ["abc", "-1", "1.5"])
def test_malformed_cap_is_a_domain_error(monkeypatch, raw):
    monkeypatch.setenv(parallel.ENV_VAR, raw)
    with pytest.raises(DomainError, match=parallel.ENV_VAR):
        parallel.thread_count()


@pytest.mark.parametrize("raw", ["1", "3"])
def test_map_keeps_input_order(monkeypatch, raw):
    monkeypatch.setenv(parallel.ENV_VAR, raw)
    assert parallel.thread_map(lambda x: x * x, range(7)) == [x * x for x in range(7)]
