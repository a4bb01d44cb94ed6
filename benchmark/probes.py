"""Span probes at the layer boundaries of noma_limits, and the per-layer
metrics computed from the spans they record.

Each probe replaces a public function under the name it is bound to in
the module that calls it (``rates`` and ``cli`` import the numerics and
the pool helper by name, so those bindings are the ones replaced).  The
program itself is not modified; :func:`installed` restores every
binding when the traced round ends.
"""

from __future__ import annotations

import functools
import importlib
import math
from contextlib import contextmanager

import numpy as np

from grids import ALL_SCHEMES
from tracing import Trace, Tracer

CRITERION_KEYS = (
    "eta-floor", "wideband-slopes", "high-snr-slopes", "representations",
    "derivative-anchors", "moments", "spectral-law", "sumf-monte-carlo",
    "opt-monte-carlo", "ds-logdet", "curve-orderings", "carleman", "hand-anchors",
)
# lab kernels timed as plain spans, by the name verification binds them to
LAB_SPANS = {
    "draw_system": "draw_system",
    "gram_diagonal": "gram_diagonal",
    "empirical_moments": "empirical_moments",
    "empirical_lsd_cdf_distance": "lsd_distance",
    "empirical_opt_se": "empirical_opt_se",
}

# (module, attribute bound there, span name)
_PLAIN = [
    ("cli", "main", "cli.main"),
    ("cli", "gamma_from_eta", "rates.inversion"),
    ("verification", "gamma_from_eta", "rates.inversion"),
    ("rates", "eta_from_gamma", "rates.rate_eval"),
    ("rates", "mmse_efficiency_ds_fading", "rates.fixed_point"),
    ("verification", "mmse_efficiency_ds_fading", "rates.fixed_point"),
    ("rates", "exp_integral_en_scaled", "numerics.en"),
    ("verification", "exact_moments", "combinatorics"),
    ("verification", "moment_coefficients", "combinatorics"),
    ("verification", "carleman_bound_holds", "combinatorics"),
] + [("verification", attr, f"ensemble_lab.{short}") for attr, short in LAB_SPANS.items()]


def _plain(tracer: Tracer, name, fn, tally=None):
    """Span around ``fn``; ``name`` is a string or a function of the
    first argument, and ``tally`` sees the result."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name if isinstance(name, str) else name(args[0])
        handle = tracer.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(label, handle)
        if tally is not None:
            tally(result)
        return result
    return wrapper


def _root(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(g, *args, **kwargs):
        def counted(x):
            tracer.count("root.evals")
            return g(x)

        handle = tracer.open("numerics.root")
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.close("numerics.root", handle)
    return wrapper


def _poisson(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(beta, term, *args, **kwargs):
        values: list[float] = []

        def recorded(k):
            v = term(k)
            values.append(v)
            return v

        handle = tracer.open("numerics.poisson")
        try:
            total = fn(beta, recorded, *args, **kwargs)
        finally:
            tracer.close("numerics.poisson", handle)
            tracer.count("poisson.terms", len(values))
        # a term is negligible when adding its weighted value to the
        # final sum leaves the double unchanged
        log_beta = math.log(beta)
        negligible = 0
        for k, v in enumerate(values, start=1):
            w = math.exp(-beta + k * log_beta - math.lgamma(k + 1.0))
            if total + w * v == total:
                negligible += 1
        tracer.count("poisson.negligible_terms", negligible)
        return total
    return wrapper


def _thread_map(tracer: Tracer, fn, thread_count):
    @functools.wraps(fn)
    def wrapper(task, items):
        items = list(items)
        handle = tracer.open("parallel.map")
        map_span = handle[0]

        def traced_task(x):
            # pool threads start with an empty stack: nest under the map
            with tracer.span("parallel.task", parent=map_span):
                return task(x)

        try:
            return fn(traced_task, items)
        finally:
            dur = tracer.close("parallel.map", handle)
            workers = max(1, min(thread_count(), len(items)))
            tracer.count("parallel.worker_s", dur * workers)
    return wrapper


def _bindings(tracer: Tracer):
    mods = {m: importlib.import_module(f"noma_limits.{m}")
            for m in ("cli", "rates", "verification")}
    parallel = importlib.import_module("noma_limits.parallel")
    table = [(m, attr, _plain(tracer, name, getattr(mods[m], attr)))
             for m, attr, name in _PLAIN]
    for m in ("cli", "rates", "verification"):
        # the span name carries the scheme, so latency splits per scheme
        table.append((m, "spectral_efficiency", _plain(
            tracer, lambda scheme: f"rates.point.{scheme.name}", mods[m].spectral_efficiency)))
    for attr in ("integrate_semi_infinite", "integrate_interval"):
        table.append(("rates", attr, _plain(
            tracer, "numerics.quad", getattr(mods["rates"], attr),
            lambda r: tracer.count("quad.evals", r.evals))))
    for attr, short in (("mc_sumf_rate", "mc_sumf"), ("mc_ds_fading_logdet", "mc_logdet")):
        # McEstimate.n_samples holds the draws (sumf) or the trials (log-det)
        table.append(("verification", attr, _plain(
            tracer, f"ensemble_lab.{short}", getattr(mods["verification"], attr),
            lambda r, key=f"{short}.samples": tracer.count(key, r.n_samples))))
    table.append(("rates", "find_root_bracketed",
                  _root(tracer, mods["rates"].find_root_bracketed)))
    table.append(("rates", "poisson_weighted_sum",
                  _poisson(tracer, mods["rates"].poisson_weighted_sum)))
    table.append(("verification", "run_criterion", _plain(
        tracer, lambda criterion: f"verification.{criterion.key}",
        mods["verification"].run_criterion)))
    table.append(("cli", "thread_map",
                  _thread_map(tracer, mods["cli"].thread_map, parallel.thread_count)))
    return mods, table


@contextmanager
def installed(tracer: Tracer):
    """Bind every probe for the duration of the block."""
    mods, table = _bindings(tracer)
    saved = [(m, attr, getattr(mods[m], attr)) for m, attr, _ in table]
    try:
        for m, attr, probe in table:
            setattr(mods[m], attr, probe)
        yield
    finally:
        for m, attr, original in saved:
            setattr(mods[m], attr, original)


def _sum(values: np.ndarray) -> float:
    return float(values.sum()) if len(values) else 0.0


def layer_metrics(trace: Trace) -> dict[str, float]:
    """Every per-layer metric; a layer the workload does not run reads 0."""
    dur = trace.durations()
    self_t = trace.self_times()

    def named(name):
        return trace.select(lambda n: n == name)

    def prefixed(prefix):
        return trace.select(lambda n: n.startswith(prefix))

    c = trace.counts
    out: dict[str, float] = {}

    out["cli.self_s"] = _sum(self_t[named("cli.main")])

    maps, tasks = named("parallel.map"), named("parallel.task")
    out["parallel.map_s"] = _sum(dur[maps])
    out["parallel.task_s"] = _sum(dur[tasks])
    worker_s = c.get("parallel.worker_s", 0.0)
    out["parallel.efficiency"] = out["parallel.task_s"] / worker_s if worker_s else 0.0

    inv = named("rates.inversion")
    evals = named("rates.rate_eval")
    out["rates.inversion.calls"] = int(inv.sum())
    out["rates.inversion.s"] = _sum(dur[inv])
    out["rates.inversion.rate_evals"] = int(trace.within(evals, inv).sum())
    out["rates.inversion.bracket_evals"] = int(trace.within(evals, inv, direct=True).sum())

    fixed = named("rates.fixed_point")
    en = named("numerics.en")
    out["rates.fixed_point.calls"] = int(fixed.sum())
    out["rates.fixed_point.s"] = _sum(dur[fixed])
    out["rates.fixed_point.en_calls"] = int(trace.within(en, fixed).sum())

    for scheme in ALL_SCHEMES:
        d = dur[named(f"rates.point.{scheme}")]
        out[f"rates.point_p50_us.{scheme}"] = float(np.median(d)) * 1e6 if len(d) else 0.0

    out["numerics.en.calls"] = int(en.sum())
    out["numerics.en.self_s"] = _sum(self_t[en])

    quad = named("numerics.quad")
    outer_quad = quad & ~trace.within(quad, quad)
    out["numerics.quad.calls"] = int(quad.sum())
    out["numerics.quad.evals"] = int(c.get("quad.evals", 0))
    out["numerics.quad.s"] = _sum(dur[outer_quad])

    pois = named("numerics.poisson")
    out["numerics.poisson.calls"] = int(pois.sum())
    out["numerics.poisson.terms"] = int(c.get("poisson.terms", 0))
    out["numerics.poisson.negligible_terms"] = int(c.get("poisson.negligible_terms", 0))
    out["numerics.poisson.s"] = _sum(dur[pois & ~trace.within(pois, pois)])

    root = named("numerics.root")
    out["numerics.root.calls"] = int(root.sum())
    out["numerics.root.evals"] = int(c.get("root.evals", 0))
    out["numerics.root.self_s"] = _sum(self_t[root])

    for short in LAB_SPANS.values():
        out[f"ensemble_lab.{short}.s"] = _sum(dur[named(f"ensemble_lab.{short}")])
    mc_sumf_s = _sum(dur[named("ensemble_lab.mc_sumf")])
    samples = c.get("mc_sumf.samples", 0)
    out["ensemble_lab.mc_sumf.samples_per_s"] = samples / mc_sumf_s if mc_sumf_s else 0.0
    logdet_s = _sum(dur[named("ensemble_lab.mc_logdet")])
    trials = c.get("mc_logdet.samples", 0)
    out["ensemble_lab.mc_logdet.trial_ms"] = 1e3 * logdet_s / trials if trials else 0.0

    for key in CRITERION_KEYS:
        out[f"verification.{key}.s"] = _sum(dur[named(f"verification.{key}")])

    comb = prefixed("combinatorics")
    out["combinatorics.s"] = _sum(dur[comb & ~trace.within(comb, comb)])
    return out
