"""The three workloads: inputs made from the seed, one round of work
through the program's public entry points, and the checks on its output.

Checks compare against :mod:`oracle`, which shares no code with the
program, or against properties the method must have; none compares with
a stored copy of the program's output.  The oracle is imported only when
checking, after the timed rounds.
"""

from __future__ import annotations

import io
import math
import os
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import grids

# the program's default Tolerance: rel 1e-10, abs 1e-12
POINT_REL, POINT_ABS = 1e-10, 1e-12
# a CSV cell holds 9 significant digits, so each printed number carries
# a relative rounding error up to 5e-9; a row check combines three such
# numbers plus the inversion's own root tolerance
PRINTED_REL = 3e-8


def agrees(value: float, reference: float, rel: float = POINT_REL,
           abs_: float = POINT_ABS) -> bool:
    return abs(value - reference) <= max(abs_, rel * abs(reference))


@dataclass
class Verdict:
    """Ops attempted and failed over all rounds, failures attributed to a
    named fault, and problems that make the run incorrect."""

    attempted: int = 0
    failed: int = 0
    faults: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def fail(self, fault: str | None, what: str) -> None:
        self.failed += 1
        if fault is None:
            self.problems.append(what)
        else:
            self.faults[fault] = self.faults.get(fault, 0) + 1


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

class Sweep:
    """``noma-limits curve`` in-process: 48 loads x 8 schemes at 10 dB."""

    name = "sweep"
    rows = grids.SWEEP_POINTS * len(grids.SWEEP_SCHEMES)

    def prepare(self, seed: int) -> None:
        # run as a user runs it: the pool sizes itself from the CPU count
        os.environ.pop("NOMA_LIMITS_THREADS", None)
        from noma_limits import cli

        self._cli = cli
        self._rng = random.Random(seed)

    def _argv(self) -> list[str]:
        schemes = list(grids.SWEEP_SCHEMES)
        self._rng.shuffle(schemes)
        lo, hi = grids.SWEEP_LOADS
        return ["curve", "--scheme", ",".join(schemes), "--eta-db", f"{grids.SWEEP_ETA_DB:g}",
                "--range", f"{lo:g}", f"{hi:g}", "--points", str(grids.SWEEP_POINTS),
                "--spacing", "log"]

    def run_round(self):
        argv = self._argv()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self._cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def parse(text: str) -> list[list[str]]:
        lines = text.splitlines()
        if not lines or lines[0] != "x,scheme,beta,gamma,eta_db,rate_bits_per_dim":
            return []
        return [line.split(",") for line in lines[1:]]

    def probe_points(self, rounds) -> list[tuple[str, float, float]]:
        """The printed operating points, for the point-latency probe."""
        return [(r[1], float(r[2]), float(r[3])) for r in self.parse(rounds[0][1])
                if len(r) == 6 and r[3] and r[5]]

    def check(self, rounds) -> Verdict:
        import oracle

        v = Verdict(attempted=self.rows * len(rounds))
        text = rounds[0][1]
        for i, (c, t, e) in enumerate(rounds):
            if c != 0 or e:
                v.problems.append(f"round {i}: exit {c}, stderr {e[:200]!r}")
            if t != text:
                # the scheme order differs between rounds; the bytes may not
                v.problems.append(f"round {i}: CSV differs from round 0")
                v.failed += self.rows
        rows = self.parse(text)
        if len(rows) != self.rows:
            v.problems.append(f"{len(rows)} CSV rows, expected {self.rows}")
            v.failed += self.rows * len(rounds)
            return v
        keys = [(float(r[0]), r[1]) for r in rows]
        if keys != sorted(keys):
            v.problems.append("rows are not in (x, scheme) order")
        bad: dict[int, str] = {}
        by_load: dict[float, dict[str, tuple[float, int]]] = {}
        eta_target = 10.0 ** (grids.SWEEP_ETA_DB / 10.0)
        for i, r in enumerate(rows):
            if len(r) != 6 or not all(r):
                bad[i] = f"row {i} has empty cells: {','.join(r)}"
                continue
            beta, gamma, eta_db, rate = float(r[2]), float(r[3]), float(r[4]), float(r[5])
            if eta_db != grids.SWEEP_ETA_DB:
                bad[i] = f"row {i} prints eta_db {r[4]}"
            elif not agrees(beta * gamma / rate, eta_target, PRINTED_REL, 0.0):
                bad[i] = f"row {i}: beta*gamma/rate = {beta * gamma / rate!r}, not 10 dB"
            else:
                ref = oracle.rate(r[1], beta, gamma, digits=20)
                if not agrees(rate, ref, PRINTED_REL, POINT_ABS):
                    bad[i] = f"row {i} ({r[1]}, {r[2]}, {r[3]}): rate {r[5]}, oracle {ref!r}"
            by_load.setdefault(beta, {})[r[1]] = (rate, i)
        for beta, at in by_load.items():
            for message, rows_hit in _ordering_violations(beta, at):
                for i in rows_hit:
                    bad.setdefault(i, message)
        for i, message in sorted(bad.items()):
            for _ in rounds:
                v.fail(None, message)
        return v


def _ordering_violations(beta: float, at: dict[str, tuple[float, int]]):
    """The paper's orderings at one load; yields (message, rows)."""
    def cmp(hi: str, lo: str, strict: bool):
        if hi in at and lo in at:
            (a, i), (b, j) = at[hi], at[lo]
            if a < b or (strict and a == b):
                yield f"beta {beta:g}: {hi} {a!r} {'<=' if strict else '<'} {lo} {b!r}", (i, j)

    for fading in ("fading", "nofading"):
        yield from cmp(f"ds-opt-{fading}", f"lds-opt-{fading}", strict=False)
        if beta >= (2.0 if fading == "fading" else 1.5):
            yield from cmp(f"lds-sumf-{fading}", f"ds-mmse-{fading}", strict=True)
        if beta <= 0.5:
            yield from cmp(f"ds-mmse-{fading}", f"lds-sumf-{fading}", strict=True)


# ----------------------------------------------------------------------
# points
# ----------------------------------------------------------------------

def attribute(scheme: str, beta: float, gamma: float, error: str | None) -> str | None:
    """Name the known fault a failed points call belongs to, or None.

    ``error`` is the exception class name, or None when the call
    returned a value that disagrees with the oracle.
    """
    if scheme == "lds-sumf-fading" and error is None and beta >= 30:
        return "F1"  # the half-line quadrature misses the integrand
    if scheme in ("ds-mmse-nofading", "ds-opt-nofading") and (
            (error is None and gamma >= 100) or (error == "ValueError" and gamma >= 1e100)):
        return "F2"  # gamma - F/4 (and beta gamma - F/4) cancel at high SNR
    if scheme in ("ds-mmse-fading", "ds-opt-fading") and error == "FixedPointError" \
            and gamma >= 1e100:
        return "F3"  # the residual rounds positive at the left end
    if scheme.startswith("lds-") and scheme.endswith("-nofading") \
            and error == "NonConvergenceError" and beta >= 1e4:
        return "F4"  # poisson_weighted_sum's hard_cap of 10000 terms
    if scheme == "ds-mmse-fading" and error is None and beta == 1.0 and gamma >= 1e100:
        return "F5"  # fixed point accepted at |residual| <= 1e-12 while x ~ 1e-49
    return None


class Points:
    """Forward ``spectral_efficiency`` calls on the fixed grid."""

    name = "points"

    def prepare(self, seed: int) -> None:
        from noma_limits import rates

        self._rates = rates
        self.calls = grids.point_calls()
        random.Random(seed).shuffle(self.calls)
        specs = {s: rates.SchemeSpec.parse(s) for s in grids.ALL_SCHEMES}
        self._args = [(specs[s], rates.ChannelPoint(b, g)) for s, b, g in self.calls]

    def run_round(self):
        rates = self._rates
        clock = time.perf_counter
        values, errors, latency = [], [], []
        for scheme, point in self._args:
            t0 = clock()
            try:
                value, error = rates.spectral_efficiency(scheme, point).bits_per_dim, None
            except Exception as exc:  # every escape is an outcome to record
                value, error = None, type(exc).__name__
            latency.append(clock() - t0)
            values.append(value)
            errors.append(error)
        return values, errors, latency

    def latencies(self, rounds) -> list[float]:
        return [t for _, _, lat in rounds for t in lat]

    def check(self, rounds) -> Verdict:
        import oracle

        reference = oracle.load_points_reference()
        v = Verdict(attempted=len(self.calls) * len(rounds))
        for values, errors, _ in rounds:
            for (scheme, beta, gamma), value, error in zip(self.calls, values, errors):
                ref = reference.get((scheme, beta, gamma))
                if ref is None:
                    v.fail(None, f"no reference for {scheme} {beta!r} {gamma!r}")
                elif error is not None or not agrees(value, ref):
                    v.fail(attribute(scheme, beta, gamma, error),
                           f"{scheme} beta={beta!r} gamma={gamma!r}: "
                           f"{error or repr(value)}, oracle {ref!r}")
        return v


# ----------------------------------------------------------------------
# verify-full
# ----------------------------------------------------------------------

_NUM = r"(\d+(?:\.\d+)?)"
_MC_RATE = re.compile(rf"^\d\d\.(sumf-mc|opt-mc|ds-logdet)\.beta{_NUM}\.gamma{_NUM}(?:\.3se|\.rel)?$")
_MC_SCHEME = {"sumf-mc": "lds-sumf-fading", "opt-mc": "lds-opt-fading",
              "ds-logdet": "ds-opt-fading"}
_GRID = re.compile(rf"^04\.opt-routes\.beta{_NUM}\.gamma{_NUM}$")
_MOMENT = re.compile(rf"^06\.moments\.beta{_NUM}\.order(\d+)$")
_ANCHOR = {"13.anchor.ds-mmse": "ds-mmse-nofading", "13.anchor.ds-opt": "ds-opt-nofading"}
_CRITERIA = {f"{i:02d}" for i in range(1, 14)}
_ORACLE_CRITERIA = {"06", "08", "09", "10", "13"}


class VerifyFull:
    """``verify --suite full`` in-process at the suite's default seed."""

    name = "verify-full"

    def prepare(self, seed: int) -> None:
        del seed  # the statistical checks are fixed at the suite's seed
        from noma_limits import verification

        self._verification = verification

    def run_round(self):
        return self._verification.run_suite("full", grids.VERIFY_SEED)

    def probe_points(self, rounds) -> list[tuple[str, float, float]]:
        """All ten schemes on the suite's 16-point representation grid,
        read from the names of criterion 4's checks."""
        grid = []
        for c in rounds[0].checks:
            m = _GRID.match(c.name)
            if m and (float(m.group(1)), float(m.group(2))) not in grid:
                grid.append((float(m.group(1)), float(m.group(2))))
        return [(s, b, g) for s in grids.ALL_SCHEMES for b, g in grid]

    def check(self, rounds) -> Verdict:
        import oracle

        v = Verdict()
        cache: dict[tuple, float] = {}

        def ref(key, fn, *args):
            if key not in cache:
                cache[key] = fn(*args)
            return cache[key]

        for report in rounds:
            present = {c.name[:2] for c in report.checks}
            if present != _CRITERIA:
                v.problems.append(f"criteria present: {sorted(present)}")
            if report.overall != all(c.passed for c in report.checks):
                v.problems.append("overall disagrees with the checks")
            compared = set()
            for c in report.checks:
                v.attempted += 1
                if not c.passed:
                    v.fail(None, f"{c.name} failed: observed {c.observed!r}, "
                                 f"expected {c.expected!r} +- {c.tolerance!r}")
                    continue
                if m := _MC_RATE.match(c.name):
                    scheme, beta, gamma = _MC_SCHEME[m.group(1)], float(m.group(2)), float(m.group(3))
                    target = ref((scheme, beta, gamma), oracle.rate, scheme, beta, gamma)
                elif m := _MOMENT.match(c.name):
                    beta, order = float(m.group(1)), int(m.group(2))
                    target = ref(("moment", beta, order), oracle.lds_fading_moment, beta, order)
                elif c.name in _ANCHOR:
                    target = ref(c.name, oracle.rate, _ANCHOR[c.name], 1.0, 2.0)
                else:
                    continue
                compared.add(c.name[:2])
                if c.name not in _ANCHOR and not agrees(c.expected, target):
                    v.fail(None, f"{c.name}: analytic value {c.expected!r}, oracle {target!r}")
                elif abs(c.observed - target) > c.tolerance:
                    v.fail(None, f"{c.name}: observed {c.observed!r} is more than "
                                 f"{c.tolerance!r} from the oracle's {target!r}")
            # a renamed check would otherwise escape the oracle unnoticed
            if compared != _ORACLE_CRITERIA:
                v.problems.append(f"oracle compared criteria {sorted(compared)}, "
                                  f"expected {sorted(_ORACLE_CRITERIA)}")
        return v


WORKLOADS = {w.name: w for w in (Sweep, Points, VerifyFull)}


def probe_latency(calls, passes: int) -> list[float]:
    """Time forward calls at the given points, ``passes`` times over."""
    from noma_limits import rates

    args = [(rates.SchemeSpec.parse(s), rates.ChannelPoint(b, g)) for s, b, g in calls]
    clock = time.perf_counter
    out = []
    for _ in range(passes):
        for scheme, point in args:
            t0 = clock()
            rates.spectral_efficiency(scheme, point)
            out.append(clock() - t0)
    return out


def passes_for(n_points: int, samples: int = 1000) -> int:
    """Passes over n points that give a p99 with ten samples beyond it."""
    return max(1, math.ceil(samples / n_points))
