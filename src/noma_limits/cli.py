"""Command-line surface.

Subcommands:

* ``rate``    one operating point of one scheme
* ``curve``   CSV sweep over load or energy per bit
* ``moments`` exact moment-polynomial rows of a spreading ensemble
* ``mc``      one Monte Carlo estimator run as a JSON record
* ``verify``  the bundled verification suite as a JSON report

Exit codes: 0 success; 1 verification failure; 2 usage or domain error;
3 I/O error.  The commands raise; ``main`` is the one place that turns
any ``NomaLimitsError`` into a single ``<command>: <message>`` line on
stderr, with nothing on stdout, and exit 2.  The ``mc`` kinds are one
lab call each: the estimator checks its sizes, computes its analytic
reference and draws, in that order, and the record prints what it
returns.  All numbers are printed with 9 significant digits; JSON
records use lexicographic key order.  ``curve`` computes each scheme's
rows in grid order, each inversion starting from the previous rows'
roots.  ``NOMA_LIMITS_THREADS`` caps the workers over ``curve``'s
schemes and over the matched-filter Monte Carlo blocks of ``mc sumf``
and ``verify`` (0 = auto); ``mc`` and ``verify`` read it before any
work, so a malformed value exits 2.  numpy, the Monte Carlo lab and
the verification suite are imported only by ``mc`` and ``verify``.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from .combinatorics import EnsembleKind, exact_moments, moment_coefficients
from .errors import DomainError, NomaLimitsError, NoSolutionError
from .parallel import thread_count, thread_map
from .rates import ChannelPoint, SchemeSpec, gamma_from_eta, spectral_efficiency

__all__ = ["main", "entry", "SweepSpec", "fmt9"]

_CSV_HEADER = "x,scheme,beta,gamma,eta_db,rate_bits_per_dim"
_MAX_POINTS = 10_000  # grid points per sweep


def fmt9(v: float) -> str:
    """9 significant digits; integer-valued floats carry an explicit
    nine-zero fraction so exact values like a vanishing rate or the
    1-bit anchor read as floats."""
    v = float(v)
    if v == 0.0:
        return "0.000000000"
    if not math.isfinite(v):
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    s = format(v, ".9g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".000000000"
    return s


@dataclass(frozen=True)
class SweepSpec:
    """A curve request: which axis, its grid, the held-constant value,
    and the schemes to trace."""

    x_axis: str          # "load" or "ebn0-db"
    x_min: float
    x_max: float
    n_points: int
    spacing: str         # "linear" or "log"
    fixed_value: float   # eta in dB for load sweeps, beta for eta sweeps
    schemes: tuple[SchemeSpec, ...]

    def __post_init__(self) -> None:
        if self.x_axis not in ("load", "ebn0-db"):
            raise DomainError(f"x_axis must be 'load' or 'ebn0-db', got {self.x_axis!r}")
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if not (math.isfinite(self.x_max - self.x_min) and self.x_min < self.x_max):
            raise DomainError(f"need x_min < x_max, got {self.x_min!r}, {self.x_max!r}")
        if self.spacing == "log" and self.x_min <= 0.0:
            raise DomainError("log spacing requires x_min > 0")
        if self.spacing == "log" and not math.isfinite(self.x_max / self.x_min):
            raise DomainError(f"x_max / x_min overflows, got {self.x_min!r}, {self.x_max!r}")
        if not 2 <= self.n_points <= _MAX_POINTS:
            raise DomainError(f"n_points must be between 2 and {_MAX_POINTS}, got {self.n_points}")
        if not self.schemes:
            raise DomainError("at least one scheme is required")
        if not math.isfinite(self.fixed_value):
            raise DomainError(f"the fixed value must be finite, got {self.fixed_value!r}")
        if self.x_axis == "ebn0-db" and self.fixed_value <= 0.0:
            raise DomainError(f"the fixed load must be positive, got {self.fixed_value!r}")

    def grid(self) -> list[float]:
        n = self.n_points
        if self.spacing == "linear":
            step = (self.x_max - self.x_min) / (n - 1)
            return [self.x_min + step * i for i in range(n)]
        ratio = self.x_max / self.x_min
        return [self.x_min * ratio ** (i / (n - 1)) for i in range(n)]


def _eta_db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise DomainError(f"energy per bit of {fmt9(db)} dB is out of range") from None


def _eta_linear_to_db(eta: float) -> float:
    return 10.0 * math.log10(eta)


# ----------------------------------------------------------------------
# rate
# ----------------------------------------------------------------------

def _cmd_rate(args: argparse.Namespace) -> int:
    _require((args.gamma is None) != (args.eta_db is None),
             "exactly one of --gamma / --eta-db is required")
    scheme = SchemeSpec.parse(args.scheme)
    if args.gamma is not None:
        gamma = args.gamma
        rate = spectral_efficiency(scheme, ChannelPoint(args.beta, gamma)).bits_per_dim
        eta_db = _eta_linear_to_db(args.beta * gamma / rate) if rate > 0.0 else float("nan")
    else:
        eta_db = args.eta_db
        gamma = gamma_from_eta(scheme, args.beta, _eta_db_to_linear(eta_db))
        rate = spectral_efficiency(scheme, ChannelPoint(args.beta, gamma)).bits_per_dim
    print(f"scheme {scheme.name} beta {fmt9(args.beta)} gamma {fmt9(gamma)} "
          f"eta_db {fmt9(eta_db)} rate {fmt9(rate)}")
    return 0


# ----------------------------------------------------------------------
# curve
# ----------------------------------------------------------------------

def _curve_row(spec: SweepSpec, x: float, scheme: SchemeSpec,
               guess: float | None) -> tuple[str, str | None, float | None]:
    """One CSV row, a warning when the point has no value (the rate and
    gamma cells are then left empty), and the SNR found, if any."""
    if spec.x_axis == "load":
        beta, eta_db = x, spec.fixed_value
    else:
        beta, eta_db = spec.fixed_value, x
    try:
        gamma = gamma_from_eta(scheme, beta, _eta_db_to_linear(eta_db), guess=guess)
        rate = spectral_efficiency(scheme, ChannelPoint(beta, gamma)).bits_per_dim
    except NomaLimitsError as exc:
        row = f"{fmt9(x)},{scheme.name},{fmt9(beta)},,{fmt9(eta_db)},"
        return row, f"curve: {scheme.name} at x={fmt9(x)}: {exc}", None
    row = (f"{fmt9(x)},{scheme.name},{fmt9(beta)},{fmt9(gamma)},"
           f"{fmt9(eta_db)},{fmt9(rate)}")
    return row, None, gamma


def _curve_chain(spec: SweepSpec, scheme: SchemeSpec) -> list[tuple[str, str | None]]:
    """The rows of one scheme in grid order.  Each inversion starts from
    the previous root, extrapolated in log gamma once there are two: on a
    smooth curve the next root is then within a few steps of 0.01."""
    rows = []
    prev = last = None
    for x in spec.grid():
        if last is None:
            guess = None
        elif prev is None:
            guess = last
        else:
            guess = last * (last / prev)
            if not 0.0 < guess < math.inf:
                guess = last
        row, warning, gamma = _curve_row(spec, x, scheme, guess)
        rows.append((row, warning))
        # a point without a value restarts the chain cold
        prev, last = (last, gamma) if gamma is not None else (None, None)
    return rows


def _cmd_curve(args: argparse.Namespace) -> int:
    _require((args.beta is None) != (args.eta_db is None),
             "exactly one of --beta (energy-per-bit sweep) / --eta-db (load sweep) is required")
    schemes = tuple(SchemeSpec.parse(p) for chunk in args.scheme for p in chunk.split(",") if p)
    load_sweep = args.eta_db is not None
    spec = SweepSpec(x_axis="load" if load_sweep else "ebn0-db",
                     x_min=args.range[0], x_max=args.range[1],
                     n_points=args.points, spacing=args.spacing,
                     fixed_value=args.eta_db if load_sweep else args.beta, schemes=schemes)
    chains = thread_map(lambda scheme: _curve_chain(spec, scheme), spec.schemes)
    # deterministic output order regardless of how the work was scheduled
    names = [scheme.name for scheme in spec.schemes]
    order = sorted(range(len(names)), key=names.__getitem__)
    lines = [_CSV_HEADER]
    for i in range(spec.n_points):
        for c in order:
            row, warning = chains[c][i]
            if warning is not None:
                print(warning, file=sys.stderr)
            lines.append(row)
    payload = "\n".join(lines) + "\n"
    return _write_text(args.out, payload)


# ----------------------------------------------------------------------
# moments
# ----------------------------------------------------------------------

_ENSEMBLES = {
    "lds-fading": EnsembleKind.LDS_FADING,
    "lds-nofading": EnsembleKind.LDS_NO_FADING,
    "ds-nofading": EnsembleKind.DS_NO_FADING,
}


def _cmd_moments(args: argparse.Namespace) -> int:
    kind = _ENSEMBLES.get(args.ensemble)
    _require(kind is not None, f"unknown ensemble {args.ensemble!r}; "
                               f"choose from {', '.join(sorted(_ENSEMBLES))}")
    vector = exact_moments(kind, args.lmax, args.beta)
    rows = [moment_coefficients(kind, order) for order in vector.orders]
    print(f"ensemble {args.ensemble} beta {fmt9(args.beta)}")
    for order, coeffs, value in zip(vector.orders, rows, vector.values):
        coeff_text = " ".join(str(c) for c in coeffs)
        print(f"L {order} coefficients {coeff_text} moment {fmt9(value)}")
    return 0


# ----------------------------------------------------------------------
# mc
# ----------------------------------------------------------------------

# the flags each kind needs beyond --n and --beta
_MC_FLAGS = {
    "sumf": ("gamma", "samples"),
    "copt": ("gamma",),
    "esd": (),
    "ds-logdet": ("gamma", "trials"),
    "independence": ("samples",),
}


def _mc_record(args: argparse.Namespace) -> dict:
    from . import ensemble_lab as lab

    for flag in _MC_FLAGS[args.kind]:
        _require(getattr(args, flag) is not None, f"--{flag} is required for {args.kind}")
    n, beta, gamma, seed = args.n, args.beta, args.gamma, args.seed
    if args.kind == "sumf":
        est = lab.mc_sumf_rate(n, beta, gamma, args.samples, seed)
    elif args.kind == "copt":
        est = lab.mc_opt_se(n, beta, gamma, seed)
    elif args.kind == "esd":
        est = lab.mc_lsd_distance(n, beta, seed)
    elif args.kind == "ds-logdet":
        est = lab.mc_ds_fading_logdet(n, beta, gamma, args.trials, seed)
    else:
        est = lab.independence_diagnostic(n, beta, args.samples, seed)
    return _record(est)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise NomaLimitsError(message)


def _record(est) -> dict:
    """The JSON record of an ensemble_lab.McEstimate."""
    se = est.std_error
    z = (est.mean - est.reference) / se if se > 0.0 else 0.0
    return {"analytic_reference": est.reference, "estimate": est.mean, "n": est.n_samples,
            "seed": est.seed, "std_error": se, "z_score": z}


def _cmd_mc(args: argparse.Namespace) -> int:
    import json

    thread_count()  # a malformed NOMA_LIMITS_THREADS fails before any draw
    return _write_text(args.out, json.dumps(_mc_record(args), sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    from .verification import DEFAULT_SEED, run_suite

    thread_count()  # criterion 8 runs on the pool: check the cap first
    report = run_suite(args.suite, DEFAULT_SEED if args.seed is None else args.seed)
    status = _write_text(args.out, report.to_json())
    if status != 0:
        return status
    return 0 if report.overall else 1


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------

def _write_text(out_path: str | None, payload: str) -> int:
    if out_path is None:
        sys.stdout.write(payload)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"cannot write {out_path!r}: {exc}", file=sys.stderr)
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-limits",
        description="Spectral-efficiency limits of dense and one-sparse "
                    "random spreading, with a Monte Carlo laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    rate_p = sub.add_parser("rate", help="one operating point of one scheme")
    rate_p.add_argument("--scheme", required=True,
                        help="spreading-detector[-fading], e.g. lds-sumf-fading")
    rate_p.add_argument("--beta", type=float, required=True, help="load (users per dimension)")
    rate_p.add_argument("--gamma", type=float, help="per-symbol SNR (linear)")
    rate_p.add_argument("--eta-db", dest="eta_db", type=float,
                        help="energy per bit over noise level, in dB")
    rate_p.set_defaults(fn=_cmd_rate)

    curve_p = sub.add_parser("curve", help="CSV sweep over load or energy per bit")
    curve_p.add_argument("--scheme", action="append", required=True,
                         help="repeatable; comma lists are accepted")
    curve_p.add_argument("--range", nargs=2, type=float, required=True,
                         metavar=("MIN", "MAX"))
    curve_p.add_argument("--points", type=int, required=True)
    curve_p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    curve_p.add_argument("--beta", type=float,
                         help="fixed load: sweep energy per bit (dB) on the x axis")
    curve_p.add_argument("--eta-db", dest="eta_db", type=float,
                         help="fixed energy per bit (dB): sweep load on the x axis")
    curve_p.add_argument("--out", help="output CSV path (default: stdout)")
    curve_p.set_defaults(fn=_cmd_curve)

    moments_p = sub.add_parser("moments", help="moment-polynomial rows of an ensemble")
    moments_p.add_argument("ensemble", help=", ".join(sorted(_ENSEMBLES)))
    moments_p.add_argument("--beta", type=float, required=True)
    moments_p.add_argument("--lmax", "--n", dest="lmax", type=int, default=4)
    moments_p.set_defaults(fn=_cmd_moments)

    mc_p = sub.add_parser("mc", help="one Monte Carlo estimator run")
    mc_p.add_argument("kind", choices=("esd", "copt", "sumf", "ds-logdet", "independence"))
    mc_p.add_argument("--n", type=int, required=True,
                      help="system dimensions (matrix size for ds-logdet)")
    mc_p.add_argument("--beta", type=float, required=True)
    mc_p.add_argument("--gamma", type=float)
    mc_p.add_argument("--trials", type=int)
    mc_p.add_argument("--samples", type=int)
    mc_p.add_argument("--seed", type=int, default=0)
    mc_p.add_argument("--out", help="output JSON path (default: stdout)")
    mc_p.set_defaults(fn=_cmd_mc)

    verify_p = sub.add_parser("verify", help="run the verification suite")
    verify_p.add_argument("--suite", choices=("fast", "full"), default="fast")
    verify_p.add_argument("--seed", type=int,
                          help="default: the suite's own seed, verification.DEFAULT_SEED")
    verify_p.add_argument("--out", help="output JSON path (default: stdout)")
    verify_p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  The only error boundary: a ``NomaLimitsError``
    from any command becomes one stderr line and exit 2."""
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NoSolutionError as exc:
        message = f"below minimum energy per bit: {exc}"
    except NomaLimitsError as exc:
        message = str(exc)
    print(f"{args.command}: {message}", file=sys.stderr)
    return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
