"""Command-line surface: formats, exit codes, ordering, determinism."""

import contextlib
import io
import json
import math
import tracemalloc

import pytest

from noma_limits import cli, ensemble_lab, verification
from noma_limits.cli import SweepSpec, fmt9, main
from noma_limits.errors import NomaLimitsError, NoSolutionError
from noma_limits.rates import SchemeSpec
from noma_limits.verification import CRITERIA

CSV_HEADER = "x,scheme,beta,gamma,eta_db,rate_bits_per_dim"
# the paper's figure: rate against load at 10 dB for the eight curves
PAPER_SWEEP = ("curve", "--scheme",
               "lds-sumf-fading,lds-sumf-nofading,lds-opt-fading,lds-opt-nofading,"
               "ds-mmse-fading,ds-mmse-nofading,ds-opt-fading,ds-opt-nofading",
               "--eta-db", "10", "--range", "0.1", "10", "--points", "48",
               "--spacing", "log")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# The error boundary in main
# ----------------------------------------------------------------------

class TestErrorBoundary:
    """Any NomaLimitsError a command raises becomes one stderr line, with
    nothing on stdout, and exit 2."""

    @pytest.mark.parametrize("module, name, argv", [
        (cli, "spectral_efficiency",
         ("rate", "--scheme", "lds-opt-fading", "--beta", "1", "--gamma", "1")),
        (cli, "thread_map",
         ("curve", "--scheme", "ds-mmse", "--beta", "1", "--range", "0", "1", "--points", "2")),
        (cli, "exact_moments", ("moments", "lds-fading", "--beta", "1")),
        (ensemble_lab, "mc_lsd_distance", ("mc", "esd", "--n", "10", "--beta", "1")),
        (verification, "run_suite", ("verify", "--suite", "fast")),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_a_library_error_is_one_line_and_exit_2(self, capsys, monkeypatch,
                                                    module, name, argv):
        def broken(*_args, **_kwargs):
            raise NomaLimitsError("injected")

        monkeypatch.setattr(module, name, broken)
        assert run_cli(capsys, *argv) == (2, "", f"{argv[0]}: injected\n")

    def test_no_solution_keeps_its_prefix(self, capsys, monkeypatch):
        def no_root(*_args, **_kwargs):
            raise NoSolutionError("injected")

        monkeypatch.setattr(cli, "gamma_from_eta", no_root)
        code, out, err = run_cli(capsys, "rate", "--scheme", "lds-opt-fading",
                                 "--beta", "1", "--eta-db", "10")
        assert (code, out, err) == (2, "", "rate: below minimum energy per bit: injected\n")

    def test_a_bug_is_not_hidden_as_a_usage_error(self, monkeypatch):
        # only the package's own errors are mapped; anything else is a
        # fault in the program and keeps its traceback
        def broken(*_args, **_kwargs):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(cli, "exact_moments", broken)
        with pytest.raises(ZeroDivisionError):
            main(["moments", "lds-fading", "--beta", "1"])


# ----------------------------------------------------------------------
# Number formatting
# ----------------------------------------------------------------------

class TestFmt9:
    @pytest.mark.parametrize("value, text", [
        (0.0, "0.000000000"),
        (-0.0, "0.000000000"),
        (1.0, "1.000000000"),
        (10.0, "10.000000000"),
        (2.0, "2.000000000"),
        (-2.5, "-2.5"),
        (1e-07, "1e-07"),
        (3.0102999566398116, "3.01029996"),
        (20.013372691942784, "20.0133727"),
        (1.23456789e+300, "1.23456789e+300"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
    ])
    def test_examples(self, value, text):
        assert fmt9(value) == text


# ----------------------------------------------------------------------
# Sweep requests
# ----------------------------------------------------------------------

def _schemes(*names):
    return tuple(SchemeSpec.parse(n) for n in names)


class TestSweepSpec:
    def test_linear_grid_hits_both_endpoints(self):
        spec = SweepSpec(x_axis="load", x_min=0.5, x_max=4.5, n_points=5,
                         spacing="linear", fixed_value=10.0,
                         schemes=_schemes("lds-opt-fading"))
        grid = spec.grid()
        assert grid == [0.5, 1.5, 2.5, 3.5, 4.5]

    def test_log_grid_has_constant_ratio(self):
        spec = SweepSpec(x_axis="ebn0-db", x_min=0.1, x_max=10.0, n_points=21,
                         spacing="log", fixed_value=1.0,
                         schemes=_schemes("ds-opt-fading"))
        grid = spec.grid()
        assert len(grid) == 21
        assert grid[0] == pytest.approx(0.1, rel=1e-12)
        assert grid[-1] == pytest.approx(10.0, rel=1e-12)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-10) for r in ratios)

    @pytest.mark.parametrize("kwargs", [
        dict(x_axis="frequency"),
        dict(spacing="cubic"),
        dict(x_min=2.0, x_max=1.0),
        dict(x_min=1.0, x_max=1.0),
        dict(x_min=0.0, spacing="log"),
        dict(n_points=1),
        dict(schemes=()),
        dict(x_min=1e-300, x_max=1e300, spacing="log"),
        dict(x_min=-1e308, x_max=1e308),
        dict(n_points=10_001),
        dict(fixed_value=float("nan")),
        dict(fixed_value=float("inf")),
        dict(fixed_value=-float("inf")),
        dict(x_axis="ebn0-db", fixed_value=0.0),
        dict(x_axis="ebn0-db", fixed_value=-1.0),
    ])
    def test_rejections(self, kwargs):
        base = dict(x_axis="load", x_min=0.5, x_max=4.0, n_points=5,
                    spacing="linear", fixed_value=10.0,
                    schemes=_schemes("lds-opt-fading"))
        base.update(kwargs)
        with pytest.raises(ValueError):
            SweepSpec(**base)


# ----------------------------------------------------------------------
# rate
# ----------------------------------------------------------------------

class TestRateCommand:
    def test_zero_snr_point(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--scheme", "lds-sumf-fading",
                               "--beta", "1", "--gamma", "0")
        assert code == 0
        assert out == ("scheme lds-sumf-fading beta 1.000000000 gamma 0.000000000 "
                       "eta_db nan rate 0.000000000\n")

    def test_one_bit_anchor(self, capsys):
        # load one, snr two: the linear-detection dense limit is exactly
        # one bit per dimension at 3.01 dB of energy per bit
        code, out, _ = run_cli(capsys, "rate", "--scheme", "ds-mmse",
                               "--beta", "1", "--gamma", "2")
        assert code == 0
        assert out == ("scheme ds-mmse-nofading beta 1.000000000 gamma 2.000000000 "
                       "eta_db 3.01029996 rate 1.000000000\n")

    def test_energy_per_bit_inversion(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--scheme", "lds-sumf-fading",
                               "--beta", "1", "--eta-db", "10")
        assert code == 0
        assert out == ("scheme lds-sumf-fading beta 1.000000000 gamma 20.0133727 "
                       "eta_db 10.000000000 rate 2.00133727\n")

    @pytest.mark.parametrize("argv, message", [
        (("--beta", "1", "--eta-db", "1e300"), "energy per bit of 1e+300 dB is out of range"),
        (("--beta", "1e12", "--gamma", "10"), "largest supported load"),
        (("--beta", "1e300", "--eta-db", "10"), "largest supported load"),
    ])
    def test_out_of_range_input_is_a_domain_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "rate", "--scheme", "lds-opt-fading", *argv)
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("scheme, beta, gamma", [
        # a huge SNR once printed rate 0, eta_db inf, or a finiteness error
        ("ds-mmse-nofading", "10000", "1e304"),
        ("lds-sumf-fading", "2", "1.7e308"),
        ("lds-opt-nofading", "2", "1e307"),
    ])
    def test_snr_above_the_domain_is_a_domain_error(self, capsys, scheme, beta, gamma):
        code, out, err = run_cli(capsys, "rate", "--scheme", scheme, "--beta", beta,
                                 "--gamma", gamma)
        assert code == 2 and out == ""
        assert "largest supported SNR" in err

    def test_requires_exactly_one_operating_flag(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--scheme", "lds-sumf-fading",
                               "--beta", "1", "--gamma", "1", "--eta-db", "3")
        assert code == 2 and "exactly one of" in err
        code, _, err = run_cli(capsys, "rate", "--scheme", "lds-sumf-fading",
                               "--beta", "1")
        assert code == 2 and "exactly one of" in err

    def test_below_floor_energy_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--scheme", "lds-opt-fading",
                               "--beta", "1", "--eta-db", "-2")
        assert code == 2
        assert err.startswith("rate: below minimum energy per bit")

    @pytest.mark.parametrize("name", ["triple-foo", "lds-mmse-fading", "ds-sumf"])
    def test_unknown_or_unsupported_scheme(self, capsys, name):
        code, _, err = run_cli(capsys, "rate", "--scheme", name,
                               "--beta", "1", "--gamma", "1")
        assert code == 2 and err.startswith("rate:")

    def test_bad_load_is_a_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--scheme", "lds-opt-fading",
                               "--beta", "-1", "--gamma", "1")
        assert code == 2 and err.startswith("rate:")

    def test_argparse_rejects_missing_subcommand_args(self):
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--beta", "1"])
        assert exc.value.code == 2


# ----------------------------------------------------------------------
# curve
# ----------------------------------------------------------------------

def parse_csv(out):
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestCurveCommand:
    def test_load_sweep_layout_and_ordering(self, capsys):
        code, out, err = run_cli(
            capsys, "curve", "--scheme", "lds-opt-fading",
            "--scheme", "lds-sumf-fading", "--eta-db", "10",
            "--range", "0.5", "4.5", "--points", "3")
        assert code == 0 and err == ""
        rows = parse_csv(out)
        assert len(rows) == 6
        assert [r[0] for r in rows] == ["0.5", "0.5", "2.5", "2.5", "4.5", "4.5"]
        # ties on x break on the scheme name
        assert [r[1] for r in rows[:2]] == ["lds-opt-fading", "lds-sumf-fading"]
        for row in rows:
            x, _, beta, gamma, eta_db, rate = row
            assert beta == x and eta_db == "10.000000000"
            # the printed columns are mutually consistent
            back = 10.0 * math.log10(float(beta) * float(gamma) / float(rate))
            assert back == pytest.approx(10.0, abs=1e-6)
        # capacity-achieving detection dominates linear at every load
        for lo, hi in zip(rows[1::2], rows[0::2]):
            assert float(hi[5]) >= float(lo[5])

    def test_comma_list_equals_repeated_flags(self, capsys):
        _, separate, _ = run_cli(
            capsys, "curve", "--scheme", "lds-opt-fading",
            "--scheme", "lds-sumf-fading", "--eta-db", "10",
            "--range", "0.5", "4.5", "--points", "3")
        _, combined, _ = run_cli(
            capsys, "curve", "--scheme", "lds-opt-fading,lds-sumf-fading",
            "--eta-db", "10", "--range", "0.5", "4.5", "--points", "3")
        assert combined == separate

    def test_energy_sweep_rates_increase(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--scheme", "ds-opt-fading", "--beta", "1",
            "--range", "0", "10", "--points", "3")
        assert code == 0
        rows = parse_csv(out)
        assert [r[0] for r in rows] == ["0.000000000", "5.000000000", "10.000000000"]
        assert all(r[2] == "1.000000000" for r in rows)
        rates = [float(r[5]) for r in rows]
        assert rates[0] < rates[1] < rates[2]

    @pytest.mark.parametrize("scheme, beta, lo, hi", [
        ("ds-opt-fading", "1", "0", "10"),
        # lds-sumf-fading printed rates near 1e-10 from 45 dB on when its
        # rate was a half-line quadrature
        ("lds-sumf-fading", "50", "30", "50"),
    ])
    def test_energy_sweep_rows_are_consistent(self, capsys, scheme, beta, lo, hi):
        code, out, _ = run_cli(
            capsys, "curve", "--scheme", scheme, "--beta", beta,
            "--range", lo, hi, "--points", "5")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 5
        for _, _, _, gamma, eta_db, rate in rows:
            eta = float(beta) * float(gamma) / float(rate)
            assert eta == pytest.approx(10.0 ** (float(eta_db) / 10.0), rel=3e-8)

    def test_minimum_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--scheme", "lds-zf-nofading", "--eta-db", "6",
            "--range", "0.2", "0.8", "--points", "2")
        assert code == 0
        assert len(parse_csv(out)) == 2

    def test_below_floor_points_leave_cells_empty(self, capsys):
        # -1.65 dB sits below the universal -1.59 dB floor: every point
        # fails, each with a warning, yet the sweep itself succeeds
        code, out, err = run_cli(
            capsys, "curve", "--scheme", "lds-sumf-fading", "--eta-db", "-1.65",
            "--range", "0.5", "1.5", "--points", "2")
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows == ["0.5,lds-sumf-fading,0.5,,-1.65,",
                        "1.5,lds-sumf-fading,1.5,,-1.65,"]
        warnings = err.splitlines()
        assert len(warnings) == 2
        assert all(w.startswith("curve: lds-sumf-fading at x=") for w in warnings)

    def test_requires_exactly_one_axis(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--scheme", "lds-opt-fading",
                               "--range", "0.5", "1.5", "--points", "2")
        assert code == 2 and "exactly one of" in err
        code, _, err = run_cli(capsys, "curve", "--scheme", "lds-opt-fading",
                               "--range", "0.5", "1.5", "--points", "2",
                               "--beta", "1", "--eta-db", "10")
        assert code == 2 and "exactly one of" in err

    def test_log_spacing_rejects_zero_minimum(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--scheme", "lds-opt-fading",
                               "--eta-db", "10", "--range", "0", "4",
                               "--points", "3", "--spacing", "log")
        assert code == 2 and "log spacing requires x_min > 0" in err

    def test_single_point_grid_rejected(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--scheme", "lds-opt-fading",
                               "--eta-db", "10", "--range", "0.5", "1.5",
                               "--points", "1")
        assert code == 2 and "n_points" in err

    def test_worker_count_does_not_change_output(self, capsys, monkeypatch):
        argv = ("curve", "--scheme", "lds-opt-fading,ds-opt-fading",
                "--eta-db", "8", "--range", "0.5", "3.5", "--points", "4")
        monkeypatch.setenv("NOMA_LIMITS_THREADS", "1")
        _, serial, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("NOMA_LIMITS_THREADS", "4")
        _, threaded, _ = run_cli(capsys, *argv)
        assert serial == threaded

    def test_serial_and_default_pool_print_the_same_bytes(self, capsys, monkeypatch):
        monkeypatch.setenv("NOMA_LIMITS_THREADS", "1")
        _, serial, _ = run_cli(capsys, *PAPER_SWEEP)
        monkeypatch.delenv("NOMA_LIMITS_THREADS")
        _, pooled, _ = run_cli(capsys, *PAPER_SWEEP)
        assert serial == pooled

    def test_warm_started_rows_match_cold_inversions(self, capsys, monkeypatch):
        # every row of the paper's load sweep starts its inversion from
        # the previous rows' roots; each root must be the cold one
        calls = []
        warm = cli.gamma_from_eta

        def recording(scheme, beta, eta, *args, guess=None, **kwargs):
            gamma = warm(scheme, beta, eta, *args, guess=guess, **kwargs)
            calls.append((scheme, beta, eta, guess, gamma))
            return gamma

        monkeypatch.setattr(cli, "gamma_from_eta", recording)
        code, out, _ = run_cli(capsys, *PAPER_SWEEP)
        assert code == 0 and len(parse_csv(out)) == 384
        assert len(calls) == 384
        assert sum(guess is None for _, _, _, guess, _ in calls) == 8
        for scheme, beta, eta, _, gamma in calls:
            cold = warm(scheme, beta, eta)
            assert gamma == pytest.approx(cold, rel=1e-9, abs=0.0), (scheme.name, beta)

    def test_malformed_worker_count_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NOMA_LIMITS_THREADS", "abc")
        code, _, err = run_cli(capsys, "curve", "--scheme", "lds-opt-fading",
                               "--eta-db", "10", "--range", "0.5", "1.5",
                               "--points", "2")
        assert code == 2 and err.startswith("curve:")

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ("curve", "--scheme", "lds-opt-fading", "--eta-db", "10",
                "--range", "0.5", "1.5", "--points", "2")
        _, stdout_payload, _ = run_cli(capsys, *argv)
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8") == stdout_payload

    @pytest.mark.parametrize("argv, rows", [
        (("--eta-db", "1e300", "--range", "1", "2", "--points", "2"),
         ["1.000000000,ds-mmse-nofading,1.000000000,,1e+300,",
          "2.000000000,ds-mmse-nofading,2.000000000,,1e+300,"]),
        (("--beta", "1", "--range", "0", "1e308", "--points", "3"),
         ["0.000000000,ds-mmse-nofading,1.000000000,0.350151406,0.000000000,0.350151406",
          "5e+307,ds-mmse-nofading,1.000000000,,5e+307,",
          "1e+308,ds-mmse-nofading,1.000000000,,1e+308,"]),
    ])
    def test_out_of_range_energy_per_bit_leaves_cells_empty(self, capsys, argv, rows):
        code, out, err = run_cli(capsys, "curve", "--scheme", "ds-mmse", *argv)
        assert code == 0
        assert out.splitlines() == [CSV_HEADER] + rows
        assert err.count("dB is out of range") == sum(row.endswith(",") for row in rows)

    @pytest.mark.parametrize("argv, message", [
        (("--beta", "nan"), "the fixed value must be finite"),
        (("--beta", "inf"), "the fixed value must be finite"),
        (("--beta", "0"), "the fixed load must be positive"),
        (("--beta", "-1"), "the fixed load must be positive"),
        (("--eta-db", "nan"), "the fixed value must be finite"),
        (("--eta-db", "inf"), "the fixed value must be finite"),
    ])
    def test_unusable_fixed_value_is_a_domain_error(self, capsys, argv, message):
        # refused before the sweep, not printed as a CSV of empty rows
        code, out, err = run_cli(capsys, "curve", "--scheme", "ds-mmse", *argv,
                                 "--range", "1", "2", "--points", "2")
        assert code == 2 and out == ""
        assert err.splitlines() == [f"curve: {message}, got {float(argv[1])!r}"]

    def test_grid_size_is_bounded(self, capsys):
        # rejected before any grid is built
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "curve", "--scheme", "ds-mmse", "--beta", "1",
                                     "--range", "0", "1", "--points", "100000000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "n_points must be between 2 and 10000" in err
        assert peak < 1 << 20

    def test_unwritable_out_path(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--scheme", "lds-opt-fading",
                               "--eta-db", "10", "--range", "0.5", "1.5",
                               "--points", "2", "--out",
                               "/nonexistent-dir-xyz/out.csv")
        assert code == 3 and "cannot write" in err


# ----------------------------------------------------------------------
# moments
# ----------------------------------------------------------------------

class TestMomentsCommand:
    def test_fading_rows_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "lds-fading",
                               "--beta", "2", "--lmax", "4")
        assert code == 0
        assert out.splitlines() == [
            "ensemble lds-fading beta 2.000000000",
            "L 1 coefficients 1 moment 2.000000000",
            "L 2 coefficients 2 1 moment 8.000000000",
            "L 3 coefficients 6 6 1 moment 44.000000000",
            "L 4 coefficients 24 36 12 1 moment 304.000000000",
        ]

    def test_fourth_rows_tell_the_ensembles_apart(self, capsys):
        _, no_fade, _ = run_cli(capsys, "moments", "lds-nofading",
                                "--beta", "1", "--lmax", "4")
        _, dense, _ = run_cli(capsys, "moments", "ds-nofading",
                              "--beta", "1", "--lmax", "4")
        assert "L 4 coefficients 1 7 6 1" in no_fade
        assert "L 4 coefficients 1 6 6 1" in dense

    def test_first_moment_is_the_load(self, capsys):
        _, out, _ = run_cli(capsys, "moments", "ds-nofading",
                            "--beta", "0.75", "--lmax", "1")
        assert out.splitlines()[1] == "L 1 coefficients 1 moment 0.75"

    def test_short_alias_for_depth(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "lds-fading",
                               "--beta", "1", "--n", "2")
        assert code == 0 and len(out.splitlines()) == 3

    def test_unknown_ensemble(self, capsys):
        code, _, err = run_cli(capsys, "moments", "ds-fading", "--beta", "1")
        assert code == 2 and "unknown ensemble" in err

    def test_zero_depth_rejected(self, capsys):
        code, _, err = run_cli(capsys, "moments", "lds-fading",
                               "--beta", "1", "--lmax", "0")
        assert code == 2 and err.startswith("moments:")

    @pytest.mark.parametrize("argv", [
        ("lds-fading", "--beta", "1e308", "--lmax", "4"),
        ("lds-fading", "--beta", "1e100", "--lmax", "64"),
        ("ds-nofading", "--beta", "1e200", "--lmax", "2"),
    ])
    def test_a_moment_beyond_a_double_is_a_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "moments", *argv)
        assert code == 2 and out == ""
        assert err.startswith("moments:") and "overflows a double" in err


# ----------------------------------------------------------------------
# mc
# ----------------------------------------------------------------------

class TestMcCommand:
    def test_zero_snr_record_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "sumf", "--n", "100", "--beta", "1",
                               "--gamma", "0", "--samples", "1000")
        assert code == 0
        assert out.startswith('{"analytic_reference"')  # keys stay sorted
        record = json.loads(out)
        assert record == {"analytic_reference": 0.0, "estimate": 0.0, "n": 1000,
                          "seed": 0, "std_error": 0.0, "z_score": 0.0}

    def test_matched_filter_record_is_unbiased(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "sumf", "--n", "10000", "--beta", "1",
                               "--gamma", "10", "--samples", "200000", "--seed", "7")
        assert code == 0
        record = json.loads(out)
        assert abs(record["z_score"]) < 5.0
        assert record["std_error"] > 0.0

    def test_spectral_distance_record(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "esd", "--n", "20000", "--beta", "1",
                               "--seed", "3")
        assert code == 0
        record = json.loads(out)
        assert 0.0 < record["estimate"] < 0.02
        assert record["std_error"] == 0.0 and record["z_score"] == 0.0

    def test_spectral_distance_at_a_large_load(self, capsys):
        # e^(-beta) underflows at this load; the limit law must not
        code, out, _ = run_cli(capsys, "mc", "esd", "--n", "2000", "--beta", "700",
                               "--seed", "1")
        assert code == 0
        assert 0.0 < json.loads(out)["estimate"] < 0.05

    def test_one_draw_capacity_record(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "copt", "--n", "100000", "--beta", "1",
                               "--gamma", "10", "--seed", "5")
        assert code == 0
        record = json.loads(out)
        assert abs(record["z_score"]) < 5.0

    def test_dense_logdet_record(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "ds-logdet", "--n", "128",
                               "--beta", "0.5", "--gamma", "10", "--trials", "40",
                               "--seed", "11")
        assert code == 0
        record = json.loads(out)
        assert record["estimate"] == pytest.approx(
            record["analytic_reference"], rel=0.05)

    def test_oversized_dense_matrix_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "mc", "ds-logdet", "--n", "2048",
                                 "--beta", "100", "--gamma", "1", "--trials", "1")
        assert code == 2 and out == ""
        assert "spreading entries" in err

    @pytest.mark.parametrize("argv, message", [
        (("esd", "--n", "1", "--beta", "1e30"), "n_users must be <= 16777216"),
        (("esd", "--n", "1000000", "--beta", "10000"), "n_users must be <= 16777216"),
        (("copt", "--n", "1000000", "--beta", "10000", "--gamma", "1"),
         "n_users must be <= 16777216"),
        (("esd", "--n", "100000000", "--beta", "0.001"), "n_dims must be <= 16777216"),
        (("esd", "--n", "10", "--beta", "nan"), "not a finite user count"),
        (("copt", "--n", "10", "--beta", "1e308", "--gamma", "1"), "not a finite user count"),
    ])
    def test_oversized_system_is_a_domain_error(self, capsys, argv, message):
        # the sizes are checked before the draw allocates anything
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "mc", *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert message in err
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv", [
        ("sumf", "--gamma", "1", "--samples", "10"),
        ("independence", "--samples", "10"),
        ("esd",),
        ("copt", "--gamma", "1"),
    ])
    def test_dimension_count_beyond_a_float_is_a_domain_error(self, capsys, argv):
        n = str(10 ** 400)
        code, out, err = run_cli(capsys, "mc", argv[0], "--n", n, "--beta", "1", *argv[1:])
        assert code == 2 and out == ""
        assert "not a finite user count" in err

    @pytest.mark.parametrize("argv, message", [
        (("sumf", "--n", "100", "--gamma", "1", "--samples", str(10 ** 12 + 1)),
         "n_samples must be <= 1000000000000"),
        (("sumf", "--n", "100", "--gamma", "1", "--samples", str(10 ** 400)),
         "n_samples must be <= 1000000000000"),
        (("independence", "--n", "100", "--samples", str(10 ** 12 + 1)),
         "n_draws must be <= 1000000000000"),
        (("ds-logdet", "--n", "4", "--gamma", "1", "--trials", str(10 ** 6 + 1)),
         "n_trials must be <= 1000000"),
    ])
    def test_sample_count_beyond_reach_is_a_domain_error(self, capsys, argv, message):
        # refused before the first block is drawn, not looped over
        code, out, err = run_cli(capsys, "mc", *argv[:3], "--beta", "1", *argv[3:])
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("argv", [
        ("sumf", "--n", "10", "--beta", "20000", "--gamma", "1", "--samples", "3000000"),
        ("sumf", "--n", "10", "--beta", "2", "--gamma", "1e304", "--samples", "3000000"),
        ("ds-logdet", "--n", "16", "--beta", "20000", "--gamma", "1", "--trials", "5"),
        ("ds-logdet", "--n", "16", "--beta", "2", "--gamma", "1e304", "--trials", "5"),
        ("copt", "--n", "800", "--beta", "20000", "--gamma", "1"),
    ])
    def test_reference_domain_is_checked_before_any_draw(self, capsys, monkeypatch, argv):
        def no_draws(*_args):
            raise AssertionError("drew before checking the reference's domain")

        monkeypatch.setattr(ensemble_lab, "_generator", no_draws)
        code, out, err = run_cli(capsys, "mc", *argv)
        assert code == 2 and out == ""
        assert err.startswith("mc:") and "exceeds the largest supported" in err

    def test_mixture_load_is_checked_before_any_draw(self, capsys, monkeypatch):
        # the limiting mixture refuses loads above 1e5; the draw it would
        # follow holds 1.6e7 users here
        def no_draws(*_args):
            raise AssertionError("drew before building the limiting mixture")

        monkeypatch.setattr(ensemble_lab, "_generator", no_draws)
        code, out, err = run_cli(capsys, "mc", "esd", "--n", "80", "--beta", "200000")
        assert code == 2 and out == ""
        assert err.startswith("mc:") and "at most 1e5 for the limiting mixture" in err

    def test_threaded_matched_filter_prints_the_same_bytes(self, capsys, monkeypatch):
        argv = ("mc", "sumf", "--n", "10000", "--beta", "1", "--gamma", "10",
                "--samples", "2500000", "--seed", "7")
        monkeypatch.setenv("NOMA_LIMITS_THREADS", "1")
        _, serial, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("NOMA_LIMITS_THREADS", "2")
        _, threaded, _ = run_cli(capsys, *argv)
        assert serial == threaded and json.loads(serial)["n"] == 2_500_000

    def test_malformed_worker_count_is_a_usage_error(self, capsys, monkeypatch):
        def no_draws(*_args):
            raise AssertionError("drew before reading the worker count")

        monkeypatch.setattr(ensemble_lab, "_generator", no_draws)
        monkeypatch.setenv("NOMA_LIMITS_THREADS", "abc")
        code, out, err = run_cli(capsys, "mc", "esd", "--n", "100", "--beta", "1")
        assert code == 2 and out == ""
        assert err.startswith("mc:") and "NOMA_LIMITS_THREADS" in err

    @pytest.mark.parametrize("kind, argv", [
        ("sumf", ("--gamma", "1", "--samples", "1000")),
        ("sumf", ("--gamma", "0", "--samples", "1000")),
        ("copt", ("--gamma", "1")),
        ("esd", ()),
        ("ds-logdet", ("--gamma", "1", "--trials", "2")),
        ("ds-logdet", ("--gamma", "0", "--trials", "2")),
        ("independence", ("--samples", "1000")),
    ])
    @pytest.mark.parametrize("seed, message", [
        (str(2 ** 64 + 5), "seed must be below 2^64"),
        (str(2 ** 64), "seed must be below 2^64"),
        ("-1", "seed must be nonnegative"),
    ])
    def test_seed_beyond_the_key_is_a_domain_error(self, capsys, kind, argv, seed, message):
        # 2^64 + 5 once drew the same samples as seed 5
        code, out, err = run_cli(capsys, "mc", kind, "--n", "10", "--beta", "1", *argv,
                                 "--seed", seed)
        assert code == 2 and out == ""
        assert err.startswith("mc:") and message in err

    def test_largest_seed_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "sumf", "--n", "10", "--beta", "1", "--gamma", "1",
                               "--samples", "10", "--seed", str(2 ** 64 - 1))
        assert code == 0 and json.loads(out)["seed"] == 2 ** 64 - 1

    def test_independence_record(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "independence", "--n", "1000",
                               "--beta", "1", "--samples", "20000", "--seed", "2")
        assert code == 0
        record = json.loads(out)
        assert abs(record["estimate"]) < 0.04
        est = ensemble_lab.independence_diagnostic(1000, 1.0, 20000, 2)
        assert record == {"analytic_reference": -1.0 / 1999.0, "estimate": est.mean,
                          "n": 20000, "seed": 2, "std_error": est.std_error,
                          "z_score": (est.mean - est.reference) / est.std_error}

    def test_independence_z_score_is_against_the_exact_correlation(self, capsys):
        # the record once compared with 0 at an SE of 1/sqrt(n): z = -21.6
        code, out, _ = run_cli(capsys, "mc", "independence", "--n", "2",
                               "--beta", "8", "--samples", "4000", "--seed", "6")
        assert code == 0
        record = json.loads(out)
        assert record["analytic_reference"] == -1.0 / 3.0
        assert abs(record["z_score"]) < 3.0

    @pytest.mark.parametrize("argv, missing", [
        (("mc", "sumf", "--n", "100", "--beta", "1", "--samples", "10"), "--gamma"),
        (("mc", "sumf", "--n", "100", "--beta", "1", "--gamma", "1"), "--samples"),
        (("mc", "copt", "--n", "100", "--beta", "1"), "--gamma"),
        (("mc", "ds-logdet", "--n", "16", "--beta", "1", "--gamma", "1"), "--trials"),
        (("mc", "independence", "--n", "100", "--beta", "1"), "--samples"),
    ])
    def test_missing_required_flag(self, capsys, argv, missing):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and missing in err

    def test_unknown_kind_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "bogus", "--n", "10", "--beta", "1"])
        assert exc.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "record.json"
        code, out, _ = run_cli(capsys, "mc", "esd", "--n", "1000", "--beta", "1",
                               "--out", str(target))
        assert code == 0 and out == ""
        record = json.loads(target.read_text(encoding="utf-8"))
        assert record["n"] == 1000


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def fast_verify_run():
    """Exit code and stdout of one `verify --suite fast` run, shared by
    the tests that only read its report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", "fast"])
    return code, out.getvalue()


class TestVerifyCommand:
    def test_fast_suite_passes(self, fast_verify_run):
        code, out = fast_verify_run
        assert code == 0
        report = json.loads(out)
        assert report["overall"] is True
        assert report["seeds"] == [42]
        assert report["wall_time_s"] > 0.0
        assert all(check["passed"] for check in report["checks"])
        prefixes = sorted({check["name"][:3] for check in report["checks"]})
        assert prefixes == ["01.", "02.", "03.", "04.", "05.",
                            "11.", "12.", "13."]

    def test_records_wall_time_per_criterion(self, fast_verify_run):
        report = json.loads(fast_verify_run[1])
        times = report["criterion_time_s"]
        assert sorted(times) == sorted(c.key for c in CRITERIA if c.suite == "fast")
        assert all(t >= 0.0 for t in times.values())
        assert sum(times.values()) <= report["wall_time_s"]

    def test_records_cpu_time_per_criterion(self, fast_verify_run):
        report = json.loads(fast_verify_run[1])
        cpu = report["criterion_cpu_s"]
        assert sorted(cpu) == sorted(report["criterion_time_s"])
        assert all(t >= 0.0 for t in cpu.values())

    def test_fast_suite_is_deterministic(self, capsys, fast_verify_run):
        _, first = fast_verify_run
        _, second, _ = run_cli(capsys, "verify", "--suite", "fast")
        a, b = json.loads(first), json.loads(second)
        a.pop("wall_time_s"), b.pop("wall_time_s")
        a.pop("criterion_time_s"), b.pop("criterion_time_s")
        a.pop("criterion_cpu_s"), b.pop("criterion_cpu_s")
        assert a == b

    def test_seed_is_echoed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "fast", "--seed", "7")
        assert code == 0
        assert json.loads(out)["seeds"] == [7]

    def test_unwritable_report_path(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "fast", "--out",
                               "/nonexistent-dir-xyz/report.json")
        assert code == 3 and "cannot write" in err

    def test_malformed_worker_count_is_a_usage_error(self, capsys, monkeypatch):
        def no_criteria(*_args):
            raise AssertionError("ran a criterion before reading the worker count")

        monkeypatch.setattr(verification, "run_criterion", no_criteria)
        monkeypatch.setenv("NOMA_LIMITS_THREADS", "abc")
        code, out, err = run_cli(capsys, "verify", "--suite", "full")
        assert code == 2 and out == ""
        assert err.startswith("verify:") and "NOMA_LIMITS_THREADS" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("suite", ["fast", "full"])
    @pytest.mark.parametrize("seed", ["-1", "18446688733644", str(2 ** 64)])
    def test_seed_beyond_the_derived_keys_is_a_domain_error(self, capsys, monkeypatch,
                                                             suite, seed):
        # the middle seed is one past the largest whose derived seeds,
        # up to seed * 1_000_003 + 1002, all fit a 64-bit key
        def no_criteria(*_args):
            raise AssertionError("ran a criterion before checking the seed")

        monkeypatch.setattr(verification, "run_criterion", no_criteria)
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seed", seed)
        assert code == 2 and out == ""
        assert err == f"verify: seed must be an integer in [0, 18446688733643], got {seed}\n"

    def test_largest_seed_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(verification, "run_criterion", lambda *_args: [])
        code, out, _ = run_cli(capsys, "verify", "--suite", "full", "--seed", "18446688733643")
        assert code == 0 and json.loads(out)["seeds"] == [18446688733643]

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "medium"])
        assert exc.value.code == 2
