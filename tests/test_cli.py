import csv
import functools
import io
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from cavityclock import accelerated, quadrature, verify
from cavityclock.cli import (CSV_COLUMNS, EXIT_NUMERICAL, EXIT_OK,
                             EXIT_VALIDATION, _apply_config, build_parser, main)
from cavityclock.core import FieldParams
from cavityclock.errors import UndefinedRatioError
from cavityclock.kinematics import cavity_geometry
from cavityclock.verify import run_checks


def run_cli(args, tmp_path=None):
    out = io.StringIO()
    err = io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestRunPoint:
    def test_stationary_rate(self):
        code, out, _ = run_cli(["stationary", "--l", "1", "--mass", "1",
                                "--lambda", "1", "--rate"])
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == CSV_COLUMNS
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert float(row["value"]) == pytest.approx(0.02810, abs=5e-6)
        assert row["value_kind"] == "rate"
        assert row["status"] == "ok"

    def test_below_threshold_zero(self):
        code, out, _ = run_cli(["stationary", "--l", "1", "--mass", "4", "--rate"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0][6]) == 0.0

    def test_horizon_validation_error(self):
        code, _, err = run_cli(["accelerated", "--l", "1", "--alpha", "2.1",
                                "--mass", "1", "--rate"])
        assert code == EXIT_VALIDATION
        assert "horizon" in err.lower()

    def test_missing_parameter(self):
        code, _, err = run_cli(["stationary", "--mass", "1", "--rate"])
        assert code == EXIT_VALIDATION
        assert "--l" in err

    def test_probability_requires_time(self):
        code, _, err = run_cli(["stationary", "--l", "1", "--mass", "1"])
        assert code == EXIT_VALIDATION
        assert "--time" in err

    @pytest.mark.parametrize("mode", ["stationary", "accelerated"])
    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_non_finite_time_refused(self, mode, time):
        alpha = ["--alpha", "0.5"] if mode == "accelerated" else []
        code, out, err = run_cli([mode, "--l", "1", "--mass", "1", *alpha, "--time", time])
        assert code == EXIT_VALIDATION and out == ""
        assert "finite" in err

    def test_stationary_probability(self):
        code, out, _ = run_cli(["stationary", "--l", "1", "--mass", "1",
                                "--time", "0.01"])
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["value"]) == pytest.approx(3.987e-06, rel=1e-3)
        assert row["regime"] == "short-time"
        assert row["t_or_tau"] == "0.01"

    def test_deviation_point(self):
        code, out, _ = run_cli(["deviation", "--l", "1", "--mass", "1",
                                "--alpha", "0.2"])
        assert code == EXIT_OK
        row = dict(zip(parse_csv(out)[0], parse_csv(out)[1][0]))
        assert row["value_kind"] == "deviation"
        assert float(row["value"]) == pytest.approx(0.674248, rel=1e-4)
        # the row prints the library's result, bit for bit
        geom, fields = cavity_geometry(1.0, 0.2), FieldParams(1.0)
        res = accelerated.ideal_clock_deviation_result(geom, fields)
        assert float(row["value"]).hex() == res.value.hex()
        assert float(row["error_estimate"]).hex() == res.error_estimate.hex()
        assert accelerated.ideal_clock_deviation(geom, fields).hex() == res.value.hex()

    def test_deviation_undefined_below_threshold(self):
        code, out, err = run_cli(["deviation", "--l", "1", "--mass", "4", "--alpha", "0.2"])
        with pytest.raises(UndefinedRatioError) as lib:
            accelerated.ideal_clock_deviation_result(cavity_geometry(1.0, 0.2),
                                                     FieldParams(4.0))
        assert code == EXIT_NUMERICAL and out == ""
        assert err == f"numerical failure: {lib.value}\n"


class TestValidationBoundary:
    """Non-finite parameters exit 1 and non-finite results exit 2, each with
    one line on stderr, no traceback and no RuntimeWarning."""

    @pytest.mark.parametrize("args", [
        ["--lambda", "nan"], ["--l", "nan"], ["--l", "inf"], ["--mass", "inf"],
        ["--rel-tol", "inf"], ["--abs-tol", "nan"],
    ], ids=["lambda nan", "l nan", "l inf", "mass inf", "rel-tol inf", "abs-tol nan"])
    def test_non_finite_parameter_refused(self, args):
        flags = {"--l": "1", "--mass": "1", **dict([args])}
        argv = ["stationary", "--rate", *[a for kv in flags.items() for a in kv]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv)
        assert code == EXIT_VALIDATION and out == ""
        assert err.startswith("invalid parameters: ") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("argv, code", [
        (["stationary", "--l", "1", "--mass", "1", "--rate", "--lambda", "1e300"], EXIT_NUMERICAL),
        (["accelerated", "--l", "1", "--mass", "inf", "--alpha", "0.5", "--rate"], EXIT_VALIDATION),
        (["accelerated", "--l", "1", "--mass", "1", "--alpha", "nan", "--rate"], EXIT_VALIDATION),
        (["stationary", "--l", "1", "--mass", "1", "--time", "1e300"], EXIT_NUMERICAL),
        (["accelerated", "--l", "1", "--mass", "1", "--alpha", "0.5", "--time", "1e300"],
         EXIT_NUMERICAL),
        (["stationary", "--l", "1e-300", "--mass", "1", "--time", "1"], EXIT_NUMERICAL),
        (["stationary", "--l", "1", "--mass", "2.2e-308", "--rate"], EXIT_NUMERICAL),
        (["stationary", "--l", "1e-10", "--mass", "1", "--time", "1e300"], EXIT_NUMERICAL),
        (["stationary", "--l", "0.7", "--mass", "5e-324", "--time", "5"], EXIT_NUMERICAL),
        (["accelerated", "--l", "1", "--mass", "1", "--alpha", "1e-300", "--rate"], EXIT_NUMERICAL),
    ], ids=["rate overflows", "mass inf", "alpha nan", "stationary time 1e300",
            "accelerated time 1e300", "l^4 underflows", "rate ~ 1/M^4 overflows",
            "t / l overflows", "integrand ~ 1/M overflows", "order past the kernel's domain"])
    def test_exit_codes(self, argv, code):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run_cli(argv)
        assert got == code and out == ""
        assert err.count("\n") == 1

    # drawn for up to two parameters, the others ordinary; tiny positive
    # tolerances are valid but refine to max_subdivisions, which takes
    # minutes in the accelerated modes, so the tolerances leave them out
    SPECIAL = ["nan", "inf", "-inf", "0", "-1", "5e-324", "2.2e-308", "1e-300", "1e300"]
    SPECIAL_TOL = ["nan", "inf", "-inf", "0", "-1", "1e300"]
    # loose tolerances and 8 window samples keep the ordinary draws cheap
    ORDINARY = {"l": ["1", "0.7", "2.5"], "mass": ["1", "0.5", "3"],
                "alpha": ["0.5", "0.2", "1.1"], "lambda": ["1", "0.3"],
                "time": ["1", "5", "0.3"], "rel-tol": ["0.1"], "abs-tol": ["0.01"]}

    @given(data=st.data())
    @settings(max_examples=150, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
    def test_every_call_ends_cleanly(self, data):
        mode = data.draw(st.sampled_from(["stationary", "accelerated", "deviation"]))
        rate = mode != "deviation" and data.draw(st.booleans(), label="rate")
        names = ["l", "mass", "lambda", "rel-tol", "abs-tol"]
        names += [] if mode == "stationary" else ["alpha"]
        names += [] if rate or mode == "deviation" else ["time"]
        specials = data.draw(st.lists(st.sampled_from(names), max_size=2), label="specials")
        argv = [mode]
        for name in names:
            values = (self.ORDINARY[name] if name not in specials
                      else self.SPECIAL_TOL if name.endswith("tol") else self.SPECIAL)
            argv.append(f"--{name}={data.draw(st.sampled_from(values), label=name)}")
        if rate:
            argv.append("--rate")
        if mode == "accelerated" and rate and data.draw(st.booleans(), label="averaged"):
            argv.append("--averaged")
        if mode != "stationary":
            argv.append("--avg-samples=8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv)
        event(f"exit {code}")
        if code == EXIT_OK:
            header, rows = parse_csv(out)
            row = dict(zip(header, rows[0]))
            assert row["status"] == "ok" and err == ""
            assert math.isfinite(float(row["value"]))
            assert math.isfinite(float(row["error_estimate"]))
        else:
            assert code in (EXIT_VALIDATION, EXIT_NUMERICAL) and out == ""
            assert err.startswith(("invalid parameters: ", "numerical failure: "))
            assert err.count("\n") == 1


class TestConvergenceGuard:
    @pytest.mark.parametrize("args", [
        ["accelerated", "--l", "1", "--mass", "1", "--alpha", "0.5", "--rate"],
        ["accelerated", "--l", "1", "--mass", "1", "--alpha", "0.5", "--rate",
         "--averaged", "--avg-samples", "8"],
        ["deviation", "--l", "1", "--mass", "1", "--alpha", "0.5", "--avg-samples", "8"],
    ], ids=["rate", "averaged", "deviation"])
    def test_unconverged_overlap_is_numerical_failure(self, monkeypatch, args):
        # one subdivision cannot reach rel_tol 1e-14 in the cavity overlap
        from cavityclock import cli
        monkeypatch.setattr(cli, "QuadratureConfig",
                            functools.partial(quadrature.QuadratureConfig, max_subdivisions=1))
        code, out, err = run_cli(args + ["--rel-tol", "1e-14"])
        assert code == EXIT_NUMERICAL
        assert "did not converge" in err
        assert out == ""


class TestSweep:
    def test_small_cavity_ratio_column(self):
        code, out, _ = run_cli(["stationary", "--rate", "--mass", "1",
                                "--l", "1", "--sweep", "l:0.01:0.1:3:log"])
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        for row in rows:
            d = dict(zip(header, row))
            l = float(d["l"])
            ratio = float(d["value"]) * 4 * math.pi**2 / l**3
            assert ratio == pytest.approx(1.0, abs=0.05)

    def test_error_row_continues(self):
        # alpha sweep hitting the horizon bound writes an error row and goes on
        code, out, _ = run_cli(["accelerated", "--rate", "--mass", "1", "--l", "1",
                                "--alpha", "1", "--sweep", "alpha:1.5:2.5:3:lin"])
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        statuses = [dict(zip(header, r))["status"] for r in rows]
        assert statuses[0] == "ok"
        assert statuses[1] == "error" and statuses[2] == "error"
        msg = dict(zip(header, rows[1]))["message"]
        assert "Horizon" in msg

    @pytest.mark.parametrize("args", [
        ["stationary", "--rate", "--l", "1", "--mass", "1",
         "--sweep", "M:3.14159265:3.2:2:lin"],
        ["deviation", "--l", "1", "--mass", "1", "--alpha", "1", "--time", "3",
         "--sweep", "alpha:1.0:2.5:3:lin"],
    ], ids=["stationary near threshold", "deviation past horizon"])
    def test_error_row_parameter_columns_follow_ok_rows(self, args):
        code, out, _ = run_cli(args)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        rows = [dict(zip(header, r)) for r in rows]
        ok = [r for r in rows if r["status"] == "ok"]
        errors = [r for r in rows if r["status"] == "error"]
        assert ok and errors
        swept = args[-1].split(":")[0]
        for row in errors:
            for col in ("l", "M", "alpha", "lambda", "t_or_tau"):
                if col == swept:
                    assert row[col] != ""
                else:
                    assert row[col] == ok[0][col], col

    def test_invalid_specs_rejected(self):
        for spec in ["alpha:2:1:5:lin", "alpha:1:2:1:lin", "alpha:1:2:5:cubic",
                     "bogus:1:2:5:lin", "alpha:1:2:5"]:
            code, _, err = run_cli(["accelerated", "--rate", "--mass", "1",
                                    "--l", "1", "--alpha", "1", "--sweep", spec])
            assert code == EXIT_VALIDATION, spec

    def test_deterministic_output(self, tmp_path):
        args = ["accelerated", "--rate", "--mass", "1", "--l", "1", "--alpha", "0.3",
                "--sweep", "alpha:0.2:0.6:5:lin"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--output", str(f1)])[0] == EXIT_OK
        assert run_cli(args + ["--output", str(f2)])[0] == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cf = tmp_path / "run.cfg"
        cf.write_text("l = 1\nmass = 1\nrate = true\n# comment\n")
        code, out, _ = run_cli(["stationary", "--config", str(cf)])
        assert code == EXIT_OK
        assert float(parse_csv(out)[1][0][6]) == pytest.approx(0.0281034, rel=1e-4)
        # flag wins over config
        code, out, _ = run_cli(["stationary", "--config", str(cf), "--mass", "4"])
        assert float(parse_csv(out)[1][0][6]) == 0.0

    def test_abbreviated_flag_refused(self, tmp_path):
        # argparse would take --mas for --mass, but the config must not win over it
        cf = tmp_path / "run.cfg"
        cf.write_text("l = 1\nmass = 1\nrate = true\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["stationary", "--config", str(cf), "--mas", "4"])
        assert exc.value.code == EXIT_VALIDATION

    def test_equals_form_counts_as_given(self, tmp_path):
        cf = tmp_path / "run.cfg"
        cf.write_text("l = 1\nmass = 1\nrel-tol = 1e-9\n")
        argv = ["stationary", "--config", str(cf), "--rel-tol=1e-3"]
        args = build_parser().parse_args(argv)
        _apply_config(args, argv)
        assert (args.rel_tol, args.mass) == (1e-3, 1.0)

    @pytest.mark.parametrize("argv", [
        ["stationary", "--l", "1", "--mass", "x", "--rate"],
        ["stationary", "--l", "1", "--mass", "1", "--rate", "--bogus"],
        ["nonsense"],
        [],
    ], ids=["malformed value", "unknown flag", "unknown command", "no command"])
    def test_usage_error_exits_validation(self, argv, capsys):
        # argparse's own exit code, 2, is the CLI's "numerical failure"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert "error:" in err and out == ""

    def test_usage_error_process_exit_code(self):
        proc = subprocess.run([sys.executable, "-m", "cavityclock.cli", "stationary",
                               "--l", "1", "--mas", "4", "--rate"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_VALIDATION
        assert "unrecognized arguments: --mas 4" in proc.stderr

    def test_help_exits_ok(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["stationary", "--help"])
        assert exc.value.code == EXIT_OK

    def test_missing_config_file(self, tmp_path):
        missing = tmp_path / "missing.cfg"
        code, out, err = run_cli(["stationary", "--l", "1", "--mass", "1", "--rate",
                                  "--config", str(missing)])
        assert code == EXIT_VALIDATION and out == ""
        assert err.startswith("invalid parameters: ") and str(missing) in err

    def test_output_into_missing_directory(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        code, out, err = run_cli(["stationary", "--l", "1", "--mass", "1", "--rate",
                                  "--output", str(target)])
        assert code == EXIT_VALIDATION and out == ""
        assert err.startswith("invalid parameters: ") and str(target) in err
        assert not target.parent.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cf = tmp_path / "bad.cfg"
        cf.write_text("masss = 1\n")
        code, _, _ = run_cli(["stationary", "--l", "1", "--rate", "--config", str(cf)])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("raw, rate", [("1", True), ("TRUE", True), ("Yes", True),
                                           ("0", False), ("false", False), ("NO", False)])
    def test_boolean_values(self, tmp_path, raw, rate):
        cf = tmp_path / "run.cfg"
        cf.write_text(f"l = 1\nmass = 1\nrate = {raw}\n")
        argv = ["stationary", "--config", str(cf)]
        args = build_parser().parse_args(argv)
        _apply_config(args, argv)
        assert args.rate is rate

    @pytest.mark.parametrize("line", ["rate = ture", "rate = ", "mass = one"])
    def test_invalid_value_names_its_key(self, tmp_path, line):
        # "ture" was once read as False, and the CLI computed a probability
        cf = tmp_path / "bad.cfg"
        cf.write_text(f"l = 1\nmass = 1\ntime = 1\n{line}\n")
        code, out, err = run_cli(["stationary", "--config", str(cf)])
        assert code == EXIT_VALIDATION and out == ""
        assert repr(line.split()[0]) in err


class TestDefaultsSingleSource:
    def test_parser_defaults_match_module_constants(self):
        parser = build_parser()
        for cmd in ("stationary", "accelerated", "deviation"):
            ns = parser.parse_args([cmd, "--l", "1", "--mass", "1",
                                    *(["--alpha", "1"] if cmd != "stationary" else [])])
            assert ns.rel_tol == quadrature.DEFAULT_REL_TOL
            assert ns.abs_tol == quadrature.DEFAULT_ABS_TOL
            if cmd != "stationary":
                assert ns.avg_width == accelerated.DEFAULT_AVG_RELATIVE_HALFWIDTH
                assert ns.avg_samples == accelerated.DEFAULT_AVG_SAMPLES
            assert ns.lam == 1.0


class TestVerify:
    def test_only_filter_runs_one_group(self):
        results = run_checks(only="gamma")
        assert len(results) == 1 and results[0].group == "gamma"
        assert results[0].passed

    def test_perturbation_hook_fails(self, monkeypatch):
        exact = verify.gamma_abs_sq_imag
        monkeypatch.setattr(verify, "gamma_abs_sq_imag", lambda y: 1.01 * exact(y))
        results = run_checks(only="gamma")
        assert not results[0].passed

    def test_cli_verify_exit_codes(self):
        code, out, _ = run_cli(["verify", "--only", "gamma"])
        assert code == EXIT_OK
        assert "PASS" in out

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            run_checks(only="nonsense")


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "cavityclock.cli", "stationary",
                               "--l", "1", "--mass", "1", "--rate"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_imports_load_no_scipy(self):
        proc = subprocess.run([sys.executable, "-c",
                               "import sys, cavityclock, cavityclock.cli; "
                               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
