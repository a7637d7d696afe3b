"""Command-line interface: exit codes, file formats, error surfaces.

Exit code contract: 0 no change detected, 2 change detected, 1 any
error.  The fixtures are generated through the ``simulate`` command so
these tests exercise the full file round trip.
"""

from __future__ import annotations

import atexit
import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qlscan
from qlscan import CriticalTable, ModelFamily, SimPlan, calibrate, generate, scan
from qlscan.cli import main, make_spec, read_series
from qlscan.experiments import ExperimentConfig
from qlscan.models import DomainError, SeriesParseError, ShapeError


def fresh_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports qlscan from this tree."""
    return fresh_interpreter("-c", code, *args)


def fresh_interpreter(*argv):
    """Run ``python *argv`` in a fresh interpreter that imports qlscan from
    this tree."""
    env = dict(os.environ)
    src = str(Path(qlscan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120,
    )


def run_cli(args, capsys):
    """Invoke the entry point; return (exit_code, stdout, stderr)."""
    with pytest.raises(SystemExit) as exc_info:
        main(list(args))
    out, err = capsys.readouterr()
    return exc_info.value.code, out, err


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """Series files written once through the simulate command."""
    root = tmp_path_factory.mktemp("series")
    rc = main_silent([
        "simulate", "--model", "ar", "--n", "600", "--theta", "0.3",
        "--seed", "7", "--out", str(root / "null.txt"),
    ])
    assert rc == 0
    rc = main_silent([
        "simulate", "--model", "ar", "--n", "1000", "--theta", "0.3",
        "--theta2", "0.5", "--break", "400", "--seed", "11",
        "--out", str(root / "break.txt"),
    ])
    assert rc == 0
    return root


def main_silent(args):
    try:
        main(args)
    except SystemExit as exc:
        return exc.code
    raise AssertionError("main must raise SystemExit")


class TestHelp:
    def test_help_exits_zero_in_process(self, capsys):
        assert main_silent(["--help"]) == 0
        assert "Usage:" in capsys.readouterr().out


class TestTestCommand:
    def test_no_change_exits_zero(self, fixture_dir, capsys):
        code, out, _ = run_cli(
            ["test", str(fixture_dir / "null.txt"), "--model", "ar"], capsys
        )
        assert code == 0
        assert "decision  fail_to_reject" in out
        assert "n         600" in out
        assert "d         1" in out

    def test_interrupt_exits_one(self, fixture_dir, capsys, monkeypatch):
        # click turns Ctrl-C inside a command into Abort.
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("qlscan.cli.scan", interrupted)
        code, out, err = run_cli(
            ["test", str(fixture_dir / "null.txt"), "--model", "ar"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.strip() == "aborted"

    def test_break_exits_two(self, fixture_dir, capsys):
        code, out, _ = run_cli(
            ["test", str(fixture_dir / "break.txt"), "--model", "ar"], capsys
        )
        assert code == 2
        assert "decision  reject" in out
        # Frozen spot value for this fixture (6 significant digits).
        assert "Q         4.44358" in out
        assert "argmax_k  352" in out

    def test_constant_series_exits_zero(self, tmp_path, capsys):
        # A constant series has no change to find.  Its AR(1) fit sits on
        # the coefficient bound, where the full-sample mean score is not
        # zero; the one-step deltas are centred by it.
        path = tmp_path / "ones.txt"
        np.savetxt(path, np.ones(300))
        code, out, _ = run_cli(["test", str(path), "--model", "ar"], capsys)
        assert code == 0
        assert "decision  fail_to_reject" in out

    def test_all_zero_series_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "zeros.txt"
        np.savetxt(path, np.zeros(300))
        code, _, err = run_cli(["test", str(path), "--model", "ar"], capsys)
        assert code == 1
        assert "error:" in err

    def test_alpha_and_vn_flags(self, fixture_dir, capsys):
        code, out, _ = run_cli(
            ["test", str(fixture_dir / "null.txt"), "--model", "ar",
             "--alpha", "0.10", "--vn", "80"], capsys
        )
        assert code == 0
        assert "v_n       80" in out
        assert "alpha=0.1" in out

    def test_uncovered_alpha_fails_cleanly(self, fixture_dir, capsys):
        code, _, err = run_cli(
            ["test", str(fixture_dir / "null.txt"), "--model", "ar",
             "--alpha", "0.03"], capsys
        )
        assert code == 1
        assert "error:" in err and "alpha=0.03" in err

    @pytest.mark.parametrize("alpha", ["1.5", "0", "-0.05", "nan"])
    def test_alpha_outside_unit_interval_is_an_invalid_level(self, fixture_dir,
                                                             capsys, alpha):
        code, out, err = run_cli(
            ["test", str(fixture_dir / "null.txt"), "--model", "ar",
             "--alpha", alpha], capsys
        )
        assert code == 1 and "decision" not in out
        assert "alpha must lie in (0, 1]" in err and "calibration" not in err

    @pytest.mark.parametrize("model, theta, vn", [
        ("arch", (1.0, 0.3), 1),
        ("garch", (1.0, 0.4, 0.3), 1),
        ("garch", (1.0, 0.4, 0.3), 3),
    ])
    def test_window_floor_below_d_plus_1_fails(self, tmp_path, capsys, model,
                                               theta, vn):
        # ARCH scans exactly and GARCH one-step; neither may build a
        # statistic from sides too short to identify d parameters.
        spec = make_spec(model, 1)
        path = tmp_path / f"{model}.txt"
        data = generate(SimPlan(spec=spec, n=400, theta0=theta, seed=37)).data
        path.write_text("".join(f"{v:.17g}\n" for v in data))
        code, out, err = run_cli(
            ["test", str(path), "--model", model, "--vn", str(vn)], capsys
        )
        assert code == 1 and "decision" not in out
        assert f"v_n={vn} is below d + 1 = {spec.d + 1}" in err

    @pytest.mark.parametrize("model", ["ar", "arch", "garch"])
    def test_all_zero_series_exits_1(self, tmp_path, capsys, model):
        # ARCH's default exact scan once returned Q = 0 and exit 0 here.
        path = tmp_path / "zeros.txt"
        path.write_text("0\n" * 400)
        code, out, err = run_cli(["test", str(path), "--model", model], capsys)
        assert code == 1
        assert "numerically singular" in err and "decision" not in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["test", "/nonexistent.txt", "--model", "ar"], capsys)
        assert code == 1

    def test_order_on_volatility_model_fails(self, fixture_dir, capsys):
        code, _, err = run_cli(
            ["test", str(fixture_dir / "null.txt"), "--model", "arch",
             "--order", "2"], capsys
        )
        assert code == 1
        assert "order" in err


class TestSimulateCommand:
    def test_written_series_is_exact(self, tmp_path, capsys):
        out_file = tmp_path / "sim.txt"
        code, out, _ = run_cli(
            ["simulate", "--model", "garch", "--n", "50",
             "--theta", "1.0,0.4,0.3", "--seed", "5", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        assert "wrote 50 values" in out
        spec = make_spec("garch", 1)
        expected = generate(SimPlan(spec=spec, n=50, theta0=(1.0, 0.4, 0.3), seed=5))
        values = np.loadtxt(out_file)
        np.testing.assert_array_equal(values, expected.data)

    def test_break_flags_must_pair(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "--model", "ar", "--n", "50", "--theta", "0.3",
             "--theta2", "0.5", "--out", str(tmp_path / "x.txt")], capsys
        )
        assert code == 1
        assert "error:" in err

    def test_bad_theta_string(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "--model", "ar", "--n", "50", "--theta", "zero",
             "--out", str(tmp_path / "x.txt")], capsys
        )
        assert code == 1


class TestScanCurveCommand:
    def test_curve_file_matches_direct_scan(self, fixture_dir, tmp_path, capsys):
        out_file = tmp_path / "curve.txt"
        code, out, _ = run_cli(
            ["scan-curve", str(fixture_dir / "break.txt"), "--model", "ar",
             "--out", str(out_file)], capsys
        )
        assert code == 0  # scan-curve reports through the file, not the exit code
        assert "decision  reject" in out
        spec = make_spec("ar", 1)
        direct = scan(spec, read_series(fixture_dir / "break.txt"))
        rows = np.loadtxt(out_file, comments="#")
        assert f"wrote {direct.ks.size} rows" in out
        np.testing.assert_array_equal(rows[:, 0], direct.ks)
        assert_allclose(rows[:, 1], direct.q1, rtol=1e-15)
        assert_allclose(rows[:, 2], direct.q2, rtol=1e-15)


class TestCalibrateCommand:
    def test_small_calibration_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "table.txt"
        code, out, _ = run_cli(
            ["calibrate", "--d", "1", "--grid", "50", "--reps", "400",
             "--seed", "3", "--alpha", "0.05", "--out", str(out_file)], capsys
        )
        assert code == 0
        assert "C(d=1, alpha=0.05)" in out
        loaded = CriticalTable.load(out_file)
        direct = calibrate(ds=(1,), alphas=(0.05,), m=50, reps=400, seed=3)
        assert loaded.lookup(1, 0.05) == direct.lookup(1, 0.05)


class TestExperimentCommand:
    def test_flag_driven_run(self, tmp_path, capsys):
        csv = tmp_path / "reps.csv"
        code, out, _ = run_cli(
            ["experiment", "--model", "ar", "--n", "120", "--theta", "0.5",
             "--reps", "3", "--seed", "9000", "--out", str(csv)], capsys
        )
        assert code == 0
        assert "rejection" in out
        assert csv.read_text().count("\n") == 4  # header + 3 rows

    def test_config_driven_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = ar\nn = 120\ntheta0 = 0.5\nreps = 2\nbase_seed = 4\n")
        code, out, _ = run_cli(["experiment", "--config", str(cfg)], capsys)
        assert code == 0
        assert "replications  2 (0 flagged)" in out

    def test_config_takes_the_table_flag(self, tmp_path, capsys):
        table = calibrate(ds=(1,), alphas=(0.05,), m=50, reps=400, seed=3)
        path = tmp_path / "table.txt"
        table.save(path)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = ar\nn = 120\ntheta0 = 0.5\nreps = 2\nbase_seed = 4\n")
        code, out, _ = run_cli(
            ["experiment", "--config", str(cfg), "--table", str(path)], capsys
        )
        assert code == 0
        assert f"C_alpha       {table.lookup(1, 0.05):.6g}" in out

    @pytest.mark.parametrize("flags", [
        ["--reps", "7", "--alpha", "0.1", "--n", "999", "--model", "garch"],
        ["--break", "3", "--seed", "0", "--order", "1", "--vn", "5"],
        ["--theta", "0.2", "--theta2", "0.4"],
    ])
    def test_config_rejects_design_flags(self, tmp_path, capsys, flags):
        # The file sets the whole design, so a design flag beside it would
        # be ignored.  A flag typed with its default value counts too.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = ar\nn = 120\ntheta0 = 0.5\nreps = 2\nbase_seed = 4\n")
        code, out, err = run_cli(["experiment", "--config", str(cfg), *flags], capsys)
        assert code == 1
        assert "rejection" not in out
        dropped = err.split("drop ")[1].split()
        assert sorted(flag.rstrip(",") for flag in dropped) == sorted(flags[::2])

    def test_config_takes_the_out_flag(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = ar\nn = 120\ntheta0 = 0.5\nreps = 2\nbase_seed = 4\n")
        csv = tmp_path / "reps.csv"
        code, _, _ = run_cli(["experiment", "--config", str(cfg), "--out", str(csv)], capsys)
        assert code == 0
        assert csv.read_text().count("\n") == 3  # header + 2 rows

    def test_config_order_on_volatility_model_fails(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = arch\norder = 3\nn = 300\ntheta0 = 1.0, 0.3\nreps = 2\n")
        code, _, err = run_cli(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert "order" in err

    def test_repeated_config_key_fails(self, tmp_path, capsys):
        # The second n would silently replace the first.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = ar\nn = 120\ntheta0 = 0.5\nn = 300\nreps = 2\n")
        with pytest.raises(ValueError, match=r"exp\.cfg:4: repeated key 'n'"):
            ExperimentConfig.from_file(cfg)
        code, _, err = run_cli(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert "exp.cfg:4" in err

    # Values that convert but that the spec, SimPlan or config reject
    # were once reported without the file.
    @pytest.mark.parametrize("lines, error, prefix", [
        ("model = arch\nn = 300\ntheta0 = 1.0, 0.99\nreps = 2\n", DomainError,
         "exp.cfg: theta0"),
        ("model = arch\nn = 300\ntheta0 = 1.0, 0.3\ntheta1 = 1.0, 0.5\nreps = 2\n",
         ValueError, "exp.cfg: theta1 and break_index"),
        ("n = 300\nmodel = foo\ntheta0 = 1.0, 0.3\nreps = 2\n", ValueError,
         "exp.cfg:2: model: unknown model 'foo'"),
    ], ids=["theta0", "theta1", "model"])
    def test_rejected_values_name_the_file(self, tmp_path, capsys, lines, error, prefix):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(lines)
        with pytest.raises(error) as exc_info:
            ExperimentConfig.from_file(cfg)
        assert type(exc_info.value) is error
        assert str(exc_info.value).startswith(f"{tmp_path / prefix}")
        code, _, err = run_cli(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert f"error: {tmp_path / prefix}" in err

    def test_missing_flags_name_the_gaps(self, capsys):
        code, _, err = run_cli(["experiment", "--model", "ar"], capsys)
        assert code == 1
        assert "--n" in err and "--theta" in err and "--reps" in err


class TestTableOption:
    def test_env_var_supplies_the_table(self, fixture_dir, tmp_path, capsys, monkeypatch):
        table = calibrate(ds=(1,), alphas=(0.05,), m=50, reps=400, seed=3)
        path = tmp_path / "table.txt"
        table.save(path)
        monkeypatch.setenv("QLSCAN_TABLE", str(path))
        code, out, _ = run_cli(           # d=1 is covered: the run works
            ["test", str(fixture_dir / "null.txt"), "--model", "ar"], capsys
        )
        assert code in (0, 2)
        assert f"{table.lookup(1, 0.05):.6g}" in out
        # ... and a model with d=3 is not covered by this table: error.
        code, _, err = run_cli(
            ["test", str(fixture_dir / "null.txt"), "--model", "garch"], capsys
        )
        assert code == 1
        assert "d=3" in err


    def test_repeated_table_row_fails(self, fixture_dir, tmp_path, capsys):
        # Both rows key to (1, 0.05) once alpha is rounded to 10 decimals;
        # the later would silently replace the earlier.
        path = tmp_path / "table.txt"
        path.write_text("1 0.05 2.1 50 400 3\n1 0.05000000000001 9.9 50 400 3\n")
        with pytest.raises(ValueError, match=r"table\.txt: line 2: repeats"):
            CriticalTable.load(path)
        code, _, err = run_cli(["test", str(fixture_dir / "null.txt"), "--model", "ar",
                                "--table", str(path)], capsys)
        assert code == 1
        assert "table.txt: line 2" in err

    def test_invalid_table_row_fails(self, fixture_dir, tmp_path, capsys):
        # A negative C once rejected on every series, a NaN C on none.
        path = tmp_path / "table.txt"
        for c in ("-1", "nan"):
            path.write_text(f"1 0.05 {c} 1000 100 0\n")
            code, out, err = run_cli(["test", str(fixture_dir / "null.txt"), "--model",
                                      "ar", "--table", str(path)], capsys)
            assert code == 1
            assert out == ""
            assert "table.txt: line 1: C must be finite and > 0" in err


class TestReadSeries:
    def test_header_is_skipped(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("value\n1.5\n2.5\n")
        np.testing.assert_array_equal(read_series(f).data, [1.5, 2.5])

    def test_blank_lines_and_trailing_commas(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1.0,\n\n2.0\n\n3.0,\n")
        np.testing.assert_array_equal(read_series(f).data, [1.0, 2.0, 3.0])

    def test_numeric_first_line_is_data(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("42\n43\n")
        assert read_series(f).n == 2

    def test_mid_file_garbage_names_the_line(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1.0\n2.0\noops\n")
        with pytest.raises(SeriesParseError, match=r"s\.txt:3"):
            read_series(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("header only\n")
        with pytest.raises(SeriesParseError, match="no numeric data"):
            read_series(f)

    def test_byte_order_mark_keeps_the_first_value(self, tmp_path, capsys):
        # A UTF-8 byte-order mark once made the first value read as a
        # header, so the series silently lost its first observation.
        values = np.random.default_rng(5).standard_normal(50)
        f = tmp_path / "bom.txt"
        f.write_text("\n".join(f"{v:.17g}" for v in values) + "\n", encoding="utf-8-sig")
        assert f.read_bytes().startswith(b"\xef\xbb\xbf")
        # Bit equality, portable: parsing the printed digits.
        np.testing.assert_array_equal(read_series(f).data, values)
        code, out, _ = run_cli(["test", str(f), "--model", "ar"], capsys)
        assert code in (0, 2)
        assert "n         50" in out


class TestMakeSpec:
    def test_families(self):
        assert make_spec("ar", 3).d == 3
        assert make_spec("arch", 1).family is ModelFamily.ARCH
        assert make_spec("garch", 1).family is ModelFamily.GARCH

    def test_order_guard(self):
        with pytest.raises(ShapeError):
            make_spec("garch", 2)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model .arma."):
            make_spec("arma", 1)


class TestScipyFreeStartup:
    """Every command runs on numpy and click alone.

    scipy's import costs more than the whole of a typical ``qlscan test``
    call, and it is only a test dependency: AR simulation repeats
    lfilter's operations in a loop of its own.
    """

    # Blocks scipy before anything else is imported, then runs the CLI.
    NO_SCIPY_MAIN = (
        "import sys; sys.modules['scipy'] = None; "
        "from qlscan.cli import main; main(sys.argv[1:])"
    )

    @pytest.mark.parametrize("model, theta, n", [
        ("ar", (0.5,), 600),
        ("arch", (1.0, 0.3), 300),
        ("garch", (1.0, 0.4, 0.3), 800),
    ])
    def test_test_command_without_scipy(self, tmp_path, model, theta, n):
        spec = make_spec(model, 1)
        path = tmp_path / f"{model}.txt"
        data = generate(SimPlan(spec=spec, n=n, theta0=theta, seed=23)).data
        path.write_text("".join(f"{v:.17g}\n" for v in data))
        res = scan(spec, read_series(str(path)))

        proc = fresh_python(self.NO_SCIPY_MAIN, "test", str(path), "--model", model)
        assert proc.returncode == (2 if res.reject else 0), proc.stderr
        assert f"Q         {res.q_max:.6g}\n" in proc.stdout
        assert f"argmax_k  {res.argmax_k}\n" in proc.stdout
        decision = "reject" if res.reject else "fail_to_reject"
        assert f"decision  {decision}\n" in proc.stdout

    def test_ar_simulation_without_scipy(self, tmp_path):
        path = tmp_path / "ar.txt"
        args = ["--model", "ar", "--order", "3", "--n", "400",
                "--theta", "0.3,0.2,0.1", "--theta2", "0.1,0.1,0.1",
                "--break", "200", "--seed", "4"]
        proc = fresh_python(self.NO_SCIPY_MAIN, "simulate", *args, "--out", str(path))
        assert proc.returncode == 0, proc.stderr
        plan = SimPlan(spec=make_spec("ar", 3), n=400, theta0=(0.3, 0.2, 0.1),
                       theta1=(0.1, 0.1, 0.1), break_index=200, seed=4)
        got = np.array([float(v) for v in path.read_text().split()])
        np.testing.assert_array_equal(got, generate(plan).data)
        proc = fresh_python(self.NO_SCIPY_MAIN, "experiment", "--model", "ar",
                            "--n", "300", "--theta", "0.5", "--reps", "2", "--seed", "5")
        assert proc.returncode == 0, proc.stderr
        assert "replications  2" in proc.stdout

    def test_cli_import_loads_no_scipy(self):
        proc = fresh_python(
            "import sys, qlscan.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestStartupModules:
    """``qlscan test`` and ``scan-curve`` load only what the scan runs.

    ``numpy.ma`` (which numpy 2 imports lazily, e.g. from ``np.unique``),
    the Monte Carlo harness and the simulator cost start-up time that a
    scan never uses.  Under numpy 1.x ``import numpy`` itself loads
    ``numpy.ma``, so only modules beyond what ``import numpy, click``
    loads count.
    """

    WATCHED = ("numpy.ma", "qlscan.experiments", "qlscan.simulate")
    # Runs the CLI after a baseline import and prints, last, the watched
    # modules it loaded.
    MAIN = (
        "import sys\n"
        "import numpy, click\n"
        "before = set(sys.modules)\n"
        "from qlscan.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "watched = %r\n"
        "loaded = sorted(m for m in set(sys.modules) - before\n"
        "                if any(m == w or m.startswith(w + '.') for w in watched))\n"
        "print(code, loaded)\n"
    ) % (WATCHED,)

    @pytest.mark.parametrize("command", ["test", "scan-curve"])
    @pytest.mark.parametrize("model, theta", [
        ("ar", (0.5,)),
        ("arch", (1.0, 0.3)),
        ("garch", (1.0, 0.4, 0.3)),
    ])
    def test_scan_commands_load_only_the_scan(self, tmp_path, command, model, theta):
        path = tmp_path / f"{model}.txt"
        data = generate(SimPlan(spec=make_spec(model, 1), n=400, theta0=theta, seed=31)).data
        path.write_text("".join(f"{v:.17g}\n" for v in data))
        args = [command, str(path), "--model", model]
        if command == "scan-curve":
            args += ["--out", str(tmp_path / "curve.txt")]
        proc = fresh_python(self.MAIN, *args)
        assert proc.returncode == 0, proc.stderr
        code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
        assert code in ("0", "2"), proc.stdout + proc.stderr
        assert loaded == "[]"

    def test_lazy_names_resolve(self):
        code = (
            "import sys\n"
            "import qlscan\n"
            "lazy = ('qlscan.experiments', 'qlscan.simulate')\n"
            "assert not any(m in sys.modules for m in lazy)\n"
            "assert set(qlscan.__all__) <= set(dir(qlscan))\n"
            "assert {'experiments', 'simulate'} <= set(dir(qlscan))\n"
            "assert qlscan.generate is qlscan.simulate.generate\n"
            "assert qlscan.SimPlan is qlscan.simulate.SimPlan\n"
            "assert qlscan.run_experiment is qlscan.experiments.run_experiment\n"
            "assert qlscan.experiments is sys.modules['qlscan.experiments']\n"
            "namespace = {}\n"
            "exec('from qlscan import *', namespace)\n"
            "assert all(namespace[name] is getattr(qlscan, name) for name in qlscan.__all__)\n"
            "try:\n"
            "    qlscan.no_such_name\n"
            "except AttributeError:\n"
            "    print('ok')\n"
        )
        proc = fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"

    def test_dir_lists_lazy_names_without_loading_them(self, monkeypatch):
        # Drop what earlier tests resolved, so dir() must list the lazy
        # names from _LAZY alone; resolving one would put it back.
        for name in qlscan._LAZY:
            monkeypatch.delitem(vars(qlscan), name, raising=False)
        names = dir(qlscan)
        assert set(qlscan._LAZY) <= set(names)
        assert set(qlscan.__all__) <= set(names)
        assert names == sorted(names)
        assert not set(qlscan._LAZY) & set(vars(qlscan))

    def test_python_m_runs_the_cli(self, tmp_path):
        path = tmp_path / "ar.txt"
        write_series(path, "ar", (0.5,))
        proc = fresh_interpreter("-X", "importtime", "-m", "qlscan", "test", str(path),
                                 "--model", "ar")
        assert proc.returncode in (0, 2), proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 9 and lines[-1].startswith("decision"), proc.stdout
        # -X importtime writes one "import time: ... | <module>" line per import.
        imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "qlscan.scan_stat" in imported
        assert not imported & {"qlscan.experiments", "qlscan.simulate"}

    @pytest.mark.parametrize("module", ["qlscan", "qlscan.cli"])
    def test_python_m_reports_errors(self, tmp_path, module):
        # Both once exited 0: qlscan.cli defined main without calling it,
        # and the package had no __main__.
        proc = fresh_interpreter("-m", module, "test", str(tmp_path / "missing.txt"),
                                 "--model", "ar")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "error" in proc.stderr.lower()

    def test_experiment_error_is_one_class(self):
        from qlscan import experiments, models

        assert qlscan.ExperimentError is models.ExperimentError
        assert experiments.ExperimentError is models.ExperimentError
        assert "ExperimentError" in experiments.__all__

    def test_simulate_and_experiment_run_through_main(self, tmp_path):
        # A fresh interpreter in which the commands import their modules.
        out = tmp_path / "sim.txt"
        code = (
            "import sys\n"
            "from qlscan.cli import main\n"
            "for args in (['simulate', '--model', 'arch', '--n', '200', '--theta', '1,0.3',\n"
            "              '--seed', '2', '--out', sys.argv[1]],\n"
            "             ['experiment', '--model', 'ar', '--n', '200', '--theta', '0.5',\n"
            "              '--reps', '2', '--seed', '3']):\n"
            "    try:\n"
            "        main(args)\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, exc.code\n"
        )
        proc = fresh_python(code, str(out))
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().split()) == 200
        assert "replications  2" in proc.stdout


def write_series(path, model, theta, n=400, seed=31):
    data = generate(SimPlan(spec=make_spec(model, 1), n=n, theta0=theta, seed=seed)).data
    path.write_text("".join(f"{v:.17g}\n" for v in data))
    return path


class TestProgramExit:
    """Run as the program, ``main`` freezes the GC at exit, and only then.

    The interpreter's shutdown collections would otherwise walk every
    object numpy, click and the scan left tracked, just before the
    process ends.  An in-process ``main([...])`` leaves the collector
    alone, and so does importing the package.
    """

    PROGRAM = "from qlscan.cli import main; main()"
    # Registered before qlscan's hook, so it runs after it (atexit is
    # LIFO) and reports the freeze count on stderr.
    PROGRAM_WITH_PROBE = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: sys.stderr.write("
        "f'freeze_count {gc.get_freeze_count()}\\n'))\n"
        "assert gc.get_freeze_count() == 0\n"
        + PROGRAM + "\n"
    )

    @pytest.mark.parametrize("model, theta", [
        ("ar", (0.5,)),
        ("arch", (1.0, 0.3)),
        ("garch", (1.0, 0.4, 0.3)),
    ])
    def test_program_freezes_after_the_command(self, tmp_path, capsys, model, theta):
        path = write_series(tmp_path / f"{model}.txt", model, theta)
        args = ["test", str(path), "--model", model]
        proc = fresh_python(self.PROGRAM_WITH_PROBE, *args)
        count = int(proc.stderr.rsplit("freeze_count ", 1)[1])
        assert count > 0, proc.stderr
        code, out, _ = run_cli(args, capsys)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert code in (0, 2)

    def test_in_process_call_registers_nothing(self, fixture_dir, capsys, monkeypatch):
        registered = []
        monkeypatch.setattr(atexit, "register", lambda fn, *a, **kw: registered.append(fn))
        frozen = gc.get_freeze_count()
        args = ["test", str(fixture_dir / "null.txt"), "--model", "ar"]
        assert run_cli(args, capsys)[0] == 0
        assert registered == [] and gc.get_freeze_count() == frozen
        # Without argv, main runs as the program and registers the hook.
        monkeypatch.setattr(sys, "argv", ["qlscan", *args])
        assert main_silent(None) == 0
        assert registered == [gc.freeze] and gc.get_freeze_count() == frozen

    def test_import_leaves_the_collector_alone(self):
        code = (
            "import gc\n"
            "def state():\n"
            "    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()\n"
            "before = state()\n"
            "import qlscan\n"
            "after_package = state()\n"
            "import qlscan.cli\n"
            "print(before == after_package == state(), before)\n"
        )
        proc = fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("True (True, ")

    @pytest.mark.parametrize("args", [
        ["scan-curve", "{series}", "--model", "ar"],
        ["simulate", "--model", "garch", "--n", "300", "--theta", "1.0,0.4,0.3",
         "--seed", "5"],
        ["calibrate", "--d", "1", "--reps", "200"],
        ["experiment", "--model", "ar", "--n", "120", "--theta", "0.5",
         "--reps", "3", "--seed", "9"],
    ], ids=["scan-curve", "simulate", "calibrate", "experiment"])
    def test_program_output_files_are_complete(self, tmp_path, capsys, args):
        # Frozen objects are never finalized by the shutdown collection,
        # so every writer must close its file before the command returns.
        series = write_series(tmp_path / "ar.txt", "ar", (0.5,), n=300)
        args = [a.format(series=series) for a in args]
        in_process, program = tmp_path / "in_process.out", tmp_path / "program.out"
        assert run_cli([*args, "--out", str(in_process)], capsys)[0] == 0
        gc.collect()  # finalizes what the in-process run left, closing its file
        proc = fresh_python(self.PROGRAM, *args, "--out", str(program))
        assert proc.returncode == 0, proc.stderr
        expected = in_process.read_bytes()
        assert expected and program.read_bytes() == expected
