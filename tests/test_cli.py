"""Command-line interface: exit codes, file formats, error surfaces.

Exit code contract: 0 no change detected, 2 change detected, 1 any
error.  The fixtures are generated through the ``simulate`` command so
these tests exercise the full file round trip.
"""

from __future__ import annotations

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
from qlscan.models import SeriesParseError, ShapeError


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

    def test_config_order_on_volatility_model_fails(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = arch\norder = 3\nn = 300\ntheta0 = 1.0, 0.3\nreps = 2\n")
        code, _, err = run_cli(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert "order" in err

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

    @staticmethod
    def _python(code, *args):
        env = dict(os.environ)
        src = str(Path(qlscan.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-c", code, *args], env=env,
            capture_output=True, text=True, timeout=120,
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

        proc = self._python(self.NO_SCIPY_MAIN, "test", str(path), "--model", model)
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
        proc = self._python(self.NO_SCIPY_MAIN, "simulate", *args, "--out", str(path))
        assert proc.returncode == 0, proc.stderr
        plan = SimPlan(spec=make_spec("ar", 3), n=400, theta0=(0.3, 0.2, 0.1),
                       theta1=(0.1, 0.1, 0.1), break_index=200, seed=4)
        got = np.array([float(v) for v in path.read_text().split()])
        np.testing.assert_array_equal(got, generate(plan).data)
        proc = self._python(self.NO_SCIPY_MAIN, "experiment", "--model", "ar",
                            "--n", "300", "--theta", "0.5", "--reps", "2", "--seed", "5")
        assert proc.returncode == 0, proc.stderr
        assert "replications  2" in proc.stdout

    def test_cli_import_loads_no_scipy(self):
        proc = self._python(
            "import sys, qlscan.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
