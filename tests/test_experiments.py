"""Monte Carlo experiment harness: config files, seeding, reports."""

from __future__ import annotations

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlscan import (
    ExperimentConfig,
    ExperimentError,
    ModelFamily,
    ScanError,
    ScanWindow,
    SeriesSegment,
    ShapeError,
    SimPlan,
    SizingError,
    generate,
    run_experiment,
    scan,
)
from qlscan import experiments as experiments_module
from conftest import THETA0


def small_config(ar1_spec, reps=4, base_seed=9000, **plan_kw):
    plan = SimPlan(spec=ar1_spec, n=120, theta0=(0.5,), **plan_kw)
    return ExperimentConfig(plan=plan, replications=reps, base_seed=base_seed)


class TestRunExperiment:
    def test_per_rep_seeding_matches_direct_scans(self, ar1_spec):
        cfg = small_config(ar1_spec)
        report = run_experiment(cfg)
        assert report.n_flagged == 0
        assert len(report.records) == 4
        for rec in report.records:
            assert rec.seed == (9000, rec.rep)
            plan = SimPlan(spec=ar1_spec, n=120, theta0=(0.5,), seed=rec.seed)
            direct = scan(ar1_spec, generate(plan))
            assert_allclose(rec.q, direct.q_max, rtol=1e-12)
            assert rec.reject == direct.reject
            assert rec.argmax_k == direct.argmax_k

    def test_rate_aggregates_records(self, ar1_spec):
        cfg = small_config(ar1_spec, reps=6)
        report = run_experiment(cfg)
        rate = sum(1 for r in report.records if r.reject) / 6
        assert_allclose(report.rejection_rate, rate)
        assert report.wall_time > 0
        assert report.c_alpha == pytest.approx(2.1360488248606595)

    def test_template_seed_is_ignored(self, ar1_spec):
        plan = SimPlan(spec=ar1_spec, n=120, theta0=(0.5,), seed=12345)
        a = run_experiment(ExperimentConfig(plan=plan, replications=2, base_seed=1))
        plan_b = SimPlan(spec=ar1_spec, n=120, theta0=(0.5,), seed=0)
        b = run_experiment(ExperimentConfig(plan=plan_b, replications=2, base_seed=1))
        for ra, rb in zip(a.records, b.records):
            assert ra.q == rb.q

    def test_flagged_reps_leave_the_denominator(self, ar1_spec, monkeypatch, tmp_path):
        real_scan = experiments_module.scan
        design = {"theta1": (0.8,), "break_index": 60}

        def flaky(spec, series, window=None, alpha=0.05, table=None, **kw):
            # Fail exactly the replication generated from (base, 1).
            if abs(float(series.data[0]) - flaky.marker) < 1e-12:
                raise ScanError("synthetic failure, at k=3\nand k=4")
            return real_scan(spec, series, window=window, alpha=alpha,
                             table=table, **kw)

        plan1 = SimPlan(spec=ar1_spec, n=120, theta0=(0.5,), seed=(9000, 1), **design)
        flaky.marker = float(generate(plan1).data[0])
        monkeypatch.setattr(experiments_module, "scan", flaky)

        # 1 failure out of 21 stays under the 5% abort threshold.
        report = run_experiment(small_config(ar1_spec, reps=21, **design))
        assert report.n_flagged == 1
        bad = report.records[1]
        assert bad.error is not None and bad.q is None and bad.reject is None
        kept = [r for r in report.records if r.error is None]
        assert_allclose(
            report.rejection_rate,
            sum(1 for r in kept if r.reject) / len(kept),
        )
        text = report.table()
        assert "theta1        0.8 (break after k=60)" in text
        assert "replications  21 (1 flagged)" in text
        # The error keeps to one CSV row: commas become ';', newlines spaces.
        path = tmp_path / "reps.csv"
        report.save_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 22
        assert lines[2] == "1,9000,1,,error,,synthetic failure; at k=3 and k=4"

        # 1 failure out of 4 is above 5%: the experiment aborts.
        with pytest.raises(ExperimentError):
            run_experiment(small_config(ar1_spec, reps=4, **design))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_breakdown_is_flagged(self, ar1_spec, monkeypatch):
        real_generate = experiments_module.generate

        def overflowing(plan):
            series = real_generate(plan)
            if plan.seed == (9000, 1):
                return SeriesSegment.full(series.data * 1e150)
            return series

        monkeypatch.setattr(experiments_module, "generate", overflowing)
        report = run_experiment(small_config(ar1_spec, reps=21))
        assert report.n_flagged == 1
        bad = report.records[1]
        assert bad.q is None and "numerical breakdown" in bad.error

    def test_custom_window_and_alpha(self, ar1_spec):
        plan = SimPlan(spec=ar1_spec, n=120, theta0=(0.5,))
        cfg = ExperimentConfig(
            plan=plan, replications=2, alpha=0.10, v_n=30, base_seed=5
        )
        report = run_experiment(cfg)
        direct = scan(
            ar1_spec,
            generate(SimPlan(spec=ar1_spec, n=120, theta0=(0.5,), seed=(5, 0))),
            window=ScanWindow(n=120, v_n=30),
            alpha=0.10,
        )
        assert_allclose(report.records[0].q, direct.q_max, rtol=1e-12)

    def test_window_floor_below_d_plus_1_raises(self, ar1_spec):
        plan = SimPlan(spec=ar1_spec, n=120, theta0=(0.5,))
        cfg = ExperimentConfig(plan=plan, replications=2, v_n=1, base_seed=5)
        with pytest.raises(SizingError, match="v_n=1"):
            run_experiment(cfg)

    def test_config_validation(self, ar1_spec):
        plan = SimPlan(spec=ar1_spec, n=120, theta0=(0.5,))
        with pytest.raises(ValueError):
            ExperimentConfig(plan=plan, replications=0)
        # The interval every alpha check uses: (0, 1], as for ``scan``.
        assert ExperimentConfig(plan=plan, replications=5, alpha=1.0).alpha == 1.0
        for alpha in (0.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                ExperimentConfig(plan=plan, replications=5, alpha=alpha)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg_text = """
        # AR break experiment
        model = ar
        order = 1
        n = 500
        theta0 = 0.3
        theta1 = 0.5
        break = 200
        reps = 7
        alpha = 0.10
        vn = 40
        base_seed = 77
        burn_in = 100
        """
        path = tmp_path / "exp.cfg"
        path.write_text("\n".join(ln.strip() for ln in cfg_text.splitlines()))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.plan.spec.family is ModelFamily.AR
        assert cfg.plan.n == 500
        assert cfg.plan.theta0 == (0.3,)
        assert cfg.plan.theta1 == (0.5,)
        assert cfg.plan.break_index == 200
        assert cfg.plan.burn_in == 100
        assert (cfg.replications, cfg.alpha, cfg.v_n, cfg.base_seed) == (7, 0.10, 40, 77)

    def test_vector_theta_and_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("model = garch\nn = 300\ntheta0 = 1.0, 0.4, 0.3\nreps = 2\n")
        cfg = ExperimentConfig.from_file(path)
        assert cfg.plan.spec.family is ModelFamily.GARCH
        assert cfg.plan.theta0 == (1.0, 0.4, 0.3)
        assert cfg.alpha == 0.05 and cfg.v_n is None and cfg.base_seed == 0

    def test_order_on_volatility_model_raises(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("model = arch\norder = 3\nn = 300\ntheta0 = 1.0, 0.3\nreps = 2\n")
        with pytest.raises(ShapeError, match="order"):
            ExperimentConfig.from_file(path)

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("model = ar\nn = 100\nthetaO = 0.5\nreps = 2\n")
        with pytest.raises(ValueError, match=r"exp\.cfg:3.*thetao"):
            ExperimentConfig.from_file(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("model = ar\nn = 100\ntheta0 = 0.5\n")
        with pytest.raises(ValueError, match="reps"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("line, lineno, key, error", [
        ("n = 1e3", 2, "n", "invalid literal for int()"),
        ("theta0 = 1.0,x", 3, "theta0", "could not convert string to float: 'x'"),
        ("alpha = five", 5, "alpha", "could not convert string to float"),
    ])
    def test_conversion_error_names_the_line_and_key(self, tmp_path, line, lineno, key,
                                                      error):
        lines = ["model = arch", "n = 300", "theta0 = 1.0, 0.3", "reps = 2", "alpha = 0.05"]
        lines[lineno - 1] = line
        path = tmp_path / "exp.cfg"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"exp\.cfg:{lineno}: {key}: .*"
                                             + re.escape(error)):
            ExperimentConfig.from_file(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # A UTF-8 byte-order mark once made the first key unknown.
        text = "model = garch\nn = 300\ntheta0 = 1.0, 0.4, 0.3\nreps = 2\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text)
        bom.write_text(text, encoding="utf-8-sig")
        assert ExperimentConfig.from_file(bom) == ExperimentConfig.from_file(plain)

    def test_not_key_value(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("model ar\n")
        with pytest.raises(ValueError, match=r"exp\.cfg:1"):
            ExperimentConfig.from_file(path)


class TestReportOutputs:
    def test_table_lists_the_essentials(self, ar1_spec, garch_spec):
        report = run_experiment(small_config(ar1_spec, reps=3))
        text = report.table()
        assert "AR(1)" in text
        assert "rejection" in text
        assert "replications  3 (0 flagged)" in text
        plan = SimPlan(spec=garch_spec, n=120, theta0=THETA0["garch"])
        report = run_experiment(ExperimentConfig(plan=plan, replications=1))
        assert report.table().splitlines()[0] == "model         GARCH(1,1)"

    def test_csv_round_trip(self, ar1_spec, tmp_path):
        report = run_experiment(small_config(ar1_spec, reps=3))
        path = tmp_path / "reps.csv"
        report.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "rep,seed0,seed1,q,decision,argmax_k,error"
        assert len(lines) == 4
        for rec, line in zip(report.records, lines[1:]):
            rep, s0, s1, q, decision, argmax, err = line.split(",")
            assert int(rep) == rec.rep
            assert (int(s0), int(s1)) == rec.seed
            assert float(q) == rec.q  # 17 significant digits survive
            assert int(argmax) == rec.argmax_k
            assert decision == ("reject" if rec.reject else "fail_to_reject")
            assert err == ""
