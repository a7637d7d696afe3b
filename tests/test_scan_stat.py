"""Scan statistics: replica algebra, path equivalences, invariances.

Key oracles:

* a from-scratch replica of the one-step scan built only on public
  likelihood/estimation calls (plain loops, no shared code paths);
* a hand assembly of the exact-mode statistic at a single k from
  public ``estimate`` and ``sigma_hat`` calls;
* brute-force cold-started window estimates (warm == cold);
* frozen seed-locked values and Monte Carlo rates recorded in the
  repository notes before the thresholds were set.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlscan import (
    CalibrationRequiredError,
    CriticalTable,
    DomainError,
    EstimateResult,
    ModelFamily,
    ModelSpec,
    OptimOptions,
    ScanError,
    ScanWindow,
    SeriesSegment,
    ShapeError,
    decide,
    default_window,
    estimate,
    loglik,
    scan,
    sigma_hat,
)
from qlscan import qmle as qmle_module
from qlscan import scan_stat as scan_stat_module
from qlscan.qmle import estimate_windows
from qlscan.scan_stat import _ar_window_least_squares, _exact_window_estimates
from conftest import THETA0, make_series

AR_SPECS = {
    "ar2": ModelSpec(family=ModelFamily.AR, p=2),
    "ar3": ModelSpec(family=ModelFamily.AR, p=3),
}


def one_step_scan_replica(spec, series, window):
    """Independent reimplementation of the one-step scan.

    Full-sample fit through the public optimizer, then plain Python
    loops over k: averaged per-observation gradients and hessians per
    side, Fisher-scoring deltas against the pooled curvature, weight
    matrix (k/n) F_L G_L^-1 F_L + ((n-k)/n) F_R G_R^-1 F_R, quadratic
    forms scaled by k^2/n and (n-k)^2/n.
    """
    n = series.n
    theta_full = estimate(spec, series).theta_hat
    ev = loglik(
        spec, theta_full, series, order=2,
        keep_per_t_grads=True, keep_per_t_hessians=True,
    )
    grads, hesses = ev.per_t_grads, ev.per_t_hessians
    f_full = hesses.sum(axis=0) / n
    f_full = (f_full + f_full.T) / 2.0
    q1, q2 = [], []
    for k in window.indices:
        gl = grads[:k].mean(axis=0)
        gr = grads[k:].mean(axis=0)
        dl = -np.linalg.solve(f_full, gl)
        dr = -np.linalg.solve(f_full, gr)
        sigma = np.zeros((spec.d, spec.d))
        for sl, weight in ((slice(0, k), k / n), (slice(k, n), (n - k) / n)):
            side_grads = grads[sl]
            card = side_grads.shape[0]
            g = side_grads.T @ side_grads / card
            f = hesses[sl].sum(axis=0) / card
            f = (f + f.T) / 2.0
            if np.linalg.cond(g) <= 1e12:
                sigma += weight * (f @ np.linalg.solve(g, f))
        q1.append((k**2 / n) * dl @ sigma @ dl)
        q2.append(((n - k) ** 2 / n) * dr @ sigma @ dr)
    return np.asarray(q1), np.asarray(q2)


class TestOneStepReplica:
    @pytest.mark.parametrize(
        "name, n", [("ar", 300), ("garch", 500)]
    )
    def test_scan_matches_replica(self, all_specs, name, n):
        spec = all_specs[name]
        series = make_series(spec, n, THETA0[name], seed=(400, n))
        window = ScanWindow(n=n, v_n=max(spec.d + 5, n // 10))
        res = scan(spec, series, window=window, window_estimator="one_step")
        q1, q2 = one_step_scan_replica(spec, series, window)
        assert_allclose(res.q1, q1, rtol=1e-8, atol=1e-12)
        assert_allclose(res.q2, q2, rtol=1e-8, atol=1e-12)
        assert_allclose(res.q_max, max(q1.max(), q2.max()), rtol=1e-8)


class TestExactModeAlgebra:
    # AR(3) windows take the closed form, checked here against the
    # optimizer's window fits.
    @pytest.mark.parametrize("name, theta0", [
        ("arch", THETA0["arch"]), ("ar3", (0.3, 0.2, 0.1)),
    ], ids=["arch", "ar3"])
    def test_single_k_hand_assembly(self, all_specs, name, theta0):
        # Assemble q1[k], q2[k] at one split from public pieces only.
        spec = {**all_specs, **AR_SPECS}[name]
        series = make_series(spec, 300, theta0, seed=(401, 0))
        window = ScanWindow(n=300, v_n=60)
        res = scan(spec, series, window=window, window_estimator="exact")
        k = 150
        i = int(np.flatnonzero(window.indices == k)[0])
        full = estimate(spec, series)
        left = estimate(spec, SeriesSegment.prefix(series.data, k),
                        init=full.theta_hat)
        right = estimate(spec, SeriesSegment.suffix(series.data, k),
                         init=full.theta_hat)
        sigma = sigma_hat(spec, series, k, left, right,
                          theta_eval=full.theta_hat)
        dl = left.theta_hat - full.theta_hat
        dr = right.theta_hat - full.theta_hat
        n = series.n
        assert_allclose(res.q1[i], (k**2 / n) * dl @ sigma @ dl, rtol=1e-6)
        assert_allclose(res.q2[i], ((n - k) ** 2 / n) * dr @ sigma @ dr, rtol=1e-6)

    def test_warm_equals_cold_brute_force(self, arch_spec):
        # The scan warm-starts each window at the full-sample fit; a
        # brute-force pass with cold multi-starts must land on the same
        # estimates and hence the same statistic.
        series = make_series(arch_spec, 200, THETA0["arch"], seed=(403, 0))
        window = ScanWindow(n=200, v_n=50)
        res = scan(arch_spec, series, window=window, window_estimator="exact")
        full = estimate(arch_spec, series)
        n = series.n
        for k in window.indices[:: max(1, window.size // 8)]:
            k = int(k)
            i = int(np.flatnonzero(window.indices == k)[0])
            left = estimate(arch_spec, SeriesSegment.prefix(series.data, k))
            right = estimate(arch_spec, SeriesSegment.suffix(series.data, k))
            sigma = sigma_hat(arch_spec, series, k, left, right,
                              theta_eval=full.theta_hat)
            dl = left.theta_hat - full.theta_hat
            dr = right.theta_hat - full.theta_hat
            assert_allclose(res.q1[i], (k**2 / n) * dl @ sigma @ dl, atol=1e-4, rtol=1e-4)
            assert_allclose(res.q2[i], ((n - k) ** 2 / n) * dr @ sigma @ dr,
                            atol=1e-4, rtol=1e-4)


class TestInvariances:
    @pytest.mark.parametrize("name", ["ar", "arch", "garch"])
    @pytest.mark.parametrize("mode", ["exact", "one_step"])
    def test_nonnegative(self, all_specs, name, mode):
        spec = all_specs[name]
        series = make_series(spec, 300, THETA0[name], seed=(404, 0))
        # Exact GARCH windows optimize three parameters per k; keep the
        # candidate set narrow so the cell stays quick.
        window = (
            ScanWindow(n=300, v_n=130) if (name, mode) == ("garch", "exact")
            else None
        )
        res = scan(spec, series, window=window, window_estimator=mode)
        assert np.nanmin(res.q1) >= 0.0
        assert np.nanmin(res.q2) >= 0.0
        assert res.q_max >= 0.0

    @pytest.mark.parametrize("name, mode", [
        ("ar", "exact"), ("ar", "one_step"), ("arch", "exact"),
        ("garch", "one_step"),
    ])
    def test_scale_equivariance(self, all_specs, name, mode):
        # Rescaling the data moves the volatility intercept but leaves
        # the scan statistic unchanged (AR estimates are scale-free, and
        # the quadratic form cancels the volatility scale).
        spec = all_specs[name]
        series = make_series(spec, 250, THETA0[name], seed=(405, 0))
        scaled = SeriesSegment.full(series.data * 1.3)
        a = scan(spec, series, window_estimator=mode)
        b = scan(spec, scaled, window_estimator=mode)
        assert_allclose(b.q_max, a.q_max, rtol=1e-4)
        assert b.argmax_k == a.argmax_k

    def test_break_has_a_localized_argmax(self, ar1_spec):
        series = make_series(
            ar1_spec, 1000, (0.3,), seed=(406, 0), theta1=(0.8,), break_index=500
        )
        res = scan(ar1_spec, series)
        assert res.reject
        assert abs(res.argmax_k - 500) <= 60


class TestFrozenValues:
    """Seed-locked spot values recorded before the assertions."""

    def test_ar_one_step_spot_value(self, ar1_spec):
        series = make_series(ar1_spec, 400, (0.5,), seed=4)
        res = scan(ar1_spec, series)
        assert_allclose(res.q_max, 1.484423725, rtol=1e-6)
        assert res.argmax_k == 96
        assert not res.reject

    def test_garch_one_step_spot_value(self, garch_spec, garch_series):
        res = scan(garch_spec, garch_series)
        assert_allclose(res.q_max, 1.006727927, rtol=1e-6)
        assert res.n_missing == 0
        assert not res.reject

    def test_null_path_stays_below_the_line(self, ar1_spec):
        # A typical no-break realization: every q1[k] and q2[k] below
        # C(1, 0.05) in both estimation modes.
        series = make_series(ar1_spec, 1000, (0.3,), seed=(40000, 0))
        for mode in ("exact", "one_step"):
            res = scan(ar1_spec, series, window_estimator=mode)
            c = res.c_alpha
            assert np.nanmax(res.q1) < c
            assert np.nanmax(res.q2) < c
            assert not res.reject


class TestDecision:
    def test_decide_threshold(self, builtin_table):
        c = builtin_table.lookup(1, 0.05)
        assert decide(c + 1e-9, 1, 0.05, builtin_table)
        assert not decide(c, 1, 0.05, builtin_table)
        assert not decide(c - 1e-9, 1, 0.05, builtin_table)

    def test_scan_reject_agrees_with_decide(self, ar1_spec, builtin_table):
        series = make_series(ar1_spec, 300, (0.5,), seed=(407, 0))
        res = scan(ar1_spec, series)
        assert res.reject == decide(res.q_max, 1, res.alpha, builtin_table)
        assert_allclose(res.c_alpha, builtin_table.lookup(1, 0.05), rtol=1e-15)


class TestResultContract:
    def test_save_round_trip(self, ar1_spec, tmp_path):
        series = make_series(ar1_spec, 200, (0.5,), seed=(408, 0))
        res = scan(ar1_spec, series)
        path = tmp_path / "curve.txt"
        res.save(path)
        lines = path.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        body = [ln.split() for ln in lines if not ln.startswith("#")]
        assert f"argmax_k={res.argmax_k}" in header[1]
        ks = np.array([int(row[0]) for row in body])
        q1 = np.array([float(row[1]) for row in body])
        q2 = np.array([float(row[2]) for row in body])
        np.testing.assert_array_equal(ks, res.ks)
        assert_allclose(q1, res.q1, rtol=1e-15)
        assert_allclose(q2, res.q2, rtol=1e-15)

    def test_window_is_honoured(self, ar1_spec):
        series = make_series(ar1_spec, 300, (0.5,), seed=(409, 0))
        window = ScanWindow(n=300, v_n=100)
        res = scan(ar1_spec, series, window=window)
        np.testing.assert_array_equal(res.ks, window.indices)
        assert res.ks[0] == 100 and res.ks[-1] == 200

    def test_validation_errors(self, ar1_spec, arch_series, arch_spec):
        series = make_series(ar1_spec, 120, (0.5,), seed=(410, 0))
        with pytest.raises(ShapeError):
            scan(ar1_spec, SeriesSegment.prefix(series.data, 50))
        with pytest.raises(ShapeError):
            scan(ar1_spec, series, window=ScanWindow(n=100, v_n=10))
        with pytest.raises(ValueError):
            scan(ar1_spec, series, window_estimator="fastest")
        with pytest.raises(CalibrationRequiredError):
            scan(ar1_spec, series, alpha=0.03)
        with pytest.raises(CalibrationRequiredError):
            scan(arch_spec, arch_series, table=CriticalTable(entries={}))


class TestMissingPolicy:
    """Failed window estimations mark k missing; too many abort."""

    def _patched_scan(self, monkeypatch, arch_spec, series, window, fail_fraction):
        real = scan_stat_module._estimate_with_retry
        real_batch = scan_stat_module.estimate_windows
        ks = window.indices
        n_fail = int(np.ceil(fail_fraction * ks.size))
        bad_ks = set(int(k) for k in ks[:n_fail])

        def flaky_batch(spec, data, starts, ends, init, opts):
            # The targeted prefixes leave the batch unconverged, so they
            # reach the scalar retry below.
            theta, converged = real_batch(spec, data, starts, ends, init, opts)
            for r, (start, end) in enumerate(zip(starts, ends)):
                if start == 1 and int(end) in bad_ks:
                    converged[r] = False
            return theta, converged

        def flaky(spec, segment, init, opts):
            res = real(spec, segment, init, opts)
            k = segment.end if segment.start == 1 else segment.start - 1
            if k in bad_ks and segment.start == 1:
                return EstimateResult(
                    theta_hat=res.theta_hat,
                    loglik_at_opt=res.loglik_at_opt,
                    grad_norm=res.grad_norm,
                    iterations=res.iterations,
                    converged=False,
                    boundary_active=res.boundary_active,
                )
            return res

        monkeypatch.setattr(scan_stat_module, "estimate_windows", flaky_batch)
        monkeypatch.setattr(scan_stat_module, "_estimate_with_retry", flaky)
        return scan(arch_spec, series, window=window, window_estimator="exact")

    def test_few_failures_are_masked(self, monkeypatch, arch_spec):
        series = make_series(arch_spec, 150, THETA0["arch"], seed=(411, 0))
        window = ScanWindow(n=150, v_n=40)
        res = self._patched_scan(monkeypatch, arch_spec, series, window, 0.05)
        assert res.n_missing >= 1
        assert np.isnan(res.q1[0]) and np.isnan(res.q2[0])
        assert np.isfinite(res.q_max)

    def test_many_failures_raise(self, monkeypatch, arch_spec):
        series = make_series(arch_spec, 150, THETA0["arch"], seed=(411, 0))
        window = ScanWindow(n=150, v_n=40)
        with pytest.raises(ScanError):
            self._patched_scan(monkeypatch, arch_spec, series, window, 0.2)


def _scalar_window_fits(spec, data, ks, theta_full, opts):
    """Per-window scalar fits, prefixes then suffixes, as the scan once ran them."""
    fits = {"l": [], "r": []}
    for k in ks:
        for side, segment in (("l", SeriesSegment.prefix(data, int(k))),
                              ("r", SeriesSegment.suffix(data, int(k)))):
            fits[side].append(scan_stat_module._estimate_with_retry(
                spec, segment, theta_full, opts))
    return tuple(
        np.array([getattr(res, attr) for res in fits[side]])
        for side in ("l", "r") for attr in ("theta_hat", "converged")
    )


class TestWindowBatch:
    """Batched exact window fits against one scalar optimizer call per window."""

    @pytest.mark.parametrize("name, n, v_n, theta0, seed", [
        ("arch", 300, None, THETA0["arch"], (420, 0)),
        ("arch", 500, None, THETA0["arch"], (421, 0)),
        ("garch", 300, 130, THETA0["garch"], (422, 0)),
        # No ARCH effect: most window optima sit on the alpha_1 = 0 bound.
        ("arch", 400, None, (1.0, 0.0), (423, 0)),
        # AR windows take the closed form.  Near the unit root some AR(1)
        # vertices lie past the bound and are clamped; near the AR(2)
        # stationarity face many solutions leave the domain and fall back
        # to the batch.
        ("ar3", 300, None, (0.3, 0.2, 0.1), (426, 0)),
        ("ar2", 400, None, (0.9, 0.05), (424, 0)),
        ("ar", 300, None, (0.95,), (428, 0)),
    ])
    def test_batch_matches_scalar_fits(self, all_specs, name, n, v_n, theta0, seed):
        spec = {**all_specs, **AR_SPECS}[name]
        series = make_series(spec, n, theta0, seed=seed)
        window = ScanWindow(n=n, v_n=v_n) if v_n else default_window(spec, n)
        ks = window.indices
        theta_full = estimate(spec, series).theta_hat
        starts = np.concatenate((np.ones(ks.size, dtype=np.int64), ks + 1))
        ends = np.concatenate((ks, np.full(ks.size, n)))
        _, batch_ok = estimate_windows(spec, series.data, starts, ends, theta_full)
        assert batch_ok.all()  # so the comparison below tests the batch itself
        got = _exact_window_estimates(spec, series.data, ks, theta_full, None)
        want = _scalar_window_fits(spec, series.data, ks, theta_full, None)
        for side in (0, 2):
            assert_allclose(got[side], want[side], rtol=0.0, atol=1e-6)
            np.testing.assert_array_equal(got[side + 1], want[side + 1])
        if name == "ar2":
            _, settled = _ar_window_least_squares(spec, series.data, ks)
            assert not settled.all()
        if name == "ar":
            assert np.any(got[0] >= 0.98 - 1e-12) or np.any(got[2] >= 0.98 - 1e-12)
        if name == "arch" and theta0[1] == 0.0:
            on_bound = np.count_nonzero(got[0][:, 1] == 0.0) + np.count_nonzero(
                got[2][:, 1] == 0.0)
            assert on_bound > ks.size

    def test_stalled_window_is_handed_back_unconverged(self, monkeypatch, garch_spec,
                                                       garch_series):
        # With a line search that accepts no step, every window stalls at
        # its start point in the first iteration.  The batch must hand all
        # of them back unconverged (it once crashed evaluating the empty
        # set of rows left to move), and the scan must refit each one with
        # the scalar optimizer.
        monkeypatch.setattr(
            qmle_module, "_line_search_rows",
            lambda spec, x, f, grad, direction, f_at, opts: (
                np.zeros(x.shape[0], dtype=bool), x.copy()),
        )
        data = garch_series.data
        ks = np.array([200, 300, 400])
        theta_full = estimate(garch_spec, garch_series).theta_hat
        starts = np.concatenate((np.ones(ks.size, dtype=np.int64), ks + 1))
        ends = np.concatenate((ks, np.full(ks.size, garch_series.n)))
        theta, ok = estimate_windows(garch_spec, data, starts, ends, theta_full)
        assert not ok.any()
        np.testing.assert_array_equal(theta, np.tile(theta_full, (starts.size, 1)))

        calls = []
        real = scan_stat_module._estimate_with_retry

        def counting(spec, segment, init, opts):
            calls.append((segment.start, segment.end))
            return real(spec, segment, init, opts)

        monkeypatch.setattr(scan_stat_module, "_estimate_with_retry", counting)
        got = _exact_window_estimates(garch_spec, data, ks, theta_full, None)
        assert calls == list(zip(starts.tolist(), ends.tolist()))
        assert got[1].all() and got[3].all()
        want = _scalar_window_fits(garch_spec, data, ks, theta_full, None)
        for side in (0, 2):
            np.testing.assert_array_equal(got[side], want[side])

    # max_iter=1 leaves every batch row unconverged; max_iter=4 about 1 in 8.
    @pytest.mark.parametrize("max_iter", [1, 4])
    def test_unconverged_rows_fall_back_to_scalar_fits(self, monkeypatch, arch_spec,
                                                       max_iter):
        opts = OptimOptions(max_iter=max_iter)
        series = make_series(arch_spec, 150, THETA0["arch"], seed=(425, 0))
        window = ScanWindow(n=150, v_n=40)
        ks = window.indices
        theta_full = estimate(arch_spec, series).theta_hat
        calls = []
        real = scan_stat_module._estimate_with_retry

        def counting(spec, segment, init, opts):
            calls.append(segment)
            return real(spec, segment, init, opts)

        monkeypatch.setattr(scan_stat_module, "_estimate_with_retry", counting)
        got = _exact_window_estimates(arch_spec, series.data, ks, theta_full, opts)
        assert 0 < len(calls) <= 2 * ks.size
        want = _scalar_window_fits(arch_spec, series.data, ks, theta_full, opts)
        for side in (0, 2):
            assert_allclose(got[side], want[side], rtol=0.0, atol=1e-6)
            np.testing.assert_array_equal(got[side + 1], want[side + 1])

        # The whole scan under the same options, with and without the batch.
        def run():
            try:
                res = scan(arch_spec, series, window=window, opts=opts)
            except ScanError as exc:
                return str(exc)
            return res.q1, res.q2

        batched = run()
        monkeypatch.setattr(
            scan_stat_module, "estimate_windows",
            lambda spec, data, starts, ends, init, opts: (
                np.zeros((starts.size, spec.d)), np.zeros(starts.size, dtype=bool)),
        )
        scalar = run()
        if isinstance(scalar, str):
            assert batched == scalar
        else:
            assert_allclose(batched, scalar, rtol=1e-6, atol=1e-9)


class TestNumericBreakdown:
    """Overflowing data surfaces as ScanError, never as a raw exception."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name, cause", [
        ("ar", np.linalg.LinAlgError),
        ("arch", DomainError),
        ("garch", np.linalg.LinAlgError),
    ])
    def test_huge_values_raise_scan_error(self, all_specs, name, cause):
        spec = all_specs[name]
        series = make_series(spec, 500, THETA0[name], seed=(405, 0))
        huge = SeriesSegment.full(series.data * 1e150)
        with pytest.raises(ScanError, match="numerical breakdown") as exc_info:
            scan(spec, huge)
        assert isinstance(exc_info.value.__cause__, cause)


class TestMonteCarloRates:
    """Frozen-seed rejection rates; thresholds were measured first and
    recorded in the repository notes, with slack for platform jitter."""

    def _break_plan_rates(self, spec, mode):
        reject = joint = 0
        for r in range(100):
            series = make_series(
                spec, 1000, (0.3,), seed=(40000, r), theta1=(0.5,),
                break_index=400,
            )
            res = scan(spec, series, window_estimator=mode)
            if res.reject:
                reject += 1
                joint += abs(res.argmax_k - 400) <= 80
        return reject / 100.0, joint / 100.0

    def test_break_power_exact_mode(self, ar1_spec):
        reject, joint = self._break_plan_rates(ar1_spec, "exact")
        assert reject >= 0.80  # measured 0.87
        assert joint >= 0.65  # measured 0.71

    def test_break_power_default_mode(self, ar1_spec):
        reject, joint = self._break_plan_rates(ar1_spec, "one_step")
        assert reject >= 0.70  # measured 0.78
        assert joint >= 0.55  # measured 0.61
