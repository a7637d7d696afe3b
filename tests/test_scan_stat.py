"""Scan statistics: replica algebra, path equivalences, invariances.

Key oracles:

* a from-scratch replica of the one-step scan built only on public
  likelihood/estimation calls (plain loops, no shared code paths);
* a hand assembly of the exact-mode statistic at a single k from
  public ``estimate`` calls and the per-k oracle ``per_k_sigma``;
* brute-force cold-started window estimates (warm == cold);
* frozen seed-locked values and Monte Carlo rates recorded in the
  repository notes before the thresholds were set.

Each bit-equality assertion says which kind it is.  Numpy-elementwise
(portable): both sides run numpy's own elementwise and reduction loops,
which give the same bits on every BLAS kernel.  BLAS/LAPACK-bound: the
values pass through a matmul sum, ``np.linalg.solve``, ``cond`` or
``eigh``, as every window fit and every uncleared stack does, whose bits
vary between kernels; the assertion holds on each kernel because both
sides make the same calls on the same inputs, and may break on some
kernel if one side's calls change shape.  Masks compared exactly are
decisions, not bits: they say which kind of computation decides them.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qlscan import (
    CalibrationRequiredError,
    CriticalTable,
    DomainError,
    ModelFamily,
    ModelSpec,
    ScanError,
    ScanWindow,
    SeriesSegment,
    ShapeError,
    SizingError,
    decide,
    default_window,
    estimate,
    loglik,
    scan,
)
from qlscan import likelihood as likelihood_module
from qlscan import qmle as qmle_module
from qlscan import scan_stat as scan_stat_module
from qlscan._stacks import _batched_fgf, _cholesky_rows, _invertible, _solve_rows
from qlscan.likelihood import loglik_rows
from qlscan.qmle import estimate_windows
from qlscan.scan_stat import (
    _ar_window_steps,
    _derivative_pass,
    _exact_deltas,
    _one_step_deltas,
    _pooled_curvature,
    _window_sums,
)
import scalar_ascent
import stacked_reference
from conftest import THETA0, make_series
from per_k_sigma import sigma_hat

AR_SPECS = {
    "ar2": ModelSpec(family=ModelFamily.AR, p=2),
    "ar3": ModelSpec(family=ModelFamily.AR, p=3),
}


def one_step_scan_replica(spec, series, window):
    """Independent reimplementation of the one-step scan.

    Full-sample fit through the public optimizer, then plain Python
    loops over k: averaged per-observation gradients and hessians per
    side, Fisher-scoring deltas from the side mean scores centred by the
    full-sample mean score, against the pooled curvature, weight
    matrix (k/n) F_L G_L^-1 F_L + ((n-k)/n) F_R G_R^-1 F_R, quadratic
    forms scaled by k^2/n and (n-k)^2/n.
    """
    n = series.n
    theta_full = estimate(spec, series).theta_hat
    ev = loglik(spec, theta_full, series, order=2, keep_per_t=True)
    # Full per-observation hessians from their distinct entries, stored
    # in upper-triangle row-major order.
    iu, ju = np.triu_indices(spec.d)
    hesses = np.empty((n, spec.d, spec.d))
    hesses[:, iu, ju] = hesses[:, ju, iu] = ev.per_t_hessians
    grads = ev.per_t_grads
    f_full = hesses.sum(axis=0) / n
    f_full = (f_full + f_full.T) / 2.0
    q1, q2 = [], []
    g_full = grads.mean(axis=0)
    for k in window.indices:
        gl = grads[:k].mean(axis=0) - g_full
        gr = grads[k:].mean(axis=0) - g_full
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
    # AR(3) windows take the Newton step on the derivative pass's sums,
    # checked here against the optimizer's window fits.
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

    def test_ar3_exact_spot_value(self):
        # Exact mode takes every AR window from the Newton step on the
        # derivative pass's sums.
        spec = AR_SPECS["ar3"]
        series = make_series(spec, 400, (0.3, -0.2, 0.1), seed=(104, 0))
        res = scan(spec, series, window_estimator="exact")
        assert_allclose(res.q_max, 2.662053248, rtol=1e-6)
        assert res.argmax_k == 95
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

    @pytest.mark.parametrize("alpha", [1.5, 0.0, -0.05, float("nan")])
    def test_alpha_outside_unit_interval_is_invalid(self, ar1_spec, ar1_series,
                                                    builtin_table, alpha):
        # No calibration can cover such a level, so it is not reported as
        # a missing table entry (CalibrationRequiredError is no ValueError).
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            scan(ar1_spec, ar1_series, alpha=alpha)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            decide(1.0, 1, alpha, builtin_table)

    @pytest.mark.parametrize("family, v_n", [
        ("arch", 1), ("arch", 2), ("garch", 1), ("garch", 2), ("garch", 3),
    ])
    def test_window_floor_below_d_plus_1_fails_before_any_fit(
            self, monkeypatch, all_specs, arch_series, garch_series, family, v_n):
        spec = all_specs[family]
        series = arch_series if family == "arch" else garch_series

        def no_fit(*args, **kwargs):
            raise AssertionError("the scan fitted before checking v_n")

        monkeypatch.setattr(scan_stat_module, "estimate", no_fit)
        for mode in ("exact", "one_step"):
            with pytest.raises(SizingError, match=rf"v_n={v_n} .*d \+ 1 = {spec.d + 1}"):
                scan(spec, series, window=ScanWindow(n=series.n, v_n=v_n),
                     window_estimator=mode)

    def test_window_floor_of_d_plus_1_is_accepted(self, ar1_spec, ar1_series):
        with pytest.raises(SizingError):
            scan(ar1_spec, ar1_series, window=ScanWindow(n=ar1_series.n, v_n=1))
        res = scan(ar1_spec, ar1_series, window=ScanWindow(n=ar1_series.n, v_n=2))
        assert res.ks[0] == 2 and np.isfinite(res.q_max)


class TestMissingPolicy:
    """Failed window estimations mark k missing; too many abort."""

    def _patched_scan(self, monkeypatch, arch_spec, series, window, fail_fraction):
        ks = window.indices
        n_fail = int(np.ceil(fail_fraction * ks.size))
        bad_ks = set(int(k) for k in ks[:n_fail])

        real = qmle_module._fit_rows

        def flaky(spec, data, starts, ends, x0, seeds=None):
            # The targeted prefixes come back unconverged from the warm
            # climb, so they reach the cold retry, and from that as well.
            fits = real(spec, data, starts, ends, x0, seeds)
            for r, (start, end) in enumerate(zip(starts, ends)):
                if start == 1 and int(end) in bad_ks:
                    fits[4][r] = False
            return fits

        monkeypatch.setattr(qmle_module, "_fit_rows", flaky)
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


def _scalar_window_fits(spec, data, ks, theta_full, *_):
    """Per-window fits by the scalar reference ascent, warm then cold, as
    the deltas (d, 2 |ks|) and converged mask of ``_exact_deltas``,
    prefixes then suffixes."""
    segments = ([SeriesSegment.prefix(data, int(k)) for k in ks]
                + [SeriesSegment.suffix(data, int(k)) for k in ks])
    fits = [scalar_ascent.estimate_with_retry(spec, segment, theta_full)
            for segment in segments]
    theta = np.array([res.theta_hat for res in fits])
    return (theta - theta_full).T, np.array([res.converged for res in fits])


def _one_block(spec, series, ks, theta_full):
    """The derivative pass's sums, and ``_exact_deltas`` with every split
    of ``ks`` in one block; any run of splits is a valid block."""
    sums = _derivative_pass(spec, series, theta_full)
    return sums, _exact_deltas(spec, series.data, ks, theta_full,
                               _window_sums(sums.values[:, None], ks - 1)[0],
                               _window_sums(sums.scores, ks - 1),
                               _window_sums(sums.hessian, ks - 1))


def _warm_fits(spec, data, starts, ends, theta_full):
    """The warm climb of ``estimate_windows`` alone, without its cold retry:
    (theta, converged) of every window."""
    out = qmle_module._fit_rows(spec, data, starts, ends,
                                qmle_module.project_to_domain(spec, theta_full)[None, None, :])
    return out[0], out[4]


def _count_cold_climbs(monkeypatch):
    """Record (starts, ends) of every cold multi-start climb of split
    windows; the full-sample fit's own cold climb is not recorded."""
    calls = []
    real = qmle_module._fit_rows

    def counting(spec, data, starts, ends, x0, seeds=None):
        if x0.shape[0] > 1 and not (starts.size == 1 and starts[0] == 1
                                    and ends[0] == data.shape[0]):
            calls.append((starts.tolist(), ends.tolist()))
        return real(spec, data, starts, ends, x0, seeds)

    monkeypatch.setattr(qmle_module, "_fit_rows", counting)
    return calls


class TestWindowBatch:
    """Batched exact window fits against the scalar reference ascent."""

    @pytest.mark.parametrize("name, n, v_n, theta0, seed", [
        ("arch", 300, None, THETA0["arch"], (420, 0)),
        ("arch", 500, None, THETA0["arch"], (421, 0)),
        ("garch", 300, 130, THETA0["garch"], (422, 0)),
        # No ARCH effect: most window optima sit on the alpha_1 = 0 bound.
        ("arch", 400, None, (1.0, 0.0), (423, 0)),
        # AR windows take the Newton step on the derivative pass's sums.
        # Near the unit root some AR(1) vertices lie past the bound and are
        # clamped; near the AR(2) stationarity face many steps leave the
        # domain and fall back to the batch.
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
        _, batch_ok = _warm_fits(spec, series.data, starts, ends, theta_full)
        assert batch_ok.all()  # so the comparison below tests the batch itself
        sums, got = _one_block(spec, series, ks, theta_full)
        want = _scalar_window_fits(spec, series.data, ks, theta_full)
        assert_allclose(got[0], want[0], rtol=0.0, atol=1e-6)
        # A mask of the windows fitted, not bits: the scalar climbs and the
        # batch must settle the same windows.
        np.testing.assert_array_equal(got[1], want[1])
        theta = got[0] + theta_full[:, None]
        if name == "ar2":
            _, settled = _ar_window_steps(spec, theta_full,
                                          _window_sums(sums.hessian, ks - 1),
                                          _window_sums(sums.scores, ks - 1))
            assert not settled.all()
        if name == "ar":
            assert np.any(theta >= 0.98 - 1e-12)
        if name == "arch" and theta0[1] == 0.0:
            assert np.count_nonzero(theta[1] == 0.0) > ks.size

    def test_ar3_spot_design_climbs_no_window(self, monkeypatch):
        # The Newton step on the derivative pass's sums settles every
        # window of the AR(3) exact spot design, so the scan climbs none.
        calls = []
        real = scan_stat_module.estimate_windows

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(scan_stat_module, "estimate_windows", counting)
        spec = AR_SPECS["ar3"]
        series = make_series(spec, 400, (0.3, -0.2, 0.1), seed=(104, 0))
        res = scan(spec, series, window_estimator="exact")
        assert calls == []
        assert res.n_missing == 0

    def test_stalled_window_is_handed_back_unconverged(self, monkeypatch, garch_spec,
                                                       garch_series):
        # With a line search that accepts no step, every window stalls at
        # its start point in the first iteration.  The warm climb must hand
        # all of them back unconverged (it once crashed evaluating the
        # empty set of rows left to move), and ``estimate_windows`` must
        # retry exactly those windows cold.
        real = qmle_module._fit_rows

        def stalled(spec, data, starts, ends, x0, seeds=None):
            with monkeypatch.context() as m:
                m.setattr(qmle_module, "_MAX_BACKTRACKS", 0)
                return real(spec, data, starts, ends, x0, seeds)

        def stalled_warm(spec, data, starts, ends, x0, seeds=None):
            fit = stalled if x0.shape[0] == 1 else real
            return fit(spec, data, starts, ends, x0, seeds)

        data = garch_series.data
        ks = np.array([200, 300, 400])
        theta_full = estimate(garch_spec, garch_series).theta_hat
        starts = np.concatenate((np.ones(ks.size, dtype=np.int64), ks + 1))
        ends = np.concatenate((ks, np.full(ks.size, garch_series.n)))
        monkeypatch.setattr(qmle_module, "_fit_rows", stalled)
        theta, ok = _warm_fits(garch_spec, data, starts, ends, theta_full)
        assert not ok.any()
        # Bit equality, portable: a stalled window hands back its start
        # point, a copy.
        np.testing.assert_array_equal(theta, np.tile(theta_full, (starts.size, 1)))

        monkeypatch.setattr(qmle_module, "_fit_rows", stalled_warm)
        calls = _count_cold_climbs(monkeypatch)
        _, got = _one_block(garch_spec, garch_series, ks, theta_full)
        assert calls == [(starts.tolist(), ends.tolist())]
        assert got[1].all()
        cold = [scalar_ascent.estimate(garch_spec, SeriesSegment(data, int(a), int(b)))
                for a, b in zip(starts, ends)]
        assert all(res.converged for res in cold)
        want = np.array([res.theta_hat for res in cold])
        assert_allclose(got[0], (want - theta_full).T, rtol=0.0, atol=1e-6)

    # max_iter=1 leaves every batch row unconverged; max_iter=4 about 1 in 8.
    @pytest.mark.parametrize("max_iter", [1, 4])
    def test_unconverged_rows_are_retried_cold(self, monkeypatch, arch_spec, max_iter):
        series = make_series(arch_spec, 150, THETA0["arch"], seed=(425, 0))
        window = ScanWindow(n=150, v_n=40)
        ks = window.indices
        theta_full = estimate(arch_spec, series).theta_hat
        monkeypatch.setattr(qmle_module, "_MAX_ITER", max_iter)
        starts = np.concatenate((np.ones(ks.size, dtype=np.int64), ks + 1))
        ends = np.concatenate((ks, np.full(ks.size, series.n)))
        _, batch_ok = _warm_fits(arch_spec, series.data, starts, ends, theta_full)
        calls = _count_cold_climbs(monkeypatch)
        _, got = _one_block(arch_spec, series, ks, theta_full)
        assert 0 < np.count_nonzero(~batch_ok)
        assert calls == [(starts[~batch_ok].tolist(), ends[~batch_ok].tolist())]
        want = _scalar_window_fits(arch_spec, series.data, ks, theta_full)
        assert_allclose(got[0], want[0], rtol=0.0, atol=1e-6)
        # A mask, as in test_batch_matches_scalar_fits.
        np.testing.assert_array_equal(got[1], want[1])

        # The whole scan under the same iteration limit: in one block, in
        # blocks of 7 splits, whose retries are split across the blocks,
        # and with scalar reference window fits.
        def run():
            try:
                res = scan(arch_spec, series, window=window)
            except ScanError as exc:
                return str(exc)
            return res.q1, res.q2

        batched = run()
        with monkeypatch.context() as m:
            m.setattr(scan_stat_module, "_BLOCK_SPLITS", 7)
            del calls[:]
            blocked = run()
        assert len(calls) > 1
        if isinstance(batched, str):
            assert blocked == batched
        else:
            # Bit equality, BLAS/LAPACK-bound: each window's climb and
            # each split's solves are the same calls in any block.
            np.testing.assert_array_equal(blocked, batched)
        monkeypatch.setattr(scan_stat_module, "_exact_deltas", _scalar_window_fits)
        scalar = run()
        if isinstance(scalar, str):
            assert batched == scalar
        else:
            assert_allclose(batched, scalar, rtol=1e-6, atol=1e-9)

    def test_retry_climbs_every_window_at_once(self, monkeypatch, arch_spec):
        # One warm iteration leaves every window unconverged.  The retry
        # climbs every (start, window) row of a few hundred windows, whose
        # spans fall in several span classes, in one climb, and each window
        # gets the cold fit that a retry of that window alone gives it, in
        # every field.
        series = make_series(arch_spec, 600, THETA0["arch"], seed=(425, 1))
        ks = ScanWindow(n=600, v_n=40).indices
        theta_full = estimate(arch_spec, series).theta_hat
        starts = np.concatenate((np.ones(ks.size, dtype=np.int64), ks + 1))
        ends = np.concatenate((ks, np.full(ks.size, series.n)))
        real_fit, real_run = qmle_module._fit_rows, qmle_module._run_rows

        def one_warm_iteration(spec, data, starts, ends, x0, seeds=None):
            if x0.shape[0] > 1:
                return real_fit(spec, data, starts, ends, x0, seeds)
            with monkeypatch.context() as m:
                m.setattr(qmle_module, "_MAX_ITER", 1)
                return real_fit(spec, data, starts, ends, x0, seeds)

        monkeypatch.setattr(qmle_module, "_fit_rows", one_warm_iteration)
        _, ok = _warm_fits(arch_spec, series.data, starts, ends, theta_full)
        assert not ok.any()
        climbs = []

        def counting(spec, data, starts, ends, x0, grad_tol, seeds=None):
            climbs.append(starts.size)
            return real_run(spec, data, starts, ends, x0, grad_tol, seeds)

        monkeypatch.setattr(qmle_module, "_run_rows", counting)
        got = estimate_windows(arch_spec, series.data, starts, ends, theta_full)
        assert climbs == [starts.size, qmle_module._N_STARTS * starts.size]
        # One window's best cold start stalls just short of the tolerance,
        # beside four converged starts at the same optimum; check it too.
        assert np.count_nonzero(got.converged) >= 0.99 * starts.size
        for r in sorted({*range(0, starts.size, 37), *np.flatnonzero(~got.converged)}):
            one = slice(r, r + 1)
            alone = estimate_windows(arch_spec, series.data, starts[one], ends[one],
                                     theta_full)
            for field, alone_field in zip(got, alone):
                # Bit equality, BLAS/LAPACK-bound: the same per-row matmul
                # sums and solves, in a batch or alone.
                np.testing.assert_array_equal(field[r], alone_field[0])
            want = scalar_ascent.estimate(
                arch_spec, SeriesSegment(series.data, int(starts[r]), int(ends[r])))
            assert_allclose(got.theta[r], want.theta_hat, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("name, theta0", [
        ("arch", THETA0["arch"]),
        ("garch", THETA0["garch"]),
        ("ar2", (0.5, 0.2)),
    ])
    def test_seeds_match_loglik_rows(self, monkeypatch, all_specs, name, theta0):
        # The climb's seeds, read off the block's window sums of the
        # derivative pass, are the value, gradient and hessian that
        # ``loglik_rows`` gives at theta_full on each prefix and suffix.
        # The AR Newton step is patched to settle no window, so every
        # window's seeds reach the climb.
        spec = {**all_specs, **AR_SPECS}[name]
        series = make_series(spec, 700, theta0, seed=(427, 0))
        ks = default_window(spec, series.n).indices
        theta_full = estimate(spec, series).theta_hat
        k = np.concatenate((ks, ks))
        suffix = np.arange(k.size) >= ks.size
        starts = np.where(suffix, k + 1, 1)
        ends = np.where(suffix, series.n, k)
        calls = []

        def recording(spec, data, starts, ends, init, seeds):
            calls.append((starts, ends, seeds))
            return qmle_module._Fits(np.tile(init, (starts.size, 1)), None, None, None,
                                     np.ones(starts.size, dtype=bool))

        monkeypatch.setattr(scan_stat_module, "_ar_window_steps",
                            lambda spec, theta_full, hessian, scores: (
                                np.empty((hessian.shape[1], spec.d)),
                                np.zeros(hessian.shape[1], dtype=bool)))
        monkeypatch.setattr(scan_stat_module, "estimate_windows", recording)
        _one_block(spec, series, ks, theta_full)
        [(got_starts, got_ends, seeds)] = calls
        # Window bounds: integers.
        np.testing.assert_array_equal(got_starts, starts)
        np.testing.assert_array_equal(got_ends, ends)
        want = loglik_rows(spec, np.tile(theta_full, (k.size, 1)), series.data,
                           starts, ends, order=2)
        for got, exact in zip(seeds, want):
            assert got.shape == exact.shape
            # Relative to each quantity's largest entry: near theta_full a
            # window's gradient can sum to almost zero.
            assert_allclose(got, exact, rtol=1e-12, atol=1e-12 * np.max(np.abs(exact)))

    def test_no_window_stalls_short_of_the_tolerance(self, arch_spec):
        # Value sums taken sequentially along t once left 2 windows of this
        # series (the ARCH level design at n=500) stalled just short of
        # grad_tol: near the optimum the Armijo test compared values that
        # differed by little more than their round-off, and refused every
        # step.
        series = make_series(arch_spec, 500, THETA0["arch"], seed=(933003, 0))
        ks = default_window(arch_spec, 500).indices
        theta_full = estimate(arch_spec, series).theta_hat
        starts = np.concatenate((np.ones(ks.size, dtype=np.int64), ks + 1))
        ends = np.concatenate((ks, np.full(ks.size, series.n)))
        _, ok = _warm_fits(arch_spec, series.data, starts, ends, theta_full)
        assert ok.all()


class TestChunkSize:
    """``loglik_rows`` evaluates its rows in cache-sized chunks, and the
    scan assembles Sigma and q in blocks of splits; neither size changes
    a number."""

    # At n = 1e4 the default chunk is 3 rows of a 5-start full fit, 2^10
    # values is one row and 2^22 all five; at n = 500 they are 65, 2 and
    # every row of a block.
    CHUNKS = (2**10, 2**22)
    # One split per block, blocks that split ks unevenly, and all of ks
    # in one block.
    BLOCKS = (1, 7, 10**6)

    @pytest.mark.parametrize("name, n, theta0, mode, zeros", [
        ("garch", 10_000, THETA0["garch"], "one_step", 0),
        ("arch", 500, THETA0["arch"], "exact", 0),
        # The Newton step leaves 22 of 662 windows to the optimizer.
        ("ar2", 400, (0.9, 0.05), "exact", 0),
        # A zero start: 8 of 662 sides fail the condition test and are
        # zeroed.
        ("ar2", 400, (0.9, 0.05), "exact", 40),
        ("ar2", 400, (0.9, 0.05), "one_step", 40),
        ("ar3", 400, (0.3, 0.2, 0.1), "one_step", 0),
    ], ids=["garch-10000-theta00-one_step", "arch-500-theta01-exact",
            "ar2-400-theta02-exact", "ar2-400-zero-start-exact",
            "ar2-400-zero-start-one_step", "ar3-400-one_step"])
    def test_scan_is_bit_identical(self, monkeypatch, all_specs, name, n, theta0, mode,
                                   zeros):
        spec = {**all_specs, **AR_SPECS}[name]
        series = make_series(spec, n, theta0, seed=(440, 0))
        if zeros:
            data = series.data.copy()
            data[:zeros] = 0.0
            series = SeriesSegment.full(data)
        want = scan(spec, series, window_estimator=mode)
        patches = [(likelihood_module, "_CHUNK_VALUES", chunk) for chunk in self.CHUNKS]
        patches += [(scan_stat_module, "_BLOCK_SPLITS", block) for block in self.BLOCKS]
        for module, name, value in patches:
            with monkeypatch.context() as m:
                m.setattr(module, name, value)
                got = scan(spec, series, window_estimator=mode)
            for attr in ("q1", "q2", "theta_full", "argmax_k"):
                # Bit equality, BLAS/LAPACK-bound: every chunk and block
                # size makes the same per-row matmul sums and solves.
                np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))

    def test_cold_fit_is_bit_identical(self, monkeypatch, garch_spec):
        series = make_series(garch_spec, 20_000, THETA0["garch"], seed=(441, 0))
        want = estimate(garch_spec, series)
        for chunk in self.CHUNKS:
            monkeypatch.setattr(likelihood_module, "_CHUNK_VALUES", chunk)
            got = estimate(garch_spec, series)
            # Bit equality, BLAS/LAPACK-bound, as above.
            np.testing.assert_array_equal(got.theta_hat, want.theta_hat)
            assert got.iterations == want.iterations


class TestDerivativePass:
    @pytest.mark.parametrize("name", ["ar", "arch", "garch"])
    def test_one_order_two_kernel_evaluation(self, monkeypatch, all_specs, name):
        # The pass reads only the per-observation arrays; it once also
        # asked loglik for order-2 sums and ran the kernel's derivative
        # part twice.
        spec = all_specs[name]
        series = make_series(spec, 600, THETA0[name], seed=(448, 0))
        calls = []
        real = likelihood_module._derivative_terms

        def counting(*args, **kwargs):
            calls.append(args[1].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(likelihood_module, "_derivative_terms", counting)
        _derivative_pass(spec, series, np.asarray(THETA0[name], dtype=float))
        assert calls == [1], calls


class TestMemory:
    """The scan's memory is linear in n with a small constant: after the
    cumulative sums, Sigma and q are assembled one block of splits at a
    time, so neither a (d, d, splits) stack nor an array of window
    estimates spans every split."""

    N = 50_000
    # Bytes per observation; 50 float64 values.  An assembly holding
    # whole-window stacks peaked at 145-154 values per observation here.
    LIMIT = 50 * 8

    # Each case's own limit, in values per observation.  The one-step
    # limits are the peaks measured before the exact window fits moved
    # into the assembly's block loop (27.80 and 24.96), rounded up; the
    # exact AR(3) scan, which then held every window's estimate and
    # bounds until the assembly, peaked at 31.2.
    @pytest.mark.parametrize("name, theta0, mode, limit", [
        ("garch", THETA0["garch"], "one_step", 27.81),
        ("ar3", (0.3, 0.2, 0.1), "one_step", 24.97),
        ("ar3", (0.3, 0.2, 0.1), "exact", 28),
    ], ids=["garch-theta00-one_step", "ar3-theta01-one_step", "ar3-theta02-exact"])
    def test_traced_peak_per_observation(self, all_specs, name, theta0, mode, limit):
        spec = {**all_specs, **AR_SPECS}[name]
        series = make_series(spec, self.N, theta0, seed=(445, 0))
        tracemalloc.start()
        try:
            scan(spec, series, window_estimator=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / self.N < self.LIMIT, peak / self.N / 8
        assert peak / self.N < limit * 8, peak / self.N / 8

    # Values per observation.  A pass that formed the full (n, d, d)
    # per-observation hessians and then gathered their distinct entries
    # peaked at 26.0 (GARCH) and 22.1 (AR(3)); its cumulative sums alone
    # hold 16.
    @pytest.mark.parametrize("name, theta0, limit", [
        ("garch", THETA0["garch"], 23),
        ("ar3", (0.3, 0.2, 0.1), 19),
    ])
    def test_derivative_pass_peak(self, all_specs, name, theta0, limit):
        spec = {**all_specs, **AR_SPECS}[name]
        n = 100_000
        series = make_series(spec, n, theta0, seed=(447, 0))
        theta = np.asarray(theta0, dtype=float)
        tracemalloc.start()
        try:
            _derivative_pass(spec, series, theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < limit * 8, peak / n / 8

    def test_exact_window_climb(self, arch_spec):
        # The exact window fits of an ARCH scan climb each block's windows
        # in one batch, and their evaluation chunks, about 2^15 values
        # each, set the peak at this n.  A dense (rows x observations) window mask
        # would take about 5,300 values per observation here.
        n = 3000
        series = make_series(arch_spec, n, THETA0["arch"], seed=(446, 0))
        tracemalloc.start()
        try:
            scan(arch_spec, series, window_estimator="exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < 400 * 8, peak / n / 8


SCREEN_KINDS = ("straddle", "rank", "indefinite", "zero", "nonfinite")


def _screen_stack(d, seed, kinds):
    """Symmetric d x d test matrices, one row per kind, with F and rhs rows.

    ``straddle`` rows have cond drawn across 1e9..1e14, three in four
    within 1e-6 decades of the threshold 1e12; ``rank`` rows have rank
    below d; ``indefinite`` rows have one tiny negative eigenvalue;
    ``nonfinite`` rows hold a NaN or an infinity; any other kind (such
    as ``spd``) gives an SPD row with cond below 1e3.  About half the rows
    are then scaled by D = diag(10^u), so that their entries move by
    factors from 1e-150 to 1e150, and some are negated.  F and rhs rows
    get the same D, as a reparametrisation would give them.
    """
    rng = np.random.default_rng(seed)
    m = np.zeros((len(kinds), d, d))
    for r, kind in enumerate(kinds):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        ev = 10.0 ** -rng.uniform(0.0, 3.0, size=d)
        if kind == "straddle":
            near = rng.random() < 0.75
            lc = 12.0 + rng.uniform(-1e-6, 1e-6) if near else rng.uniform(9.0, 14.0)
            ev = 10.0 ** -rng.uniform(0.0, lc, size=d)
            ev[0], ev[-1] = 1.0, 10.0**-lc
        elif kind == "rank":
            ev[rng.integers(d):] = 0.0
        elif kind == "indefinite":
            ev[-1] = -(10.0 ** -rng.uniform(8.0, 17.0))
        elif kind == "zero":
            ev[:] = 0.0
        m[r] = (q * ev) @ q.T
        if kind == "nonfinite":
            i, j = rng.integers(d, size=2)
            m[r, i, j] = m[r, j, i] = rng.choice([np.nan, np.inf, -np.inf])
    m = (m + np.swapaxes(m, 1, 2)) / 2.0
    scaled = rng.random(len(kinds)) < 0.5
    u = rng.uniform(-74.0, 74.0, size=(len(kinds), 1))
    u = u + rng.uniform(-1.0, 1.0, size=(len(kinds), d)) * rng.choice([0.0, 0.0, 1.0])
    diag = np.where(scaled[:, None], 10.0**u, 1.0)
    sign = np.where(rng.random(len(kinds)) < 0.1, -1.0, 1.0)
    m = sign[:, None, None] * diag[:, :, None] * m * diag[:, None, :]
    f = rng.normal(size=m.shape)
    f = diag[:, :, None] * (f + np.swapaxes(f, 1, 2)) * diag[:, None, :]
    rhs = diag[:, :, None] * rng.normal(size=(len(kinds), d, 2))
    return m, f, rhs


def _last(a):
    """A row-first (rows, ...) stack as the stack-last layout (..., rows)."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _first(a):
    """A stack-last (..., rows) stack back as row-first (rows, ...)."""
    return np.moveaxis(a, -1, 0)


def _assert_rows_close(actual, expected, rtol):
    """Row-wise max-abs difference within rtol times the row's max-abs."""
    axes = tuple(range(1, np.ndim(expected)))
    err = np.abs(actual - expected).max(axis=axes)
    size = np.abs(expected).max(axis=axes)
    assert np.all(err <= rtol * size), np.max(err / np.maximum(size, 1e-300) / rtol)


class TestCholeskyScreen:
    """The stacked invertibility test equals the condition-number rule."""

    @given(
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(SCREEN_KINDS), min_size=1, max_size=48),
    )
    @settings(max_examples=300, deadline=None)
    def test_mask_and_solves_match_the_svd_rule(self, d, seed, kinds):
        m, f, rhs = _screen_stack(d, seed, kinds)
        try:
            ref = _invertible(np.linalg.cond(m))
        except np.linalg.LinAlgError:
            # NaN rows make the SVD fail; they must reach it here too.
            with pytest.raises(np.linalg.LinAlgError):
                _cholesky_rows(_last(m))
            return
        # Masks, here and for ok_f and ok_x below, LAPACK-bound: the
        # screen must clear only rows that the SVD's condition number
        # passes by a wide margin, and the other rows take that ``cond``.
        np.testing.assert_array_equal(_cholesky_rows(_last(m))[3], ref)
        fgf, ok_f = _batched_fgf(_last(f), _last(m))
        x, ok_x = _solve_rows(_last(m), _last(rhs))
        fgf, x = _first(fgf), _first(x)
        np.testing.assert_array_equal(ok_f, ref)
        np.testing.assert_array_equal(ok_x, ref)
        assert not fgf[~ref].any() and not x[~ref].any()
        if not ref.any():
            return
        # Two backward-stable solves agree to about cond * eps, so rows
        # past cond 1e5 get that bound instead of 1e-9.
        rtol = np.maximum(1e-9, 1e-14 * np.linalg.cond(m[ref]))
        _assert_rows_close(fgf[ref], f[ref] @ np.linalg.solve(m[ref], f[ref]), rtol)
        _assert_rows_close(x[ref], np.linalg.solve(m[ref], rhs[ref]), rtol)

    @pytest.mark.parametrize("name, mode", [("ar3", "exact"), ("garch", "one_step")])
    def test_passing_rows_skip_svd_and_lu(self, monkeypatch, garch_spec, garch_series,
                                          name, mode):
        # Neither cond nor solve runs, at any dimension, when every matrix
        # clears the screen: not on F_full, nor on the one-step deltas, the
        # AR window steps or the Sigma stacks.  The full fit runs before
        # the recorders go in: its batched Newton solves belong to the
        # optimizer, not to the scan's stacked linear algebra.
        calls = []

        def recording(fn):
            def wrapper(a, *args, **kwargs):
                calls.append((fn.__name__, np.ndim(a)))
                return fn(a, *args, **kwargs)
            return wrapper

        if name == "ar3":
            spec = AR_SPECS["ar3"]
            series = make_series(spec, 400, (0.3, -0.2, 0.1), seed=(104, 0))
        else:
            spec, series = garch_spec, garch_series
        full = estimate(spec, series)
        monkeypatch.setattr(scan_stat_module, "estimate", lambda *args, **kwargs: full)
        monkeypatch.setattr(np.linalg, "cond", recording(np.linalg.cond))
        monkeypatch.setattr(np.linalg, "solve", recording(np.linalg.solve))
        res = scan(spec, series, window_estimator=mode)
        assert res.n_missing == 0
        assert calls == []


class TestOneStepFallbacks:
    """The branches of the one-step path that only an unusual F_full takes."""

    def test_indefinite_curvature_takes_the_lu_rows(self):
        # Eigenvalues 2, -1 and 0.5: well conditioned, so it passes the
        # condition test, but no Cholesky factor exists, so the deltas
        # come from the LU fallback.
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        f_full = (q * np.array([2.0, -1.0, 0.5])) @ q.T
        f_full = (f_full + f_full.T) / 2.0
        chol, scale, cleared, ok = _cholesky_rows(f_full[..., None])
        assert ok[0] and not cleared[0]
        assert _pooled_curvature(f_full) is f_full
        score_cum = np.cumsum(rng.normal(size=(50, 3)), axis=0)
        idx = np.arange(4, 45)
        cards = np.concatenate((idx + 1, 50 - idx - 1)).astype(float)
        deltas, ok = _one_step_deltas(_window_sums(score_cum, idx), f_full,
                                      score_cum[-1] / 50, cards)
        gbar = _window_sums(score_cum, idx) / cards - (score_cum[-1] / 50)[:, None]
        assert ok.all()
        assert_allclose(deltas, -np.linalg.solve(f_full, gbar), rtol=1e-12,
                        atol=1e-14 * np.abs(deltas).max())

    def test_singular_curvature_raises_with_its_cond(self):
        f_full = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ScanError, match=r"numerically singular \(cond="):
            _pooled_curvature(f_full)


class TestStackLastAlgebra:
    """The stack-last algebra against the row-first einsum code it replaced
    (``stacked_reference``): bit for bit up to d = 3, where every sum has
    at most three terms and both add them in index order."""

    # Well-conditioned rows are the ones the screen clears, so they take
    # the substitutions and M'M.
    @given(
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from((*SCREEN_KINDS, "spd")), min_size=1, max_size=48),
    )
    @settings(max_examples=300, deadline=None)
    def test_screen_matches_the_row_first_reference(self, d, seed, kinds):
        m, f, rhs = _screen_stack(d, seed, kinds)
        try:
            want = stacked_reference.cholesky_rows(m)
        except np.linalg.LinAlgError:
            for call in (lambda: _batched_fgf(_last(f), _last(m)),
                         lambda: _solve_rows(_last(m), _last(rhs))):
                with pytest.raises(np.linalg.LinAlgError):
                    call()
            return
        chol, scale, cleared, ok = _cholesky_rows(_last(m))
        # Masks: the screen is numpy-elementwise on both sides, and the
        # rows it leaves take the same LAPACK ``cond`` calls.
        np.testing.assert_array_equal(cleared, want[2])
        np.testing.assert_array_equal(ok, want[3])
        fgf, ok_f = _batched_fgf(_last(f), _last(m))
        x, ok_x = _solve_rows(_last(m), _last(rhs))
        fgf_ref, ok_f_ref = stacked_reference.batched_fgf(f, m)
        x_ref, ok_x_ref = stacked_reference.solve_rows(m, rhs)
        np.testing.assert_array_equal(ok_f, ok_f_ref)
        np.testing.assert_array_equal(ok_x, ok_x_ref)
        lower = np.tril(np.ones((d, d), dtype=bool))
        pairs = [
            (_first(fgf), fgf_ref),
            (_first(x), x_ref),
            (_first(chol)[cleared][:, lower], want[0][:, lower]),
            (scale[cleared], want[1]),
        ]
        for got, ref in pairs:
            if d <= 3:
                # Bit equality, numpy-elementwise on cleared rows (the
                # same sums in the same order); the other rows' ``solve``
                # calls are BLAS/LAPACK-bound, the same on both sides.
                np.testing.assert_array_equal(got, ref)
            else:
                _assert_rows_close(got, ref, 1e-13)

    @pytest.mark.parametrize("p, theta0, seed", [
        (1, (0.95,), (428, 0)),
        (2, (0.9, 0.05), (424, 0)),
        (3, (0.3, 0.2, 0.1), (426, 0)),
        (4, (0.3, 0.2, 0.1, -0.2), (427, 0)),
        (5, (0.2, 0.1, -0.1, 0.05, 0.1), (429, 0)),
    ])
    def test_ar_windows_match_the_row_first_reference(self, p, theta0, seed):
        # The Newton step on the derivative pass's sums against the normal
        # equations solved from the window's own sums of lags: the same
        # least-squares solution reached by a different sum, so they agree
        # to round-off, not bit for bit.
        spec = ModelSpec(family=ModelFamily.AR, p=p)
        series = make_series(spec, 400, theta0, seed=seed)
        ks = default_window(spec, 400).indices
        theta_full = estimate(spec, series).theta_hat
        sums = _derivative_pass(spec, series, theta_full)
        theta, ok = _ar_window_steps(spec, theta_full, _window_sums(sums.hessian, ks - 1),
                                     _window_sums(sums.scores, ks - 1))
        theta_ref, ok_ref = stacked_reference.ar_window_least_squares(
            spec, series.data, ks)
        # A mask: both screens clear these windows by a margin far wider
        # than the round-off between their sums.
        np.testing.assert_array_equal(ok, ok_ref)
        assert_allclose(theta[ok], theta_ref[ok], rtol=0.0, atol=1e-12)


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

    @pytest.mark.parametrize("family", [ModelFamily.ARCH, ModelFamily.GARCH])
    @pytest.mark.parametrize("mode", ["exact", "one_step"])
    def test_all_zero_volatility_series_raises_scan_error(self, family, mode):
        # cond(F_full) is infinite.  The exact scan skipped the check and
        # returned Q = 0 and fail_to_reject, ARCH's default.
        spec = ModelSpec(family=family, p=1)
        with pytest.raises(ScanError, match="numerically singular"):
            scan(spec, SeriesSegment.full(np.zeros(400)), window_estimator=mode)

    @pytest.mark.parametrize("p", [1, 2])
    def test_all_zero_series_raises_scan_error(self, p):
        # Every lag is zero, so the one-step scan's full-sample mean
        # hessian is the zero matrix.
        spec = ModelSpec(family=ModelFamily.AR, p=p)
        with pytest.raises(ScanError, match="numerically singular"):
            scan(spec, SeriesSegment.full(np.zeros(300)))


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
