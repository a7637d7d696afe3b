"""Truncated quasi-likelihood: values, derivatives, volatility paths.

The frozen scalar oracles below were derived by hand from the model
definitions (conditional mean/variance with observations before X_1
treated as zero) and are computed here with independent loop-and-sum
arithmetic, not with the package's vectorised recursions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlscan import (
    DomainError,
    InfoMatrices,
    ModelSpec,
    SeriesSegment,
    info_matrices,
    loglik,
    qhat_t,
    volatility_path,
)
from qlscan.likelihood import _garch_states
from qlscan.scan_stat import _fgf
from conftest import THETA0, make_series, theta_near


def garch_h_direct(
    omega: float, a: float, b: float, x: np.ndarray, t: int
) -> float:
    """Truncated conditional variance by direct summation.

    h_t = omega / (1 - b) + a * sum_{j=1}^{t-1} b^(j-1) X_{t-j}^2, the
    finite sum the recursive implementation must reproduce.  O(t) per
    call, O(n^2) over a series; fine for oracle duty.
    """
    s = 0.0
    for j in range(1, t):
        s += b ** (j - 1) * x[t - 1 - j] ** 2
    return omega / (1.0 - b) + a * s


class TestHandOracles:
    def test_ar1_value_gradient_hessian(self, ar1_spec):
        # X = (1, 2, 3), phi = 0.5, X_0 = 0:
        #   residuals (1 - 0, 2 - 0.5, 3 - 1) -> q = (1, 2.25, 4)
        #   dq_t/dphi = -2 (X_t - phi X_{t-1}) X_{t-1} = (0, -3, -8)
        #   d2q_t/dphi2 = 2 X_{t-1}^2 = (0, 2, 8)
        seg = SeriesSegment.full([1.0, 2.0, 3.0])
        ev = loglik(ar1_spec, [0.5], seg)
        assert_allclose(ev.value, -0.5 * (1.0 + 2.25 + 4.0), rtol=1e-15)
        assert_allclose(ev.gradient, [-0.5 * (0.0 - 3.0 - 8.0)], rtol=1e-15)
        assert_allclose(ev.hessian, [[-0.5 * 10.0]], rtol=1e-15)

    def test_arch_value_gradient_hessian(self, arch_spec):
        # X = (1, 2), theta = (1, 0.5): h = (1, 1.5),
        #   q_t = X_t^2 / h_t + ln h_t,
        #   dq_t = (h_t - X_t^2) / h_t^2 * dh_t with dh = ((1,0), (1,1)),
        #   d2q_t = (2 X_t^2 / h_t^3 - 1 / h_t^2) dh dh'.
        seg = SeriesSegment.full([1.0, 2.0])
        ev = loglik(arch_spec, [1.0, 0.5], seg)
        q = [1.0, 4.0 / 1.5 + math.log(1.5)]
        assert_allclose(ev.value, -0.5 * sum(q), rtol=1e-15)
        assert_allclose(ev.gradient, [5.0 / 9.0, 5.0 / 9.0], rtol=1e-14)
        hess = -0.5 * np.array(
            [[1.0 + 52.0 / 27.0, 52.0 / 27.0], [52.0 / 27.0, 52.0 / 27.0]]
        )
        assert_allclose(ev.hessian, hess, rtol=1e-14)

    def test_garch_value_and_gradient(self, garch_spec):
        # X = (1, 2, 1), theta = (1, 0.3, 0.5).  With the lag-weight sums
        # s_t = sum_{j<t} b^(j-1) X_{t-j}^2 = (0, 1, 4.5) the variance
        # path is h = (2, 2.3, 3.35) and dh/dtheta follows by
        # differentiating omega/(1-b) + a s_t(b) term by term.
        om, a, b = 1.0, 0.3, 0.5
        x = [1.0, 2.0, 1.0]
        h, dh = [], []
        for t in range(1, 4):
            s = sum(b ** (j - 1) * x[t - 1 - j] ** 2 for j in range(1, t))
            ds = sum(
                (j - 1) * b ** (j - 2) * x[t - 1 - j] ** 2 for j in range(2, t)
            )
            h.append(om / (1 - b) + a * s)
            dh.append([1 / (1 - b), s, om / (1 - b) ** 2 + a * ds])
        value = -0.5 * sum(
            x[t] ** 2 / h[t] + math.log(h[t]) for t in range(3)
        )
        grad = -0.5 * sum(
            (h[t] - x[t] ** 2) / h[t] ** 2 * np.array(dh[t]) for t in range(3)
        )
        seg = SeriesSegment.full(x)
        ev = loglik(garch_spec, [om, a, b], seg, order=1)
        assert_allclose(h, [2.0, 2.3, 3.35], rtol=1e-15)
        assert_allclose(ev.value, value, rtol=1e-14)
        assert_allclose(ev.gradient, grad, rtol=1e-13)
        vp = volatility_path(garch_spec, [om, a, b], seg)
        assert_allclose(vp.h_hat, h, rtol=1e-15)
        assert_allclose(vp.dh, np.array(dh).T, rtol=1e-14)

    def test_qhat_t_matches_hand_values(self, arch_spec):
        seg = SeriesSegment.full([1.0, 2.0])
        q2, dq2, d2q2 = qhat_t(arch_spec, [1.0, 0.5], seg, 2)
        assert_allclose(q2, 4.0 / 1.5 + math.log(1.5), rtol=1e-15)
        assert_allclose(dq2, [-10.0 / 9.0, -10.0 / 9.0], rtol=1e-14)
        assert_allclose(d2q2, (52.0 / 27.0) * np.ones((2, 2)), rtol=1e-14)
        assert_allclose(d2q2, d2q2.T)


class TestGarchDirectSum:
    def test_recursion_equals_direct_summation(self, garch_spec):
        theta = (0.7, 0.25, 0.6)
        series = make_series(garch_spec, 80, (1.0, 0.4, 0.3), seed=(31, 0))
        vp = volatility_path(garch_spec, theta, SeriesSegment.full(series.data))
        direct = [
            garch_h_direct(*theta, series.data, t)
            for t in range(1, series.n + 1)
        ]
        assert_allclose(vp.h_hat, direct, rtol=1e-13)


class TestSubSampleSemantics:
    """Sub-sample likelihoods look back past their own start."""

    def test_qhat_t_is_window_independent(self, all_specs):
        # q_t uses X_1 .. X_{t-1} regardless of which window t sits in,
        # so prefix and suffix evaluations agree with the full series.
        for name, spec in all_specs.items():
            series = make_series(spec, 60, THETA0[name], seed=(32, 0))
            theta = THETA0[name]
            t = 35
            full = qhat_t(spec, theta, SeriesSegment.full(series.data), t)
            suf = qhat_t(spec, theta, SeriesSegment.suffix(series.data, 30), t)
            for a, b in zip(full, suf):
                assert_allclose(a, b, rtol=1e-15)

    def test_loglik_splits_additively(self, all_specs):
        for name, spec in all_specs.items():
            series = make_series(spec, 50, THETA0[name], seed=(33, 0))
            theta = THETA0[name]
            k = 20
            full = loglik(spec, theta, SeriesSegment.full(series.data))
            left = loglik(spec, theta, SeriesSegment.prefix(series.data, k))
            right = loglik(spec, theta, SeriesSegment.suffix(series.data, k))
            assert_allclose(full.value, left.value + right.value, rtol=1e-13)
            assert_allclose(
                full.gradient, left.gradient + right.gradient, rtol=1e-12
            )

    def test_loglik_is_sum_of_qhat_t(self, all_specs):
        for name, spec in all_specs.items():
            series = make_series(spec, 40, THETA0[name], seed=(34, 0))
            theta = THETA0[name]
            seg = SeriesSegment(series.data, 11, 30)
            ev = loglik(spec, theta, seg, keep_per_t_grads=True)
            qs, dqs = [], []
            for t in range(11, 31):
                q, dq, _ = qhat_t(spec, theta, seg, t)
                qs.append(q)
                dqs.append(dq)
            assert_allclose(ev.value, -0.5 * np.sum(qs), rtol=1e-13)
            assert_allclose(ev.gradient, -0.5 * np.sum(dqs, axis=0), rtol=1e-12)
            assert_allclose(ev.per_t_grads, dqs, rtol=1e-13)

    def test_qhat_t_outside_window_raises(self, ar1_spec):
        seg = SeriesSegment(np.ones(10), 3, 7)
        with pytest.raises(IndexError):
            qhat_t(ar1_spec, [0.5], seg, 2)
        with pytest.raises(IndexError):
            qhat_t(ar1_spec, [0.5], seg, 8)


class TestFiniteDifferences:
    """Analytic gradients and hessians against central differences."""

    @pytest.mark.parametrize("name", ["ar", "arch", "garch"])
    def test_gradient_and_hessian(self, all_specs, name):
        spec = all_specs[name]
        series = make_series(spec, 150, THETA0[name], seed=(35, 0))
        seg = SeriesSegment.full(series.data)
        rng = np.random.default_rng(77)
        eps = 1e-6
        for _ in range(10):
            theta = theta_near(rng, spec, THETA0[name])
            ev = loglik(spec, theta, seg)
            fd_grad = np.empty(spec.d)
            fd_hess_cols = []
            for i in range(spec.d):
                e = np.zeros(spec.d)
                e[i] = eps
                up = loglik(spec, theta + e, seg)
                dn = loglik(spec, theta - e, seg)
                fd_grad[i] = (up.value - dn.value) / (2 * eps)
                fd_hess_cols.append((up.gradient - dn.gradient) / (2 * eps))
            fd_hess = np.column_stack(fd_hess_cols)
            scale = max(1.0, float(np.abs(ev.gradient).max()))
            assert_allclose(ev.gradient, fd_grad, atol=1e-5 * scale)
            hscale = max(1.0, float(np.abs(ev.hessian).max()))
            assert_allclose(
                ev.hessian, (fd_hess + fd_hess.T) / 2, atol=1e-4 * hscale
            )


class TestValidation:
    def test_domain_error(self, arch_spec):
        seg = SeriesSegment.full([1.0, 2.0])
        with pytest.raises(DomainError):
            loglik(arch_spec, [1.0, 1.5], seg)
        with pytest.raises(DomainError):
            volatility_path(arch_spec, [-1.0, 0.3], seg)

    def test_per_t_flags_require_order(self, ar1_spec):
        seg = SeriesSegment.full([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            loglik(ar1_spec, [0.5], seg, order=0, keep_per_t_grads=True)
        with pytest.raises(ValueError):
            loglik(ar1_spec, [0.5], seg, order=1, keep_per_t_hessians=True)

    def test_order_skips_derivatives(self, garch_spec):
        seg = SeriesSegment.full([1.0, 2.0, 1.0])
        ev0 = loglik(garch_spec, [1.0, 0.3, 0.5], seg, order=0)
        assert ev0.gradient is None and ev0.hessian is None
        ev1 = loglik(garch_spec, [1.0, 0.3, 0.5], seg, order=1)
        assert ev1.gradient is not None and ev1.hessian is None
        assert_allclose(ev0.value, ev1.value, rtol=1e-15)

    def test_hessian_is_symmetric(self, garch_spec, garch_series):
        ev = loglik(garch_spec, THETA0["garch"], garch_series)
        assert_allclose(ev.hessian, ev.hessian.T)


def garch_states_loop(x2, beta, order):
    """s/u/w by the sequential recursion, one Python step at a time."""
    n = len(x2)
    s, u, w = [0.0] * n, [0.0] * n, [0.0] * n
    for t in range(1, n):
        s[t] = beta * s[t - 1] + x2[t - 1]
        u[t] = beta * u[t - 1] + s[t - 1]
        w[t] = beta * w[t - 1] + 2.0 * u[t - 1]
    return [np.array(v) for v in (s, u, w)[: order + 1]]


def garch_states_lfilter(x2, beta, order):
    """s/u/w through scipy's direct-form IIR filter."""
    lfilter = pytest.importorskip("scipy.signal").lfilter

    def shifted(inp):
        out = np.zeros_like(inp)
        out[1:] = lfilter([1.0], [1.0, -beta], inp[:-1])
        return out

    s = shifted(x2)
    u = shifted(s)
    w = shifted(2.0 * u)
    return [s, u, w][: order + 1]


class TestGarchStateRecursions:
    """The numpy doubling scan against two independent evaluations."""

    LENGTHS = (1, 2, 3, 63, 64, 65, 1000, 20000)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.1, 0.5, 0.98])
    def test_matches_loop_and_lfilter(self, beta, order):
        rng = np.random.default_rng(17)
        for n in self.LENGTHS:
            x2 = rng.standard_normal(n) ** 2
            got = [v for v in _garch_states(x2, beta, order) if v is not None]
            assert len(got) == order + 1
            for ref in (garch_states_loop(x2.tolist(), beta, order),
                        garch_states_lfilter(x2, beta, order)):
                for g, r in zip(got, ref):
                    assert_allclose(g, r, rtol=1e-13, atol=0.0)


class TestFgf:
    def test_matches_explicit_inverse(self, all_specs):
        for name, spec in all_specs.items():
            series = make_series(spec, 300, THETA0[name], seed=(41, 0))
            info = info_matrices(spec, series, np.asarray(THETA0[name]))
            f, g = info.f_hat, info.g_hat
            assert_allclose(_fgf(info), f @ np.linalg.inv(g) @ f, rtol=1e-12)

    def test_indefinite_g_contributes_nothing(self):
        # Well conditioned, so the condition test passes, but not
        # positive definite: the Cholesky factorisation must refuse it.
        info = InfoMatrices(g_hat=np.diag([1.0, -1.0]), f_hat=np.eye(2),
                            cond_g=1.0, g_invertible=True)
        assert _fgf(info) is None
