"""Truncated quasi-likelihood: values, derivatives, volatility paths.

The frozen scalar oracles below were derived by hand from the model
definitions (conditional mean/variance with observations before X_1
treated as zero) and are computed here with independent loop-and-sum
arithmetic, not with the package's vectorised recursions.

Each bit-equality assertion says which kind it is.  Numpy-elementwise
(portable): both sides run numpy's own elementwise and reduction loops,
such as the kernel's per-observation terms and the pairwise value sums,
which give the same bits on every BLAS kernel.  BLAS/LAPACK-bound: the
values pass through a matmul sum, as every gradient and hessian of
``loglik_rows`` does, whose bits vary between kernels; the assertion
holds on each kernel because both sides make the same calls on the same
inputs, and may break on some kernel if one side's calls change shape.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qlscan import (
    DomainError,
    ModelFamily,
    ModelSpec,
    SeriesSegment,
    loglik,
    qhat_t,
    volatility_path,
)
from qlscan import likelihood as likelihood_module
from qlscan.likelihood import _first_order_filter, _garch_state, loglik_rows
from conftest import THETA0, make_series, theta_near
import iteration_reference
import per_t_reference
from per_k_sigma import InfoMatrices, fgf, info_matrices


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


    def test_ar_volatility_path_is_the_lagged_mean(self):
        # AR(2) on the window {3, ..., 6}: f_t = phi_1 X_{t-1} + phi_2 X_{t-2}
        # with X_0 = X_{-1} = 0, unit variance, no variance derivatives.
        spec = ModelSpec(family=ModelFamily.AR, p=2)
        x = [0.5, -1.0, 2.0, 0.25, -0.75, 1.5]
        phi = (0.4, -0.3)
        vp = volatility_path(spec, phi, SeriesSegment(x, 3, 6))
        lagged = [phi[0] * x[t - 2] + phi[1] * x[t - 3] for t in range(3, 7)]
        assert_allclose(vp.f_hat, lagged, rtol=1e-15)
        # Portable: set, not computed.
        np.testing.assert_array_equal(vp.h_hat, np.ones(4))
        np.testing.assert_array_equal(vp.dh, np.zeros((2, 4)))
        np.testing.assert_array_equal(vp.d2h, np.zeros((2, 2, 4)))


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
            ev = loglik(spec, theta, seg, keep_per_t=True)
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

    def test_per_t_terms_at_every_order(self, all_specs, ar1_spec):
        # keep_per_t once required order 2, though the per-observation
        # arrays come from their own kernel evaluation at any order.
        for name, spec in all_specs.items():
            theta = THETA0[name]
            seg = SeriesSegment(make_series(spec, 300, theta, seed=(36, 0)).data, 41, 260)
            want = loglik(spec, theta, seg, order=2, keep_per_t=True)
            for order in (0, 1, 2):
                kept = loglik(spec, theta, seg, order=order, keep_per_t=True)
                sums = loglik(spec, theta, seg, order=order)
                for got, ref in ((kept.per_t_values, want.per_t_values),
                                 (kept.per_t_grads, want.per_t_grads),
                                 (kept.per_t_hessians, want.per_t_hessians)):
                    assert np.array_equal(got, ref)  # portable: elementwise terms
                assert kept.value == sums.value  # portable: a pairwise sum
                for got, ref in ((kept.gradient, sums.gradient),
                                 (kept.hessian, sums.hessian)):
                    assert (got is None) == (ref is None)
                    # BLAS/LAPACK-bound: the same matmul sums both times.
                    assert got is None or np.array_equal(got, ref)
        seg = SeriesSegment.full([1.0, 2.0, 3.0])
        # An order outside {0, 1, 2} once gave a bare value (-1), acted as
        # 2 (3), or returned (None, None, None) from loglik_rows.
        for order in (-1, 3):
            with pytest.raises(ValueError):
                loglik(ar1_spec, [0.5], seg, order=order)
            with pytest.raises(ValueError):
                loglik_rows(ar1_spec, np.array([[0.5]]), seg.data, np.array([1]),
                            np.array([3]), order=order)

    def test_order_skips_derivatives(self, garch_spec):
        seg = SeriesSegment.full([1.0, 2.0, 1.0])
        ev0 = loglik(garch_spec, [1.0, 0.3, 0.5], seg, order=0)
        assert ev0.gradient is None and ev0.hessian is None
        ev1 = loglik(garch_spec, [1.0, 0.3, 0.5], seg, order=1)
        assert ev1.gradient is not None and ev1.hessian is None
        assert_allclose(ev0.value, ev1.value, rtol=1e-15)

    def test_order_one_is_order_two_without_the_hessian(self, garch_spec):
        # Order 1 once ran the kernel with a shorter GARCH stack, and its
        # gradient differed from order 2's by up to 3.4e-16 relative here.
        series = make_series(garch_spec, 700, (1.0, 0.4, 0.1), seed=(1, 0))
        for start, end in ((1, 700), (1, 350), (351, 700), (101, 600)):
            seg = SeriesSegment(series.data, start, end)
            ev1 = loglik(garch_spec, [1.0, 0.3, 0.5], seg, order=1)
            ev2 = loglik(garch_spec, [1.0, 0.3, 0.5], seg, order=2)
            assert ev1.hessian is None
            assert ev1.value == ev2.value  # portable: a pairwise sum
            # BLAS/LAPACK-bound: order 1 runs order 2's matmul sums.
            np.testing.assert_array_equal(ev1.gradient, ev2.gradient)

    def test_hessian_is_symmetric(self, garch_spec, garch_series):
        ev = loglik(garch_spec, THETA0["garch"], garch_series)
        assert_allclose(ev.hessian, ev.hessian.T)


def assert_sums_close(got, terms, rtol=1e-12):
    """``got`` against -1/2 the sum of ``terms`` over t (axis 0), within
    ``rtol`` of -1/2 the sum of their absolute values."""
    want = -0.5 * terms.sum(axis=0)
    scale = 0.5 * np.abs(terms).sum(axis=0)
    assert np.all(np.abs(got - want) <= rtol * scale), np.max(np.abs(got - want) / scale)


class TestPerObservation:
    """``loglik``'s per-observation arrays against explicit recursions,
    and ``loglik``'s sums as one row of ``loglik_rows``."""

    SPECS = [("ar", THETA0["ar"]), ("ar3", (0.3, 0.2, 0.1)),
             ("arch", THETA0["arch"]), ("garch", THETA0["garch"])]

    @pytest.mark.parametrize("name, theta0", SPECS)
    def test_arrays_match_the_reference(self, all_specs, name, theta0):
        spec = all_specs.get(name) or ModelSpec(ModelFamily.AR, p=3)
        series = make_series(spec, 300, theta0, seed=(436, 0))
        rng = np.random.default_rng(437)
        iu, ju = np.triu_indices(spec.d)
        for start, end in ((1, 300), (57, 260), (1, 1), (150, 150)):
            theta = theta_near(rng, spec, theta0)
            ev = loglik(spec, theta, SeriesSegment(series.data, start, end), keep_per_t=True)
            q, dq, d2q = per_t_reference.per_t_terms(spec, theta, series.data)
            sl = slice(start - 1, end)
            m = end - start + 1
            assert ev.per_t_hessians.shape == (m, spec.d * (spec.d + 1) // 2)
            for got, want in ((ev.per_t_values, q[sl]), (ev.per_t_grads, dq[sl]),
                              (ev.per_t_hessians, d2q[sl][:, iu, ju])):
                assert got.shape == want.shape
                assert_allclose(got, want, rtol=1e-11, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("name, theta0", SPECS)
    def test_keep_per_t_changes_no_bit(self, all_specs, name, theta0):
        spec = all_specs.get(name) or ModelSpec(ModelFamily.AR, p=3)
        series = make_series(spec, 700, theta0, seed=(438, 0))
        theta = theta_near(np.random.default_rng(439), spec, theta0)
        for start, end in ((1, 700), (1, 333), (201, 700), (90, 400)):
            seg = SeriesSegment(series.data, start, end)
            for order in (0, 1, 2):
                ev = loglik(spec, theta, seg, order=order)
                row = loglik_rows(spec, theta[None, :], series.data, np.array([start]),
                                  np.array([end]), order=order)
                assert ev.value == row[0][0]  # portable: a pairwise sum
                for got, want in ((ev.gradient, row[1]), (ev.hessian, row[2])):
                    assert (got is None) == (want is None)
                    # BLAS/LAPACK-bound: the same one-row matmul sums.
                    assert got is None or np.array_equal(got, want[0])
            kept = loglik(spec, theta, seg, keep_per_t=True)
            assert kept.value == ev.value  # portable: a pairwise sum
            # BLAS/LAPACK-bound, as above.
            assert np.array_equal(kept.gradient, ev.gradient)
            assert np.array_equal(kept.hessian, ev.hessian)


class TestLoglikRows:
    """Each row of the batched evaluation against the reference sums on
    its window."""

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name, theta0", [
        ("ar", THETA0["ar"]),
        ("ar3", (0.3, 0.2, 0.1)),
        ("arch", THETA0["arch"]),
        ("garch", THETA0["garch"]),
    ])
    def test_rows_match_loglik(self, all_specs, name, theta0, order):
        # ``loglik`` is itself a one-row call, so the oracle is the sum of
        # the reference recursions' terms over each window.
        spec = all_specs.get(name) or ModelSpec(ModelFamily.AR, p=3)
        series = make_series(spec, 300, theta0, seed=(430, 0))
        n = series.n
        # Full sample, prefixes (one of four points), suffixes, an interior
        # window and a single point, one parameter row each.
        starts = np.array([1, 1, 1, 121, 201, 57, 150])
        ends = np.array([n, 120, 4, n, n, 260, 150])
        rng = np.random.default_rng(431)
        thetas = np.array([theta_near(rng, spec, theta0) for _ in starts])
        value, grad, hess = loglik_rows(spec, thetas, series.data, starts, ends,
                                        order=order)
        assert (grad is None) == (order < 1) and (hess is None) == (order < 2)
        for r, (start, end) in enumerate(zip(starts, ends)):
            terms = per_t_reference.per_t_terms(spec, thetas[r], series.data)
            sl = slice(start - 1, end)
            for got, per_t in zip((value, grad, hess)[: order + 1], terms):
                assert_sums_close(got[r], per_t[sl])

    # 2^22 values hold all five rows of the test below in one chunk.
    @pytest.mark.parametrize("chunk", [None, 2**22])
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name, theta0", [
        ("ar", THETA0["ar"]),
        ("ar3", (0.3, 0.2, 0.1)),
        ("arch", THETA0["arch"]),
        ("garch", THETA0["garch"]),
    ])
    def test_rows_do_not_depend_on_the_row_count(self, monkeypatch, all_specs, name,
                                                 theta0, order, chunk):
        # einsum row sums over windows longer than 8192 observations once
        # gave a row of a one-row call other last bits than the same row
        # in a call of several rows.
        if chunk is not None:
            monkeypatch.setattr(likelihood_module, "_CHUNK_VALUES", chunk)
        spec = all_specs.get(name) or ModelSpec(ModelFamily.AR, p=3)
        n = 20_000
        series = make_series(spec, n, theta0, seed=(432, 0))
        starts = np.array([1, 1, 9001, 3001, 12001])
        ends = np.array([n, 8000, n, 15000, 18000])
        rng = np.random.default_rng(433)
        thetas = np.array([theta_near(rng, spec, theta0) for _ in starts])
        stacked = loglik_rows(spec, thetas, series.data, starts, ends, order=order)
        for r in range(starts.size):
            alone = loglik_rows(spec, thetas[r:r + 1], series.data, starts[r:r + 1],
                                ends[r:r + 1], order=order)
            for got, want in zip(stacked[: order + 1], alone[: order + 1]):
                # The value is portable (a pairwise sum); the derivatives
                # are BLAS/LAPACK-bound: one matmul per row, stacked or alone.
                assert np.array_equal(got[r], want[0])

    # 2^12 values split the span classes into chunks (16 rows at span
    # 256, 5 at span 700); 2^22 holds each class in one chunk.
    @pytest.mark.parametrize("chunk", [None, 2**12, 2**22])
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name, theta0", [
        ("ar2", (0.5, 0.2)),
        ("arch", THETA0["arch"]),
        ("garch", THETA0["garch"]),
    ])
    def test_mixed_windows_do_not_depend_on_the_row_count(self, monkeypatch, all_specs,
                                                          name, theta0, order, chunk):
        # Prefixes, suffixes, full windows and an interior window, shuffled,
        # in several span classes: each row's bits are those it gets alone.
        if chunk is not None:
            monkeypatch.setattr(likelihood_module, "_CHUNK_VALUES", chunk)
        spec = all_specs.get(name) or ModelSpec(ModelFamily.AR, p=2)
        n = 700
        series = make_series(spec, n, theta0, seed=(434, 0))
        ks = np.arange(60, 641, 7)
        starts = np.concatenate((np.ones(ks.size, dtype=np.int64), ks + 1, [1, 1, 90]))
        ends = np.concatenate((ks, np.full(ks.size, n), [n, n, 400]))
        rng = np.random.default_rng(435)
        order_rows = rng.permutation(starts.size)
        starts, ends = starts[order_rows], ends[order_rows]
        thetas = np.array([theta_near(rng, spec, theta0) for _ in starts])
        stacked = loglik_rows(spec, thetas, series.data, starts, ends, order=order)
        for r in range(starts.size):
            alone = loglik_rows(spec, thetas[r:r + 1], series.data, starts[r:r + 1],
                                ends[r:r + 1], order=order)
            for got, want in zip(stacked[: order + 1], alone[: order + 1]):
                assert np.array_equal(got[r], want[0])  # as in the test above
            segment = SeriesSegment(series.data, int(starts[r]), int(ends[r]))
            want = loglik(spec, thetas[r], segment, order=0).value
            assert_allclose(stacked[0][r], want, rtol=1e-12)

    def test_row_outside_the_domain_raises(self, garch_spec, garch_series):
        thetas = np.array([THETA0["garch"], [1.0, 0.6, 0.5]])
        with pytest.raises(DomainError):
            loglik_rows(garch_spec, thetas, garch_series.data, np.array([1, 1]),
                        np.array([50, 50]))


class TestStartClasses:
    """AR and ARCH rows run from their start's class, t > 128 *
    floor((start - 1) / 128), and read the observations before it as
    history; GARCH rows run from t = 1, where their recursion starts."""

    @staticmethod
    def evaluate(monkeypatch, spec, thetas, data, starts, ends, order):
        """``loglik_rows`` and the class starts its kernel ran from."""
        begins = []
        real = likelihood_module._values

        def recording(spec, thetas, data, begin, end):
            begins.append(begin)
            return real(spec, thetas, data, begin, end)

        with monkeypatch.context() as m:
            m.setattr(likelihood_module, "_values", recording)
            out = loglik_rows(spec, thetas, data, starts, ends, order=order)
        return out, sorted(set(begins))

    @pytest.mark.parametrize("order", [0, 2])
    @pytest.mark.parametrize("name, theta0", [("ar2", (0.5, 0.2)), ("arch", THETA0["arch"])])
    def test_windows_match_the_reference(self, monkeypatch, all_specs, name, theta0, order):
        spec = all_specs.get(name) or ModelSpec(ModelFamily.AR, p=2)
        n = 700
        series = make_series(spec, n, theta0, seed=(450, 0))
        # 129, 257 and 641 are the first rows of their classes, 128 the
        # last of the first one; a class's rows may end anywhere.
        starts = np.array([129, 128, 130, 257, 129, 2, 641, 1])
        ends = np.array([n, n, 400, 300, 129, 128, n, n])
        rng = np.random.default_rng(451)
        thetas = np.array([theta_near(rng, spec, theta0) for _ in starts])
        stacked, begins = self.evaluate(monkeypatch, spec, thetas, series.data, starts,
                                        ends, order)
        assert begins == [0, 128, 256, 640]
        for r, (start, end) in enumerate(zip(starts, ends)):
            terms = per_t_reference.per_t_terms(spec, thetas[r], series.data)
            for got, per_t in zip(stacked[: order + 1], terms):
                assert_sums_close(got[r], per_t[start - 1 : end], rtol=1e-12)
            alone = loglik_rows(spec, thetas[r:r + 1], series.data, starts[r:r + 1],
                                ends[r:r + 1], order=order)
            for got, want in zip(stacked[: order + 1], alone[: order + 1]):
                # The value is portable (a pairwise sum); the derivatives
                # are BLAS/LAPACK-bound: one matmul per row, stacked or alone.
                assert np.array_equal(got[r], want[0])

    def test_garch_rows_run_from_the_first_observation(self, monkeypatch, garch_spec):
        # With beta_1 = 0.95 the variance remembers about 20 observations,
        # so a recursion restarted at t = 129 would miss the reference.
        n = 700
        series = make_series(garch_spec, n, THETA0["garch"], seed=(452, 0))
        theta = np.array([0.2, 0.03, 0.95])
        starts, ends = np.array([129, 300]), np.array([n, 600])
        (value, grad, hess), begins = self.evaluate(
            monkeypatch, garch_spec, np.tile(theta, (2, 1)), series.data, starts, ends, 2)
        assert begins == [0]
        terms = per_t_reference.per_t_terms(garch_spec, theta, series.data)
        restarted = per_t_reference.per_t_terms(garch_spec, theta, series.data[128:])
        for r, (start, end) in enumerate(zip(starts, ends)):
            for got, per_t in zip((value, grad, hess), terms):
                assert_sums_close(got[r], per_t[start - 1 : end], rtol=1e-12)
        assert abs(value[0] + 0.5 * restarted[0].sum()) > 1e-6 * abs(value[0])


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
            # s, u and w as the kernel chains them.
            got = [_garch_state(x2, beta, out=np.empty(n))]
            for inp in (lambda s: s, lambda u: 2.0 * u)[:order]:
                got.append(_garch_state(inp(got[-1]), beta, out=np.empty(n)))
            for ref in (garch_states_loop(x2.tolist(), beta, order),
                        garch_states_lfilter(x2, beta, order)):
                for g, r in zip(got, ref):
                    assert_allclose(g, r, rtol=1e-13, atol=0.0)


class _Recorder(np.ndarray):
    """An array that records every scalar it is multiplied by."""

    scalars: list[float] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.multiply:
            self.scalars.extend(float(v) for v in inputs if np.ndim(v) == 0)

        def plain(values):
            return tuple(v.view(np.ndarray) if isinstance(v, _Recorder) else v
                         for v in values)

        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        return getattr(ufunc, method)(*plain(inputs), **kwargs)


class TestFilterEarlyStop:
    """The doubling scan stops once no pass can change a bit: every
    result equals the full-pass filter's, bit for bit."""

    @given(
        n=st.integers(1, 3000),
        betas=st.lists(st.one_of(st.floats(0.0, 0.98), st.floats(0.48, 0.5)),
                       min_size=1, max_size=4),
        vector=st.booleans(),
        exponent=st.floats(-150.0, 150.0),
        leading=st.sampled_from([0.0, 0.001, 0.1, 1.0]),
        zeros=st.sampled_from([0.0, 0.01, 0.3]),
        negative=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_every_pass(self, n, betas, vector, exponent, leading,
                                         zeros, negative, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) ** 2 * 10.0**exponent
        x[: int(leading * n)] = 0.0
        x[rng.random(n) < zeros] = 0.0
        if negative:
            x[rng.random(n) < 0.05] *= -1.0
        beta = np.array(betas) if vector else betas[0]
        got = _first_order_filter(x, beta)
        # Portable: both filters are numpy elementwise passes.
        assert np.array_equal(got, iteration_reference.first_order_filter(x, beta))

    def test_no_subnormal_coefficient(self):
        # Running the passes until beta^s underflows takes one with a
        # subnormal beta^s (shift 1024 for beta = 0.5), which cost 2.5
        # times a pass with a normal coefficient.
        x = np.random.default_rng(7).standard_normal(20_000) ** 2
        _Recorder.scalars = []
        got = _first_order_filter(x, 0.5, out=np.empty_like(x).view(_Recorder))
        assert _Recorder.scalars
        tiny = np.finfo(float).tiny
        assert all(c == 0.0 or abs(c) >= tiny for c in _Recorder.scalars)
        # Portable, as above.
        assert np.array_equal(got.view(np.ndarray),
                              iteration_reference.first_order_filter(x, 0.5))


class TestFgf:
    def test_matches_explicit_inverse(self, all_specs):
        for name, spec in all_specs.items():
            series = make_series(spec, 300, THETA0[name], seed=(41, 0))
            info = info_matrices(spec, series, np.asarray(THETA0[name]))
            f, g = info.f_hat, info.g_hat
            assert_allclose(fgf(info), f @ np.linalg.inv(g) @ f, rtol=1e-12)

    def test_indefinite_g_contributes_nothing(self):
        # Well conditioned, so the condition test passes, but not
        # positive definite: the Cholesky factorisation must refuse it.
        info = InfoMatrices(g_hat=np.diag([1.0, -1.0]), f_hat=np.eye(2),
                            cond_g=1.0, g_invertible=True)
        assert fgf(info) is None
