"""QMLE: closed-form checks, warm starts, domain projection.

Each bit-equality assertion says which kind it is.  Numpy-elementwise
(portable): both sides run numpy's own elementwise and reduction loops,
which give the same bits on every BLAS kernel.  BLAS/LAPACK-bound: the
values pass through ``np.linalg.solve``, ``eigh`` or a matmul sum, whose
bits vary between kernels; the assertion holds on each kernel because
both sides make the same calls on the same inputs, and may break on
some kernel if one side's calls change shape.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from qlscan import (
    DomainError,
    ModelFamily,
    ModelSpec,
    ParamDomain,
    SeriesSegment,
    SimPlan,
    SizingError,
    estimate,
    generate,
    in_domain,
    loglik,
    project_to_domain,
)
from qlscan import _stacks
from qlscan import qmle as qmle_module
from qlscan.models import stationarity_stat
from qlscan.qmle import estimate_windows
import iteration_reference
import scalar_ascent
from conftest import THETA0, make_series


def ar_least_squares(x: np.ndarray, p: int) -> np.ndarray:
    """Closed-form least squares for AR(p) with pre-sample zeros.

    The AR quasi-likelihood is -1/2 sum (X_t - phi'Z_t)^2 with
    Z_t = (X_{t-1}, ..., X_{t-p}) and X_s = 0 for s < 1, so the interior
    maximiser solves the normal equations on the truncated lag matrix.
    """
    n = x.size
    z = np.zeros((n, p))
    for j in range(1, p + 1):
        z[j:, j - 1] = x[:-j]
    return np.linalg.solve(z.T @ z, z.T @ x)


class TestArClosedForm:
    @pytest.mark.parametrize("p, theta", [(1, (0.5,)), (2, (0.4, -0.3))])
    def test_matches_least_squares(self, p, theta):
        spec = ModelSpec(family=ModelFamily.AR, p=p)
        for s in range(10):
            series = make_series(spec, 300, theta, seed=(210, p, s))
            ls = ar_least_squares(series.data, p)
            assert in_domain(spec, ls)  # interior case: LS is the QMLE
            res = estimate(spec, SeriesSegment.full(series.data))
            assert res.converged
            assert_allclose(res.theta_hat, ls, atol=1e-6)

    def test_constrained_case_hits_boundary(self, ar1_spec):
        # A deterministic upward trend pushes unconstrained LS above 1;
        # the estimate must stop at the stationarity bound instead.
        x = np.linspace(1.0, 9.0, 60)
        assert ar_least_squares(x, 1)[0] > 0.98
        res = estimate(ar1_spec, SeriesSegment.full(x))
        assert_allclose(res.theta_hat, [0.98], atol=1e-10)
        assert res.boundary_active


class TestWarmStart:
    @pytest.mark.parametrize("name", ["ar", "arch", "garch"])
    def test_warm_equals_cold(self, all_specs, name):
        spec = all_specs[name]
        for s in range(3):
            series = make_series(spec, 500, THETA0[name], seed=(200, s))
            seg = SeriesSegment.full(series.data)
            cold = estimate(spec, seg)
            warm = estimate(spec, seg, init=np.asarray(THETA0[name]))
            assert cold.converged and warm.converged
            assert_allclose(warm.theta_hat, cold.theta_hat, atol=1e-4)
            assert_allclose(
                warm.loglik_at_opt, cold.loglik_at_opt, rtol=1e-10, atol=1e-8
            )

    def test_warm_start_is_projected_first(self, arch_spec, arch_series):
        # An infeasible init must not crash: it is projected into the
        # domain and used as the single start.
        res = estimate(
            arch_spec,
            SeriesSegment.full(arch_series.data),
            init=[5.0, 2.0],
        )
        assert res.converged
        assert in_domain(arch_spec, res.theta_hat)


class TestBatchedStarts:
    """``estimate`` climbs its starts as rows of one batched ascent."""

    @pytest.mark.parametrize("name", ["ar", "arch", "garch"])
    def test_matches_the_scalar_reference(self, monkeypatch, all_specs, name):
        # The scalar reference climbs the same starts one at a time.  Cut
        # short at 3 iterations, the starts end apart, so the best one
        # must be picked, and a warm climb ends unconverged, so it is
        # retried cold.
        spec = all_specs[name]
        for s, max_iter in product(range(3), (qmle_module._MAX_ITER, 3)):
            monkeypatch.setattr(qmle_module, "_MAX_ITER", max_iter)
            series = make_series(spec, 500, THETA0[name], seed=(230, s))
            for init in (None, 0.8 * np.asarray(THETA0[name])):
                got = estimate(spec, series, init=init)
                if init is None:
                    want = scalar_ascent.estimate(spec, series)
                else:
                    want = scalar_ascent.estimate_with_retry(spec, series, init)
                assert got.converged == want.converged
                assert_allclose(got.theta_hat, want.theta_hat, rtol=0.0, atol=1e-6)
                assert_allclose(got.loglik_at_opt, want.loglik_at_opt, rtol=1e-12)


class TestOneFitPath:
    """``estimate`` is one window of ``estimate_windows``, warm or cold."""

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("name", ["ar", "arch", "garch"])
    def test_estimate_is_row_zero_of_estimate_windows(self, all_specs, name, warm):
        # Bit equality, BLAS/LAPACK-bound: both sides run the same climb.
        spec = all_specs[name]
        data = make_series(spec, 500, THETA0[name], seed=(260, 0)).data
        seg = SeriesSegment(data, 41, 460)
        init = 0.8 * np.asarray(THETA0[name]) if warm else None
        got = estimate(spec, seg, init)
        fit = estimate_windows(spec, seg.data, [seg.start], [seg.end], init)
        assert got.theta_hat.tobytes() == fit.theta[0].tobytes()
        assert (got.loglik_at_opt, got.grad_norm, got.iterations, got.converged) == (
            -fit.f[0], fit.grad_norm[0], fit.iterations[0], fit.converged[0])

    @pytest.mark.parametrize("name", ["arch", "garch"])
    def test_unconverged_warm_fit_is_retried_cold(self, monkeypatch, all_specs, name):
        # One iteration leaves the warm climb unconverged.  A warm
        # ``estimate`` then takes the cold multi-start's fit, as the exact
        # scan's window does, in every field.  Bit equality,
        # BLAS/LAPACK-bound: the cold fit is the same climb both times.
        spec = all_specs[name]
        series = make_series(spec, 500, THETA0[name], seed=(261, 0))
        real = qmle_module._fit_rows
        warm_converged = []

        def one_warm_iteration(spec, data, starts, ends, x0, seeds=None):
            if x0.shape[0] > 1:
                return real(spec, data, starts, ends, x0, seeds)
            with monkeypatch.context() as m:
                m.setattr(qmle_module, "_MAX_ITER", 1)
                fits = real(spec, data, starts, ends, x0, seeds)
            warm_converged.append(bool(fits[4][0]))
            return fits

        cold = estimate(spec, series)
        monkeypatch.setattr(qmle_module, "_fit_rows", one_warm_iteration)
        got = estimate(spec, series, init=THETA0[name])
        assert warm_converged == [False]
        assert got.converged
        assert got.theta_hat.tobytes() == cold.theta_hat.tobytes()
        assert (got.loglik_at_opt, got.grad_norm, got.iterations, got.boundary_active) == (
            cold.loglik_at_opt, cold.grad_norm, cold.iterations, cold.boundary_active)


class TestEvaluationContract:
    """A climb computes derivatives only where it keeps them: at its
    start points and at each trial that passes its Armijo test, once,
    in the call that tests it."""

    @staticmethod
    def check(monkeypatch, fit):
        """Run ``fit`` with ``qmle.loglik_rows`` and ``qmle._run_rows``
        wrapped, check the contract and return the fit."""
        calls, climbs = [], []
        real_rows, real_run = qmle_module.loglik_rows, qmle_module._run_rows

        def rows(*args, **kwargs):
            out = real_rows(*args, **kwargs)
            calls.append((kwargs.get("floor"), out))
            return out

        def run(*args, **kwargs):
            climbs.append(real_run(*args, **kwargs))
            return climbs[-1]

        with monkeypatch.context() as m:
            m.setattr(qmle_module, "loglik_rows", rows)
            m.setattr(qmle_module, "_run_rows", run)
            got = fit()
        derived = rejected = 0
        for floor, (value, grad, hess) in calls:
            assert np.all(np.isfinite(value))
            passed = np.ones(value.size, dtype=bool) if floor is None else value >= floor
            has = np.all(np.isfinite(grad), axis=1) & np.all(np.isfinite(hess), axis=(1, 2))
            # A failed trial gets its value and nothing else.
            np.testing.assert_array_equal(has, passed)
            assert np.all(np.isnan(grad[~passed])) and np.all(np.isnan(hess[~passed]))
            derived += has.sum()
            rejected += (~passed).sum()
        assert rejected > 0
        # Every row of a climb's first call, then one row per accepted
        # step, which is one iteration of its row.
        assert derived == sum(c.iterations.size + c.iterations.sum() for c in climbs)
        return got

    @staticmethod
    def every_derivative(monkeypatch, fit):
        """``fit`` with every trial evaluated with its derivatives."""
        real = qmle_module.loglik_rows
        with monkeypatch.context() as m:
            m.setattr(qmle_module, "loglik_rows",
                      lambda *args, floor=None, **kwargs: real(*args, **kwargs))
            return fit()

    def test_warm_window_batch(self, monkeypatch, arch_spec):
        series = make_series(arch_spec, 300, THETA0["arch"], seed=(240, 0))
        ks = np.arange(40, 261)
        starts = np.concatenate((np.ones(ks.size, dtype=np.int64), ks + 1))
        ends = np.concatenate((ks, np.full(ks.size, series.n)))
        init = estimate(arch_spec, series).theta_hat

        def fit():
            return estimate_windows(arch_spec, series.data, starts, ends, init)

        got = self.check(monkeypatch, fit)
        want = self.every_derivative(monkeypatch, fit)
        # Bit equality, BLAS/LAPACK-bound: the same climbs, with and
        # without the derivatives of rejected trials.
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_cold_fit(self, monkeypatch, garch_spec, garch_series):
        def fit():
            return estimate(garch_spec, garch_series)

        got = self.check(monkeypatch, fit)
        want = self.every_derivative(monkeypatch, fit)
        # Bit equality, BLAS/LAPACK-bound, as above.
        np.testing.assert_array_equal(got.theta_hat, want.theta_hat)
        assert (got.loglik_at_opt, got.grad_norm, got.iterations, got.converged,
                got.boundary_active) == (want.loglik_at_opt, want.grad_norm,
                                         want.iterations, want.converged,
                                         want.boundary_active)


REPAIR_KINDS = ("spd", "near", "indefinite", "zero", "nonfinite")


def _hessian_stack(d, seed, kinds):
    """Symmetric d x d matrices, one per kind, scaled by 10^(-6..6).

    ``spd`` rows have cond below 1e3; ``near`` rows have their smallest
    eigenvalue 1e-6..1e-10 times the largest, around the repair's floor;
    ``indefinite`` rows have 1 to d - 1 negative eigenvalues, so that
    some have a positive determinant; ``zero`` rows are
    zero; ``nonfinite`` rows hold a NaN or an infinity.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((len(kinds), d, d))
    for r, kind in enumerate(kinds):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        ev = 10.0 ** -rng.uniform(0.0, 3.0, size=d)
        ev[0] = 1.0
        if kind == "near":
            ev[-1] = 10.0 ** -rng.uniform(6.0, 10.0)
        elif kind == "indefinite":
            ev[1 : 1 + rng.integers(1, d)] *= -1.0
        elif kind == "zero":
            ev[:] = 0.0
        m = 10.0 ** rng.uniform(-6.0, 6.0) * (q * ev) @ q.T
        out[r] = (m + m.T) / 2.0
        if kind == "nonfinite":
            i, j = rng.integers(d, size=2)
            out[r, i, j] = out[r, j, i] = rng.choice([np.nan, np.inf, -np.inf])
    return out


class TestRepairScreen:
    """``_psd_repair`` returns the matrices its screen clears as they are,
    and repairs only the others, through ``eigh``, as it always did.

    Bit equalities: a cleared matrix returned as it is is portable (no
    arithmetic); repaired rows and their directions, and the non-finite
    outcomes, are BLAS/LAPACK-bound (both sides call ``eigh`` and
    ``solve`` on the same matrices)."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_repair_matches_the_always_repair_oracle(self, d, seed):
        kinds = [REPAIR_KINDS[i % 4] for i in range(60)]
        hess = _hessian_stack(d, seed, kinds)
        cleared = _stacks._repair_screen(hess)
        got = qmle_module._psd_repair(hess)
        want = iteration_reference.psd_repair(hess)
        for r, kind in enumerate(kinds):
            evals = np.linalg.eigvalsh(hess[r])
            floor = 1e-8 * max(1.0, np.abs(evals).max())
            # Well conditioned and not small: det / tr^(m-1) is at least
            # lambda_min^2 / (9 lambda_max), far above the floor.
            if evals.min() >= 1e-3 * evals.max() and evals.max() >= 1.0:
                assert cleared[r]
            if kind in ("indefinite", "zero"):
                assert not cleared[r]
            if cleared[r]:
                # The screen is a proof: eigh finds every eigenvalue at or
                # above the floor, so the oracle's repair is H itself.
                assert evals.min() >= floor
                assert np.array_equal(got[r], hess[r])
                scale = np.abs(hess[r]).max()
                assert_allclose(want[r], hess[r], rtol=0.0, atol=1e-12 * scale)
            else:
                np.testing.assert_array_equal(got[r], want[r])

    @pytest.mark.parametrize("name", ["arch", "garch"])
    @pytest.mark.parametrize("seed", range(5))
    def test_directions_match_the_always_repair_oracle(self, all_specs, name, seed):
        spec = all_specs[name]
        kinds = [REPAIR_KINDS[i % 4] for i in range(40)]
        hess = _hessian_stack(spec.d, seed, kinds)
        rng = np.random.default_rng(seed)
        # Interior points: every coordinate free, no binding face.
        x = np.tile(THETA0[name], (len(kinds), 1))
        grad = rng.normal(size=x.shape)
        got = qmle_module._newton_directions(spec, x, grad, hess)
        want = iteration_reference.newton_directions(spec, x, grad, hess)
        cleared = _stacks._repair_screen(hess)
        for r in range(len(kinds)):
            if cleared[r]:
                # Both solve H, one as given and one rebuilt from its
                # eigenvectors: they agree to round-off times cond(H).
                tol = 1e-12 * np.linalg.cond(hess[r])
                assert_allclose(got[r], want[r], rtol=tol, atol=tol * np.abs(want[r]).max())
            else:
                np.testing.assert_array_equal(got[r], want[r])

    @pytest.mark.parametrize("seed", range(10))
    def test_nonfinite_rows_fail_as_before(self, garch_spec, seed):
        # eigh raises for some non-finite matrices and returns NaN for
        # others; either way both versions must end alike.
        hess = _hessian_stack(3, seed, ["spd", "nonfinite", "near"])
        assert not _stacks._repair_screen(hess)[1]
        x = np.tile(THETA0["garch"], (3, 1))
        grad = np.ones((3, 3))
        for new, old in ((qmle_module._psd_repair, iteration_reference.psd_repair),
                         (qmle_module._newton_directions,
                          iteration_reference.newton_directions)):
            args = (hess,) if new is qmle_module._psd_repair else (garch_spec, x, grad, hess)
            outcomes = []
            for fn in (new, old):
                try:
                    outcomes.append(fn(*args)[1])
                except np.linalg.LinAlgError as exc:
                    outcomes.append(str(exc))
            if isinstance(outcomes[0], str):
                assert outcomes[0] == outcomes[1]
            else:
                np.testing.assert_array_equal(outcomes[0], outcomes[1])


def _face_spec(name):
    if name == "ar-signed":
        return _ar_box_spec((0.1, -0.9, -0.5), (0.9, -0.05, 0.5))
    if name[2:].isdigit():
        return ModelSpec(family=ModelFamily.AR, p=int(name[2:]))
    return ModelSpec(family=ModelFamily(name), p=1)


class TestNewtonDirections:
    """The active-set step on the stationarity face, checked on its own terms."""

    @given(st.sampled_from(["ar1", "ar2", "ar4", "ar-signed", "arch", "garch"]),
           st.integers(0, 2**32 - 1))
    # Frozen coordinates decoupled on a unit diagonal, off the free
    # block's scale, miss the residual bound here.
    @example(name="ar4", seed=0)
    @settings(max_examples=60, deadline=None)
    def test_face_rows_solve_the_bordered_system(self, name, seed):
        # Points whose box clip is not inside the stationarity constraint
        # project onto its face, some of them on box bounds and, for AR,
        # at zero in some coordinates.
        spec = _face_spec(name)
        lo, hi = spec.domain.as_arrays()
        rng = np.random.default_rng(seed)
        raw = 3.0 * rng.normal(size=(80, spec.d))
        raw[rng.random(raw.shape) < 0.2] = 0.0
        raw = raw[stationarity_stat(spec, np.clip(raw, lo, hi)) >= spec.domain.bound]
        x = qmle_module._project_rows(spec, raw)
        n = len(x)
        grad = rng.normal(size=x.shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
        kinds = REPAIR_KINDS[:4] if spec.d > 1 else ("spd", "near", "zero")
        hess = _hessian_stack(spec.d, seed, [kinds[r % len(kinds)] for r in range(n)])
        step = qmle_module._newton_directions(spec, x, grad, hess)
        for r in range(n):
            xr, g = x[r], grad[r]
            eps = qmle_module._ACTIVE_EPS * (1.0 + np.abs(xr).max())
            assert spec.domain.bound - stationarity_stat(spec, xr) <= eps
            frozen = ((xr - lo <= eps) & (g > 0.0)) | ((hi - xr <= eps) & (g < 0.0))
            if spec.family is ModelFamily.AR:
                frozen |= np.abs(xr) <= eps
                normal = np.sign(xr)
            else:
                normal = np.r_[0.0, np.ones(spec.d - 1)]
            assert np.all(step[r, frozen] == 0.0)  # portable: set, not computed
            free = ~frozen
            if not np.any(free):
                continue
            h_ff = qmle_module._psd_repair(hess[r][np.ix_(free, free)])
            s_f, g_f, n_f = step[r, free], g[free], normal[free]
            resid = h_ff @ s_f + g_f
            scale = np.linalg.norm(h_ff, 2) * np.linalg.norm(s_f) + np.linalg.norm(g_f)
            if normal @ g < 0.0 and np.any(n_f != 0.0):
                # Descent pushes outward: the step stays on the face, and
                # H s + g is the face's multiplier times its normal.
                newton = np.linalg.norm(np.linalg.solve(h_ff, g_f))
                assert abs(n_f @ s_f) <= 1e-12 * np.linalg.norm(n_f) * newton
                resid -= (resid @ n_f) / (n_f @ n_f) * n_f
            assert np.linalg.norm(resid) <= 1e-12 * scale

    @given(st.sampled_from(["ar1", "ar2", "ar3", "ar4", "ar-signed", "arch", "garch"]),
           st.sampled_from(["frozen", "face"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_solved_independently(self, name, forcing, seed):
        """A row's step depends on that row alone, bit for bit, as
        ``estimate_windows`` relies on: inserting a frozen or a face row
        into a stack of interior rows leaves every other row's step as
        it was.  Interior rows take the plain repaired Newton step, as
        the bordered system with a unit pivot gives it: that solve, one
        row at a time, is the reference, since a solve of the d x d block
        alone may round differently under another BLAS kernel.  Both bit
        equalities are BLAS/LAPACK-bound: ``eigh`` and ``solve`` on the
        same matrices, stacked differently."""
        spec = _face_spec(name)
        lo, hi = spec.domain.as_arrays()
        rng = np.random.default_rng(seed)
        x = lo + (hi - lo) * rng.uniform(0.05, 0.95, size=(200, spec.d))
        x = x[stationarity_stat(spec, x) < spec.domain.bound - 1e-3][:12]
        assume(len(x) > 0)
        n = len(x)
        grad = rng.normal(size=x.shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
        kinds = REPAIR_KINDS[:4] if spec.d > 1 else ("spd", "near", "zero")
        hess = _hessian_stack(spec.d, seed, [kinds[r % len(kinds)] for r in range(n + 1)])
        alone = qmle_module._newton_directions(spec, x, grad, hess[:n])
        repaired = qmle_module._psd_repair(hess[:n])
        for r in range(n):
            kkt = np.eye(spec.d + 1)
            kkt[:spec.d, :spec.d] = repaired[r]
            want = np.linalg.solve(kkt, np.r_[-grad[r], 0.0])[:spec.d]
            np.testing.assert_array_equal(alone[r], want)

        if forcing == "frozen":
            # Pressed against its lower bound by the gradient.
            x_force, g_force = x[0].copy(), grad[0].copy()
            x_force[0], g_force[0] = lo[0], abs(g_force[0]) + 1.0
        else:
            raw = 3.0 * rng.normal(size=(200, spec.d))
            raw = raw[stationarity_stat(spec, np.clip(raw, lo, hi)) >= spec.domain.bound]
            assume(len(raw) > 0)
            x_force = qmle_module._project_rows(spec, raw[:1])[0]
            # Descent pushes outward through the face.
            g_force = -(np.sign(x_force) if spec.family is ModelFamily.AR
                        else np.r_[0.0, np.ones(spec.d - 1)])
        at = rng.integers(0, n + 1)
        mixed = qmle_module._newton_directions(
            spec, np.insert(x, at, x_force, axis=0), np.insert(grad, at, g_force, axis=0),
            np.insert(hess[:n], at, hess[n], axis=0))
        np.testing.assert_array_equal(np.delete(mixed, at, axis=0), alone)

    def test_fully_frozen_rows_take_no_step(self, garch_spec):
        # GARCH at its lower corner with every partial pointing down, and
        # an AR(2) row on its face at its upper bound, with the zero
        # coordinate frozen by the face: neither row has a free coordinate.
        # Each stack also holds an interior row, which takes -g under H = I.
        # Bit equality, BLAS/LAPACK-bound but exact on every kernel: the
        # solve multiplies by 0 and divides by 1 only.
        ar2 = ModelSpec(family=ModelFamily.AR, p=2)
        cases = ((garch_spec, [1e-4, 0.0, 0.0], THETA0["garch"], [1.0, 2.0, 3.0]),
                 (ar2, [0.98, 0.0], [0.2, -0.3], [-1.0, 5.0]))
        for spec, frozen, interior, grad in cases:
            g = np.array([grad, grad])
            step = qmle_module._newton_directions(spec, np.array([frozen, interior]), g,
                                                  np.tile(np.eye(spec.d), (2, 1, 1)))
            np.testing.assert_array_equal(step, [np.zeros(spec.d), -g[1]])

    @pytest.mark.parametrize("p", [63, 64, 65])
    def test_each_row_solves_its_own_free_block_at_high_order(self, p):
        # An interior row and a row whose last coordinate is pressed
        # against its lower bound: under H = I each takes -g on its free
        # coordinates.  From d = 64 a free-set key packed into an int64
        # overflows and would mix the two rows up.  Bit equality exact on
        # every kernel, as in ``test_fully_frozen_rows_take_no_step``.
        spec = _ar_box_spec((-0.001,) * p, (0.5,) * p)
        x = np.full((2, p), 0.005)
        x[1, -1] = -0.001
        grad = np.tile(np.linspace(1.0, 2.0, p), (2, 1))
        step = qmle_module._newton_directions(spec, x, grad, np.tile(np.eye(p), (2, 1, 1)))
        want = -grad
        want[1, -1] = 0.0
        np.testing.assert_array_equal(step, want)


class TestEstimateContract:
    def test_result_fields(self, arch_spec, arch_series):
        res = estimate(arch_spec, SeriesSegment.full(arch_series.data))
        assert res.converged
        assert res.iterations >= 1
        assert res.grad_norm <= 1e-8 * arch_series.n
        ev = loglik(arch_spec, res.theta_hat, SeriesSegment.full(arch_series.data), order=0)
        assert_allclose(res.loglik_at_opt, ev.value, rtol=1e-12)
        assert not res.boundary_active

    def test_optimum_beats_neighbours(self, all_specs):
        # Local maximality: nudging the estimate in coordinate directions
        # never raises the objective (within the feasible set).
        for name, spec in all_specs.items():
            series = make_series(spec, 400, THETA0[name], seed=(220, 0))
            seg = SeriesSegment.full(series.data)
            res = estimate(spec, seg)
            base = res.loglik_at_opt
            for i in range(spec.d):
                for sign in (-1.0, 1.0):
                    theta = res.theta_hat.copy()
                    theta[i] += sign * 1e-4
                    if not in_domain(spec, theta):
                        continue
                    assert loglik(spec, theta, seg, order=0).value <= base + 1e-9

    def test_stalled_start_does_not_unconverge_the_fit(self, arch_spec):
        # Start 1 has the least f but stalls at a projected-gradient norm
        # of 3.386e-6 against a tolerance of 3.36e-6; the other four
        # starts converge to the same optimum, f within 2e-16 relative.
        data = make_series(arch_spec, 600, (1.0, 0.3), seed=(425, 1)).data
        res = estimate(arch_spec, SeriesSegment(data, 265, 600))
        assert res.converged
        assert_allclose(res.theta_hat, [1.146749236732903, 0.21859487403591712],
                        rtol=0.0, atol=1e-6)

    def test_earliest_converged_start_wins_a_tie(self, garch_spec, garch_series):
        # All five starts reach one optimum, with f equal to round-off;
        # start 1's f is the least, but start 0, the domain centre, is
        # kept: the cold fit is that start's warm climb, bit for bit
        # (BLAS/LAPACK-bound: one climb, in stacks of 5 rows and of 1).
        cold = estimate(garch_spec, garch_series)
        warm = estimate(garch_spec, garch_series, init=qmle_module._default_starts(garch_spec)[0])
        assert cold.converged
        assert cold.theta_hat.tobytes() == warm.theta_hat.tobytes()
        assert cold.iterations == warm.iterations

    def test_too_short_segment_raises(self, garch_spec):
        with pytest.raises(SizingError):
            estimate(garch_spec, SeriesSegment.full([1.0, -0.5, 0.3]))

    def test_options_are_honoured(self, monkeypatch, garch_spec, garch_series):
        # AR fits climb the domain centre alone, so the start count is
        # checked on GARCH, by the start rows that reach the ascent.
        seg = SeriesSegment.full(garch_series.data)
        run_rows = qmle_module._run_rows
        climbed = []

        def counting_run_rows(spec, data, starts, ends, x0, grad_tol, seeds=None):
            climbed.append(len(x0))
            return run_rows(spec, data, starts, ends, x0, grad_tol, seeds)

        monkeypatch.setattr(qmle_module, "_run_rows", counting_run_rows)
        multi = estimate(garch_spec, seg)
        assert sum(climbed) == qmle_module._N_STARTS
        with monkeypatch.context() as m:
            m.setattr(qmle_module, "_MAX_ITER", 1)
            res = estimate(garch_spec, seg)
        assert res.iterations <= 1
        monkeypatch.setattr(qmle_module, "_N_STARTS", 1)
        climbed.clear()
        single = estimate(garch_spec, seg)
        assert sum(climbed) == 1
        assert_allclose(single.theta_hat, multi.theta_hat, atol=1e-8)


def _assert_stack_matches_rows(spec, raws, seed):
    """``_project_rows`` on a shuffled stack of the raw rows, their box
    clips and their projections (feasible rows) gives every row what
    ``project_to_domain`` gives it alone, bit for bit (numpy-elementwise,
    portable: the projection sorts, clips and sums along rows)."""
    lo, hi = spec.domain.as_arrays()
    rows = np.concatenate((raws, np.clip(raws, lo, hi),
                           [project_to_domain(spec, raw) for raw in raws]))
    rows = rows[np.random.default_rng(seed).permutation(len(rows))]
    got = qmle_module._project_rows(spec, rows)
    for row, out in zip(rows, got):
        assert out.tobytes() == project_to_domain(spec, row).tobytes()


class TestProjection:
    def test_interior_points_are_fixed(self, all_specs):
        for name, spec in all_specs.items():
            theta = np.asarray(THETA0[name])
            assert_allclose(project_to_domain(spec, theta), theta, rtol=1e-15)

    def test_idempotent_and_feasible(self, all_specs):
        rng = np.random.default_rng(9)
        ar = [ModelSpec(family=ModelFamily.AR, p=p) for p in (2, 3, 4)]
        for spec in [*all_specs.values(), *ar]:
            raws = rng.uniform(-3, 3, size=(200, spec.d))
            for raw in raws:
                proj = project_to_domain(spec, raw)
                assert in_domain(spec, proj)
                assert_allclose(
                    project_to_domain(spec, proj), proj, atol=1e-10
                )
            _assert_stack_matches_rows(spec, raws, seed=spec.d)

    def test_ar1_projection_is_clipping(self, ar1_spec):
        assert_allclose(project_to_domain(ar1_spec, [2.0]), [0.98])
        assert_allclose(project_to_domain(ar1_spec, [-1.5]), [-0.98])
        assert_allclose(project_to_domain(ar1_spec, [0.4]), [0.4])

    @pytest.mark.parametrize("name, theta, bad", [
        ("arch", [np.nan, 0.3], "nan"),
        ("ar", [np.nan], "nan"),
        ("ar2", [np.inf, 0.1], "inf"),
        ("arch", [np.inf, 0.3], "inf"),
        ("garch", [1.0, 0.4, -np.inf], "-inf"),
    ])
    def test_non_finite_start_is_rejected(self, all_specs, name, theta, bad):
        # No projection of a non-finite point is meaningful: it once
        # claimed an empty feasible set for NaN and clipped an infinity
        # onto the box.  A warm start takes the same check.
        spec = {**all_specs, "ar2": ModelSpec(family=ModelFamily.AR, p=2)}[name]
        message = rf"non-finite value {bad}\b"
        with pytest.raises(DomainError, match=message):
            project_to_domain(spec, theta)
        series = make_series(spec, 200, THETA0.get(name, (0.3, 0.2)), seed=(250, 0))
        with pytest.raises(DomainError, match=message):
            estimate(spec, series, init=theta)

    @given(
        st.tuples(
            st.floats(-4, 4, allow_nan=False),
            st.floats(-4, 4, allow_nan=False),
            st.floats(-4, 4, allow_nan=False),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_garch_projection_is_nearest_feasible(self, raw):
        # No random feasible candidate may be closer than the projection.
        spec = ModelSpec(family=ModelFamily.GARCH, p=1)
        raw_arr = np.asarray(raw)
        proj = project_to_domain(spec, raw_arr)
        assert in_domain(spec, proj)
        dist = np.linalg.norm(raw_arr - proj)
        rng = np.random.default_rng(abs(hash(raw)) % (2**32))
        for _ in range(25):
            w = rng.uniform(0, 1, size=3)
            cand = np.array(
                [
                    rng.uniform(1e-4, 10.0),
                    0.98 * w[1] * (1 - w[2]),
                    0.98 * w[2],
                ]
            )
            assert in_domain(spec, cand)
            assert np.linalg.norm(raw_arr - cand) >= dist - 1e-9
        others = rng.uniform(-4, 4, size=(8, 3))
        _assert_stack_matches_rows(spec, np.vstack((raw_arr, others)), rng.integers(2**32))


def _ar_box_spec(lower, upper):
    return ModelSpec(
        family=ModelFamily.AR, p=len(lower),
        domain=ParamDomain(lower=tuple(lower), upper=tuple(upper)),
    )


def _reference_projection(spec, x):
    """Nearest feasible point by a general-purpose solver.

    The l1 ball is the polytope {s'y <= c for every sign vector s}, so the
    projection is a smooth quadratic programme over the box.
    """
    lo, hi = spec.domain.as_arrays()
    c = 1.0 - spec.domain.margin
    signs = np.array(list(product((-1.0, 1.0), repeat=spec.d)))
    res = minimize(
        lambda y: 0.5 * float((y - x) @ (y - x)), np.clip(x, lo, hi),
        jac=lambda y: y - x, method="SLSQP", bounds=list(zip(lo, hi)),
        constraints=[{"type": "ineq", "fun": lambda y: c - signs @ y,
                      "jac": lambda y: -signs}],
        options={"ftol": 1e-14, "maxiter": 500},
    )
    return res.x


class TestSignRestrictedProjection:
    """AR boxes that exclude zero in some coordinate."""

    def test_known_projections(self):
        spec = _ar_box_spec((0.0, -0.5), (0.9, -0.05))
        assert_allclose(project_to_domain(spec, [1.129, -1.324]), [0.48, -0.5],
                        atol=1e-12)
        spec = _ar_box_spec((0.1, 0.1), (0.9, 0.9))
        assert_allclose(project_to_domain(spec, [2.0, -1.0]), [0.88, 0.1],
                        atol=1e-12)

    @given(
        st.integers(2, 3).flatmap(lambda d: st.tuples(
            st.lists(st.tuples(st.floats(-0.95, 0.95), st.floats(-0.95, 0.95)),
                     min_size=d, max_size=d),
            st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d),
            st.integers(0, 2**32 - 1),
        ))
    )
    @settings(max_examples=200, deadline=None)
    def test_projection_is_nearest_feasible(self, case):
        bounds, raw, seed = case
        lower = [min(u, v) for u, v in bounds]
        upper = [max(u, v) for u, v in bounds]
        assume(all(hi - lo >= 1e-3 for lo, hi in zip(lower, upper)))
        # Smallest |y_i| the box allows; their sum must fit in the l1 ball.
        floor = sum(max(lo, -hi, 0.0) for lo, hi in zip(lower, upper))
        assume(floor <= 0.98 - 1e-3)
        spec = _ar_box_spec(lower, upper)
        x = np.asarray(raw)
        proj = project_to_domain(spec, x)
        assert in_domain(spec, proj)
        ref = _reference_projection(spec, x)
        assert np.linalg.norm(proj - x) <= np.linalg.norm(ref - x) + 1e-9
        others = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(8, len(raw)))
        _assert_stack_matches_rows(spec, np.vstack((x, others)), seed)

    def test_zero_on_a_one_signed_box_moves_along_the_face(self):
        # On [0, 0.9] x [-0.99, 0.99] the constraint is phi_1 + |phi_2|, so
        # phi_1 = 0 is the box's bound, not the constraint's kink: on the
        # face it may grow while phi_2 shrinks, as the projection allows.
        # The AR(2) series has phi_1 + phi_2 = 0.99, so its fit sits on
        # the face, and the fit started at (0, 0.98) must reach the KKT
        # point there: L's gradient a positive multiple of the normal (1, 1).
        spec = _ar_box_spec((0.0, -0.99), (0.9, 0.99))
        sim = ModelSpec(family=ModelFamily.AR, p=2,
                        domain=ParamDomain((-0.99, -0.99), (0.99, 0.99), margin=0.005))
        x = generate(SimPlan(spec=sim, n=500, theta0=(0.5, 0.49), seed=0))
        start = np.array([[0.0, 0.98]])
        ev = loglik(spec, start[0], x)
        step = qmle_module._newton_directions(spec, start, -ev.gradient[None],
                                              -ev.hessian[None])
        assert step[0, 0] > 0.0 and step[0, 0] + step[0, 1] == pytest.approx(0.0, abs=1e-12)
        res = estimate(spec, x, init=start[0])
        assert res.converged and res.boundary_active
        theta = res.theta_hat
        assert np.all(theta > 0.0)
        assert stationarity_stat(spec, theta) == pytest.approx(spec.domain.bound, abs=1e-12)
        grad = loglik(spec, theta, x).gradient
        assert grad[0] > 0.0
        assert abs(grad[0] - grad[1]) <= 1e-8 * x.n
