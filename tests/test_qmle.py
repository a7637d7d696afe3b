"""QMLE: closed-form checks, warm starts, domain projection."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from qlscan import (
    ModelFamily,
    ModelSpec,
    OptimOptions,
    ParamDomain,
    SeriesSegment,
    SizingError,
    estimate,
    in_domain,
    loglik,
    project_to_domain,
)
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
    def test_matches_the_scalar_reference(self, all_specs, name):
        # The scalar reference climbs the same starts one at a time.  Cut
        # short at 3 iterations, the starts end apart, so the best one
        # must be picked.
        spec = all_specs[name]
        for s, opts in product(range(3), (None, OptimOptions(max_iter=3))):
            series = make_series(spec, 500, THETA0[name], seed=(230, s))
            for init in (None, 0.8 * np.asarray(THETA0[name])):
                got = estimate(spec, series, init=init, opts=opts)
                want = scalar_ascent.estimate(spec, series, init=init, opts=opts)
                assert got.converged == want.converged
                assert_allclose(got.theta_hat, want.theta_hat, rtol=0.0, atol=1e-6)
                assert_allclose(got.loglik_at_opt, want.loglik_at_opt, rtol=1e-12)


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

    def test_too_short_segment_raises(self, garch_spec):
        with pytest.raises(SizingError):
            estimate(garch_spec, SeriesSegment.full([1.0, -0.5, 0.3]))

    def test_options_are_honoured(self, ar1_spec, ar1_series):
        seg = SeriesSegment.full(ar1_series.data)
        res = estimate(ar1_spec, seg, opts=OptimOptions(max_iter=1))
        assert res.iterations <= 1
        single = estimate(ar1_spec, seg, opts=OptimOptions(n_starts=1))
        multi = estimate(ar1_spec, seg)
        assert_allclose(single.theta_hat, multi.theta_hat, atol=1e-8)


class TestProjection:
    def test_interior_points_are_fixed(self, all_specs):
        for name, spec in all_specs.items():
            theta = np.asarray(THETA0[name])
            assert_allclose(project_to_domain(spec, theta), theta, rtol=1e-15)

    def test_idempotent_and_feasible(self, all_specs):
        rng = np.random.default_rng(9)
        for spec in all_specs.values():
            for _ in range(200):
                raw = rng.uniform(-3, 3, size=spec.d)
                proj = project_to_domain(spec, raw)
                assert in_domain(spec, proj)
                assert_allclose(
                    project_to_domain(spec, proj), proj, atol=1e-10
                )

    def test_ar1_projection_is_clipping(self, ar1_spec):
        assert_allclose(project_to_domain(ar1_spec, [2.0]), [0.98])
        assert_allclose(project_to_domain(ar1_spec, [-1.5]), [-0.98])
        assert_allclose(project_to_domain(ar1_spec, [0.4]), [0.4])

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
        ))
    )
    @settings(max_examples=200, deadline=None)
    def test_projection_is_nearest_feasible(self, case):
        bounds, raw = case
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
