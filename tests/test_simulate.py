"""Simulation: determinism, break mechanics, stationary moments.

Each bit-equality assertion says which kind it is.  Numpy-elementwise
(portable): both sides run numpy's own elementwise and reduction loops,
or scalar IEEE arithmetic, which give the same bits on every BLAS
kernel.  BLAS/LAPACK-bound: the values pass through ``np.linalg.solve``,
``eigh`` or a matmul sum, whose bits vary between kernels.  Every bit
equality here is portable: ``generate`` draws from numpy's Philox
generator and runs its recursions on Python floats, and no value it
returns passes through BLAS or LAPACK.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qlscan import (
    DEFAULT_BURN_IN,
    DomainError,
    ModelFamily,
    ModelSpec,
    SimPlan,
    SizingError,
    generate,
)
from conftest import THETA0


class TestDeterminism:
    def test_same_seed_same_path(self, ar1_spec):
        a = generate(SimPlan(spec=ar1_spec, n=100, theta0=(0.5,), seed=42))
        b = generate(SimPlan(spec=ar1_spec, n=100, theta0=(0.5,), seed=42))
        # Bit equality, portable: the same draws through the same scalar
        # recursion.
        np.testing.assert_array_equal(a.data, b.data)

    def test_tuple_seeds(self, garch_spec):
        a = generate(SimPlan(spec=garch_spec, n=50, theta0=THETA0["garch"], seed=(7, 1)))
        b = generate(SimPlan(spec=garch_spec, n=50, theta0=THETA0["garch"], seed=(7, 1)))
        c = generate(SimPlan(spec=garch_spec, n=50, theta0=THETA0["garch"], seed=(7, 2)))
        # Bit equality, portable, as above.
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_distinct_seeds_differ(self, arch_spec):
        a = generate(SimPlan(spec=arch_spec, n=200, theta0=THETA0["arch"], seed=1))
        b = generate(SimPlan(spec=arch_spec, n=200, theta0=THETA0["arch"], seed=2))
        assert not np.array_equal(a.data, b.data)


def ar_path_lfilter(plan):
    """The AR path of ``generate`` through scipy's lfilter and lfiltic.

    The same innovations, filtered in one chunk per regime; after the
    break the filter state is rebuilt from the trailing outputs.
    """
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(plan.seed)))
    eps = rng.standard_normal(plan.burn_in + plan.n)
    split = eps.size if plan.break_index is None else plan.burn_in + plan.break_index
    zi = np.zeros(plan.spec.p)
    chunks = [(plan.theta0, eps[:split])]
    if plan.theta1 is not None:
        chunks.append((plan.theta1, eps[split:]))
    out = []
    for theta, innov in chunks:
        a = np.concatenate(([1.0], -np.asarray(theta)))
        if out:
            zi = signal.lfiltic([1.0], a, out[-1][::-1][: plan.spec.p])
        y, zi = signal.lfilter([1.0], a, innov, zi=zi)
        out.append(y)
    return np.concatenate(out)[plan.burn_in :]


class TestArLoopMatchesLfilter:
    """AR paths come from a Python loop that must repeat lfilter bit for bit."""

    @given(
        phi=st.lists(st.floats(-0.24, 0.24), min_size=1, max_size=4),
        shift=st.floats(-0.2, 0.2),
        n=st.integers(2, 300),
        burn_in=st.integers(0, 60),
        break_at=st.one_of(st.none(), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical(self, phi, shift, n, burn_in, break_at, seed):
        spec = ModelSpec(family=ModelFamily.AR, p=len(phi))
        theta1 = break_index = None
        if break_at is not None:
            theta1 = tuple(np.clip(np.asarray(phi) + shift, -0.24, 0.24))
            break_index = 1 + min(int(break_at * (n - 1)), n - 2)
        plan = SimPlan(spec=spec, n=n, theta0=tuple(phi), theta1=theta1,
                       break_index=break_index, burn_in=burn_in, seed=seed)
        # Bit equality, portable: lfilter is a plain C loop and lfiltic
        # takes numpy sums; neither calls BLAS.
        np.testing.assert_array_equal(generate(plan).data, ar_path_lfilter(plan))


def garch_path_numpy(plan):
    """The ARCH/GARCH path of ``generate`` by a loop on numpy float64
    scalars, as ``simulate._garch_path`` once ran it."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(plan.seed)))
    eps = rng.standard_normal(plan.burn_in + plan.n)
    split = eps.size if plan.break_index is None else plan.burn_in + plan.break_index
    theta0 = np.asarray(plan.theta0)
    has_beta = plan.spec.family is ModelFamily.GARCH
    a0, a1 = theta0[0], theta0[1]
    b1 = theta0[2] if has_beta else 0.0
    x = np.empty(eps.size)
    h = a0 / (1.0 - a1 - b1)
    x_prev = 0.0
    for t in range(eps.size):
        if t == split and plan.theta1 is not None:
            theta1 = np.asarray(plan.theta1)
            a0, a1 = theta1[0], theta1[1]
            b1 = theta1[2] if has_beta else 0.0
        if t > 0:
            h = a0 + a1 * x_prev * x_prev + b1 * h
        x_prev = np.sqrt(h) * eps[t]
        x[t] = x_prev
    return x[plan.burn_in :]


class TestGarchLoopMatchesNumpyScalars:
    """ARCH/GARCH paths run on Python floats and must repeat the numpy
    float64 scalar loop bit for bit."""

    @given(
        garch=st.booleans(),
        alpha0=st.floats(0.01, 5.0),
        alpha1=st.floats(0.0, 0.6),
        beta1=st.floats(0.0, 0.35),
        theta1=st.one_of(st.none(), st.tuples(st.floats(0.01, 5.0), st.floats(0.0, 0.6),
                                              st.floats(0.0, 0.35))),
        n=st.integers(2, 300),
        burn_in=st.integers(0, 60),
        break_at=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical(self, garch, alpha0, alpha1, beta1, theta1, n, burn_in,
                           break_at, seed):
        spec = ModelSpec(family=ModelFamily.GARCH if garch else ModelFamily.ARCH)
        theta0 = (alpha0, alpha1, beta1) if garch else (alpha0, alpha1)
        break_index = None
        if theta1 is not None:
            theta1 = theta1 if garch else theta1[:2]
            break_index = 1 + min(int(break_at * (n - 1)), n - 2)
        plan = SimPlan(spec=spec, n=n, theta0=theta0, theta1=theta1,
                       break_index=break_index, burn_in=burn_in, seed=seed)
        # Bit equality, portable: scalar IEEE arithmetic on both sides.
        np.testing.assert_array_equal(generate(plan).data, garch_path_numpy(plan))


class TestBreakMechanics:
    def test_break_noop_is_exactly_the_null_path(self, all_specs):
        # theta1 == theta0 with any break index must reproduce the
        # no-break series bit for bit (portable: the same scalar
        # recursion on the same draws).
        for name, spec in all_specs.items():
            base = SimPlan(spec=spec, n=150, theta0=THETA0[name], seed=(50, 0))
            noop = SimPlan(
                spec=spec,
                n=150,
                theta0=THETA0[name],
                theta1=THETA0[name],
                break_index=60,
                seed=(50, 0),
            )
            np.testing.assert_array_equal(generate(base).data, generate(noop).data)

    def test_prefix_unchanged_up_to_the_break(self, all_specs):
        theta1 = {"ar": (0.8,), "arch": (0.5, 0.3), "garch": (1.0, 0.2, 0.6)}
        for name, spec in all_specs.items():
            null = SimPlan(spec=spec, n=200, theta0=THETA0[name], seed=(51, 0))
            broke = SimPlan(
                spec=spec,
                n=200,
                theta0=THETA0[name],
                theta1=theta1[name],
                break_index=80,
                seed=(51, 0),
            )
            a, b = generate(null).data, generate(broke).data
            # Bit equality, portable: before the break both paths run the
            # same recursion on the same draws.
            np.testing.assert_array_equal(a[:80], b[:80])
            assert not np.allclose(a[80:], b[80:])

    def test_ar_break_switches_at_the_documented_observation(self, ar1_spec):
        # Recover the innovation sequence from each path; the break path
        # must satisfy X_t = 0.3 X_{t-1} + xi_t through t = k and
        # X_t = 0.8 X_{t-1} + xi_t from t = k + 1 on, with the same
        # innovations as the no-break path (state carried, not reset).
        k = 70
        xb = generate(
            SimPlan(spec=ar1_spec, n=200, theta0=(0.3,), theta1=(0.8,),
                    break_index=k, seed=12)
        ).data
        xn = generate(SimPlan(spec=ar1_spec, n=200, theta0=(0.3,), seed=12)).data
        xi_null = xn[1:] - 0.3 * xn[:-1]
        phi_t = np.where(np.arange(2, 201) <= k, 0.3, 0.8)
        xi_break = xb[1:] - phi_t * xb[:-1]
        assert_allclose(xi_break, xi_null, rtol=1e-12, atol=1e-12)

    def test_ar2_break_right_after_start(self):
        # break_index=1 with no burn-in: the first chunk is shorter than
        # the lag order, exercising zero-padding of the carried state.
        spec = ModelSpec(family=ModelFamily.AR, p=2)
        t0, t1 = (0.3, 0.2), (0.5, -0.3)
        xb = generate(SimPlan(spec=spec, n=50, theta0=t0, theta1=t1,
                              break_index=1, seed=9, burn_in=0)).data
        xn = generate(SimPlan(spec=spec, n=50, theta0=t0, seed=9, burn_in=0)).data
        lag = lambda x, j: np.concatenate((np.zeros(j), x[:-j]))
        xi_null = xn - 0.3 * lag(xn, 1) - 0.2 * lag(xn, 2)
        t = np.arange(1, 51)
        xi_break = np.where(
            t <= 1,
            xb - 0.3 * lag(xb, 1) - 0.2 * lag(xb, 2),
            xb - 0.5 * lag(xb, 1) + 0.3 * lag(xb, 2),
        )
        assert_allclose(xi_break, xi_null, rtol=1e-12, atol=1e-12)

    def test_arch_break_switches_variance_recursion(self, arch_spec):
        # h_t = a0 + a1 X_{t-1}^2 with (a0, a1) chosen by regime; the
        # recovered innovations eps_t = X_t / sqrt(h_t) must coincide
        # with the no-break path's (t >= 2; t = 1 is prefix-equal).
        k = 100
        yb = generate(SimPlan(spec=arch_spec, n=300, theta0=(1.0, 0.3),
                              theta1=(0.5, 0.3), break_index=k, seed=21)).data
        yn = generate(SimPlan(spec=arch_spec, n=300, theta0=(1.0, 0.3), seed=21)).data

        def eps_from(x, theta_of_t):
            out = np.empty(x.size - 1)
            for i in range(1, x.size):
                a0, a1 = theta_of_t(i + 1)
                out[i - 1] = x[i] / np.sqrt(a0 + a1 * x[i - 1] ** 2)
            return out

        e_null = eps_from(yn, lambda t: (1.0, 0.3))
        e_break = eps_from(yb, lambda t: (1.0, 0.3) if t <= k else (0.5, 0.3))
        assert_allclose(e_break, e_null, rtol=1e-10)


class TestStationaryMoments:
    """Long-path sample moments against the models' theoretical values."""

    def test_ar1(self, ar1_spec):
        x = generate(SimPlan(spec=ar1_spec, n=30_000, theta0=(0.5,), seed=(300, 0))).data
        assert abs(x.mean()) < 0.05
        assert_allclose(x.var(), 1.0 / (1.0 - 0.25), rtol=0.05)
        acf1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert_allclose(acf1, 0.5, atol=0.03)

    def test_arch(self, arch_spec):
        y = generate(SimPlan(spec=arch_spec, n=30_000, theta0=(1.0, 0.3), seed=(300, 1))).data
        assert_allclose(y.var(), 1.0 / 0.7, rtol=0.07)
        # White noise in levels, dependent in squares.
        assert abs(np.corrcoef(y[:-1], y[1:])[0, 1]) < 0.03
        assert np.corrcoef(y[:-1] ** 2, y[1:] ** 2)[0, 1] > 0.15

    def test_garch(self, garch_spec):
        z = generate(SimPlan(spec=garch_spec, n=30_000, theta0=(1.0, 0.4, 0.3), seed=(300, 2))).data
        assert_allclose(z.var(), 1.0 / 0.3, rtol=0.10)
        assert abs(z.mean()) < 0.1


class TestValidation:
    def test_break_fields_must_come_together(self, ar1_spec):
        with pytest.raises(ValueError):
            SimPlan(spec=ar1_spec, n=100, theta0=(0.5,), theta1=(0.3,))
        with pytest.raises(ValueError):
            SimPlan(spec=ar1_spec, n=100, theta0=(0.5,), break_index=50)

    def test_break_index_range(self, ar1_spec):
        for bad in (0, 100, 150):
            with pytest.raises(SizingError):
                SimPlan(spec=ar1_spec, n=100, theta0=(0.5,), theta1=(0.3,),
                        break_index=bad)
        SimPlan(spec=ar1_spec, n=100, theta0=(0.5,), theta1=(0.3,), break_index=99)

    def test_domain_checks(self, ar1_spec, garch_spec):
        with pytest.raises(DomainError):
            SimPlan(spec=ar1_spec, n=100, theta0=(0.99,))
        with pytest.raises(DomainError):
            SimPlan(spec=garch_spec, n=100, theta0=(1.0, 0.4, 0.3),
                    theta1=(1.0, 0.6, 0.5), break_index=50)

    def test_sizes(self, ar1_spec):
        with pytest.raises(SizingError):
            SimPlan(spec=ar1_spec, n=0, theta0=(0.5,))
        with pytest.raises(SizingError):
            SimPlan(spec=ar1_spec, n=100, theta0=(0.5,), burn_in=-1)

    def test_burn_in_default_and_zero(self, ar1_spec):
        plan = SimPlan(spec=ar1_spec, n=10, theta0=(0.5,))
        assert plan.burn_in == DEFAULT_BURN_IN
        zero = generate(SimPlan(spec=ar1_spec, n=10, theta0=(0.5,), burn_in=0))
        assert zero.n == 10
