"""Acceptance gate: one test per release criterion.

Running ``pytest -v tests/test_acceptance.py`` prints one pass or fail
line per criterion.  Every quantitative bound is stated in the test's
docstring together with the value measured when the bound was frozen;
all Monte Carlo criteria run under fixed seeds, so they are exactly
reproducible.

Criteria 5 through 8 compare desk-scale replication counts (100 to 200)
against reference rejection rates reported for the same designs at
larger replication counts; the bounds include the binomial noise such a
replication count implies.  Criterion 1 checks the shipped critical
values; the d=2 case deviates from the commonly quoted figure for
reasons spelled out in its docstring and in README.md.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import THETA0
from per_k_sigma import sigma_hat
from qlscan import (
    CriticalTable,
    ExperimentConfig,
    SeriesSegment,
    SimPlan,
    calibrate,
    estimate,
    generate,
    loglik,
    run_experiment,
    scan,
    simulate_sup_bb,
)

# Sampling boxes for random in-domain parameter draws, comfortably
# inside each family's feasible region.
FAMILY_BOXES = {
    "ar": [(-0.85, 0.85)],
    "arch": [(0.2, 3.0), (0.05, 0.9)],
    "garch": [(0.2, 3.0), (0.05, 0.55), (0.05, 0.4)],
}


def draw_theta(rng, name):
    return np.array([rng.uniform(lo, hi) for lo, hi in FAMILY_BOXES[name]])


def test_criterion_1_critical_value_table():
    """Self-calibration reproduces the shipped table and its anchors.

    Re-running the shipped calibration (1000-point grid, 100000 draws,
    seed 20260401) must reproduce the builtin alpha=0.05 entries for
    d=1,2,3 exactly and finish within two minutes.  The d=1 and d=3
    values must fall within 0.07 of the reference values 2.20 and 3.47.

    For d=2 the commonly quoted reference, 3.02, is not consistent with
    the 0.975-quantile of the limit law: the continuum value is 2.8942,
    and a 1000-point grid biases the supremum down to about 2.83.  An
    independent Monte Carlo oracle (different generator and different
    code path, 100000 draws) gives 2.8283 with a standard error near
    0.012.  The d=2 entry is therefore required to lie within 0.05 of
    that oracle and strictly below 2.95; README.md discusses the
    discrepancy.
    """
    start = time.perf_counter()
    table = calibrate(
        ds=(1, 2, 3), alphas=(0.05,), m=1000, reps=100_000, seed=20260401
    )
    elapsed = time.perf_counter() - start
    builtin = CriticalTable.builtin()
    for d in (1, 2, 3):
        assert table.lookup(d, 0.05) == builtin.lookup(d, 0.05)
    assert abs(table.lookup(1, 0.05) - 2.20) <= 0.07
    assert abs(table.lookup(3, 0.05) - 3.47) <= 0.07
    assert abs(table.lookup(2, 0.05) - 2.828313) <= 0.05
    assert table.lookup(2, 0.05) < 2.95
    assert elapsed <= 120.0


def test_criterion_2_derivative_oracles(all_specs):
    """Analytic derivatives match central differences on random draws.

    100 random in-domain (theta, series) pairs per family; gradients
    must match to relative 1e-5 and Hessians to relative 1e-4 (scaled
    by the largest entry, floored at one).
    """
    rng = np.random.default_rng(20260402)
    eps = 1e-6
    for name, spec in all_specs.items():
        for draw in range(100):
            sim = generate(
                SimPlan(
                    spec=spec,
                    n=80,
                    theta0=tuple(draw_theta(rng, name)),
                    seed=(52, draw),
                )
            )
            seg = SeriesSegment.full(sim.data)
            theta = draw_theta(rng, name)
            ev = loglik(spec, theta, seg)
            fd_grad = np.empty(spec.d)
            fd_cols = []
            for i in range(spec.d):
                e = np.zeros(spec.d)
                e[i] = eps
                up = loglik(spec, theta + e, seg, order=1)
                dn = loglik(spec, theta - e, seg, order=1)
                fd_grad[i] = (up.value - dn.value) / (2 * eps)
                fd_cols.append((up.gradient - dn.gradient) / (2 * eps))
            fd_hess = np.column_stack(fd_cols)
            gscale = max(1.0, float(np.abs(ev.gradient).max()))
            assert_allclose(ev.gradient, fd_grad, atol=1e-5 * gscale)
            hscale = max(1.0, float(np.abs(ev.hessian).max()))
            assert_allclose(
                ev.hessian, (fd_hess + fd_hess.T) / 2, atol=1e-4 * hscale
            )


def test_criterion_3_ar_qmle_matches_least_squares(ar1_spec):
    """Interior optimum equals the closed-form least-squares slope.

    50 seeded first-order autoregressions with slopes spread over the
    stationary range; agreement to 1e-6 with the normal-equations
    solution of the zero-padded regression the likelihood truncates to.
    """
    rng = np.random.default_rng(20260403)
    for r in range(50):
        phi = rng.uniform(-0.85, 0.85)
        sim = generate(SimPlan(spec=ar1_spec, n=400, theta0=(phi,), seed=(53, r)))
        res = estimate(ar1_spec, SeriesSegment.full(sim.data))
        x = sim.data
        lag = np.concatenate([[0.0], x[:-1]])
        ls = float(lag @ x) / float(lag @ lag)
        assert not res.boundary_active
        assert abs(res.theta_hat[0] - ls) <= 1e-6


def test_criterion_4_normalizer_limit(ar1_spec):
    """The midpoint weight matrix matches its closed-form limit.

    AR(1) with slope 0.3, n=4096, split at n/2, 50 seeds: the mean of
    the 1x1 weight matrix must lie within 5% of 1/(1-0.09) = 1.0989,
    the stationary second moment when the innovation variance is one.
    """
    vals = []
    for r in range(50):
        sim = generate(SimPlan(spec=ar1_spec, n=4096, theta0=(0.3,), seed=(54, r)))
        seg = SeriesSegment.full(sim.data)
        est = estimate(ar1_spec, seg)
        sig = sigma_hat(ar1_spec, seg, 2048, est, est, theta_eval=est.theta_hat)
        vals.append(sig[0, 0])
    mean = float(np.mean(vals))
    assert abs(mean - 1.0989) / 1.0989 <= 0.05


def test_criterion_5_ar_level_full_scale(ar1_spec):
    """Empirical level for a persistent null stays inside the band.

    AR(1) slope 0.9, n=4096, alpha=0.05, 200 replications: rejection
    rate at most 0.05 + 3*sqrt(0.05*0.95/200) = 0.096, finishing within
    ten minutes.  Measured with base seed 920000: 0.025, no flagged
    replications.
    """
    start = time.perf_counter()
    plan = SimPlan(spec=ar1_spec, n=4096, theta0=(0.9,))
    report = run_experiment(
        ExperimentConfig(plan=plan, replications=200, base_seed=920_000)
    )
    elapsed = time.perf_counter() - start
    assert report.n_flagged == 0
    assert report.rejection_rate <= 0.096
    assert elapsed <= 600.0


def test_criterion_6_ar_power(ar1_spec):
    """Power for a mid-sample slope drop from 0.9 to 0.5.

    n=2048, break at n/2, 100 replications: rejection rate at least
    0.95.  Measured with base seed 923000: 1.000.
    """
    plan = SimPlan(
        spec=ar1_spec, n=2048, theta0=(0.9,), theta1=(0.5,), break_index=1024
    )
    report = run_experiment(
        ExperimentConfig(plan=plan, replications=100, base_seed=923_000)
    )
    assert report.n_flagged == 0
    assert report.rejection_rate >= 0.95


def test_criterion_7_arch_power(arch_spec):
    """Power for a mid-sample halving of the volatility intercept.

    ARCH (1.0, 0.3) -> (0.5, 0.3), n=500, break at n/2, 100
    replications: rejection rate at least 0.88.  Measured with base
    seed 922000: 1.000.
    """
    plan = SimPlan(
        spec=arch_spec, n=500, theta0=(1.0, 0.3), theta1=(0.5, 0.3),
        break_index=250,
    )
    report = run_experiment(
        ExperimentConfig(plan=plan, replications=100, base_seed=922_000)
    )
    assert report.n_flagged == 0
    assert report.rejection_rate >= 0.88


def test_criterion_8_garch_level(garch_spec):
    """Empirical level for a persistent volatility null.

    GARCH (1.0, 0.4, 0.1), n=1500, 100 replications: rejection rate at
    most 0.12 (wide binomial band at this replication count).  Measured
    with base seed 910000: 0.040.
    """
    plan = SimPlan(spec=garch_spec, n=1500, theta0=(1.0, 0.4, 0.1))
    report = run_experiment(
        ExperimentConfig(plan=plan, replications=100, base_seed=910_000)
    )
    assert report.n_flagged == 0
    assert report.rejection_rate <= 0.12


def test_criterion_9_property_suite(all_specs, builtin_table):
    """Structural invariants asserted directly.

    (a) scan statistics are nonnegative for every family;
    (b) scanning with warm starts equals independent cold fits (1e-4);
    (c) a break plan whose two regimes are equal is a bitwise no-op;
    (d) the bridge law pins both endpoints at zero, so the two-point
        grid supremum is the squared midpoint with mean d/4;
    (e) critical values increase with dimension and decrease with
        level;
    (f) simulation, scanning, and calibration are deterministic under
        fixed seeds.
    """
    # (a) nonnegativity, one scan per family under its default mode.
    scans = {}
    for name, spec in all_specs.items():
        sim = generate(
            SimPlan(spec=spec, n=400, theta0=THETA0[name], seed=(90, 0))
        )
        res = scan(spec, SeriesSegment.full(sim.data))
        scans[name] = (sim, res)
        assert np.nanmin(res.q1) >= -1e-10
        assert np.nanmin(res.q2) >= -1e-10
        assert res.q_max > 0.0

    # (b) warm-started scan values equal independent cold fits.
    arch = all_specs["arch"]
    sim, res = scans["arch"]
    seg = SeriesSegment.full(sim.data)
    full = estimate(arch, seg)
    n = seg.n
    for k in (120, 200, 280):
        left = estimate(arch, SeriesSegment.prefix(sim.data, k))
        right = estimate(arch, SeriesSegment.suffix(sim.data, k))
        sig = sigma_hat(arch, seg, k, left, right, theta_eval=full.theta_hat)
        dl = left.theta_hat - full.theta_hat
        dr = right.theta_hat - full.theta_hat
        idx = int(np.flatnonzero(res.ks == k)[0])
        assert_allclose(res.q1[idx], k**2 / n * dl @ sig @ dl,
                        rtol=1e-4, atol=1e-4)
        assert_allclose(res.q2[idx], (n - k) ** 2 / n * dr @ sig @ dr,
                        rtol=1e-4, atol=1e-4)

    # (c) equal-regime break is a no-op, bitwise.
    for name, spec in all_specs.items():
        base = SimPlan(spec=spec, n=300, theta0=THETA0[name], seed=(91, 0))
        split = SimPlan(
            spec=spec, n=300, theta0=THETA0[name], theta1=THETA0[name],
            break_index=150, seed=(91, 0),
        )
        np.testing.assert_array_equal(generate(base).data, generate(split).data)

    # (d) endpoint pinning: two-point grid sup has mean d/4.
    for d in (1, 2, 3):
        samples = simulate_sup_bb(d, m=2, reps=20_000, seed=9)
        assert_allclose(samples.mean(), d / 4, rtol=0.05)

    # (e) monotone critical values.
    for d in (1, 2, 3):
        assert (
            builtin_table.lookup(d, 0.01)
            > builtin_table.lookup(d, 0.05)
            > builtin_table.lookup(d, 0.10)
        )
    for alpha in (0.01, 0.05, 0.10):
        assert (
            builtin_table.lookup(1, alpha)
            < builtin_table.lookup(2, alpha)
            < builtin_table.lookup(3, alpha)
        )

    # (f) determinism of every stage.
    ar = all_specs["ar"]
    plan = SimPlan(spec=ar, n=300, theta0=THETA0["ar"], seed=(92, 0))
    first, second = generate(plan), generate(plan)
    np.testing.assert_array_equal(first.data, second.data)
    seg = SeriesSegment.full(first.data)
    r1, r2 = scan(ar, seg), scan(ar, seg)
    np.testing.assert_array_equal(r1.q1, r2.q1)
    assert r1.q_max == r2.q_max and r1.argmax_k == r2.argmax_k
    t1 = calibrate(ds=(1,), alphas=(0.05,), m=40, reps=300, seed=5)
    t2 = calibrate(ds=(1,), alphas=(0.05,), m=40, reps=300, seed=5)
    assert t1.lookup(1, 0.05) == t2.lookup(1, 0.05)
