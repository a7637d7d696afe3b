"""A scalar projected-Newton ascent: the reference for the batched optimizer.

``qmle`` climbs every fit as rows of one vectorised ascent.  This module
climbs one start at a time with plain ``loglik`` calls, taking the steps
the batch must take: the same projected-gradient stopping rule, the
active-set Newton direction then -g, and Armijo backtracking along the
projection arc, under the policy constants of ``qmle``, read at call
time so that a test patching them limits both.  It projects with
``project_to_domain`` and takes its Newton direction from
``qmle._newton_directions`` on one row, so it checks how the ascent is
batched, not the step's math: the projection has its own SLSQP and
brute-force oracles (``TestProjection``, ``TestSignRestrictedProjection``
in test_qmle.py) and the face step its own property test
(``TestNewtonDirections``).
"""

from __future__ import annotations

import numpy as np

from qlscan import EstimateResult, loglik, project_to_domain
from qlscan import qmle
from qlscan.qmle import _boundary_active, _default_starts, _newton_directions


def run_single_start(spec, segment, x0, grad_tol):
    """Projected Newton descent on f = -L from one starting point.

    Returns (x, f, projected_grad_norm, iterations, converged).
    """

    def evaluate(x, order):
        ev = loglik(spec, x, segment, order=order)
        if order == 0:
            return -ev.value, None, None
        return -ev.value, -ev.gradient, -ev.hessian if order >= 2 else None

    x = x0
    f, g, hess = evaluate(x, 2)
    iterations = 0
    for _ in range(qmle._MAX_ITER):
        pg = x - project_to_domain(spec, x - g)
        if float(np.linalg.norm(pg)) <= grad_tol:
            return x, f, float(np.linalg.norm(pg)), iterations, True
        accepted = None
        newton = _newton_directions(spec, x[None], g[None], hess[None])[0]
        for direction in (newton, -g):
            alpha = 1.0
            for _ in range(qmle._MAX_BACKTRACKS):
                trial = project_to_domain(spec, x + alpha * direction)
                step = trial - x
                slope = float(g @ step)
                if np.max(np.abs(step)) == 0.0:
                    break
                if slope < 0.0:
                    f_trial, _, _ = evaluate(trial, 0)
                    if f_trial <= f + qmle._ARMIJO_C1 * slope:
                        accepted = trial
                        break
                alpha *= qmle._BACKTRACK
            if accepted is not None:
                break
        if accepted is None:
            pg = x - project_to_domain(spec, x - g)
            return x, f, float(np.linalg.norm(pg)), iterations, False
        x = accepted
        f, g, hess = evaluate(x, 2)
        iterations += 1
    pg = x - project_to_domain(spec, x - g)
    norm = float(np.linalg.norm(pg))
    return x, f, norm, iterations, norm <= grad_tol


def estimate(spec, segment, init=None):
    """``qmle.estimate`` one start at a time: the best optimum wins,
    earliest start breaking exact ties."""
    grad_tol = qmle._GRAD_TOL_PER_OBS * segment.card
    if init is None:
        starts = list(_default_starts(spec))
    else:
        starts = [project_to_domain(spec, init)]
    best = None
    for x0 in starts:
        run = run_single_start(spec, segment, x0, grad_tol)
        if best is None or run[1] < best[1]:
            best = run
    x, f, pg_norm, iterations, converged = best
    return EstimateResult(
        theta_hat=x,
        loglik_at_opt=-f,
        grad_norm=pg_norm,
        iterations=iterations,
        converged=converged,
        boundary_active=_boundary_active(spec, x),
    )


def estimate_with_retry(spec, segment, init):
    """Warm fit from ``init``; if it fails, a cold multi-start replaces
    it when that converged or has the higher log-likelihood."""
    res = estimate(spec, segment, init=init)
    if not res.converged:
        cold = estimate(spec, segment)
        if cold.converged or cold.loglik_at_opt > res.loglik_at_opt:
            res = cold
    return res
