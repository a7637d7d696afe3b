"""Quasi-maximum likelihood estimation on a sub-sample.

The estimator maximises the truncated quasi-log-likelihood over the
feasible set (box intersected with the stationarity constraint) with a
projected Newton ascent: analytic gradient and hessian, eigenvalue
modification to keep the direction well defined, Armijo backtracking
along the projection arc.  Every fit runs one implementation of it
(``_run_rows``), which climbs a stack of rows, each on its own window
from its own start.  The line search is part of that climb: it reads
the climb's own points and evaluations and writes each accepted trial
into them in place, with the gradient and hessian of the one call that
accepted it; a rejected trial costs its value alone.  Every fit is one
``estimate_windows`` call on windows of one series.  Cold, a small
deterministic multi-start (domain centre plus quasi-random points; the
centre alone for AR, whose quasi-likelihood is concave) climbs as rows
on every window.  Warm, every window climbs from ``init``, then the
cold starts on every window that climb leaves unconverged: the exact
scan fits its prefixes and suffixes so from theta_full, and
``estimate`` is the call on one window, so a warm ``estimate`` is the
scan's window fit.  Every climb takes all its rows in one
``_run_rows`` call, and each evaluation is one ``loglik_rows`` call on
the rows' window bounds, so a row is evaluated only over its window's
class and its bits depend on its window alone.  The steps are batched
too: the active-set Newton directions (``_newton_directions``) take
one masked, bordered solve over every row, and the projection
(``_project_rows``) finds every row's exact single multiplier at once;
``project_to_domain`` is that projection on one row.

The optimizer's policy is fixed, in module constants that no caller
sets: five cold starts (one for AR, as above), at most 200 iterations
a row, an Armijo constant of 1e-4, halving backtracks, at most 40 of
them, and a stop once the projected-gradient norm is at most
1e-8 * Card(T), a tolerance that grows with the window because the
log-likelihood is a sum over it.

Everything here is deterministic: the quasi-random starts come from an
unscrambled radical-inverse sequence, and no step consults a RNG.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._stacks import _psd_repair
# ``loglik`` is not called here, but stays importable from this module:
# the span wrappers of perfbench/spans.py patch ``qlscan.qmle.loglik``.
from .likelihood import loglik, loglik_rows  # noqa: F401
from .models import (
    DomainError,
    ModelFamily,
    ModelSpec,
    SeriesSegment,
    SizingError,
    constraint_signs,
    in_domain_rows,
    stationarity_stat,
)

if TYPE_CHECKING:
    from numpy.typing import ArrayLike, NDArray

    # Per row: L, its gradient and its hessian, as ``loglik_rows`` returns them.
    _Evals = tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]

__all__ = [
    "EstimateResult",
    "estimate",
    "estimate_windows",
    "project_to_domain",
]


# The optimizer's fixed policy (module docstring); a row's gradient
# tolerance is _GRAD_TOL_PER_OBS times its window's size.
_GRAD_TOL_PER_OBS = 1e-8
_MAX_ITER = 200
_N_STARTS = 5
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 40
# Starts whose f = -L lies within this fraction of a window's least f
# reached one optimum up to round-off; the earliest converged one wins.
_TIE_RTOL = 1e-10


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of one estimation call.

    ``grad_norm`` is the norm of the projected-gradient step at the
    returned point, the natural optimality measure under constraints:
    it coincides with the plain gradient norm at interior points and is
    zero at a constrained maximiser on the boundary.
    """

    theta_hat: NDArray[np.float64]
    loglik_at_opt: float
    grad_norm: float
    iterations: int
    converged: bool
    boundary_active: bool


# Per row of a climb, or per window of a fit: theta, f = -L,
# projected-gradient norm, iterations, converged.
_Fits = namedtuple("_Fits", "theta f grad_norm iterations converged")


def project_to_domain(spec: ModelSpec, theta: ArrayLike) -> NDArray[np.float64]:
    """Euclidean projection onto the feasible set of ``spec``.

    One row of ``_project_rows``, whose exact single-multiplier form
    covers every box, sign-restricted AR boxes included.  Raises
    ``DomainError`` if theta holds a non-finite value, and
    ``_project_rows`` raises it for a result that is not feasible.
    """
    theta = spec.check_theta(theta)
    if not np.all(np.isfinite(theta)):
        bad = theta[~np.isfinite(theta)][0]
        raise DomainError(f"theta {theta.tolist()} holds the non-finite value {bad}")
    return _project_rows(spec, theta[None, :])[0]


def _radical_inverse(i: int, base: int) -> float:
    inv = 0.0
    denom = 1.0
    while i > 0:
        denom *= base
        inv += (i % base) / denom
        i //= base
    return inv


def _default_starts(spec: ModelSpec) -> NDArray[np.float64]:
    """Domain centre plus quasi-random points, projected in one call."""
    lo, hi = spec.domain.as_arrays()
    points = [(lo + hi) / 2.0]
    primes = [2, 3, 5, 7, 11, 13, 17][: spec.d]
    n_starts = 1 if spec.family is ModelFamily.AR else _N_STARTS
    for i in range(1, n_starts):
        unit = np.array([_radical_inverse(i, b) for b in primes])
        # Pull toward the centre a little so starts stay strictly interior
        # even after projection.
        points.append(lo + (0.05 + 0.9 * unit) * (hi - lo))
    return _project_rows(spec, np.array(points))


def _active(
    spec: ModelSpec, x: NDArray[np.float64], tol: float
) -> tuple[NDArray[np.bool_], NDArray[np.bool_], NDArray[np.bool_], NDArray[np.bool_]]:
    """Per coordinate of x (d,) or (n, d): at its lower bound, its upper
    bound, at zero; per row: on the stationarity face.  Each within
    eps = tol * (1 + max |x|)."""
    lo, hi = spec.domain.as_arrays()
    eps = tol * (1.0 + np.max(np.abs(x), axis=-1, keepdims=True))
    on_face = spec.domain.bound - stationarity_stat(spec, x) <= eps[..., 0]
    return x - lo <= eps, hi - x <= eps, np.abs(x) <= eps, on_face


def _boundary_active(spec: ModelSpec, x: NDArray[np.float64]) -> bool:
    at_lo, at_hi, _, on_face = _active(spec, x, 1e-8)
    return bool(np.any(at_lo | at_hi) or on_face)


_ACTIVE_EPS = 1e-9


def estimate(
    spec: ModelSpec,
    segment: SeriesSegment,
    init: ArrayLike | None = None,
) -> EstimateResult:
    """QMLE of theta on the segment's window.

    The one window of ``estimate_windows``, bit for bit: without
    ``init``, the best fit of the cold multi-start; with ``init``, a
    warm climb from its projection, retried cold if it ends
    unconverged, as the exact scan fits a window from theta_full.

    Raises
    ------
    SizingError
        If the window holds fewer than d + 1 observations.
    """
    fit = estimate_windows(spec, segment.data, [segment.start], [segment.end], init)
    theta = fit.theta[0]
    return EstimateResult(
        theta_hat=theta,
        loglik_at_opt=-float(fit.f[0]),
        grad_norm=float(fit.grad_norm[0]),
        iterations=int(fit.iterations[0]),
        converged=bool(fit.converged[0]),
        boundary_active=_boundary_active(spec, theta),
    )


def _project_rows(spec: ModelSpec, x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Euclidean projection of every row of x onto the feasible set.

    A row that the box clip leaves inside the stationarity constraint
    keeps that clip.  On the other rows the constraint binds, and the
    KKT conditions give each constrained coordinate (``constraint_signs``
    at x, whose signs s_i no flip would bring closer) as
    y_i = s_i clip(s_i x_i - mu, a_i, b_i) with a single multiplier
    mu > 0 fixed by sum(s_i y_i) == c; [a_i, b_i] is the box seen on s_i's
    side (from 0 when the box spans zero, and [0, 0] where s_i = 0).

    The clipped sum is piecewise linear and nonincreasing in mu, with
    breakpoints at s_i x_i - b_i and s_i x_i - a_i.  Each row evaluates
    it at every breakpoint, takes the first one at or below c and
    interpolates from the one before.  Raises ``DomainError`` if a
    projected row is not feasible.
    """
    lo, hi = spec.domain.as_arrays()
    c = spec.domain.bound
    y = np.clip(x, lo, hi)
    bad = np.flatnonzero(~(stationarity_stat(spec, y) <= c))
    if bad.size == 0:
        return y
    part, s = constraint_signs(spec, x[bad])
    u = s * x[bad, part]
    s_lo, s_hi = s * lo[part], s * hi[part]
    a, b = np.maximum(np.minimum(s_lo, s_hi), 0.0), np.maximum(s_lo, s_hi)
    bps = np.sort(np.concatenate((u - b, u - a), axis=1), axis=1)
    vals = np.sum(np.clip(u[:, None, :] - bps[..., None], a[:, None, :], b[:, None, :]),
                  axis=2)
    below = vals <= c
    rows = np.arange(bad.size)
    j = np.argmax(below, axis=1)
    i = np.maximum(j - 1, 0)
    bp, prev, v_right, v_left = bps[rows, j], bps[rows, i], vals[rows, j], vals[rows, i]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = prev + (v_left - c) * (bp - prev) / (v_left - v_right)
    mu = np.where((v_right == c) | (v_left == v_right), bp, mu)
    y[bad, part] = s * np.clip(u - mu[:, None], a, b)
    if not np.all(in_domain_rows(spec, y[bad])):
        raise DomainError("projection failed; the feasible set may be empty")
    return y


def _newton_directions(
    spec: ModelSpec,
    x: NDArray[np.float64],
    grad: NDArray[np.float64],
    hess: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Active-set Newton step for minimising f over the feasible set, per row.

    Box coordinates pressed against a bound by the gradient are frozen,
    and on a binding stationarity face so are those at its kink (zero,
    where the box spans it), which cannot move without pushing the sum
    outward.  When descent pushes outward through the binding face
    (normal n, the signs of ``constraint_signs``), the step is solved
    with that face as an equality: the bordered system
    [[H_ff, n_f], [n_f', 0]] against [-g_f, 0], with H_ff the repaired
    free block.  Without this reduction a raw Newton step at a boundary
    optimum points outside the domain and the projected step degrades
    to a crawl along the face.  Every row solves one (d + 1) system: its
    frozen coordinates are decoupled (no off-diagonal entries, a diagonal
    at the free block's largest |entry|, a zero right-hand side), the
    masked stack is repaired once, and the border is n_f on face rows
    and a unit pivot on the others.  Frozen coordinates take no step.
    """
    at_lo, at_hi, at_zero, on_face = _active(spec, x, _ACTIVE_EPS)
    fixed = (at_lo & (grad > 0.0)) | (at_hi & (grad < 0.0))
    part, s = constraint_signs(spec, x)
    kink = constraint_signs(spec)[1] == 0.0  # where s_i follows theta_i
    fixed[:, part] |= on_face[:, None] & at_zero[:, part] & kink
    normal = np.zeros_like(x)
    normal[:, part] = s
    free = ~fixed
    face = (on_face & (np.sum(normal * grad, axis=1) < 0.0)
            & np.any(free & (normal != 0.0), axis=1))
    n, d = x.shape
    rows, cols = np.nonzero(fixed)
    h = hess.copy()
    h[rows, cols, :] = h[rows, :, cols] = 0.0
    h[rows, cols, cols] = np.max(np.abs(h[rows]), axis=(1, 2))
    kkt = np.zeros((n, d + 1, d + 1))
    kkt[:, :d, :d] = _psd_repair(h)
    on = np.flatnonzero(face)
    kkt[on, :d, d] = kkt[on, d, :d] = np.where(free[on], normal[on], 0.0)
    kkt[:, d, d] = ~face
    rhs = np.zeros((n, d + 1, 1))
    rhs[:, :d, 0] = -grad
    rhs[rows, cols, 0] = 0.0
    step = np.linalg.solve(kkt, rhs)[:, :d, 0]
    step[fixed] = 0.0
    return step


def _run_rows(
    spec: ModelSpec,
    data: NDArray[np.float64],
    starts: NDArray[np.int64],
    ends: NDArray[np.int64],
    x0: NDArray[np.float64],
    grad_tol: NDArray[np.float64],
    seeds: _Evals | None = None,
) -> _Fits:
    """Projected Newton descent on f = -L for every row at once.

    Row r climbs the window {starts[r], ..., ends[r]} of ``data`` from
    the feasible x0[r].  ``seeds``, if given, holds L, its gradient and
    its hessian at x0 on every row's window, so the climb starts without
    evaluating x0; otherwise one ``loglik_rows`` call does.  Each
    iteration works on the rows still live: rows meeting the stopping
    rule leave as converged, rows finding no acceptable step along
    either direction leave as not converged.  Every evaluation is one
    ``loglik_rows`` call on the rows' window bounds, which evaluates
    each row only over its own class.

    The line search is part of the climb and works on its state in
    place: ``line_search`` backtracks the given rows along the
    projection arc of their direction, halving one step length shared
    by every row still pending, and a row gives the direction up once
    its projected step vanishes.  It tests sufficient decrease only
    where the step descends, with a trial call that passes each row's
    Armijo bound f + c1 * slope, so derivatives are computed only for
    the trials that pass it (Nocedal & Wright 2006, section 3.1).  Each
    accepted trial is written straight into the climb's x, f, g and H,
    with f, g and H from the call that accepted it, and a rejected trial
    costs its value alone.  A row that accepts leaves the search, so
    the search only reads rows it has not written.
    """
    n_rows = starts.size

    def evaluate(rows, points, bound=None):
        value, grad, hess = loglik_rows(spec, points, data, starts[rows], ends[rows],
                                        floor=None if bound is None else -bound)
        return -value, -grad, -hess

    def stationary(rows):
        pg = x[rows] - _project_rows(spec, x[rows] - g[rows])
        pg_norm[rows] = np.linalg.norm(pg, axis=1)
        return pg_norm[rows] <= grad_tol[rows]

    def line_search(rows, direction):
        accepted = np.zeros(rows.size, dtype=bool)
        pending = np.arange(rows.size)
        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS):
            if pending.size == 0:
                break
            at = rows[pending]
            trial = _project_rows(spec, x[at] + alpha * direction[pending])
            step = trial - x[at]
            slope = np.einsum("ij,ij->i", g[at], step)
            moves = np.max(np.abs(step), axis=1) != 0.0
            test = moves & (slope < 0.0)
            ok = np.zeros(pending.size, dtype=bool)
            if np.any(test):
                bound = f[at[test]] + _ARMIJO_C1 * slope[test]
                found = evaluate(at[test], trial[test], bound)
                passed = found[0] <= bound
                ok[test] = passed
                for arr, part in zip((x, f, g, hess), (trial[test], *found)):
                    arr[at[ok]] = part[passed]
            accepted[pending[ok]] = True
            alpha *= _BACKTRACK
            pending = pending[moves & ~ok]
        return accepted

    x = np.array(x0, dtype=float)
    if seeds is None:
        f, g, hess = evaluate(np.arange(n_rows), x)
    else:
        f, g, hess = (-np.asarray(seed, dtype=float) for seed in seeds)
    pg_norm = np.empty(n_rows)
    iterations = np.zeros(n_rows, dtype=np.int64)
    live = np.ones(n_rows, dtype=bool)
    converged = np.zeros(n_rows, dtype=bool)
    for _ in range(_MAX_ITER):
        rows = np.flatnonzero(live)
        done = stationary(rows)
        converged[rows[done]] = True
        live[rows[done]] = False
        rows = rows[~done]
        if rows.size == 0:
            break
        moved = np.zeros(rows.size, dtype=bool)
        newton = _newton_directions(spec, x[rows], g[rows], hess[rows])
        for direction in (newton, -g[rows]):
            left = np.flatnonzero(~moved)
            if left.size == 0:
                break
            moved[left[line_search(rows[left], direction[left])]] = True
        live[rows[~moved]] = False
        iterations[rows[moved]] += 1
    rows = np.flatnonzero(live)
    converged[rows] = stationary(rows)
    return _Fits(x, f, pg_norm, iterations, converged)


def _fit_rows(
    spec: ModelSpec,
    data: NDArray[np.float64],
    starts: NDArray[np.int64],
    ends: NDArray[np.int64],
    x0: NDArray[np.float64],
    seeds: _Evals | None = None,
) -> _Fits:
    """Climb each window from each of its starts; keep its best fit.

    Window w is {starts[w], ..., ends[w]} of ``data``.  ``x0`` (S, W, d)
    holds the starts, or broadcasts to that shape: (S, 1, d) shares S
    starts among all windows, (1, W, d) gives each window its own.  The
    S x W rows climb in one ``_run_rows`` call, each with ``grad_tol``
    ``_GRAD_TOL_PER_OBS`` times its window's size, and with ``seeds``
    (for S = 1, L, its gradient and hessian at x0 on every window) when
    given.  Each window returns its earliest converged row among those
    whose f lies within ``_TIE_RTOL`` of its least f, or, when none of
    them converged, its row of least f, the earliest start breaking
    exact ties.  So a start that stalled just short of the stopping
    rule cannot leave the fit unconverged when another start reached
    the same optimum.  Raises SizingError if a window holds fewer than
    d + 1 observations.
    """
    n_starts, n_win = x0.shape[0], starts.size
    cards = ends - starts + 1
    if n_win and cards.min() < spec.d + 1:
        raise SizingError(
            f"window of {cards.min()} observations cannot identify "
            f"{spec.d} parameters; need at least {spec.d + 1}"
        )
    grad_tol = np.tile(_GRAD_TOL_PER_OBS * cards, n_starts)
    starts, ends = np.tile(starts, n_starts), np.tile(ends, n_starts)
    x0 = np.broadcast_to(x0, (n_starts, n_win, spec.d)).reshape(-1, spec.d)
    out = _run_rows(spec, data, starts, ends, x0, grad_tol, seeds)
    f = out[1].reshape(n_starts, n_win)
    least = f.min(axis=0)
    tied = (f <= least + _TIE_RTOL * np.abs(least)) & out[4].reshape(n_starts, n_win)
    best = np.where(tied.any(axis=0), np.argmax(tied, axis=0), np.argmin(f, axis=0))
    return _Fits._make(arr[best * n_win + np.arange(n_win)] for arr in out)


def estimate_windows(
    spec: ModelSpec,
    data: ArrayLike,
    starts: ArrayLike,
    ends: ArrayLike,
    init: ArrayLike | None = None,
    seeds: _Evals | None = None,
) -> _Fits:
    """QMLE on many windows of one series at once: the one fit routine.

    Window r is {starts[r], ..., ends[r]} of the full series ``data``.
    Without ``init``, every window climbs the cold starts
    (``_default_starts``) and keeps its best fit (``_fit_rows``), all
    (start, window) rows in one climb.  With ``init``, every window
    climbs from its projection, all as rows of one climb, seeded with
    ``seeds`` if given: (value (W,), gradient (W, d), hessian (W, d, d))
    of L there on every window, as ``loglik_rows`` returns them, which
    a scan reads off its derivative pass's window sums.  The windows
    that climb leaves unconverged (``_MAX_ITER`` iterations, or no
    acceptable step) are then fitted cold in one more climb, and take
    the cold fit, every field of it, when that converged or has a lower
    f = -L than the warm fit; otherwise they keep the warm fit,
    unconverged.  ``estimate`` is this call on one window, so a warm
    ``estimate`` is the exact scan's window fit.

    Returns the windows' ``_Fits``: theta (W, d), f, projected-gradient
    norm, iterations and converged (W,).  A row's sums depend only on
    its window, so without seeds a window's fit is, bit for bit, that
    of the call on it alone; seeds agree with the first evaluation to
    round-off.

    Raises
    ------
    SizingError
        If a window holds fewer than d + 1 observations.
    """
    data = np.asarray(data, dtype=float)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if init is None:
        return _fit_rows(spec, data, starts, ends, _default_starts(spec)[:, None, :])
    fits = _fit_rows(
        spec, data, starts, ends, project_to_domain(spec, init)[None, None, :], seeds)
    rows = np.flatnonzero(~fits.converged)
    if rows.size:
        cold = estimate_windows(spec, data, starts[rows], ends[rows])
        take = cold.converged | (cold.f < fits.f[rows])
        for warm_field, cold_field in zip(fits, cold):
            warm_field[rows[take]] = cold_field[take]
    return fits
