"""Quasi-maximum likelihood estimation on a sub-sample.

The estimator maximises the truncated quasi-log-likelihood over the
feasible set (box intersected with the stationarity constraint) with a
projected Newton ascent: analytic gradient and hessian, eigenvalue
modification to keep the direction well defined, Armijo backtracking
along the projection arc.  Every fit runs one implementation of it
(``_run_rows``), which climbs a stack of rows, each on its own window
from its own start.  Cold ``estimate`` calls climb a small deterministic
multi-start (domain centre plus quasi-random points; the centre alone
for AR, whose quasi-likelihood is concave) as rows on one window; warm
calls pass ``init`` and climb one row.  ``estimate_windows`` climbs the
exact scan's prefixes and suffixes from one warm start, and
``retry_cold`` the cold starts on every window it leaves unconverged.

Everything here is deterministic: the quasi-random starts come from an
unscrambled radical-inverse sequence, and no step consults a RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

# ``loglik`` is not called here, but stays importable from this module:
# the span wrappers of perfbench/spans.py patch ``qlscan.qmle.loglik``.
from .likelihood import loglik, loglik_rows, window_mask  # noqa: F401
from .models import (
    DomainError,
    ModelFamily,
    ModelSpec,
    SeriesSegment,
    SizingError,
    ar1_interval,
    in_domain,
    stationarity_stat,
)

if TYPE_CHECKING:
    from collections.abc import Callable

    from numpy.typing import ArrayLike, NDArray

    # Per row: x, f = -L, projected-gradient norm, iterations, converged.
    _Fits = tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64],
                  NDArray[np.int64], NDArray[np.bool_]]

__all__ = [
    "EstimateResult",
    "OptimOptions",
    "estimate",
    "estimate_windows",
    "project_to_domain",
    "retry_cold",
]


@dataclass(frozen=True)
class OptimOptions:
    """Optimizer controls, shared by every row of the batched ascent.

    ``grad_tol`` of None means the default 1e-8 * Card(T), so longer
    windows tolerate proportionally larger gradient norms.  AR fits
    ignore ``n_starts`` and climb from the domain centre alone: the AR
    quasi-likelihood is concave, so every start reaches the same optimum.
    """

    grad_tol: float | None = None
    max_iter: int = 200
    n_starts: int = 5
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 40


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


def _clipped_sum_root(
    x: NDArray[np.float64],
    lo: NDArray[np.float64],
    hi: NDArray[np.float64],
    target: float,
) -> float:
    """Solve sum(clip(x - mu, lo, hi)) == target for mu.

    The left side is a piecewise-linear nonincreasing function of mu with
    breakpoints at x - hi and x - lo; the caller guarantees a root exists
    (value above target at the smallest breakpoint, at or below it at the
    largest).
    """
    bps = np.unique(np.concatenate((x - hi, x - lo)))

    def val(mu: float) -> float:
        return float(np.sum(np.clip(x - mu, lo, hi)))

    prev = bps[0]
    for bp in bps:
        if val(bp) <= target:
            v_left, v_right = val(prev), val(bp)
            if v_right == target or v_left == v_right:
                return float(bp)
            return float(prev + (v_left - target) * (bp - prev) / (v_left - v_right))
        prev = bp
    return float(bps[-1])


def _project_box_halfspace(
    x: NDArray[np.float64],
    lo: NDArray[np.float64],
    hi: NDArray[np.float64],
    c: float,
) -> NDArray[np.float64]:
    """Project onto {lo <= y <= hi, sum(y[1:]) <= c} exactly.

    Coordinate 0 only sees the box.  When the sum constraint binds, the
    KKT conditions give y_i = clip(x_i - mu, lo_i, hi_i) on the summed
    coordinates with a single multiplier mu > 0 fixed by sum == c.
    """
    y = np.clip(x, lo, hi)
    if float(np.sum(y[1:])) <= c:
        return y
    mu = _clipped_sum_root(x[1:], lo[1:], hi[1:], c)
    y[1:] = np.clip(x[1:] - mu, lo[1:], hi[1:])
    return y


def _project_box_l1(
    x: NDArray[np.float64],
    lo: NDArray[np.float64],
    hi: NDArray[np.float64],
    c: float,
) -> NDArray[np.float64]:
    """Project onto {lo <= y <= hi, sum|y| <= c} exactly.

    Each y_i keeps one sign s_i: the box's sign when it excludes zero,
    else x_i's (flipping a sign never brings y closer).  In magnitudes
    the problem is then the half-space case: |y_i| = clip(s_i x_i - mu,
    a_i, b_i), with [a_i, b_i] the box seen on s_i's side (0 to the box
    edge when the box spans zero) and mu > 0 fixed by sum == c.
    """
    y = np.clip(x, lo, hi)
    if float(np.sum(np.abs(y))) <= c:
        return y
    s = np.where(hi <= 0.0, -1.0, 1.0)
    spans = (lo < 0.0) & (hi > 0.0)
    s[spans] = np.where(x[spans] >= 0.0, 1.0, -1.0)
    a = np.where(s > 0.0, np.maximum(lo, 0.0), np.maximum(-hi, 0.0))
    b = np.where(s > 0.0, hi, -lo)
    mu = _clipped_sum_root(s * x, a, b, c)
    return s * np.clip(s * x - mu, a, b)


def project_to_domain(spec: ModelSpec, theta: ArrayLike) -> NDArray[np.float64]:
    """Euclidean projection onto the feasible set of ``spec``.

    The feasible set is a box intersected with one stationarity
    constraint (l1 ball for AR, half-space on the summed coordinates for
    ARCH/GARCH), so the projection has an exact single-multiplier form
    for every box, sign-restricted AR boxes included; no iterative
    scheme is needed.  AR(1) short-circuits to a clamp.
    """
    y = spec.check_theta(theta)
    if spec.family is ModelFamily.AR and spec.p == 1:
        return np.clip(y, *ar1_interval(spec))

    lo, hi = spec.domain.as_arrays()
    c = spec.domain.bound
    if spec.family is ModelFamily.AR:
        x = _project_box_l1(y, lo, hi, c)
    else:
        x = _project_box_halfspace(y, lo, hi, c)
    if not in_domain(spec, x):
        raise DomainError("projection failed; the feasible set may be empty")
    return x


def _radical_inverse(i: int, base: int) -> float:
    inv = 0.0
    denom = 1.0
    while i > 0:
        denom *= base
        inv += (i % base) / denom
        i //= base
    return inv


def _default_starts(spec: ModelSpec, opts: OptimOptions) -> NDArray[np.float64]:
    """Domain centre plus quasi-random in-domain points, all projected."""
    lo, hi = spec.domain.as_arrays()
    starts = [project_to_domain(spec, (lo + hi) / 2.0)]
    primes = [2, 3, 5, 7, 11, 13, 17][: spec.d]
    n_starts = 1 if spec.family is ModelFamily.AR else opts.n_starts
    for i in range(1, n_starts):
        unit = np.array([_radical_inverse(i, b) for b in primes])
        # Pull toward the centre a little so starts stay strictly interior
        # even after projection.
        point = lo + (0.05 + 0.9 * unit) * (hi - lo)
        starts.append(project_to_domain(spec, point))
    return np.array(starts)


def _boundary_active(spec: ModelSpec, x: NDArray[np.float64]) -> bool:
    lo, hi = spec.domain.as_arrays()
    eps = 1e-8 * (1.0 + float(np.max(np.abs(x))))
    if np.any(x - lo <= eps) or np.any(hi - x <= eps):
        return True
    return spec.domain.bound - float(stationarity_stat(spec, x)) <= eps


def _psd_repair(hess: NDArray[np.float64]) -> NDArray[np.float64]:
    """Positive-definite repair of a symmetric matrix, or of a stack of them.

    Eigenvalues are replaced by their absolute value floored away from
    zero, so saddle curvature repels instead of producing a huge
    ill-scaled step.
    """
    evals, evecs = np.linalg.eigh(hess)
    floor = 1e-8 * np.maximum(1.0, np.max(np.abs(evals), axis=-1, keepdims=True))
    evals = np.maximum(np.abs(evals), floor)
    return (evecs * evals[..., None, :]) @ np.swapaxes(evecs, -1, -2)


_ACTIVE_EPS = 1e-9


def _newton_direction(
    spec: ModelSpec,
    x: NDArray[np.float64],
    grad: NDArray[np.float64],
    hess: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Active-set Newton step for minimising f over the feasible set.

    Box coordinates pressed against a bound by the gradient are frozen,
    and when descent pushes outward through the binding stationarity
    face the step is solved with that face as an equality.  Without this
    reduction a raw Newton step at a boundary optimum points outside the
    domain and the projected step degrades to a crawl along the face.
    """
    lo, hi = spec.domain.as_arrays()
    eps = _ACTIVE_EPS * (1.0 + float(np.max(np.abs(x))))

    fixed = ((x - lo <= eps) & (grad > 0.0)) | ((hi - x <= eps) & (grad < 0.0))
    on_face = spec.domain.bound - float(stationarity_stat(spec, x)) <= eps
    face: NDArray[np.float64] | None = None
    if spec.family is ModelFamily.AR:
        if on_face:
            # On a binding l1 face a coordinate at zero cannot move at
            # all without pushing the sum outward, so freeze it.
            fixed = fixed | (np.abs(x) <= eps)
            normal = np.sign(x)
            if float(normal @ grad) < 0.0:
                face = normal
    else:
        normal = np.zeros(spec.d)
        normal[1:] = 1.0
        if on_face and float(normal @ grad) < 0.0:
            face = normal

    free = ~fixed
    m = int(np.count_nonzero(free))
    if m == 0:
        return np.zeros_like(x)
    h_ff = _psd_repair(hess[np.ix_(free, free)])
    g_f = grad[free]
    step_f: NDArray[np.float64]
    if face is not None and np.any(face[free] != 0.0):
        n_f = face[free]
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = h_ff
        kkt[:m, m] = n_f
        kkt[m, :m] = n_f
        rhs = np.append(-g_f, 0.0)
        step_f = np.linalg.solve(kkt, rhs)[:m]
    else:
        step_f = np.linalg.solve(h_ff, -g_f)
    step = np.zeros_like(x)
    step[free] = step_f
    return step


def estimate(
    spec: ModelSpec,
    segment: SeriesSegment,
    init: ArrayLike | None = None,
    opts: OptimOptions | None = None,
) -> EstimateResult:
    """QMLE of theta on the segment's window.

    With ``init`` given the optimizer runs a single start from the
    projection of ``init`` (warm start).  Without it, a deterministic
    multi-start is used and the best local maximiser wins, earliest
    start breaking exact ties; AR fits run its first start, the domain
    centre, alone (``OptimOptions``).

    Raises
    ------
    SizingError
        If the window holds fewer than d + 1 observations.
    """
    opts = opts or OptimOptions()
    if init is None:
        x0 = _default_starts(spec, opts)
    else:
        x0 = project_to_domain(spec, init)[None, :]
    x, f, pg_norm, iterations, converged = (out[0] for out in _fit_rows(
        spec, segment.data, np.array([segment.start]), np.array([segment.end]),
        x0[:, None, :], opts,
    ))
    return EstimateResult(
        theta_hat=x,
        loglik_at_opt=-float(f),
        grad_norm=float(pg_norm),
        iterations=int(iterations),
        converged=bool(converged),
        boundary_active=_boundary_active(spec, x),
    )


# Largest (windows x observations) block that estimate_windows evaluates
# at once; each row-wise array of a block holds at most this many float64
# values (1 MiB).  A few such arrays are live at a time, so this bounds
# the batch's extra memory to a few MiB; at n = 500 and 2000 it was also
# as fast as or faster than 2^20, whose arrays spill out of cache.
_BLOCK_VALUES = 2**17


def _project_rows(spec: ModelSpec, x: NDArray[np.float64]) -> NDArray[np.float64]:
    """``project_to_domain`` for every row of x.

    A row that the box clip leaves inside the stationarity constraint
    gets that clip, which is what ``project_to_domain`` returns for it;
    the other rows go through ``project_to_domain`` one by one.
    """
    if spec.family is ModelFamily.AR and spec.p == 1:
        return np.clip(x, *ar1_interval(spec))
    lo, hi = spec.domain.as_arrays()
    y = np.clip(x, lo, hi)
    for r in np.flatnonzero(~(stationarity_stat(spec, y) <= spec.domain.bound)):
        y[r] = project_to_domain(spec, x[r])
    return y


def _newton_directions(
    spec: ModelSpec,
    x: NDArray[np.float64],
    grad: NDArray[np.float64],
    hess: NDArray[np.float64],
) -> NDArray[np.float64]:
    """``_newton_direction`` for every row.

    Rows on the binding stationarity face take it one at a time.  The
    others only freeze box coordinates, so rows with the same free set
    are solved as one stack of repaired systems.
    """
    lo, hi = spec.domain.as_arrays()
    eps = _ACTIVE_EPS * (1.0 + np.max(np.abs(x), axis=1))
    on_face = spec.domain.bound - stationarity_stat(spec, x) <= eps
    fixed = ((x - lo <= eps[:, None]) & (grad > 0.0)) | (
        (hi - x <= eps[:, None]) & (grad < 0.0)
    )
    out = np.zeros_like(x)
    for r in np.flatnonzero(on_face):
        out[r] = _newton_direction(spec, x[r], grad[r], hess[r])
    keys = (~fixed).astype(np.int64) @ (1 << np.arange(spec.d))
    keys[on_face] = 0
    for key in np.unique(keys[keys > 0]):
        rows = np.flatnonzero(keys == key)
        cols = np.flatnonzero((int(key) >> np.arange(spec.d)) & 1)
        h_ff = _psd_repair(hess[np.ix_(rows, cols, cols)])
        rhs = -grad[np.ix_(rows, cols)]
        out[np.ix_(rows, cols)] = np.linalg.solve(h_ff, rhs[..., None])[..., 0]
    return out


def _line_search_rows(
    spec: ModelSpec,
    x: NDArray[np.float64],
    f: NDArray[np.float64],
    grad: NDArray[np.float64],
    direction: NDArray[np.float64],
    f_at: Callable[[NDArray[np.int64], NDArray[np.float64]], NDArray[np.float64]],
    opts: OptimOptions,
) -> tuple[NDArray[np.bool_], NDArray[np.float64]]:
    """Armijo backtracking along the projection arc for every row.

    The inner loop of ``_run_rows``: a row gives the direction up once
    its projected step vanishes, and tests sufficient decrease only
    where the step descends.  ``f_at(rows, points)`` returns f = -L of
    the given rows at the given points.  Returns the accepted mask and
    the accepted points (the start point where nothing was accepted).
    """
    alpha = np.ones(x.shape[0])
    accepted = np.zeros(x.shape[0], dtype=bool)
    out = x.copy()
    pending = np.arange(x.shape[0])
    for _ in range(opts.max_backtracks):
        if pending.size == 0:
            break
        trial = _project_rows(spec, x[pending] + alpha[pending, None] * direction[pending])
        step = trial - x[pending]
        slope = np.einsum("ij,ij->i", grad[pending], step)
        moved = np.max(np.abs(step), axis=1) != 0.0
        test = moved & (slope < 0.0)
        ok = np.zeros(pending.size, dtype=bool)
        if np.any(test):
            f_trial = f_at(pending[test], trial[test])
            ok[test] = f_trial <= f[pending[test]] + opts.armijo_c1 * slope[test]
        out[pending[ok]] = trial[ok]
        accepted[pending[ok]] = True
        alpha[pending] *= opts.backtrack
        pending = pending[moved & ~ok]
    return accepted, out


def _run_rows(
    spec: ModelSpec,
    data: NDArray[np.float64],
    starts: NDArray[np.int64],
    ends: NDArray[np.int64],
    x0: NDArray[np.float64],
    grad_tol: NDArray[np.float64],
    opts: OptimOptions,
) -> _Fits:
    """Projected Newton descent on f = -L for every row at once.

    Row r climbs the window {starts[r], ..., ends[r]} of ``data`` from
    the feasible x0[r].  Each iteration works on the rows still live:
    rows meeting the stopping rule leave as converged, rows finding no
    acceptable step along either direction leave as not converged.
    """
    n_rows = starts.size
    mask = window_mask(starts, ends, int(np.max(ends)))

    def evaluate(rows, points, order):
        rows_mask = mask if rows.size == n_rows else mask[rows]
        value, grad, hess = loglik_rows(spec, points, data, rows_mask, order=order)
        if order == 0:
            return -value, None, None
        return -value, -grad, -hess if order >= 2 else None

    def stationary(rows):
        pg = x[rows] - _project_rows(spec, x[rows] - g[rows])
        pg_norm[rows] = np.linalg.norm(pg, axis=1)
        return pg_norm[rows] <= grad_tol[rows]

    x = np.array(x0, dtype=float)
    f, g, hess = evaluate(np.arange(n_rows), x, 2)
    pg_norm = np.empty(n_rows)
    iterations = np.zeros(n_rows, dtype=np.int64)
    live = np.ones(n_rows, dtype=bool)
    converged = np.zeros(n_rows, dtype=bool)
    for _ in range(opts.max_iter):
        rows = np.flatnonzero(live)
        done = stationary(rows)
        converged[rows[done]] = True
        live[rows[done]] = False
        rows = rows[~done]
        if rows.size == 0:
            break
        moved = np.zeros(rows.size, dtype=bool)
        x_new = x[rows]
        newton = _newton_directions(spec, x[rows], g[rows], hess[rows])
        for direction in (newton, -g[rows]):
            sub = rows[~moved]
            if sub.size == 0:
                break
            acc, points = _line_search_rows(
                spec, x[sub], f[sub], g[sub], direction[~moved],
                lambda local, pts, sub=sub: evaluate(sub[local], pts, 0)[0], opts,
            )
            take = np.flatnonzero(~moved)[acc]
            x_new[take] = points[acc]
            moved[take] = True
        live[rows[~moved]] = False
        rows = rows[moved]
        if rows.size == 0:
            break
        x[rows] = x_new[moved]
        iterations[rows] += 1
        f[rows], g[rows], hess[rows] = evaluate(rows, x[rows], 2)
    rows = np.flatnonzero(live)
    converged[rows] = stationary(rows)
    return x, f, pg_norm, iterations, converged


def _fit_rows(
    spec: ModelSpec,
    data: NDArray[np.float64],
    starts: NDArray[np.int64],
    ends: NDArray[np.int64],
    x0: NDArray[np.float64],
    opts: OptimOptions,
) -> _Fits:
    """Climb each window from each of its starts; keep its best fit.

    Window w is {starts[w], ..., ends[w]} of ``data``.  ``x0`` (S, W, d)
    holds the starts, or broadcasts to that shape: (S, 1, d) shares S
    starts among all windows, (1, W, d) gives each window its own.  The
    S x W rows climb in ``_run_rows`` in blocks of at most
    ``_BLOCK_VALUES`` (row, observation) values, each with ``grad_tol``
    ``opts.grad_tol`` or by default 1e-8 times its window's size.  Each
    window returns its row of least f, the earliest start breaking
    exact ties.  Raises SizingError if a window holds fewer than d + 1
    observations.
    """
    n_starts, n_win = x0.shape[0], starts.size
    cards = ends - starts + 1
    if n_win and cards.min() < spec.d + 1:
        raise SizingError(
            f"window of {cards.min()} observations cannot identify "
            f"{spec.d} parameters; need at least {spec.d + 1}"
        )
    tol = opts.grad_tol
    grad_tol = np.tile(1e-8 * cards if tol is None else np.full(n_win, tol), n_starts)
    starts, ends = np.tile(starts, n_starts), np.tile(ends, n_starts)
    x0 = np.broadcast_to(x0, (n_starts, n_win, spec.d)).reshape(-1, spec.d)
    rows = starts.size
    out = (np.empty((rows, spec.d)), np.empty(rows), np.empty(rows),
           np.empty(rows, dtype=np.int64), np.empty(rows, dtype=bool))
    block = max(1, _BLOCK_VALUES // data.size)
    for lo in range(0, rows, block):
        sl = slice(lo, lo + block)
        parts = _run_rows(spec, data, starts[sl], ends[sl], x0[sl], grad_tol[sl], opts)
        for arr, part in zip(out, parts):
            arr[sl] = part
    best = np.argmin(out[1].reshape(n_starts, n_win), axis=0) * n_win + np.arange(n_win)
    return tuple(arr[best] for arr in out)


def estimate_windows(
    spec: ModelSpec,
    data: NDArray[np.float64],
    starts: NDArray[np.int64],
    ends: NDArray[np.int64],
    init: ArrayLike,
    opts: OptimOptions | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Warm-started QMLE on many windows of one series at once.

    Window r is {starts[r], ..., ends[r]} of the full series ``data``.
    Every window is climbed from the projection of ``init``, one row of
    the batched ascent that a warm ``estimate`` call runs on its single
    window, so each row takes that call's steps.  Windows are processed
    in blocks of at most ``_BLOCK_VALUES`` (window, observation) values.

    Returns (theta (W, d), converged (W,)).  A row that is not converged
    reached ``opts.max_iter`` or found no acceptable step, and holds its
    last iterate; ``retry_cold`` gives such windows the cold multi-start.
    A row's sums do not depend on which other rows its block holds, but
    they run over the block's span of observations, so a row agrees
    with a warm ``estimate`` call on its window to round-off rather than
    bit for bit.

    Raises
    ------
    SizingError
        If a window holds fewer than d + 1 observations.
    """
    opts = opts or OptimOptions()
    theta, _, _, _, converged = _fit_rows(
        spec, np.asarray(data, dtype=float), np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64), project_to_domain(spec, init)[None, None, :],
        opts,
    )
    return theta, converged


def retry_cold(
    spec: ModelSpec,
    data: NDArray[np.float64],
    starts: NDArray[np.int64],
    ends: NDArray[np.int64],
    theta: NDArray[np.float64],
    opts: OptimOptions | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Cold multi-start on windows whose warm climb did not converge.

    ``theta`` holds the warm fits.  Every window climbs from every start
    of a cold ``estimate`` call, all (start, window) rows in one batch,
    and adopts its best cold fit when that converged or has a higher
    log-likelihood than the warm fit.  Returns (theta (W, d), converged
    (W,)).
    """
    opts = opts or OptimOptions()
    x, f, _, _, ok = _fit_rows(
        spec, data, starts, ends, _default_starts(spec, opts)[:, None, :], opts
    )
    # A climb of zero iterations evaluates f at its start.
    warm_f = _fit_rows(
        spec, data, starts, ends, theta[None], replace(opts, max_iter=0)
    )[1]
    # A kept warm fit is unconverged, and then so is the best cold fit.
    return np.where((ok | (f < warm_f))[:, None], x, theta), ok
