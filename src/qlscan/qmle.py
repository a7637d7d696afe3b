"""Quasi-maximum likelihood estimation on a sub-sample.

The estimator maximises the truncated quasi-log-likelihood over the
feasible set (box intersected with the stationarity constraint) with a
projected Newton ascent: analytic gradient and hessian, eigenvalue
modification to keep the direction well defined, Armijo backtracking
along the projection arc.  Every fit runs one implementation of it
(``_run_rows``), which climbs a stack of rows, each on its own window
from its own start.  A line search evaluates its full step (alpha = 1)
with the gradient and hessian, so when a row accepts that step, as it
does near an optimum, the next iteration reuses them instead of
evaluating the new iterate again.  Cold ``estimate`` calls climb a
small deterministic multi-start (domain centre plus quasi-random
points; the centre alone for AR, whose quasi-likelihood is concave) as
rows on one window; warm calls pass ``init`` and climb one row.
``estimate_windows`` climbs the exact scan's prefixes and suffixes from
one warm start, seeded with each window's likelihood, gradient and
hessian there, and ``retry_cold`` the cold starts on every window it
leaves unconverged.  Every fit climbs all its rows in one ``_run_rows``
call, and each evaluation is one ``loglik_rows`` call on the rows'
window bounds, so a row is evaluated only over its window's span and
its bits depend on its window alone.  The steps are batched too: the
active-set Newton directions (``_newton_directions``) are solved as
stacks of rows sharing a free set and face state, and the projection
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

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

# ``loglik`` is not called here, but stays importable from this module:
# the span wrappers of perfbench/spans.py patch ``qlscan.qmle.loglik``.
from .likelihood import loglik, loglik_rows  # noqa: F401
from .models import (
    DomainError,
    ModelFamily,
    ModelSpec,
    SeriesSegment,
    SizingError,
    ar1_interval,
    in_domain,
    in_domain_rows,
    stationarity_stat,
)

if TYPE_CHECKING:
    from collections.abc import Callable

    from numpy.typing import ArrayLike, NDArray

    # Per row: x, f = -L, projected-gradient norm, iterations, converged.
    _Fits = tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64],
                  NDArray[np.int64], NDArray[np.bool_]]
    # Per row: L, its gradient and its hessian, as ``loglik_rows`` returns them.
    _Evals = tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]

__all__ = [
    "EstimateResult",
    "estimate",
    "estimate_windows",
    "project_to_domain",
    "retry_cold",
]


# The optimizer's fixed policy (module docstring); a row's gradient
# tolerance is _GRAD_TOL_PER_OBS times its window's size.
_GRAD_TOL_PER_OBS = 1e-8
_MAX_ITER = 200
_N_STARTS = 5
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 40


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


def project_to_domain(spec: ModelSpec, theta: ArrayLike) -> NDArray[np.float64]:
    """Euclidean projection onto the feasible set of ``spec``.

    One row of ``_project_rows``, whose exact single-multiplier form
    covers every box, sign-restricted AR boxes included.  Raises
    ``DomainError`` if the result is not feasible.
    """
    x = _project_rows(spec, spec.check_theta(theta)[None, :])[0]
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


def _boundary_active(spec: ModelSpec, x: NDArray[np.float64]) -> bool:
    lo, hi = spec.domain.as_arrays()
    eps = 1e-8 * (1.0 + float(np.max(np.abs(x))))
    if np.any(x - lo <= eps) or np.any(hi - x <= eps):
        return True
    return spec.domain.bound - float(stationarity_stat(spec, x)) <= eps


# Relative floor of the repaired eigenvalues (``_psd_repair``).
_EIGEN_FLOOR = 1e-8


def _psd_repair(hess: NDArray[np.float64]) -> NDArray[np.float64]:
    """Positive-definite repair of a symmetric matrix, or of a stack of them.

    Eigenvalues are replaced by their absolute value, floored at
    ``_EIGEN_FLOOR`` * max(1, largest |eigenvalue|), so saddle curvature
    repels instead of producing a huge ill-scaled step.  A matrix whose
    eigenvalues all lie at or above that floor is its own repair, so a
    matrix that ``_clears_floor`` proves to be one is returned as it is;
    only the others go through ``eigh``.
    """
    stack = hess.reshape((-1,) + hess.shape[-2:])
    repair = ~_clears_floor(stack)
    if not np.any(repair):
        return hess
    evals, evecs = np.linalg.eigh(stack[repair])
    floor = _EIGEN_FLOOR * np.maximum(1.0, np.max(np.abs(evals), axis=-1, keepdims=True))
    evals = np.maximum(np.abs(evals), floor)
    out = stack.copy()
    out[repair] = (evecs * evals[..., None, :]) @ np.swapaxes(evecs, -1, -2)
    return out.reshape(hess.shape)


def _clears_floor(h: NDArray[np.float64]) -> NDArray[np.bool_]:
    """For each symmetric (m, m) matrix of the stack ``h``, whether it is
    provably positive definite with every eigenvalue at or above the
    repair's floor.

    Positive leading minors make it positive definite.  Then its largest
    eigenvalue is at most its trace tr, and its smallest at least
    det / tr^(m-1), since det is the product of the eigenvalues.  A
    non-finite matrix never clears.
    """
    m = h.shape[-1]
    with np.errstate(all="ignore"):
        det = h[:, 0, 0]
        ok = np.all(np.isfinite(h), axis=(1, 2)) & (det > 0.0)
        for k in range(2, m + 1):
            det = np.linalg.det(h[:, :k, :k])
            ok &= det > 0.0
        tr = np.trace(h, axis1=-2, axis2=-1)
        ok &= det >= _EIGEN_FLOOR * np.maximum(1.0, tr) * tr ** (m - 1)
    return ok


_ACTIVE_EPS = 1e-9


def estimate(
    spec: ModelSpec,
    segment: SeriesSegment,
    init: ArrayLike | None = None,
) -> EstimateResult:
    """QMLE of theta on the segment's window.

    With ``init`` given the optimizer runs a single start from the
    projection of ``init`` (warm start).  Without it, a deterministic
    multi-start is used and the best local maximiser wins, earliest
    start breaking exact ties: ``_N_STARTS`` starts, or for AR fits the
    first, the domain centre, alone.  Each start climbs at most
    ``_MAX_ITER`` iterations.

    Raises
    ------
    SizingError
        If the window holds fewer than d + 1 observations.
    """
    if init is None:
        x0 = _default_starts(spec)
    else:
        x0 = project_to_domain(spec, init)[None, :]
    x, f, pg_norm, iterations, converged = (out[0] for out in _fit_rows(
        spec, segment.data, np.array([segment.start]), np.array([segment.end]),
        x0[:, None, :],
    ))
    return EstimateResult(
        theta_hat=x,
        loglik_at_opt=-float(f),
        grad_norm=float(pg_norm),
        iterations=int(iterations),
        converged=bool(converged),
        boundary_active=_boundary_active(spec, x),
    )


def _project_rows(spec: ModelSpec, x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Euclidean projection of every row of x onto the feasible set.

    AR(1) clamps.  Otherwise a row that the box clip leaves inside the
    stationarity constraint keeps that clip.  On the other rows the
    constraint binds, and the KKT conditions give each constrained
    coordinate as y_i = s_i clip(s_i x_i - mu, a_i, b_i) with a single
    multiplier mu > 0 fixed by sum(s_i y_i) == c.  For ARCH/GARCH the
    constrained coordinates are those after alpha_0, with s_i = 1 and
    [a_i, b_i] the box.  For AR they are all of them, and y_i keeps one
    sign s_i: the box's sign when it excludes zero, else x_i's (flipping
    a sign never brings y closer); [a_i, b_i] is the box seen on s_i's
    side (0 to the box edge when the box spans zero).

    The clipped sum is piecewise linear and nonincreasing in mu, with
    breakpoints at s_i x_i - b_i and s_i x_i - a_i.  Each row evaluates
    it at every breakpoint, takes the first one at or below c and
    interpolates from the one before.  Raises ``DomainError`` if a
    projected row is not feasible.
    """
    if spec.family is ModelFamily.AR and spec.p == 1:
        return np.clip(x, *ar1_interval(spec))
    lo, hi = spec.domain.as_arrays()
    c = spec.domain.bound
    y = np.clip(x, lo, hi)
    bad = np.flatnonzero(~(stationarity_stat(spec, y) <= c))
    if bad.size == 0:
        return y
    if spec.family is ModelFamily.AR:
        part = slice(None)
        z = x[bad]
        s = np.where((lo < 0.0) & (hi > 0.0), np.where(z >= 0.0, 1.0, -1.0),
                     np.where(hi <= 0.0, -1.0, 1.0))
        a = np.where(s > 0.0, np.maximum(lo, 0.0), np.maximum(-hi, 0.0))
        b = np.where(s > 0.0, hi, -lo)
    else:
        part = slice(1, None)
        z = x[bad, part]
        s = np.ones_like(z)
        a, b = np.broadcast_to(lo[part], z.shape), np.broadcast_to(hi[part], z.shape)
    u = s * z
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

    Box coordinates pressed against a bound by the gradient are frozen.
    On a binding AR l1 face a coordinate at zero cannot move at all
    without pushing the sum outward, so it is frozen too.  When descent
    pushes outward through the binding stationarity face (normal n), the
    step is solved with that face as an equality: the bordered system
    [[H_ff, n_f], [n_f', 0]] against [-g_f, 0], with H_ff the repaired
    free block.  Without this reduction a raw Newton step at a boundary
    optimum points outside the domain and the projected step degrades
    to a crawl along the face.  Rows with the same free set and face
    state are solved as one stack; a row with every coordinate frozen
    gets a zero step.
    """
    lo, hi = spec.domain.as_arrays()
    eps = _ACTIVE_EPS * (1.0 + np.max(np.abs(x), axis=1, keepdims=True))
    on_face = spec.domain.bound - stationarity_stat(spec, x) <= eps[:, 0]
    fixed = ((x - lo <= eps) & (grad > 0.0)) | ((hi - x <= eps) & (grad < 0.0))
    if spec.family is ModelFamily.AR:
        fixed |= on_face[:, None] & (np.abs(x) <= eps)
        normal = np.sign(x)
    else:
        normal = np.zeros_like(x)
        normal[:, 1:] = 1.0
    free = ~fixed
    face = (on_face & (np.sum(normal * grad, axis=1) < 0.0)
            & np.any(free & (normal != 0.0), axis=1))
    keys = np.column_stack((free, face)).astype(np.int64) @ (1 << np.arange(spec.d + 1))
    out = np.zeros_like(x)
    for key in np.unique(keys[keys > 0]):
        rows = np.flatnonzero(keys == key)
        cols = np.flatnonzero(free[rows[0]])
        m = cols.size
        lhs = _psd_repair(hess[np.ix_(rows, cols, cols)])
        rhs = -grad[np.ix_(rows, cols)]
        if face[rows[0]]:
            kkt = np.zeros((rows.size, m + 1, m + 1))
            kkt[:, :m, :m] = lhs
            kkt[:, :m, m] = kkt[:, m, :m] = normal[np.ix_(rows, cols)]
            lhs, rhs = kkt, np.append(rhs, np.zeros((rows.size, 1)), axis=1)
        out[np.ix_(rows, cols)] = np.linalg.solve(lhs, rhs[..., None])[:, :m, 0]
    return out


def _line_search_rows(
    spec: ModelSpec,
    x: NDArray[np.float64],
    f: NDArray[np.float64],
    grad: NDArray[np.float64],
    direction: NDArray[np.float64],
    f_at: Callable[[NDArray[np.int64], NDArray[np.float64], bool], NDArray[np.float64]],
) -> tuple[NDArray[np.bool_], NDArray[np.float64], NDArray[np.bool_]]:
    """Armijo backtracking along the projection arc for every row.

    The inner loop of ``_run_rows``: a row gives the direction up once
    its projected step vanishes, and tests sufficient decrease only
    where the step descends.  ``f_at(rows, points, full)`` returns
    f = -L of the given rows at the given points; ``full`` is True for
    the first trial, the full step (alpha = 1).  Returns the accepted
    mask, the accepted points (the start point where nothing was
    accepted) and the mask of rows that accepted the full step.
    """
    alpha = np.ones(x.shape[0])
    accepted = np.zeros(x.shape[0], dtype=bool)
    out = x.copy()
    pending = np.arange(x.shape[0])
    full = accepted
    for k in range(_MAX_BACKTRACKS):
        if pending.size == 0:
            break
        trial = _project_rows(spec, x[pending] + alpha[pending, None] * direction[pending])
        step = trial - x[pending]
        slope = np.einsum("ij,ij->i", grad[pending], step)
        moved = np.max(np.abs(step), axis=1) != 0.0
        test = moved & (slope < 0.0)
        ok = np.zeros(pending.size, dtype=bool)
        if np.any(test):
            f_trial = f_at(pending[test], trial[test], k == 0)
            ok[test] = f_trial <= f[pending[test]] + _ARMIJO_C1 * slope[test]
        out[pending[ok]] = trial[ok]
        accepted[pending[ok]] = True
        if k == 0:
            full = accepted.copy()
        alpha[pending] *= _BACKTRACK
        pending = pending[moved & ~ok]
    return accepted, out, full


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
    either direction leave as not converged.  Each line search
    evaluates its full step at order 2, so a row that accepts it
    already holds f, g and H at its next iterate; only rows that
    backtracked are evaluated again.  Every evaluation is one
    ``loglik_rows`` call on the rows' window bounds, which evaluates
    each row only over its own span.
    """
    n_rows = starts.size

    def evaluate(rows, points, order):
        value, grad, hess = loglik_rows(spec, points, data, starts[rows], ends[rows],
                                        order=order)
        if order == 0:
            return -value, None, None
        return -value, -grad, -hess if order >= 2 else None

    def stationary(rows):
        pg = x[rows] - _project_rows(spec, x[rows] - g[rows])
        pg_norm[rows] = np.linalg.norm(pg, axis=1)
        return pg_norm[rows] <= grad_tol[rows]

    def f_trial(rows, points, full):
        if not full:
            return evaluate(rows, points, 0)[0]
        f_full[rows], g_full[rows], h_full[rows] = evaluate(rows, points, 2)
        return f_full[rows]

    x = np.array(x0, dtype=float)
    if seeds is None:
        f, g, hess = evaluate(np.arange(n_rows), x, 2)
    else:
        f, g, hess = (-np.asarray(seed, dtype=float) for seed in seeds)
    # f, g and H at each row's latest full-step trial.
    f_full, g_full, h_full = np.empty_like(f), np.empty_like(g), np.empty_like(hess)
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
        reuse = np.zeros(rows.size, dtype=bool)
        x_new = x[rows]
        newton = _newton_directions(spec, x[rows], g[rows], hess[rows])
        for direction in (newton, -g[rows]):
            left = np.flatnonzero(~moved)
            if left.size == 0:
                break
            sub = rows[left]
            acc, points, full = _line_search_rows(
                spec, x[sub], f[sub], g[sub], direction[left],
                lambda local, pts, first, sub=sub: f_trial(sub[local], pts, first),
            )
            x_new[left[acc]] = points[acc]
            moved[left[acc]] = True
            reuse[left[full]] = True
        live[rows[~moved]] = False
        rows, reuse = rows[moved], reuse[moved]
        if rows.size == 0:
            break
        x[rows] = x_new[moved]
        iterations[rows] += 1
        kept, stale = rows[reuse], rows[~reuse]
        f[kept], g[kept], hess[kept] = f_full[kept], g_full[kept], h_full[kept]
        if stale.size:
            f[stale], g[stale], hess[stale] = evaluate(stale, x[stale], 2)
    rows = np.flatnonzero(live)
    converged[rows] = stationary(rows)
    return x, f, pg_norm, iterations, converged


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
    given.  Each window returns its row of least f, the earliest start
    breaking exact ties.  Raises SizingError if a window holds fewer
    than d + 1 observations.
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
    best = np.argmin(out[1].reshape(n_starts, n_win), axis=0) * n_win + np.arange(n_win)
    return tuple(arr[best] for arr in out)


def estimate_windows(
    spec: ModelSpec,
    data: NDArray[np.float64],
    starts: NDArray[np.int64],
    ends: NDArray[np.int64],
    init: ArrayLike,
    seeds: _Evals | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Warm-started QMLE on many windows of one series at once.

    Window r is {starts[r], ..., ends[r]} of the full series ``data``.
    Every window is climbed from the projection of ``init``, all as rows
    of one climb of the batched ascent that a warm ``estimate`` call
    runs on its single window, so each row takes that call's steps.
    ``seeds``, if given, holds (value (W,), gradient (W, d), hessian
    (W, d, d)) of L at that point on every window, as ``loglik_rows``
    returns them; a scan takes them from the cumulative sums of its
    derivative pass, and the climb then skips its first evaluation.

    Returns (theta (W, d), converged (W,)).  A row that is not converged
    reached ``_MAX_ITER`` iterations or found no acceptable step, and holds its
    last iterate; ``retry_cold`` gives such windows the cold multi-start.
    A row's sums depend only on its window, not on the other rows, so
    without seeds a row takes the steps of a warm ``estimate`` call on
    its window bit for bit; seeds agree with that call's first
    evaluation to round-off.

    Raises
    ------
    SizingError
        If a window holds fewer than d + 1 observations.
    """
    theta, _, _, _, converged = _fit_rows(
        spec, np.asarray(data, dtype=float), np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64), project_to_domain(spec, init)[None, None, :],
        seeds,
    )
    return theta, converged


def retry_cold(
    spec: ModelSpec,
    data: NDArray[np.float64],
    starts: NDArray[np.int64],
    ends: NDArray[np.int64],
    theta: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Cold multi-start on windows whose warm climb did not converge.

    ``theta`` holds the warm fits.  Every window climbs from every start
    of a cold ``estimate`` call, all (start, window) rows in one climb,
    and takes its best cold fit when that converged or has a higher
    log-likelihood than the warm fit, whose values take one order-0
    ``loglik_rows`` call.  Returns (theta (W, d), converged (W,)).
    """
    x, f, _, _, ok = _fit_rows(
        spec, data, starts, ends, _default_starts(spec)[:, None, :]
    )
    warm_f = -loglik_rows(spec, theta, data, starts, ends, order=0)[0]
    # A kept warm fit is unconverged, and then so is the best cold fit.
    return np.where((ok | (f < warm_f))[:, None], x, theta), ok
