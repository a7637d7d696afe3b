"""Truncated conditional quasi-log-likelihood and its derivatives.

For a window T = {start, ..., end} of a series X_1 .. X_n the
quasi-log-likelihood is

    L(T, theta) = -1/2 * sum_{t in T} q_t(theta),
    q_t(theta)  = (X_t - f_t(theta))^2 / h_t(theta) + log h_t(theta),

where f_t and h_t are the conditional mean and variance implied by the
model, computed from the observed past X_{t-1}, ..., X_1 with all values
before X_1 replaced by zero.  This truncation at time 1 is what makes
the quantities computable; it applies to every window, so a window that
starts at k+1 still conditions on the full observed history back to X_1.

Per family:

* AR(p):       f_t = sum_k phi_k X_{t-k},  h_t = 1, so q_t is a squared
               residual and everything is quadratic in theta.
* ARCH(1):     f_t = 0,  h_t = alpha_0 + alpha_1 X_{t-1}^2.
* GARCH(1,1):  f_t = 0 and the truncated ARCH(inf) representation

                   h_t = alpha_0 / (1 - beta_1)
                       + alpha_1 * sum_{k=1}^{t-1} beta_1^(k-1) X_{t-k}^2.

All GARCH derivatives reduce to three cascaded first-order linear
recursions (s, u, w below).  Each is evaluated in numpy by a log-step
doubling scan (``_first_order_filter``): about log2(n) vectorised
passes of O(n), fewer when beta_1^(2^j) underflows, and a plain copy
for ARCH, where beta_1 = 0:

    s_{t+1} = beta_1 s_t + X_t^2          s_1 = 0
    u_{t+1} = beta_1 u_t + s_t            u_1 = 0   (u = ds/dbeta_1)
    w_{t+1} = beta_1 w_t + 2 u_t          w_1 = 0   (w = du/dbeta_1)

    h_t            = alpha_0 / (1 - beta_1) + alpha_1 s_t
    dh/dalpha_0    = 1 / (1 - beta_1)
    dh/dalpha_1    = s_t
    dh/dbeta_1     = alpha_0 / (1 - beta_1)^2 + alpha_1 u_t
    d2h/da0 dbeta  = 1 / (1 - beta_1)^2
    d2h/da1 dbeta  = u_t
    d2h/dbeta^2    = 2 alpha_0 / (1 - beta_1)^3 + alpha_1 w_t

with the remaining second derivatives of h identically zero.  The chain
rule then gives, writing a_t = (1 - X_t^2 / h_t) / h_t and
b_t = (2 X_t^2 / h_t - 1) / h_t^2,

    dq_t/dtheta_i      = a_t * dh_i
    d2q_t/dtheta_i d_j = b_t * dh_i * dh_j + a_t * d2h_ij.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .models import (
    DomainError,
    ModelFamily,
    ModelSpec,
    SeriesSegment,
    in_domain,
)

if TYPE_CHECKING:
    from numpy.typing import ArrayLike, NDArray

__all__ = ["LikelihoodEval", "VolatilityPath", "loglik", "qhat_t", "volatility_path"]

# Above this many summands, reductions accumulate in the widest native
# float type to keep round-off below the tolerances used by the tests.
_WIDE_SUM_THRESHOLD = 10_000


def _reduce(arr: NDArray[np.float64], axis: int = 0) -> np.ndarray:
    if arr.shape[axis] >= _WIDE_SUM_THRESHOLD:
        return arr.sum(axis=axis, dtype=np.longdouble).astype(np.float64)
    return arr.sum(axis=axis)


@dataclass(frozen=True)
class VolatilityPath:
    """Conditional mean/variance path and variance derivatives on a window.

    Arrays are aligned with the window indices t = start .. end.  For AR
    models ``h_hat`` is identically one and both derivative blocks are
    zero; the conditional mean lives in ``f_hat``.
    """

    f_hat: NDArray[np.float64]
    h_hat: NDArray[np.float64]
    dh: NDArray[np.float64]
    d2h: NDArray[np.float64]


@dataclass(frozen=True)
class LikelihoodEval:
    """Value and requested derivatives of L(T, theta).

    ``gradient`` and ``hessian`` are derivatives of the log-likelihood
    itself (not of the q_t sum, which carries the opposite sign and a
    factor 2).  ``per_t_grads`` holds the rows dq_t/dtheta for t in T
    when requested, which the information matrix estimate needs;
    ``per_t_hessians`` stacks d2q_t/dtheta2 the same way, which lets a
    scan turn one full-sample pass into every prefix and suffix average.
    """

    value: float
    gradient: NDArray[np.float64] | None = None
    hessian: NDArray[np.float64] | None = None
    per_t_grads: NDArray[np.float64] | None = None
    per_t_hessians: NDArray[np.float64] | None = None


def _ar_lag_matrix(x: NDArray[np.float64], p: int, end: int) -> NDArray[np.float64]:
    """Rows t = 1..end of (X_{t-1}, ..., X_{t-p}) with zero pre-sample."""
    padded = np.concatenate((np.zeros(p), x[:end]))
    cols = [padded[p - k : p - k + end] for k in range(1, p + 1)]
    return np.stack(cols, axis=1)


def _first_order_filter(x: NDArray[np.float64], beta: float) -> NDArray[np.float64]:
    """y[0] = x[0], y[t] = beta * y[t-1] + x[t], by a log-step doubling scan.

    After the pass with shift s, y[t] holds the sum of beta^j x[t-j] over
    j < 2s, so ceil(log2(len)) vectorised passes replace the sequential
    loop.  Passes stop early once beta^s underflows to zero, since later
    ones would add nothing.  The s/u/w inputs are nonnegative and the
    default domain keeps 0 <= beta < 1, so every partial sum adds
    nonnegative terms and the result agrees with the loop to a few ulps.
    """
    y = x.copy()
    shift, coef = 1, beta
    while shift < y.size and coef != 0.0:
        y[shift:] += coef * y[:-shift]
        shift *= 2
        coef *= coef
    return y


def _garch_states(
    x2: NDArray[np.float64], beta: float, order: int
) -> tuple[NDArray[np.float64], NDArray[np.float64] | None, NDArray[np.float64] | None]:
    """Run the s/u/w recursions over t = 1..len(x2).

    ``order`` controls how many derivative states are produced: 0 gives
    only s, 1 adds u, 2 adds w.
    """

    def shifted(inp: NDArray[np.float64]) -> NDArray[np.float64]:
        # state_{t+1} = beta * state_t + inp_t with state_1 = 0.
        out = np.empty_like(inp)
        out[:1] = 0.0
        out[1:] = _first_order_filter(inp[:-1], beta)
        return out

    s = shifted(x2)
    if order < 1:
        return s, None, None
    u = shifted(s)
    if order < 2:
        return s, u, None
    w = shifted(2.0 * u)
    return s, u, w


def _eval_window(
    spec: ModelSpec,
    theta: NDArray[np.float64],
    data: NDArray[np.float64],
    start: int,
    end: int,
    order: int,
    want_path: bool = False,
):
    """Core evaluation shared by loglik, qhat_t, and volatility_path.

    Returns (q, dq, d2q, path) where q is (m,), dq is (m, d), d2q is
    (m, d, d), m = end - start + 1; entries beyond ``order`` are None.
    """
    sl = slice(start - 1, end)
    m = end - start + 1
    d = spec.d

    if spec.family is ModelFamily.AR:
        lags = _ar_lag_matrix(data, spec.p, end)[sl]
        f = lags @ theta
        r = data[sl] - f
        q = r * r
        dq = d2q = None
        if order >= 1:
            dq = -2.0 * r[:, None] * lags
        if order >= 2:
            d2q = 2.0 * np.einsum("ti,tj->tij", lags, lags)
        path = None
        if want_path:
            path = VolatilityPath(
                f_hat=f,
                h_hat=np.ones(m),
                dh=np.zeros((d, m)),
                d2h=np.zeros((d, d, m)),
            )
        return q, dq, d2q, path

    # ARCH(1) and GARCH(1,1): f = 0, h from the truncated representation.
    alpha0, alpha1 = theta[0], theta[1]
    beta = theta[2] if spec.family is ModelFamily.GARCH else 0.0
    x2 = data[:end] ** 2
    s, u, w = _garch_states(x2, beta, order if spec.family is ModelFamily.GARCH else 0)

    one_minus_beta = 1.0 - beta
    h_full = alpha0 / one_minus_beta + alpha1 * s
    h = h_full[sl]
    z = x2[sl]
    q = z / h + np.log(h)

    dq = d2q = None
    dh_rows: list[NDArray[np.float64]] | None = None
    if order >= 1 or want_path:
        dh_rows = [np.full(m, 1.0 / one_minus_beta), s[sl]]
        if spec.family is ModelFamily.GARCH:
            assert u is not None
            dh_rows.append(alpha0 / one_minus_beta**2 + alpha1 * u[sl])
    if order >= 1:
        assert dh_rows is not None
        a = (1.0 - z / h) / h
        dq = a[:, None] * np.stack(dh_rows, axis=1)
    d2h_stack = None
    if order >= 2 or want_path:
        d2h_stack = np.zeros((d, d, m))
        if spec.family is ModelFamily.GARCH:
            assert u is not None and w is not None
            d2h_stack[0, 2] = d2h_stack[2, 0] = 1.0 / one_minus_beta**2
            d2h_stack[1, 2] = d2h_stack[2, 1] = u[sl]
            d2h_stack[2, 2] = 2.0 * alpha0 / one_minus_beta**3 + alpha1 * w[sl]
    if order >= 2:
        assert dh_rows is not None and d2h_stack is not None
        dh_mat = np.stack(dh_rows, axis=1)
        a = (1.0 - z / h) / h
        b = (2.0 * z / h - 1.0) / (h * h)
        d2q = b[:, None, None] * np.einsum("ti,tj->tij", dh_mat, dh_mat)
        d2q += a[:, None, None] * np.moveaxis(d2h_stack, 2, 0)

    path = None
    if want_path:
        assert dh_rows is not None and d2h_stack is not None
        path = VolatilityPath(
            f_hat=np.zeros(m),
            h_hat=h.copy(),
            dh=np.stack(dh_rows, axis=0),
            d2h=d2h_stack,
        )
    return q, dq, d2q, path


def _check(spec: ModelSpec, theta: ArrayLike) -> NDArray[np.float64]:
    arr = spec.check_theta(theta)
    if not in_domain(spec, arr):
        raise DomainError(f"theta {arr.tolist()} outside the feasible domain")
    return arr


def volatility_path(
    spec: ModelSpec, theta: ArrayLike, segment: SeriesSegment
) -> VolatilityPath:
    """Conditional mean/variance path over the segment's window.

    For ARCH/GARCH the returned ``h_hat`` is bounded below by the
    feasible minimum of the intercept term, hence strictly positive.
    """
    arr = _check(spec, theta)
    _, _, _, path = _eval_window(
        spec, arr, segment.data, segment.start, segment.end, order=2, want_path=True
    )
    assert path is not None
    return path


def qhat_t(
    spec: ModelSpec, theta: ArrayLike, segment: SeriesSegment, t: int
) -> tuple[float, NDArray[np.float64], NDArray[np.float64]]:
    """Value, gradient, and hessian of the single term q_t(theta).

    ``t`` is 1-based and must lie inside the segment's window.
    """
    if not (segment.start <= t <= segment.end):
        raise IndexError(
            f"t={t} outside window [{segment.start}, {segment.end}]"
        )
    arr = _check(spec, theta)
    q, dq, d2q, _ = _eval_window(spec, arr, segment.data, t, t, order=2)
    hess = d2q[0]
    return float(q[0]), dq[0], (hess + hess.T) / 2.0


def loglik(
    spec: ModelSpec,
    theta: ArrayLike,
    segment: SeriesSegment,
    *,
    order: int = 2,
    keep_per_t_grads: bool = False,
    keep_per_t_hessians: bool = False,
) -> LikelihoodEval:
    """Evaluate L(T, theta) with derivatives up to ``order``.

    Parameters
    ----------
    order
        0 for the value only, 1 to add the gradient, 2 to add the
        hessian.  Lower orders skip derivative recursions entirely,
        which matters inside line searches.
    keep_per_t_grads
        Retain the matrix of per-observation gradient rows dq_t/dtheta
        (requires order >= 1).
    keep_per_t_hessians
        Retain the stack of per-observation hessians d2q_t/dtheta2
        (requires order >= 2).

    Raises
    ------
    DomainError
        If theta is outside the feasible domain.
    """
    if keep_per_t_grads and order < 1:
        raise ValueError("per-observation gradients require order >= 1")
    if keep_per_t_hessians and order < 2:
        raise ValueError("per-observation hessians require order >= 2")
    arr = _check(spec, theta)
    q, dq, d2q, _ = _eval_window(
        spec, arr, segment.data, segment.start, segment.end, order=order
    )
    value = -0.5 * float(_reduce(q))
    gradient = hessian = None
    if order >= 1:
        gradient = -0.5 * _reduce(dq)
    if order >= 2:
        hessian = -0.5 * _reduce(d2q)
        hessian = (hessian + hessian.T) / 2.0
    return LikelihoodEval(
        value=value,
        gradient=gradient,
        hessian=hessian,
        per_t_grads=dq if keep_per_t_grads else None,
        per_t_hessians=d2q if keep_per_t_hessians else None,
    )
