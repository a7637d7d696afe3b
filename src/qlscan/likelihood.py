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

AR takes the same form with f_t in place of h_t: a_t = -2 (X_t - f_t),
b_t = 2 and d2f = 0.  One kernel (``_terms``) computes these terms for
each family once, on t = 1..end for a stack of parameter rows.  No term
depends on the window, so ``loglik``, ``qhat_t`` and ``volatility_path``
slice one row to their window and ``loglik_rows`` takes masked sums.

Sums over a window accumulate in float64 with numpy's own reductions,
whatever the window length, so results do not depend on the platform's
extended-precision type.
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
    in_domain_rows,
)

if TYPE_CHECKING:
    from numpy.typing import ArrayLike, NDArray

__all__ = [
    "LikelihoodEval",
    "VolatilityPath",
    "loglik",
    "loglik_rows",
    "qhat_t",
    "volatility_path",
    "window_mask",
]


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


def _ar_lags(x: NDArray[np.float64], p: int, end: int) -> NDArray[np.float64]:
    """(p, end) lags: row k-1 holds X_{t-k} on t = 1..end, zero pre-sample."""
    padded = np.concatenate((np.zeros(p), x[:end]))
    return np.stack([padded[p - k : p - k + end] for k in range(1, p + 1)])


def _first_order_filter(
    x: NDArray[np.float64], beta: float | NDArray[np.float64]
) -> NDArray[np.float64]:
    """y[0] = x[0], y[t] = beta * y[t-1] + x[t], by a log-step doubling scan.

    After the pass with shift s, y[t] holds the sum of beta^j x[t-j] over
    j < 2s, so ceil(log2(len)) vectorised passes replace the sequential
    loop.  Passes stop early once beta^s underflows to zero, since later
    ones would add nothing.  The s/u/w inputs are nonnegative and the
    default domain keeps 0 <= beta < 1, so every partial sum adds
    nonnegative terms and the result agrees with the loop to a few ulps.

    A beta of shape (R,) filters R rows at once, one coefficient per
    row, along the last axis (``x`` of shape (n,) is shared by every
    row); passes then stop once the largest |beta|^s, hence every row's
    coefficient, underflows.
    """
    if np.ndim(beta) == 0:
        coef: float | NDArray[np.float64] = float(beta)
        top = abs(coef)
        y = x.copy()
    else:
        coef = np.asarray(beta, dtype=float)
        top = float(np.max(np.abs(coef)))
        y = np.array(np.broadcast_to(x, (coef.size, x.shape[-1])))
    y_t = y.T  # time along axis 0, so a per-row coef broadcasts
    shift = 1
    while shift < y_t.shape[0] and top != 0.0:
        y_t[shift:] += coef * y_t[:-shift]
        shift *= 2
        coef = coef * coef
        top *= top
    return y


def _garch_states(
    x2: NDArray[np.float64], beta: float | NDArray[np.float64], order: int
) -> tuple[NDArray[np.float64], NDArray[np.float64] | None, NDArray[np.float64] | None]:
    """Run the s/u/w recursions over t = 1..len(x2).

    ``order`` controls how many derivative states are produced: 0 gives
    only s, 1 adds u, 2 adds w.  A beta of shape (R,) gives states of
    shape (R, len(x2)), one row per coefficient.
    """

    def shifted(inp: NDArray[np.float64]) -> NDArray[np.float64]:
        # state_{t+1} = beta * state_t + inp_t with state_1 = 0.
        filtered = _first_order_filter(inp[..., :-1], beta)
        out = np.empty(filtered.shape[:-1] + (filtered.shape[-1] + 1,))
        out[..., :1] = 0.0
        out[..., 1:] = filtered
        return out

    s = shifted(x2)
    if order < 1:
        return s, None, None
    u = shifted(s)
    if order < 2:
        return s, u, None
    w = shifted(2.0 * u)
    return s, u, w


@dataclass(frozen=True)
class _Terms:
    """Per-observation terms on t = 1..end for R parameter rows.

    ``m`` is the moment theta enters (f_t for AR, h_t otherwise), so
    dq_t = a_t dm_t and d2q_t = b_t dm_t dm_t' + a_t d2m_t.  ``m``,
    ``q``, ``a`` (order >= 1) and ``b`` (order >= 2) are (R, end).
    ``dm`` lists the d entries of dm_t (order >= 1), ``d2m`` the nonzero
    (i, j), i <= j, of d2m_t (order >= 2); such an entry may also be
    (end,) when shared by every row, or (R, 1) when constant in t.
    """

    m: NDArray[np.float64]
    q: NDArray[np.float64]
    a: NDArray[np.float64] | None
    b: NDArray[np.float64] | None
    dm: list[NDArray[np.float64]]
    d2m: dict[tuple[int, int], NDArray[np.float64]]


def _terms(
    spec: ModelSpec,
    thetas: NDArray[np.float64],
    data: NDArray[np.float64],
    end: int,
    order: int,
) -> _Terms:
    """Each family's per-observation terms, up to derivative ``order``."""
    rows = thetas.shape[0]
    if spec.family is ModelFamily.AR:
        lags = _ar_lags(data, spec.p, end)
        f = np.einsum("rp,pt->rt", thetas, lags)
        resid = data[:end] - f
        a = b = None
        if order >= 1:
            q = resid * resid
            a = resid
            a *= -2.0
        else:
            # Line searches evaluate many rows at order 0: square in place.
            q = np.square(resid, out=resid)
        if order >= 2:
            b = np.full(f.shape, 2.0)
        return _Terms(m=f, q=q, a=a, b=b, dm=list(lags) if order >= 1 else [], d2m={})

    # ARCH(1) and GARCH(1,1): f = 0, h from the truncated representation.
    garch = spec.family is ModelFamily.GARCH
    alpha0, alpha1 = thetas[:, :1], thetas[:, 1:2]
    x2 = data[:end] ** 2
    # One row takes the filter's scalar path; its (end,) states serve that row.
    beta = (thetas[:, 2] if rows > 1 else thetas[0, 2]) if garch else 0.0
    s, u, w = _garch_states(x2, beta, order if garch else 0)
    one_minus_beta = 1.0 - thetas[:, 2:3] if garch else np.ones((rows, 1))
    h = alpha1 * s
    h += alpha0 / one_minus_beta
    z_over_h = x2 / h
    q = np.log(h)
    q += z_over_h
    a = b = None
    dm: list[NDArray[np.float64]] = []
    d2m: dict[tuple[int, int], NDArray[np.float64]] = {}
    if order >= 1:
        a = 1.0 - z_over_h
        a /= h
        dm = [1.0 / one_minus_beta, s]
        if garch:
            assert u is not None
            dm.append(alpha0 / one_minus_beta**2 + alpha1 * u)
    if order >= 2:
        b = z_over_h
        b *= 2.0
        b -= 1.0
        b /= h
        b /= h
        if garch:
            assert u is not None and w is not None
            d2m[0, 2] = 1.0 / one_minus_beta**2
            d2m[1, 2] = u
            d2m[2, 2] = 2.0 * alpha0 / one_minus_beta**3 + alpha1 * w
    return _Terms(m=h, q=q, a=a, b=b, dm=dm, d2m=d2m)


def _on_window(entry: NDArray[np.float64], sl: slice) -> NDArray[np.float64] | float:
    """A one-row kernel entry on the window ``sl``; a scalar if constant in t."""
    row = entry[0] if entry.ndim == 2 else entry
    return row[sl] if row.size > 1 else row[0]


def _eval_window(
    spec: ModelSpec,
    theta: NDArray[np.float64],
    data: NDArray[np.float64],
    start: int,
    end: int,
    order: int,
):
    """Per-observation q, dq and d2q of one theta on t = start..end.

    Returns (q (m,), dq (m, d), d2q (m, d, d)), m = end - start + 1;
    entries beyond ``order`` are None.
    """
    terms = _terms(spec, theta[None, :], data, end, order)
    sl = slice(start - 1, end)
    q = terms.q[0, sl]
    dq = d2q = None
    if order >= 1:
        a = terms.a[0, sl]
        dm = np.empty((end - start + 1, spec.d))
        for i, entry in enumerate(terms.dm):
            dm[:, i] = _on_window(entry, sl)
        dq = a[:, None] * dm
    if order >= 2:
        d2q = np.einsum("ti,tj->tij", dm, dm)
        d2q *= np.reshape(_on_window(terms.b, sl), (-1, 1, 1))
        for (i, j), entry in terms.d2m.items():
            term = a * _on_window(entry, sl)
            d2q[:, i, j] += term
            if i != j:
                d2q[:, j, i] += term
    return q, dq, d2q


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
    end, d, m = segment.end, spec.d, segment.card
    terms = _terms(spec, arr[None, :], segment.data, end, order=2)
    sl = slice(segment.start - 1, end)
    moment, dh, d2h = terms.m[0, sl], np.zeros((d, m)), np.zeros((d, d, m))
    if spec.family is ModelFamily.AR:
        return VolatilityPath(f_hat=moment, h_hat=np.ones(m), dh=dh, d2h=d2h)
    for i, entry in enumerate(terms.dm):
        dh[i] = _on_window(entry, sl)
    for (i, j), entry in terms.d2m.items():
        d2h[i, j] = d2h[j, i] = _on_window(entry, sl)
    return VolatilityPath(f_hat=np.zeros(m), h_hat=moment, dh=dh, d2h=d2h)


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
    q, dq, d2q = _eval_window(spec, arr, segment.data, t, t, order=2)
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
    q, dq, d2q = _eval_window(
        spec, arr, segment.data, segment.start, segment.end, order=order
    )
    value = -0.5 * float(q.sum())
    gradient = hessian = None
    if order >= 1:
        gradient = -0.5 * dq.sum(axis=0)
    if order >= 2:
        hessian = -0.5 * d2q.sum(axis=0)
        hessian = (hessian + hessian.T) / 2.0
    return LikelihoodEval(
        value=value,
        gradient=gradient,
        hessian=hessian,
        per_t_grads=dq if keep_per_t_grads else None,
        per_t_hessians=d2q if keep_per_t_hessians else None,
    )


def _row_sum(
    w: NDArray[np.float64], u: NDArray[np.float64], v: NDArray[np.float64] | None = None
) -> NDArray[np.float64]:
    """Per-row pairwise sum over t of w[r, t] * u * v.

    ``u`` is (T,) when shared by all rows, (R, 1) when constant in t, or
    (R, T); a constant ``u`` is pulled out of the sum.  ``v`` is (T,) or
    (R, T): the hessian passes dm_i dm_j with i <= j, and the only entry
    constant in t is dm_0, the ARCH/GARCH intercept's.  The sum is numpy's
    pairwise reduction along each row, the one the values use, so a
    row's result does not depend on how many rows ``w`` holds.
    """
    if v is not None:
        if u.ndim == 2 and u.shape[1] == 1:
            return _row_sum(w, v) * u[:, 0]
        u = u * v
    if u.ndim == 2 and u.shape[1] == 1:
        return w.sum(axis=1) * u[:, 0]
    return (w * u).sum(axis=1)


def window_mask(
    starts: NDArray[np.int64], ends: NDArray[np.int64], n: int
) -> NDArray[np.float64]:
    """(R, n) 0/1 weights over t = 1..n; row r selects {starts[r]..ends[r]}."""
    t = np.arange(1, n + 1)
    return ((t >= starts[:, None]) & (t <= ends[:, None])).astype(float)


# Largest (row x observation) chunk that ``loglik_rows`` evaluates at
# once.  Every (rows, T) array of a chunk then holds at most this many
# float64 values (256 KiB), so the ten or so live in an order-2 call fit
# a 2 MiB L2 cache.  At n = 2e4 a chunk is one row, at n = 500 65 rows.
# Swept on a 2-core machine with 2 MiB of L2 per core (median of 12
# scans each): the GARCH one-step scan at n = 2e4 took 132-140 ms at
# 2^12 to 2^15 and 228-239 ms at 2^16 to 2^20, and the ARCH exact scan
# at n = 500 was fastest at 2^15 (46 ms; 62 ms at 2^12, 63-70 ms at
# 2^17 and above, where a block of ``qmle._fit_rows`` is one chunk).
_CHUNK_VALUES = 2**15


def loglik_rows(
    spec: ModelSpec,
    thetas: NDArray[np.float64],
    data: NDArray[np.float64],
    mask: NDArray[np.float64],
    *,
    order: int = 2,
) -> tuple[
    NDArray[np.float64], NDArray[np.float64] | None, NDArray[np.float64] | None
]:
    """``loglik`` for many windows of one series, one parameter row each.

    Row r evaluates L(T_r, thetas[r]), where row r of the (R, T) ``mask``
    holds the 0/1 weights of the window T_r over t = 1..T
    (``window_mask``; T may stop at the last window end).  Because q_t
    never depends on the window (module docstring), every window is a
    masked sum of per-observation terms on t = 1..T: q_t, a_t dh_t and
    b_t dh_t dh_t' + a_t d2h_t.  The s/u/w recursions run once per row
    for GARCH and are shared by all rows for ARCH and AR.  Rows are
    evaluated in chunks of at most ``_CHUNK_VALUES`` (row, observation)
    values, so that a chunk's arrays stay in cache.

    Returns (value (R,), gradient (R, d), hessian (R, d, d)); entries
    beyond ``order`` are None.  The per-observation terms are those
    ``loglik`` reads, bit for bit; only the sums differ.  Every sum is a
    pairwise sum along each masked row (``_row_sum``; sequential value
    sums were too coarse for Armijo tests near an optimum), with factors
    constant in t pulled out.  A row's result therefore depends only on
    that row, bit for bit, not on the other rows of the call or on the
    chunking (both are tested); it agrees with ``loglik`` to round-off
    (under 1e-13 relative per entry in the tests), not bit for bit.

    Raises
    ------
    DomainError
        If any row is outside the feasible domain.
    """
    if not np.all(in_domain_rows(spec, thetas)):
        raise DomainError("a parameter row lies outside the feasible domain")
    rows, d = thetas.shape
    out = (np.empty(rows), np.empty((rows, d)), np.empty((rows, d, d)))[: order + 1]
    step = max(1, _CHUNK_VALUES // mask.shape[1])
    for lo in range(0, rows, step):
        sl = slice(lo, lo + step)
        for arr, part in zip(out, _masked_sums(spec, thetas[sl], data, mask[sl], order)):
            arr[sl] = part
    return out + (None,) * (2 - order)


def _masked_sums(
    spec: ModelSpec,
    thetas: NDArray[np.float64],
    data: NDArray[np.float64],
    mask: NDArray[np.float64],
    order: int,
) -> list[NDArray[np.float64]]:
    """Value, then up to ``order`` derivatives, of one chunk of rows."""
    rows, d = thetas.shape
    terms = _terms(spec, thetas, data, mask.shape[1], order)
    # The kernel's arrays belong to this call: mask q_t, a_t and b_t in place.
    q = terms.q
    q *= mask
    sums = [-0.5 * q.sum(axis=1)]
    if terms.a is not None:
        ma = terms.a
        ma *= mask
        sums.append(-0.5 * np.stack([_row_sum(ma, e) for e in terms.dm], axis=1))
    if terms.b is not None:
        mb = terms.b
        mb *= mask
        hessian = np.empty((rows, d, d))
        for i in range(d):
            for j in range(i, d):
                hij = _row_sum(mb, terms.dm[i], terms.dm[j])
                if (i, j) in terms.d2m:
                    hij = hij + _row_sum(ma, terms.d2m[i, j])
                hessian[:, i, j] = hessian[:, j, i] = -0.5 * hij
        sums.append(hessian)
    return sums
