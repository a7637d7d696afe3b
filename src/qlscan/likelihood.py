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
passes of O(n), fewer once no later pass can change a bit of the
result, and a plain copy for ARCH, where beta_1 = 0:

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
b_t = 2 and d2f = 0.  One kernel computes these terms for each family
once, for a stack of parameter rows, in two parts: the order-0 part
(``_values``: the s recursion, m_t and q_t) and the derivative part
(``_derivative_terms``: the u and w recursions, a_t, b_t and the stack
of dm and d2m entries), which goes on from the order-0 arrays.  No term
depends on the window, so ``loglik_rows`` takes window bounds and
evaluates each window's row over its class, with 0/1 weights selecting
the window: up to its end rounded up to a multiple of 128 observations
and, for AR and ARCH, whose terms read at most p observations back,
from the first observation of its start's block of 128; GARCH rows run
from t = 1.  A row
whose trial value fails its Armijo test skips the derivative part.
``loglik`` is one row of it.  The per-observation arrays (``_per_t``:
q_t, dq_t and the d(d+1)/2 distinct entries of d2q_t, in
``_distinct_entries`` order) and ``volatility_path`` slice one row of
both parts (``_terms``, on t = 1..end) to their window.

Every sum accumulates in float64, whatever the window length, so no
result depends on the platform's extended-precision type.  Values are
pairwise sums, which the optimizer's Armijo tests compare; derivative
sums are per-row BLAS matrix-vector products with the kernel's stack of
the entries of dm_t, d2m_t and dm_t dm_t' that vary in t.  Each row is
reduced on its own, over a class fixed by its own window, so a row's
bits never depend on the other rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .models import (
    DomainError,
    ModelFamily,
    ModelSpec,
    SeriesSegment,
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
    factor 2).  With ``keep_per_t``, at any order, ``per_t_values`` (m,)
    holds q_t for the m observations of T, ``per_t_grads`` (m, d) the rows
    dq_t/dtheta, which the information matrix estimate needs, and
    ``per_t_hessians`` (m, d(d+1)/2) the distinct entries (i, j), i <= j,
    of d2q_t/dtheta2 in ``np.triu_indices(d)`` order.  They let a scan
    turn one full-sample pass into every prefix and suffix average, and
    into the value, gradient and hessian of every window's likelihood at
    that point.
    """

    value: float
    gradient: NDArray[np.float64] | None = None
    hessian: NDArray[np.float64] | None = None
    per_t_values: NDArray[np.float64] | None = None
    per_t_grads: NDArray[np.float64] | None = None
    per_t_hessians: NDArray[np.float64] | None = None


def _ar_lags(x: NDArray[np.float64], p: int, begin: int, end: int) -> NDArray[np.float64]:
    """(p, end - begin) lags: row k-1 holds X_{t-k} on t = begin+1..end,
    zero pre-sample."""
    lo = begin - p
    history = x[lo:end] if lo >= 0 else np.concatenate((np.zeros(-lo), x[:end]))
    return np.stack([history[p - k : p - k + end - begin] for k in range(1, p + 1)])


# An addition below this fraction of a positive float64 target is below a
# quarter of its ulp, so round-to-nearest returns the target unchanged.
_NO_CHANGE = 2.0**-55


def _first_order_filter(
    x: NDArray[np.float64],
    beta: float | NDArray[np.float64],
    out: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """y[0] = x[0], y[t] = beta * y[t-1] + x[t], by a log-step doubling scan.

    After the pass with shift s, y[t] holds the sum of beta^j x[t-j] over
    j < 2s, so ceil(log2(len)) vectorised passes replace the sequential
    loop.  The s/u/w inputs are nonnegative and the default domain keeps
    0 <= beta < 1, so every partial sum adds nonnegative terms and the
    result agrees with the loop to a few ulps.

    Passes stop as soon as no later pass can change a bit.  The pass
    with shift s and coefficient c = beta^s adds at most c * max(y) to
    each target y[t], t >= s.  When c first falls below ``_NO_CHANGE``
    and y is nonnegative with min(y[s:]) > 0, the filter reads max(y)
    and that minimum once.  Later passes only add nonnegative terms, so
    the minimum cannot fall, and max(y) cannot grow by more than a
    factor 1 + 2c.  Passes therefore stop once c <= 2^-56 min / max:
    from then on every addition is below ``_NO_CHANGE`` times its target
    and changes nothing.  Otherwise, with zeros, negative or non-finite
    values, the passes run until c underflows to zero.

    A beta of shape (R,) filters R rows at once, one coefficient per
    row, along the last axis (``x`` of shape (n,) is shared by every
    row); c is then the largest |beta|^s, and min and max are taken
    over all rows.  ``out``, if given, receives the result.
    """
    if np.ndim(beta) == 0:
        coef: float | NDArray[np.float64] = float(beta)
        top = abs(coef)
        shape = x.shape
    else:
        coef = np.asarray(beta, dtype=float)
        top = float(np.max(np.abs(coef)))
        shape = (coef.size, x.shape[-1])
    y = np.empty(shape) if out is None else out
    y[...] = x
    y_t = y.T  # time along axis 0, so a per-row coef broadcasts
    shift = 1
    limit = 0.0  # passes run while top > limit
    unread = True
    while shift < y_t.shape[0] and top > limit:
        if unread and top < _NO_CHANGE:
            unread = False
            low = np.min(y_t[shift:])
            if low > 0.0 and np.min(y_t[:shift]) >= 0.0:
                limit = 0.5 * _NO_CHANGE * float(low / np.max(y))
            continue
        y_t[shift:] += coef * y_t[:-shift]
        shift *= 2
        coef = coef * coef
        top *= top
    return y


def _garch_state(
    x: NDArray[np.float64],
    beta: float | NDArray[np.float64],
    out: NDArray[np.float64],
) -> NDArray[np.float64]:
    """state_1 = 0, state_{t+1} = beta * state_t + x_t on t = 1..len: the
    recursion of each of s, u and w (module docstring), written into
    ``out``, one row per coefficient for a beta of shape (R,)."""
    out[..., 0] = 0.0
    _first_order_filter(x[..., :-1], beta, out=out[..., 1:])
    return out


@dataclass(frozen=True)
class _Values:
    """The order-0 part of the kernel on t = begin+1..end for R rows.

    ``m`` is the moment theta enters (f_t for AR, h_t otherwise); ``m``
    and ``q`` are (R, L), L = end - begin.  ``z`` and ``state`` are what
    the derivative part (``_derivative_terms``) goes on from: for AR the
    residual X_t - f_t (R, L) and the lags (p, L); otherwise X_t^2 / h_t
    (R, L) and s_t, (L,) for ARCH, where every row shares it, (R, L) for
    GARCH.
    """

    m: NDArray[np.float64]
    q: NDArray[np.float64]
    z: NDArray[np.float64]
    state: NDArray[np.float64]


# An entry of dm_t, d2m_t or dm_t dm_t': a row of the kernel's stack and
# a factor constant in t, (R, 1), or None for none.  An entry constant in
# t is its factor on the stack's row of ones.
_Slot = tuple[int, "NDArray[np.float64] | None"]


@dataclass(frozen=True)
class _Terms:
    """The derivative part of the kernel, for R parameter rows.

    dq_t = a_t dm_t and d2q_t = b_t dm_t dm_t' + a_t d2m_t, with m the
    moment of ``_Values``; ``a`` and ``b`` are (R, L).

    ``stack`` holds every entry that varies in t, as (k, L) when all
    rows share it, else (R, k, L): the nonzero entries of d2m_t, a row
    of ones when some entry is constant in t, the entries of dm_t, then,
    when asked for, the products dm_i dm_j, i <= j, of the entries of
    dm_t that vary in t.  So the rows that a_t multiplies (``a_rows``)
    come first, and those that b_t multiplies (``b_rows``) last.  ``dm``
    lists the d entries of dm_t, ``d2m`` the nonzero (i, j), i <= j, of
    d2m_t and ``dmdm`` every (i, j), i <= j, of dm_t dm_t' (with the
    products), each as a ``_Slot``.
    """

    a: NDArray[np.float64]
    b: NDArray[np.float64]
    stack: NDArray[np.float64]
    a_rows: slice
    b_rows: slice | None
    dm: list[_Slot]
    d2m: dict[tuple[int, int], _Slot] = field(default_factory=dict)
    dmdm: dict[tuple[int, int], _Slot] = field(default_factory=dict)

    def on_window(self, slot: _Slot, sl: slice) -> NDArray[np.float64] | float:
        """A ``dm`` or ``d2m`` entry of one parameter row on the window
        ``sl``: a view of its stack row, or the scalar factor of an entry
        constant in t, so that no array of a constant is built."""
        row, value = slot
        if value is not None:
            return value[0, 0]
        return self.stack[..., row, sl].reshape(-1)


def _products(
    stack: NDArray[np.float64], dm: list[_Slot], first: int
) -> tuple[dict[tuple[int, int], _Slot], slice]:
    """``dmdm`` and ``b_rows`` of the terms: the products dm_i dm_j of the
    entries that vary in t fill the stack's rows from ``first`` on."""
    dmdm: dict[tuple[int, int], _Slot] = {}
    row = first
    for i, (ri, ci) in enumerate(dm):
        for j, (rj, cj) in enumerate(dm[i:], start=i):
            if ci is None and cj is None:
                np.multiply(stack[..., ri, :], stack[..., rj, :], out=stack[..., row, :])
                dmdm[i, j] = (row, None)
                row += 1
            elif ci is None or cj is None:
                dmdm[i, j] = (ri, cj) if ci is None else (rj, ci)
            else:
                dmdm[i, j] = (ri, ci * cj)
    # At least two rows, so that b_t multiplies a matrix (AR(1)).
    used = min(min(r for r, _ in dmdm.values()), row - 2)
    return dmdm, slice(used, row)


def _values(
    spec: ModelSpec,
    thetas: NDArray[np.float64],
    data: NDArray[np.float64],
    begin: int,
    end: int,
) -> _Values:
    """Each family's q_t and m_t on t = begin+1..end, the order-0 part of
    the kernel.  AR and ARCH read the observations before begin + 1 that
    their lags need as history; GARCH takes begin = 0, since its
    recursion starts at t = 1."""
    rows = thetas.shape[0]
    if spec.family is ModelFamily.AR:
        lags = _ar_lags(data, spec.p, begin, end)
        f = np.einsum("rp,pt->rt", thetas, lags)
        resid = data[begin:end] - f
        return _Values(m=f, q=resid * resid, z=resid, state=lags)

    # ARCH(1) and GARCH(1,1): f = 0, h from the truncated representation.
    garch = spec.family is ModelFamily.GARCH
    alpha0, alpha1 = thetas[:, :1], thetas[:, 1:2]
    x2 = data[begin:end] ** 2
    if garch:
        # One row takes the filter's scalar path.
        s = _garch_state(x2, thetas[:, 2] if rows > 1 else thetas[0, 2],
                         out=np.empty((rows, x2.size)))
        one_minus_beta = 1.0 - thetas[:, 2:3]
    else:
        s = np.empty(end - begin)
        s[0] = data[begin - 1] ** 2 if begin else 0.0
        s[1:] = x2[:-1]
        one_minus_beta = np.ones((rows, 1))
    h = alpha1 * s
    h += alpha0 / one_minus_beta
    z_over_h = x2 / h
    q = np.log(h)
    q += z_over_h
    return _Values(m=h, q=q, z=z_over_h, state=s)


def _derivative_terms(
    spec: ModelSpec,
    thetas: NDArray[np.float64],
    values: _Values,
    keep: slice | NDArray[np.intp] = slice(None),
    products: bool = False,
) -> _Terms:
    """The derivative part of the kernel for the rows ``keep`` of
    ``values`` and of their parameters ``thetas``: the u and w
    recursions, a_t, b_t and the stack.  It reuses (and overwrites) the
    arrays of ``values``, so no order-0 part runs twice.

    ``products`` adds the products dm_i dm_j to the stack; only
    ``loglik_rows`` sums them.
    """
    thetas = thetas[keep]
    rows = thetas.shape[0]
    if spec.family is ModelFamily.AR:
        p, lags = spec.p, values.state
        a = values.z[keep]
        a *= -2.0
        # Shared by every row of thetas: the lags, after a row of ones for
        # AR(1) only, so that a_t multiplies two rows.
        ones = int(p == 1)
        first = ones + p
        stack = np.empty((first + (p * (p + 1) // 2 if products else 0), lags.shape[1]))
        stack[:ones] = 1.0
        stack[ones:first] = lags
        dm: list[_Slot] = [(ones + i, None) for i in range(p)]
        dmdm, b_rows = _products(stack, dm, first) if products else ({}, None)
        return _Terms(a=a, b=np.full(a.shape, 2.0), stack=stack, a_rows=slice(0, first),
                      b_rows=b_rows, dm=dm, dmdm=dmdm)

    # The stack (ARCH: shared by every row of thetas): ARCH has rows ones
    # and s = dh/dalpha1; GARCH has u = d2h/dalpha1 dbeta, d2h/dbeta^2
    # (from w), ones, s and dh/dbeta; then come the products.  u and w
    # are written straight into their rows, s is copied from ``values``.
    garch = spec.family is ModelFamily.GARCH
    alpha0, alpha1 = thetas[:, :1], thetas[:, 1:2]
    h, z_over_h = values.m[keep], values.z[keep]
    length = h.shape[1]
    if garch:
        first = 5
        one_minus_beta = 1.0 - thetas[:, 2:3]
        beta = thetas[:, 2] if rows > 1 else thetas[0, 2]
        stack = np.empty((rows, first + (3 if products else 0), length))
        dm = [(2, 1.0 / one_minus_beta), (3, None), (4, None)]
        stack[:, 2] = 1.0
        stack[:, 3] = values.state[keep]
        u = _garch_state(stack[:, 3], beta, out=stack[:, 0])
        w = _garch_state(2.0 * u, beta, out=stack[:, 1])
    else:
        first = 2
        one_minus_beta = np.ones((rows, 1))
        stack = np.empty((first + (1 if products else 0), length))
        dm = [(0, 1.0 / one_minus_beta), (1, None)]
        stack[0] = 1.0
        stack[1] = values.state
    a = 1.0 - z_over_h
    a /= h
    b = z_over_h
    b *= 2.0
    b -= 1.0
    b /= h
    b /= h
    d2m: dict[tuple[int, int], _Slot] = {}
    if garch:
        dh_beta = stack[:, 4]
        np.multiply(alpha1, u, out=dh_beta)
        dh_beta += alpha0 / one_minus_beta**2
        np.multiply(alpha1, w, out=w)
        w += 2.0 * alpha0 / one_minus_beta**3
        d2m = {(0, 2): (2, 1.0 / one_minus_beta**2), (1, 2): (0, None), (2, 2): (1, None)}
    dmdm, b_rows = _products(stack, dm, first) if products else ({}, None)
    return _Terms(a=a, b=b, stack=stack, a_rows=slice(0, first), b_rows=b_rows, dm=dm,
                  d2m=d2m, dmdm=dmdm)


def _terms(
    spec: ModelSpec, theta: NDArray[np.float64], data: NDArray[np.float64], end: int
) -> tuple[NDArray[np.float64], NDArray[np.float64], _Terms]:
    """m_t, q_t (1, end) and the derivative terms of one theta on
    t = 1..end: both parts of the kernel.  The order-0 arrays that only
    the derivative part needs are not kept."""
    thetas = theta[None, :]
    values = _values(spec, thetas, data, 0, end)
    return values.m, values.q, _derivative_terms(spec, thetas, values)


def _distinct_entries(
    d: int,
) -> tuple[NDArray[np.intp], NDArray[np.intp], NDArray[np.intp]]:
    """(iu, ju, pos) for the d(d+1)/2 distinct entries of a symmetric matrix.

    Entry e of a stack of distinct entries is (iu[e], ju[e]), iu <= ju;
    indexing that stack with ``pos`` (d, d) rebuilds the full matrices.
    """
    iu, ju = np.triu_indices(d)
    pos = np.empty((d, d), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(iu.size)
    return iu, ju, pos


def _per_t(
    spec: ModelSpec,
    theta: NDArray[np.float64],
    data: NDArray[np.float64],
    start: int,
    end: int,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Per-observation q_t, dq_t and d2q_t of one theta on t = start..end.

    Returns q (m,), dq (m, d) and the distinct entries of d2q (m, M),
    m = end - start + 1 and M = d(d+1)/2, in ``_distinct_entries``
    order.  dq_t = a_t dm_t; entry (i, j) of d2q_t is the product
    dm_i dm_j, times b_t, plus a_t d2m_ij, in that order.
    """
    _, q, terms = _terms(spec, theta, data, end)
    sl = slice(start - 1, end)
    a, b = terms.a[0, sl], terms.b[0, sl]
    dm = [terms.on_window(slot, sl) for slot in terms.dm]
    iu, ju, _ = _distinct_entries(spec.d)
    dq, d2q = np.empty((a.size, spec.d)), np.empty((a.size, iu.size))
    for i, dm_i in enumerate(dm):
        np.multiply(a, dm_i, out=dq[:, i])
    for e, (i, j) in enumerate(zip(iu, ju)):
        np.multiply(dm[i], dm[j], out=d2q[:, e])
        d2q[:, e] *= b
        if (i, j) in terms.d2m:
            d2q[:, e] += a * terms.on_window(terms.d2m[i, j], sl)
    return q[0, sl], dq, d2q


def volatility_path(
    spec: ModelSpec, theta: ArrayLike, segment: SeriesSegment
) -> VolatilityPath:
    """Conditional mean/variance path over the segment's window.

    For ARCH/GARCH the returned ``h_hat`` is bounded below by the
    feasible minimum of the intercept term, hence strictly positive.
    """
    arr = spec.check_theta(theta, "theta")
    end, d, m = segment.end, spec.d, segment.card
    moment, _, terms = _terms(spec, arr, segment.data, end)
    sl = slice(segment.start - 1, end)
    moment, dh, d2h = moment[0, sl], np.zeros((d, m)), np.zeros((d, d, m))
    if spec.family is ModelFamily.AR:
        return VolatilityPath(f_hat=moment, h_hat=np.ones(m), dh=dh, d2h=d2h)
    for i, slot in enumerate(terms.dm):
        dh[i] = terms.on_window(slot, sl)
    for (i, j), slot in terms.d2m.items():
        d2h[i, j] = d2h[j, i] = terms.on_window(slot, sl)
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
    arr = spec.check_theta(theta, "theta")
    q, dq, d2q = _per_t(spec, arr, segment.data, t, t)
    return float(q[0]), dq[0], d2q[0][_distinct_entries(spec.d)[2]]


def loglik(
    spec: ModelSpec,
    theta: ArrayLike,
    segment: SeriesSegment,
    *,
    order: int = 2,
    keep_per_t: bool = False,
) -> LikelihoodEval:
    """Evaluate L(T, theta) with derivatives up to ``order``.

    The value, gradient and hessian are row 0 of a one-row
    ``loglik_rows`` call on the segment's window, bit for bit.

    Parameters
    ----------
    order
        0 for the value only, 1 to add the gradient, 2 to add the
        hessian.  Order 0 skips the kernel's derivative part entirely;
        order 1 runs it all and drops the hessian, so its gradient is
        order 2's bit for bit.
    keep_per_t
        Also return the per-observation terms q_t, gradient rows
        dq_t/dtheta and distinct hessian entries of d2q_t/dtheta2
        (``LikelihoodEval``), at any order: they come from their own
        kernel evaluation, so ``order`` sets only which sums come back.

    Raises
    ------
    ValueError
        If ``order`` is not 0, 1 or 2.
    DomainError
        If theta is outside the feasible domain.
    """
    _check_order(order)
    arr = spec.check_theta(theta, "theta")
    sums = loglik_rows(spec, arr[None, :], segment.data, np.array([segment.start]),
                       np.array([segment.end]), order=order)
    per_t = _per_t(spec, arr, segment.data, segment.start, segment.end) if keep_per_t else ()
    return LikelihoodEval(float(sums[0][0]), *(None if s is None else s[0] for s in sums[1:]),
                          *per_t)


def _check_order(order: int) -> None:
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")


# Row r of a batched evaluation runs on t = begin+1..span: span is the end
# of its window rounded up to a multiple of this many observations, at
# most n, and begin, for AR and ARCH, its start minus one rounded down
# to such a multiple (GARCH takes begin = 0).  Rows of one (begin, span) pair form a class
# and share chunks, and since a row's class depends only on its own
# window, so do its bits.
_SPAN_STEP = 128

# Largest (row x observation) chunk that ``loglik_rows`` evaluates at
# once.  Every (rows, span) array of a chunk then holds at most this
# many float64 values (256 KiB): an order-2 call has about ten, q_t,
# a_t, b_t and h_t among them, besides the kernel's stack of 3 to 8
# rows, so a chunk's arrays stay near a 2 MiB L2 cache.  At n = 2e4 a
# chunk is one row, at n = 500 65 rows.  Swept on a 2-core machine with
# 2 MiB of L2 per core (median of 12 scans each, with the earlier
# pairwise derivative sums): the GARCH one-step scan at n = 2e4 took
# 132-140 ms at 2^12 to 2^15 and 228-239 ms at 2^16 to 2^20, and the
# ARCH exact scan at n = 500 was fastest at 2^15 (46 ms; 62 ms at 2^12,
# 63-70 ms at 2^17 and above).  With the BLAS derivative sums, 2^13 and
# 2^14 were no faster.
_CHUNK_VALUES = 2**15


def loglik_rows(
    spec: ModelSpec,
    thetas: NDArray[np.float64],
    data: NDArray[np.float64],
    starts: NDArray[np.int64],
    ends: NDArray[np.int64],
    *,
    order: int = 2,
    floor: NDArray[np.float64] | None = None,
) -> tuple[
    NDArray[np.float64], NDArray[np.float64] | None, NDArray[np.float64] | None
]:
    """L(T, theta) for many windows of one series, one parameter row each.

    Row r evaluates L(T_r, thetas[r]) on the window T_r = {starts[r],
    ..., ends[r]} of ``data`` (n observations).  Because q_t never
    depends on the window (module docstring), every window is a weighted
    sum of per-observation terms: q_t, a_t dh_t and b_t dh_t dh_t' +
    a_t d2h_t.  Row r is evaluated on t = begin_r+1..span_r, its class:
    span_r is its end rounded up to a multiple of ``_SPAN_STEP`` and
    capped at n, begin_r its start minus one rounded down to a multiple
    of it for AR and ARCH, whose terms read at most p observations
    before begin_r + 1, and 0 for GARCH, whose recursion starts at
    t = 1.  0/1 weights select the window.  Rows of one class are
    evaluated together, in chunks of at most ``_CHUNK_VALUES`` (row,
    observation) values, so that a chunk's arrays stay in cache.  A
    chunk's weights are the mask starts[r] <= t <= ends[r] over its
    class; a chunk whose windows all cover their class, like the rows
    of a full-sample fit, is summed unweighted.  The s/u/w recursions
    run once per row for GARCH and are shared by the rows of a chunk
    for ARCH and AR.

    Each chunk runs the kernel's order-0 part (the s recursion, h_t or
    f_t, q_t) and sums the values first.  With ``floor`` (R,), a row
    gets its derivatives only when its value is at least floor[r], as
    an Armijo test asks of an accepted trial; the derivative part (the
    u and w recursions, a_t, b_t and the BLAS sums) runs only for those
    rows, on the order-0 arrays, and the other rows' gradient and
    hessian are NaN.

    Returns (value (R,), gradient (R, d), hessian (R, d, d)); entries
    beyond ``order`` are None.  Order 1 is evaluated at order 2 and
    drops the hessian.  A value is a pairwise sum along its weighted
    row (sequential value sums were too coarse for Armijo tests near an
    optimum).  The derivatives are per-row matrix-vector products
    (``_weighted_sums``), with factors constant in t pulled out.  A
    row's result therefore depends only on its own window and
    parameters, bit for bit, not on the other rows of the call, on the
    chunking or on ``floor`` (all tested); ``loglik`` is such a row.

    Raises
    ------
    ValueError
        If ``order`` is not 0, 1 or 2.
    DomainError
        If any row is outside the feasible domain.
    """
    _check_order(order)
    if not np.all(in_domain_rows(spec, thetas)):
        raise DomainError("a parameter row lies outside the feasible domain")
    rows, d = thetas.shape
    n = data.shape[0]
    out = (np.empty(rows), np.empty((rows, d)), np.empty((rows, d, d)))[: 3 if order else 1]
    spans = np.minimum(n, -(-ends // _SPAN_STEP) * _SPAN_STEP)
    begins = (np.zeros_like(starts) if spec.family is ModelFamily.GARCH
              else (starts - 1) // _SPAN_STEP * _SPAN_STEP)
    whole = (starts == begins + 1) & (ends == spans)
    # The classes are runs of their keys in sorted order; callers pass
    # prefixes by end, then suffixes by start, so the stable sort is one
    # pass.
    keys = begins * (n + 1) + spans
    by_class = np.argsort(keys, kind="stable")
    ordered = keys[by_class]
    bounds = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), rows]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        begin, span = divmod(int(ordered[lo]), n + 1)
        size = max(1, _CHUNK_VALUES // (span - begin))
        for first in range(lo, hi, size):
            r = by_class[first : min(first + size, hi)]
            mask = None
            if not np.all(whole[r]):
                t = np.arange(begin + 1, span + 1)
                mask = (t >= starts[r, None]) & (t <= ends[r, None])
            sums = _weighted_sums(spec, thetas[r], data, begin, span, mask, order,
                                  None if floor is None else floor[r])
            for arr, part in zip(out, sums):
                arr[r] = part
    return out[: order + 1] + (None,) * (2 - order)


def _weighted_sums(
    spec: ModelSpec,
    thetas: NDArray[np.float64],
    data: NDArray[np.float64],
    begin: int,
    span: int,
    mask: NDArray[np.bool_] | None,
    order: int,
    floor: NDArray[np.float64] | None,
) -> list[NDArray[np.float64]]:
    """Value, then at ``order`` 1 or 2 both derivatives, of one chunk of
    rows.

    The rows are evaluated on t = begin+1..span and their terms
    multiplied by the 0/1 ``mask`` (rows, span - begin), unless that is
    None.  The value is a pairwise sum along each row.  Only the rows
    whose value reaches ``floor``, or every row without one, go on to
    the derivative part; the others' derivatives are NaN.  The
    derivative sums are two matrix-vector products per row with the
    kernel's stack (``_Terms``): its ``a_rows`` times a_t give the
    gradient and the a_t d2m_t part of the hessian, its ``b_rows``
    times b_t the b_t dm_t dm_t' part.  An entry constant in t is
    pulled out of its sum as a factor on the stack's row of ones.  A
    row's bits therefore depend only on that row and its class.
    """
    rows, d = thetas.shape
    values = _values(spec, thetas, data, begin, span)
    value = -0.5 * _weigh(values.q, mask).sum(axis=1)
    if order == 0:
        return [value]
    grad, hessian = np.full((rows, d), np.nan), np.full((rows, d, d), np.nan)
    keep: slice | NDArray[np.intp] = slice(None)
    if floor is not None:
        keep = np.flatnonzero(value >= floor)
        if keep.size == 0:
            return [value, grad, hessian]
        if keep.size == rows:
            keep = slice(None)
    terms = _derivative_terms(spec, thetas, values, keep, products=True)
    assert terms.b_rows is not None
    mask = None if mask is None else mask[keep]
    stack = terms.stack
    a_sums = (stack[..., terms.a_rows, :] @ _weigh(terms.a, mask)[:, :, None])[..., 0]
    grad[keep] = -0.5 * np.stack([_pulled(a_sums, 0, slot) for slot in terms.dm], axis=1)
    b_sums = (stack[..., terms.b_rows, :] @ _weigh(terms.b, mask)[:, :, None])[..., 0]
    for (i, j), slot in terms.dmdm.items():
        hij = _pulled(b_sums, terms.b_rows.start, slot)
        if (i, j) in terms.d2m:
            hij = hij + _pulled(a_sums, 0, terms.d2m[i, j])
        hessian[keep, i, j] = hessian[keep, j, i] = -0.5 * hij
    return [value, grad, hessian]


def _weigh(x: NDArray[np.float64], mask: NDArray[np.bool_] | None) -> NDArray[np.float64]:
    """x times the 0/1 mask, unless that is None.  The kernel's arrays
    belong to their call: they are weighed in place."""
    if mask is not None:
        x *= mask
    return x


def _pulled(sums: NDArray[np.float64], first: int, slot: _Slot) -> NDArray[np.float64]:
    """One entry's (R,) sums, from the (R, k) sums over the stack's rows
    ``first`` .. ``first`` + k - 1."""
    row, value = slot
    out = sums[:, row - first]
    return out if value is None else out * value[:, 0]
