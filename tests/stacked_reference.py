"""Row-first stacked linear algebra: the reference for the stack-last code.

``_stacks`` keeps each stack of small matrices stack-last, as
(d, d, rows), so that every matrix entry is one contiguous vector.  This
module is the row-first (rows, d, d) version it replaced, built on
einsums over the short axes: the Cholesky screen, the substitutions,
F G^(-1) F and the stacked solve.  Tests compare the stack-last code
against it.

It also holds the oracle for exact AR windows: each window's normal
equations A theta = b, with A and b cumulated from the window's own
lags lags' and X_t lags, solved by the reference stacked solve.  The
scan instead takes one Newton step from theta_full on the derivative
pass's sums, which reaches the same least-squares solution through
different sums.
"""

from __future__ import annotations

import numpy as np

from qlscan._stacks import _SCREEN_MARGIN, COND_MAX, _invertible
from qlscan.likelihood import _ar_lags
from qlscan.models import ar1_interval, in_domain_rows


def ar_window_least_squares(spec, data, ks):
    """Closed-form AR estimates for every prefix T_k, then every suffix."""
    n = data.shape[0]
    p = spec.p
    lags = _ar_lags(data, p, 0, n).T
    a = np.cumsum(np.einsum("ti,tj->tij", lags, lags), axis=0)
    b = np.cumsum(data[:, None] * lags, axis=0)
    idx = ks - 1
    a_w = np.concatenate((a[idx], a[-1] - a[idx]))
    b_w = np.concatenate((b[idx], b[-1] - b[idx]))
    theta, ok = solve_rows(a_w, b_w[..., None])
    theta = theta[..., 0]
    if p == 1:
        return np.clip(theta, *ar1_interval(spec)), ok
    return theta, ok & in_domain_rows(spec, theta)


def batched_fgf(f, g):
    """F G^(-1) F and the invertibility mask for stacked (rows, d, d) matrices."""
    chol, scale, cleared, ok = cholesky_rows(g)
    out = np.zeros_like(f)
    m = forward_substitute(chol, f[cleared] / np.sqrt(scale)[:, None, None])
    out[cleared] = np.einsum("kji,kjl->kil", m, m)
    rest = ok & ~cleared
    if np.any(rest):
        prod = f[rest] @ np.linalg.solve(g[rest], f[rest])
        out[rest] = (prod + np.swapaxes(prod, 1, 2)) / 2.0
    return out, ok


def solve_rows(m, rhs):
    """m^(-1) rhs for stacked symmetric (rows, d, d) m, and the invertibility mask."""
    chol, scale, cleared, ok = cholesky_rows(m)
    out = np.zeros_like(rhs)
    x = back_substitute(chol, forward_substitute(chol, rhs[cleared]))
    out[cleared] = x / scale[:, None, None]
    rest = ok & ~cleared
    if np.any(rest):
        out[rest] = np.linalg.solve(m[rest], rhs[rest])
    return out, ok


def cholesky_rows(m):
    """(chol, scale, cleared, ok) of a (rows, d, d) stack; chol and scale
    cover the cleared rows only, in order."""
    rows, d, _ = m.shape
    det = np.ones(rows)
    with np.errstate(all="ignore"):
        scale = np.trace(m, axis1=1, axis2=2)
        pos = scale > 0.0
        chol = m / scale[:, None, None]
        for j in range(d):
            lj = chol[:, j, :j]
            piv = chol[:, j, j] - np.einsum("ki,ki->k", lj, lj)
            pos &= piv > 0.0
            det *= piv
            root = np.sqrt(piv)
            chol[:, j, j] = root
            below = np.einsum("kji,ki->kj", chol[:, j + 1 :, :j], lj)
            chol[:, j + 1 :, j] = (chol[:, j + 1 :, j] - below) / root[:, None]
    cleared = pos & (det >= _SCREEN_MARGIN / COND_MAX)
    ok = cleared.copy()
    rest = ~cleared
    if np.any(rest):
        ok[rest] = _invertible(np.linalg.cond(m[rest]))
        chol, scale = chol[cleared], scale[cleared]
    return chol, scale, cleared, ok


def forward_substitute(chol, x):
    """Overwrite x (rows, d, m) with L^(-1) x for stacked lower-triangular L."""
    for i in range(chol.shape[1]):
        x[:, i] -= np.einsum("kj,kjm->km", chol[:, i, :i], x[:, :i])
        x[:, i] /= chol[:, i, i, None]
    return x


def back_substitute(chol, x):
    """Overwrite x (rows, d, m) with L'^(-1) x for stacked lower-triangular L."""
    for i in reversed(range(chol.shape[1])):
        x[:, i] -= np.einsum("kj,kjm->km", chol[:, i + 1 :, i], x[:, i + 1 :])
        x[:, i] /= chol[:, i, i, None]
    return x
