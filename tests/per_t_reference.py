"""Per-observation q_t, dq_t and d2q_t by explicit recursions.

An oracle for ``likelihood``'s per-observation kernel and for every
window sum built on it.  Each family is written out in plain Python
loops over t, straight from its model definition, with values before
X_1 taken as zero:

* AR(p): f_t = sum_k phi_k X_{t-k}, q_t = (X_t - f_t)^2, so
  dq_t = -2 (X_t - f_t) lags_t and d2q_t = 2 lags_t lags_t'.
* ARCH(1): h_t = alpha_0 + alpha_1 X_{t-1}^2.
* GARCH(1,1): the variance recursion itself,
  h_t = alpha_0 + alpha_1 X_{t-1}^2 + beta_1 h_{t-1} with
  h_1 = alpha_0 / (1 - beta_1), and its first and second derivatives
  by differentiating that recursion, not the package's s/u/w states.

For ARCH and GARCH, q_t = X_t^2 / h_t + log h_t, whose derivatives are
dq = (1/h - X^2/h^2) dh and
d2q = (2 X^2/h^3 - 1/h^2) dh dh' + (1/h - X^2/h^2) d2h.
"""

from __future__ import annotations

import numpy as np

from qlscan import ModelFamily


def per_t_terms(spec, theta, data):
    """(q (n,), dq (n, d), d2q (n, d, d)) on t = 1..n of the series ``data``."""
    x = [float(v) for v in data]
    theta = [float(v) for v in theta]
    if spec.family is ModelFamily.AR:
        return _ar(theta, x)
    if spec.family is ModelFamily.ARCH:
        a0, a1 = theta
        h = [a0 + a1 * (x[t - 1] ** 2 if t else 0.0) for t in range(len(x))]
        dh = [[1.0, x[t - 1] ** 2 if t else 0.0] for t in range(len(x))]
        d2h = [[[0.0, 0.0], [0.0, 0.0]] for _ in x]
        return _volatility(x, h, dh, d2h)
    return _volatility(x, *_garch_variance(theta, x))


def _ar(phi, x):
    p, n = len(phi), len(x)
    q, dq, d2q = np.empty(n), np.empty((n, p)), np.empty((n, p, p))
    for t in range(n):
        lags = [x[t - k] if t - k >= 0 else 0.0 for k in range(1, p + 1)]
        resid = x[t] - sum(c * v for c, v in zip(phi, lags))
        q[t] = resid * resid
        for i in range(p):
            dq[t, i] = -2.0 * resid * lags[i]
            for j in range(p):
                d2q[t, i, j] = 2.0 * lags[i] * lags[j]
    return q, dq, d2q


def _garch_variance(theta, x):
    """h_t and its derivatives in (alpha_0, alpha_1, beta_1), by recursion."""
    a0, a1, b = theta
    h = [a0 / (1.0 - b)]
    dh = [[1.0 / (1.0 - b), 0.0, a0 / (1.0 - b) ** 2]]
    d2h = [[[0.0, 0.0, 1.0 / (1.0 - b) ** 2],
            [0.0, 0.0, 0.0],
            [1.0 / (1.0 - b) ** 2, 0.0, 2.0 * a0 / (1.0 - b) ** 3]]]
    for t in range(1, len(x)):
        hp, dp, d2p = h[-1], dh[-1], d2h[-1]
        h.append(a0 + a1 * x[t - 1] ** 2 + b * hp)
        dh.append([1.0 + b * dp[0], x[t - 1] ** 2 + b * dp[1], hp + b * dp[2]])
        # Only the second derivatives through beta_1 are nonzero.
        c02 = dp[0] + b * d2p[0][2]
        c12 = dp[1] + b * d2p[1][2]
        c22 = 2.0 * dp[2] + b * d2p[2][2]
        d2h.append([[0.0, 0.0, c02], [0.0, 0.0, c12], [c02, c12, c22]])
    return h, dh, d2h


def _volatility(x, h, dh, d2h):
    n, d = len(x), len(dh[0])
    q, dq, d2q = np.empty(n), np.empty((n, d)), np.empty((n, d, d))
    for t in range(n):
        x2, ht = x[t] ** 2, h[t]
        q[t] = x2 / ht + np.log(ht)
        first = 1.0 / ht - x2 / ht**2
        second = 2.0 * x2 / ht**3 - 1.0 / ht**2
        for i in range(d):
            dq[t, i] = first * dh[t][i]
            for j in range(d):
                d2q[t, i, j] = second * dh[t][i] * dh[t][j] + first * d2h[t][i][j]
    return q, dq, d2q

