"""Independent reference computations for the benchmark's correctness checks.

Everything here is written from the definitions in PAPER.md and the
README in plain numpy, with explicit loops where the model is a
recursion.  Nothing is imported from ``qlscan``: the point is to check
the program against a second implementation, not against itself.

Definitions used (1-based t, pre-sample values are zero):

* per-observation term  q_t = (X_t - f_t)^2 / h_t + log h_t
* AR(p):      f_t = sum_j phi_j X_{t-j},  h_t = 1
* ARCH(1):    f_t = 0,  h_t = w + a X_{t-1}^2
* GARCH(1,1): f_t = 0,  h_t = w / (1 - b) + a sum_{k>=1} b^(k-1) X_{t-k}^2,
              i.e. h_1 = w / (1 - b) and h_t = w + a X_{t-1}^2 + b h_{t-1}
* G(T) = mean_T dq_t dq_t',  F(T) = mean_T d2q_t   (both at theta_full)
* Sigma_k = (k/n) F_L G_L^-1 F_L 1{cond G_L <= 1e12}
          + ((n-k)/n) F_R G_R^-1 F_R 1{cond G_R <= 1e12}
* Q1(k) = (k^2/n) dL' Sigma_k dL,  Q2(k) = ((n-k)^2/n) dR' Sigma_k dR
* one-step side delta  d = -Fbar^-1 gbar_side, Fbar = F(T_n); the
  score-centred variant subtracts the full-sample mean score from gbar
* feasible sets: AR  sum|phi_j| <= 0.98 (which implies |phi_j| <= 0.98);
  ARCH/GARCH  w in [1e-4, 10], a, b in [0, 0.98], a + b <= 0.98
"""

from __future__ import annotations

import math

import numpy as np

COND_MAX = 1e12
STATIONARITY = 0.98
W_LO, W_HI = 1e-4, 10.0
BURN_IN = 500


# ---------------------------------------------------------------- inputs


def simulate(kind, n, theta0, theta1=None, break_index=None, seed=0,
             burn_in=BURN_IN):
    """Simulated series X_1..X_n, innovations from Philox(SeedSequence(seed)).

    ARCH/GARCH start from the stationary variance under theta0 and AR
    from zero lags; the first ``burn_in`` steps are discarded.  A break
    at k switches to theta1 from X_{k+1} on.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    total = burn_in + n
    eps = rng.standard_normal(total).tolist()
    split = total if break_index is None else burn_in + break_index
    out = [0.0] * total
    if kind == "ar":
        p = len(theta0)
        lags = [0.0] * p
        phi = list(theta0)
        for t in range(total):
            if t == split:
                phi = list(theta1)
            x = eps[t] + sum(c * v for c, v in zip(phi, lags))
            lags = [x] + lags[:-1]
            out[t] = x
    else:
        a0, a1 = theta0[0], theta0[1]
        b1 = theta0[2] if kind == "garch" else 0.0
        h = a0 / (1.0 - a1 - b1)
        x_prev = 0.0
        for t in range(total):
            if t == split:
                a0, a1 = theta1[0], theta1[1]
                b1 = theta1[2] if kind == "garch" else 0.0
            if t > 0:
                h = a0 + a1 * x_prev * x_prev + b1 * h
            x_prev = math.sqrt(h) * eps[t]
            out[t] = x_prev
    return np.asarray(out[burn_in:])


# ------------------------------------------------------------ likelihood


def _ar_lags(x, p):
    n = x.shape[0]
    padded = np.concatenate((np.zeros(p), x))
    return np.stack([padded[p - j : p - j + n] for j in range(1, p + 1)], axis=1)


def per_t_terms(kind, theta, x):
    """Per-observation q_t, dq_t/dtheta and d2q_t/dtheta2 over t = 1..n."""
    theta = np.asarray(theta, dtype=float)
    n = x.shape[0]
    if kind == "ar":
        lags = _ar_lags(x, theta.shape[0])
        r = x - lags @ theta
        dq = -2.0 * r[:, None] * lags
        d2q = 2.0 * lags[:, :, None] * lags[:, None, :]
        return r * r, dq, d2q
    x2 = x * x
    if kind == "arch":
        w, a = theta
        prev = np.concatenate(([0.0], x2[:-1]))
        h = w + a * prev
        dh = np.stack([np.ones(n), prev], axis=1)
        d2h = np.zeros((n, 2, 2))
    else:
        h, dh, d2h = _garch_variance(theta, x2.tolist())
    z_h = x2 / h
    a_t = (1.0 - z_h) / h
    b_t = (2.0 * z_h - 1.0) / (h * h)
    dq = a_t[:, None] * dh
    d2q = b_t[:, None, None] * dh[:, :, None] * dh[:, None, :] + a_t[:, None, None] * d2h
    return z_h + np.log(h), dq, d2q


def _garch_variance(theta, x2):
    """h_t and its first and second derivatives by the explicit recursion."""
    w, a, b = (float(v) for v in theta)
    n = len(x2)
    h = np.empty(n)
    dh = np.empty((n, 3))
    d2h = np.zeros((n, 3, 3))
    one_b = 1.0 - b
    # t = 1: h_1 = w / (1 - b), with no observed past.
    hw, ha, hb = 1.0 / one_b, 0.0, w / one_b**2
    hwb, hab, hbb = 1.0 / one_b**2, 0.0, 2.0 * w / one_b**3
    ht = w / one_b
    h[0] = ht
    dh[0] = hw, ha, hb
    d2h[0, 0, 2] = d2h[0, 2, 0] = hwb
    d2h[0, 2, 2] = hbb
    for t in range(1, n):
        # h_t = w + a X_{t-1}^2 + b h_{t-1}; derivatives follow term by term.
        hwb, hab, hbb = hw + b * hwb, ha + b * hab, 2.0 * hb + b * hbb
        hw, ha, hb = 1.0 + b * hw, x2[t - 1] + b * ha, ht + b * hb
        ht = w + a * x2[t - 1] + b * ht
        h[t] = ht
        dh[t] = hw, ha, hb
        d2h[t, 0, 2] = d2h[t, 2, 0] = hwb
        d2h[t, 1, 2] = d2h[t, 2, 1] = hab
        d2h[t, 2, 2] = hbb
    return h, dh, d2h


def mean_loglik_gradient(kind, theta, x, start, end):
    """Gradient of (1/|T|) L(T, theta), L = -1/2 sum q_t, on T = start..end."""
    _, dq, _ = per_t_terms(kind, theta, x[:end])
    return -0.5 * dq[start - 1 : end].mean(axis=0)


# ------------------------------------------------------------ optimality


def vertices(kind, d):
    """Vertices of the feasible polytope of the family."""
    c = STATIONARITY
    if kind == "ar":
        eye = np.eye(d)
        return np.concatenate((c * eye, -c * eye))
    if kind == "arch":
        return np.array([[w, a] for w in (W_LO, W_HI) for a in (0.0, c)])
    return np.array(
        [[w, a, b] for w in (W_LO, W_HI) for a, b in ((0.0, 0.0), (c, 0.0), (0.0, c))]
    )


def ascent_slope(kind, theta, grad):
    """Largest first-order ascent available at theta over the feasible set.

    theta is a constrained stationary point of L only if no feasible
    direction increases L to first order: grad . (v - theta) <= 0 for
    every feasible v.  The left side is linear in v, so its maximum over
    the polytope sits at a vertex.  Returns the maximum over vertices of
    grad . (v - theta) / |v - theta|.
    """
    worst = -math.inf
    for v in vertices(kind, len(theta)):
        step = v - theta
        norm = float(np.linalg.norm(step))
        if norm > 0.0:
            worst = max(worst, float(grad @ step) / norm)
    return worst


def kkt_violation(kind, theta, x, start, end):
    """ascent_slope of the mean log-likelihood on T = start..end."""
    return ascent_slope(kind, theta, mean_loglik_gradient(kind, theta, x, start, end))


def ar_window_lstsq(x, p, start, end):
    """Unconstrained least-squares AR(p) fit on T = start..end."""
    lags = _ar_lags(x[:end], p)[start - 1 : end]
    sol, *_ = np.linalg.lstsq(lags, x[start - 1 : end], rcond=None)
    return sol


def feasible(kind, theta, tol=1e-12):
    theta = np.asarray(theta, dtype=float)
    c = STATIONARITY
    if kind == "ar":
        return float(np.sum(np.abs(theta))) <= c + tol
    box = W_LO - tol <= theta[0] <= W_HI + tol and np.all(theta[1:] >= -tol)
    return bool(box and float(np.sum(theta[1:])) <= c + tol)


# ------------------------------------------------------------ scan terms


class ScanReference:
    """Per-side information matrices at theta_full and Q1/Q2 at chosen k."""

    def __init__(self, kind, x, theta_full):
        self.kind = kind
        self.n = x.shape[0]
        self.theta_full = np.asarray(theta_full, dtype=float)
        _, self.dq, self.d2q = per_t_terms(kind, self.theta_full, x)
        self.f_bar = self.d2q.mean(axis=0)

    def kkt_violation(self):
        """ascent_slope of the full-sample mean log-likelihood at theta_full."""
        grad = -0.5 * self.dq.mean(axis=0)
        return ascent_slope(self.kind, self.theta_full, grad)

    def _fgf(self, rows):
        g = self.dq[rows].T @ self.dq[rows] / (rows.stop - rows.start)
        f = self.d2q[rows].mean(axis=0)
        g = (g + g.T) / 2.0
        f = (f + f.T) / 2.0
        cond = np.linalg.cond(g)
        if not (np.isfinite(cond) and cond <= COND_MAX):
            return np.zeros_like(g)
        out = f @ np.linalg.solve(g, f)
        return (out + out.T) / 2.0

    def sigma(self, k):
        n = self.n
        left, right = slice(0, k), slice(k, n)
        return (k / n) * self._fgf(left) + ((n - k) / n) * self._fgf(right)

    def one_step_deltas(self, k, centred):
        gbar_l = self.dq[:k].mean(axis=0)
        gbar_r = self.dq[k:].mean(axis=0)
        if centred:
            full = self.dq.mean(axis=0)
            gbar_l, gbar_r = gbar_l - full, gbar_r - full
        solve = np.linalg.solve
        return -solve(self.f_bar, gbar_l), -solve(self.f_bar, gbar_r)

    def q_pair(self, k, d_left, d_right):
        sigma = self.sigma(k)
        n = self.n
        q1 = (k * k / n) * float(d_left @ sigma @ d_left)
        q2 = ((n - k) ** 2 / n) * float(d_right @ sigma @ d_right)
        return q1, q2


# ------------------------------------------------------ critical values


def kolmogorov_cdf(y):
    """P(sup_t |B(t)| <= y) for a standard Brownian bridge B."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    pos = y > 0.0
    yp = y[pos]
    total = np.zeros_like(yp)
    for k in range(1, 101):
        total += (-1.0) ** (k - 1) * np.exp(-2.0 * k * k * yp * yp)
    out[pos] = 1.0 - 2.0 * total
    return np.clip(out, 0.0, 1.0)


# Mean gap between the supremum of Brownian motion over [0, 1] and its
# maximum over an m-point grid is about -zeta(1/2)/sqrt(2 pi)/sqrt(m).
GRID_SHIFT = 0.5825971579390106


def grid_ks_distance(samples, m):
    """KS distance of a d=1 grid sample of sup W^2 to the Kolmogorov law.

    The grid maximum underestimates the supremum; the sample is shifted
    by the first-order discretisation gap before comparing.
    """
    y = np.sort(np.sqrt(np.asarray(samples, dtype=float)) + GRID_SHIFT / math.sqrt(m))
    r = y.shape[0]
    cdf = kolmogorov_cdf(y)
    upper = np.arange(1, r + 1) / r - cdf
    lower = cdf - np.arange(0, r) / r
    return float(max(upper.max(), lower.max()))


def bridge_sup(d, m, seed, r):
    """Replication r of sup_tau ||W_d(tau)||^2 on the m-point grid.

    Draws d x m standard normals from Philox(SeedSequence((seed, r))),
    forms the random walk scaled by 1/sqrt(m), and bridges it.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, r))))
    steps = rng.standard_normal((d, m))
    for j in range(d):
        walk = np.cumsum(steps[j]) / math.sqrt(m)
        steps[j] = walk - (np.arange(1, m + 1) / m) * walk[-1]
    return float(np.max(np.sum(steps * steps, axis=0)))
