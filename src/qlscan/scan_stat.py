"""Change-point scan statistics built from sub-sample estimates.

For each candidate change point k in the window Pi_n = {v_n, ..., n-v_n}
the sample splits into T_k = {1..k} and its complement {k+1..n}, each
side is estimated by QMLE, and two quadratic forms measure how far the
sub-sample estimates sit from the full-sample one:

    q1[k] = (k^2 / n)       (th_L - th_full)' Sigma_k (th_L - th_full)
    q2[k] = ((n-k)^2 / n)   (th_R - th_full)' Sigma_k (th_R - th_full)

with the weight matrix

    Sigma_k = (k/n)     F_L G_L^(-1) F_L * 1{G_L invertible}
            + ((n-k)/n) F_R G_R^(-1) F_R * 1{G_R invertible},

    G(T) = mean over T of (dq_t)(dq_t)'      at th_full
    F(T) = -(2 / Card T) * d2/dth2 L(T, th)  at th_full.

The averages run over each side T separately, but both information
matrices are evaluated at the restricted no-break estimate th_full =
th(T_n), as a score-type test evaluates information at the null fit.
Under constant parameters every window estimate and th_full converge
to the same point, so the choice does not move the limit; at finite n
it matters a great deal.  Evaluating G and F at each window's own
estimate couples the weight matrix to the very deviation the quadratic
form measures, and the sup over k harvests that coupling: simulated
ARCH(1) levels at n=500 run near 0.21 with window-estimate weights
versus 0.073 with th_full weights and 0.080 with the infeasible true
Sigma, against a nominal asymptotic size of 0.025.  Evaluating at
th_full also keeps the weights positive definite under a parameter
break (each side's average is taken at a fixed interior point), so
power is preserved.  A bonus: at a common evaluation point every
prefix and suffix average comes from one full-sample derivative pass
via cumulative sums.

The test statistic is Q = max(max_k q1[k], max_k q2[k]); the null
hypothesis of constant parameters is rejected when Q exceeds the
critical value C(d, alpha) from the Brownian-bridge table.

Invertibility uses a condition-number threshold (1e12) rather than a
determinant test, so scale changes in the data do not flip the
indicator.  A sub-sample whose estimation fails marks that k missing;
missing k are excluded from the maxima, and a scan with more than 10%
of Pi_n missing raises ScanError rather than returning a maximum over
too thin a grid.

For AR models the quasi-likelihood is exactly quadratic, so sub-sample
estimates are constrained least squares and every k can be processed
from cumulative sufficient statistics.  The exact scan exploits that
(orders p <= 4) and falls back to a cold multi-start optimizer for the
k whose least-squares system is ill-conditioned or whose solution
leaves the domain; both paths land on the same optima, which a test
pins down.  ARCH scans take the generic exact path: every prefix T_k
and every complement is climbed from th_full, so no window depends on
its neighbours, then the per-k algebra above.  All windows are climbed
together in one batched projected-Newton pass over a stack of parameter
rows (``qmle.estimate_windows``), which takes the same steps as one
warm ``estimate`` call per window; a window the batch leaves
unconverged is refitted by the scalar optimizer, with a cold
multi-start retry if that climb fails as well.

GARCH windows use a different sub-sample estimator by default.  A
window of a few hundred observations cannot pin down three GARCH
parameters: the likelihood has a long flat ridge trading the intercept
against the lagged-variance weight, window optima wander O(1) along it
(often to a degenerate constant-variance fit with the lagged-variance
weight near 1), and the weight matrix, whose curvature is measured at
th_full, cannot cancel travel along a ridge it does not see.  Simulated
GARCH(1,1) levels at n=1500 run near 0.24 against a nominal 0.05, and
no choice of weight matrix or trimming repairs that.  The default
``window_estimator="one_step"`` therefore replaces each window's argmax
with a single Fisher-scoring step from the full-sample fit,

    th_side = th_full - Fbar^(-1) gbar_side,

where gbar_side is the side's mean per-observation gradient at th_full
and Fbar is the full-sample mean hessian (the pooled curvature; a
side's own small-window hessian can be near-singular and makes the
step explode).  One-step estimators from a root-n-consistent start
share the argmax estimator's first-order asymptotics, so the statistic
keeps its limit law, and q becomes a smooth functional of cumulative
score sums: simulated levels drop to 0.04 under the same design.

AR scans near the unit root show the same inflation in miniature: at
phi = 0.9 the smallest windows produce exact least-squares estimates
with heavy-tailed spread, and the simulated level at n = 4096 sits
near 0.10 against a nominal 0.05 however large n grows, while the
one-step scan holds 0.02.  AR therefore defaults to
``window_estimator="one_step"`` as well, trading some power against
small mid-sample breaks (rejection 0.755 versus 0.870 for an AR
coefficient moving 0.3 to 0.5 at t=400, n=1000) for a level that is
honest in the regime where levels are hardest to hold.  ARCH window
fits are stable (two parameters, positive per-observation curvature)
and the exact argmax is noticeably more powerful there, so ARCH keeps
``window_estimator="exact"``.  Either mode can be forced for any
family.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .critical_values import CriticalTable
from .likelihood import loglik
from .models import (
    DomainError,
    ModelFamily,
    ModelSpec,
    ScanError,
    ScanWindow,
    SeriesSegment,
    ShapeError,
    default_window,
    in_domain,
    in_domain_rows,
)
from .qmle import EstimateResult, OptimOptions, estimate, estimate_windows

if TYPE_CHECKING:
    from pathlib import Path

    from numpy.typing import NDArray

__all__ = ["InfoMatrices", "ScanResult", "decide", "info_matrices", "scan", "sigma_hat"]

COND_MAX = 1e12

# Largest AR order handled by the cumulative-statistics fast path; the
# fourth-moment prefix tensor is O(p^4 n) memory.
_AR_FAST_MAX_ORDER = 4

_MISSING_FRACTION = 0.10


@dataclass(frozen=True)
class InfoMatrices:
    """Empirical information matrices of one sub-sample.

    ``g_hat`` averages outer products of the per-observation gradient
    rows, ``f_hat`` rescales the likelihood hessian; both are evaluated
    at the parameter the caller supplies and symmetrised.
    """

    g_hat: NDArray[np.float64]
    f_hat: NDArray[np.float64]
    cond_g: float
    g_invertible: bool


def info_matrices(
    spec: ModelSpec, segment: SeriesSegment, theta_hat: NDArray[np.float64]
) -> InfoMatrices:
    """Compute G and F on a segment at the given parameter."""
    ev = loglik(spec, theta_hat, segment, order=2, keep_per_t_grads=True)
    assert ev.per_t_grads is not None and ev.hessian is not None
    g = ev.per_t_grads.T @ ev.per_t_grads / segment.card
    g = (g + g.T) / 2.0
    f = (-2.0 / segment.card) * ev.hessian
    cond = float(np.linalg.cond(g))
    return InfoMatrices(
        g_hat=g,
        f_hat=f,
        cond_g=cond,
        g_invertible=bool(np.isfinite(cond) and cond <= COND_MAX),
    )


def _fgf(info: InfoMatrices) -> NDArray[np.float64] | None:
    """F G^(-1) F for one side, or None when G fails the condition test."""
    if not info.g_invertible:
        return None
    try:
        chol = np.linalg.cholesky(info.g_hat)
    except np.linalg.LinAlgError:
        return None
    # G = L L', so G^(-1) F is two triangular solves.
    out = info.f_hat @ np.linalg.solve(chol.T, np.linalg.solve(chol, info.f_hat))
    return (out + out.T) / 2.0


def _combine_sigma(
    n: int, k: int, left: InfoMatrices, right: InfoMatrices
) -> NDArray[np.float64]:
    d = left.g_hat.shape[0]
    sigma = np.zeros((d, d))
    fgf_l = _fgf(left)
    if fgf_l is not None:
        sigma += (k / n) * fgf_l
    fgf_r = _fgf(right)
    if fgf_r is not None:
        sigma += ((n - k) / n) * fgf_r
    return sigma


def sigma_hat(
    spec: ModelSpec,
    series: SeriesSegment,
    k: int,
    est_left: EstimateResult,
    est_right: EstimateResult,
    theta_eval: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """The weight matrix Sigma_k built from the two sub-sample averages.

    ``theta_eval`` fixes the parameter at which both sides' G and F are
    evaluated; ``scan`` passes the full-sample estimate (see the module
    docstring for why).  When it is None, each side is evaluated at its
    own fit, which is the textbook form of the definition.

    A side whose G fails the condition-number test contributes zero, so
    a degenerate half-sample (for example a constant prefix) leaves only
    the other side's term, scaled by its sample fraction.
    """
    if not 1 <= k < series.n:
        raise IndexError(f"k={k} must lie in [1, n-1] for n={series.n}")
    th_l = est_left.theta_hat if theta_eval is None else theta_eval
    th_r = est_right.theta_hat if theta_eval is None else theta_eval
    left = info_matrices(spec, SeriesSegment.prefix(series.data, k), th_l)
    right = info_matrices(spec, SeriesSegment.suffix(series.data, k), th_r)
    return _combine_sigma(series.n, k, left, right)


@dataclass(frozen=True)
class ScanResult:
    """Scan output: per-k statistics plus the decision summary.

    ``q1`` and ``q2`` align with ``ks``; missing entries are NaN.
    ``argmax_k`` is the smallest k attaining the overall maximum.
    """

    spec: ModelSpec
    window: ScanWindow
    ks: NDArray[np.int64]
    q1: NDArray[np.float64]
    q2: NDArray[np.float64]
    theta_full: NDArray[np.float64]
    q1_max: float
    q2_max: float
    q_max: float
    argmax_k: int
    alpha: float
    c_alpha: float
    reject: bool
    n_missing: int

    def save(self, path: str | Path) -> None:
        """Write the curve as plain text with the summary in the header.

        Values are printed with 17 significant digits, so reading the
        file back reproduces every q exactly (15 digits guaranteed).
        """
        buf = io.StringIO()
        buf.write(
            f"# n={self.window.n} d={self.spec.d} v_n={self.window.v_n}"
            f" alpha={self.alpha:.10g} C_alpha={self.c_alpha:.17g}\n"
        )
        buf.write(
            f"# Q1={self.q1_max:.17g} Q2={self.q2_max:.17g} Q={self.q_max:.17g}"
            f" argmax_k={self.argmax_k}"
            f" decision={'reject' if self.reject else 'fail_to_reject'}"
            f" n_missing={self.n_missing}\n"
        )
        theta = ",".join(f"{v:.17g}" for v in self.theta_full)
        buf.write(f"# theta_full={theta}\n")
        buf.write("# columns: k q1 q2\n")
        for k, a, b in zip(self.ks, self.q1, self.q2):
            buf.write(f"{k} {a:.17g} {b:.17g}\n")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())


def decide(q: float, d: int, alpha: float, table: CriticalTable) -> bool:
    """True (reject parameter constancy) iff q exceeds C(d, alpha)."""
    return bool(q > table.lookup(d, alpha))


def _finalize(
    spec: ModelSpec,
    window: ScanWindow,
    ks: NDArray[np.int64],
    q1: NDArray[np.float64],
    q2: NDArray[np.float64],
    theta_full: NDArray[np.float64],
    alpha: float,
    table: CriticalTable,
) -> ScanResult:
    n_missing = int(np.count_nonzero(~np.isfinite(q1) | ~np.isfinite(q2)))
    if n_missing > _MISSING_FRACTION * ks.size:
        raise ScanError(
            f"estimation failed at {n_missing} of {ks.size} candidate points"
        )
    q1_max = float(np.nanmax(q1))
    q2_max = float(np.nanmax(q2))
    q_max = max(q1_max, q2_max)
    combined = np.fmax(q1, q2)
    argmax_k = int(ks[int(np.nanargmax(combined))])
    c_alpha = table.lookup(spec.d, alpha)
    return ScanResult(
        spec=spec,
        window=window,
        ks=ks,
        q1=q1,
        q2=q2,
        theta_full=theta_full,
        q1_max=q1_max,
        q2_max=q2_max,
        q_max=q_max,
        argmax_k=argmax_k,
        alpha=alpha,
        c_alpha=c_alpha,
        reject=bool(q_max > c_alpha),
        n_missing=n_missing,
    )


def _estimate_with_retry(
    spec: ModelSpec,
    segment: SeriesSegment,
    init: NDArray[np.float64] | None,
    opts: OptimOptions | None,
) -> EstimateResult:
    """Warm-started estimate with a cold multi-start retry on failure."""
    res = estimate(spec, segment, init=init, opts=opts)
    if not res.converged and init is not None:
        cold = estimate(spec, segment, init=None, opts=opts)
        if cold.converged or cold.loglik_at_opt > res.loglik_at_opt:
            res = cold
    return res


def _scan_generic(
    spec: ModelSpec,
    series: SeriesSegment,
    window: ScanWindow,
    alpha: float,
    table: CriticalTable,
    opts: OptimOptions | None,
    estimator: str,
) -> ScanResult:
    ks = window.indices
    n = series.n
    data = series.data
    full = estimate(spec, series, opts=opts)
    theta_full = full.theta_hat

    # One full-sample derivative pass at theta_full yields every side's
    # G and F: the truncated recursions start at time 1 regardless of
    # the window, so per-observation terms of a prefix or suffix match
    # the full-sample terms and the averages are cumulative sums.
    ev = loglik(
        spec,
        theta_full,
        series,
        order=2,
        keep_per_t_grads=True,
        keep_per_t_hessians=True,
    )
    assert ev.per_t_grads is not None and ev.per_t_hessians is not None
    sg = np.cumsum(np.einsum("ti,tj->tij", ev.per_t_grads, ev.per_t_grads), axis=0)
    sh = np.cumsum(ev.per_t_hessians, axis=0)
    sh = (sh + np.swapaxes(sh, 1, 2)) / 2.0

    idx = ks - 1
    card_l = ks.astype(float)
    card_r = (n - ks).astype(float)
    g_l = sg[idx] / card_l[:, None, None]
    g_r = (sg[-1] - sg[idx]) / card_r[:, None, None]
    f_l = sh[idx] / card_l[:, None, None]
    f_r = (sh[-1] - sh[idx]) / card_r[:, None, None]
    fgf_l, _ = _batched_fgf(f_l, g_l)
    fgf_r, _ = _batched_fgf(f_r, g_r)
    sigma = (
        (card_l / n)[:, None, None] * fgf_l + (card_r / n)[:, None, None] * fgf_r
    )

    if estimator == "one_step":
        dl, ok_l, dr, ok_r = _one_step_deltas(
            ev.per_t_grads, sh[-1] / n, idx, card_l, card_r
        )
    else:
        theta_l, ok_l, theta_r, ok_r = _exact_window_estimates(
            spec, data, ks, theta_full, opts
        )
        dl = theta_l - theta_full
        dr = theta_r - theta_full

    q1 = (card_l**2 / n) * np.einsum("ki,kij,kj->k", dl, sigma, dl)
    q2 = (card_r**2 / n) * np.einsum("ki,kij,kj->k", dr, sigma, dr)
    bad = ~(ok_l & ok_r)
    q1[bad] = np.nan
    q2[bad] = np.nan
    return _finalize(spec, window, ks, q1, q2, theta_full, alpha, table)


def _exact_window_estimates(
    spec: ModelSpec,
    data: NDArray[np.float64],
    ks: NDArray[np.int64],
    theta_full: NDArray[np.float64],
    opts: OptimOptions | None,
) -> tuple[NDArray[np.float64], NDArray[np.bool_], NDArray[np.float64], NDArray[np.bool_]]:
    """Argmax estimates for every prefix T_k and suffix complement.

    Every window is climbed from the full-sample optimum rather than
    from the neighbouring window's optimum.  Short ARCH/GARCH windows
    have spurious high-persistence local maxima that can even beat the
    basin of the data-generating parameter on the window's own
    likelihood; a neighbour-chained warm start that wanders in stays
    captured for long stretches of k and inflates the scan statistic
    under the null.  Anchoring at the full-sample estimate keeps every
    window in the basin the test's limit theory tracks, and makes each
    window's result independent of scan order.

    Since no window depends on another, all of them are climbed in one
    batched projected-Newton pass (``estimate_windows``).  A window the
    batch leaves unconverged is refitted by the scalar optimizer,
    warm and then, if that fails too, cold (``_estimate_with_retry``).
    """
    nk = ks.size
    n = data.shape[0]
    starts = np.concatenate((np.ones(nk, dtype=np.int64), ks + 1))
    ends = np.concatenate((ks, np.full(nk, n, dtype=np.int64)))
    theta, ok = estimate_windows(spec, data, starts, ends, theta_full, opts)
    for r in np.flatnonzero(~ok):
        segment = SeriesSegment(data, int(starts[r]), int(ends[r]))
        res = _estimate_with_retry(spec, segment, theta_full, opts)
        theta[r] = res.theta_hat
        ok[r] = res.converged
    return theta[:nk], ok[:nk], theta[nk:], ok[nk:]


def _one_step_deltas(
    per_t_grads: NDArray[np.float64],
    f_full: NDArray[np.float64],
    idx: NDArray[np.int64],
    card_l: NDArray[np.float64],
    card_r: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.bool_], NDArray[np.float64], NDArray[np.bool_]]:
    """Fisher-scoring deltas th_side - th_full for every split.

    The step solves against the pooled full-sample curvature, so the
    whole path comes from one cumulative sum of per-observation scores
    (module docstring).
    """
    cond = np.linalg.cond(f_full)
    if not (np.isfinite(cond) and cond <= COND_MAX):
        raise ScanError(
            f"full-sample mean hessian is numerically singular (cond={cond:.3g})"
        )
    sgrad = np.cumsum(per_t_grads, axis=0)
    gbar_l = sgrad[idx] / card_l[:, None]
    gbar_r = (sgrad[-1] - sgrad[idx]) / card_r[:, None]
    dl = -np.linalg.solve(f_full, gbar_l[..., None])[..., 0]
    dr = -np.linalg.solve(f_full, gbar_r[..., None])[..., 0]
    ok_l = np.isfinite(dl).all(axis=1)
    ok_r = np.isfinite(dr).all(axis=1)
    return dl, ok_l, dr, ok_r


def _ar_prefix_stats(data: NDArray[np.float64], p: int):
    """Cumulative sufficient statistics for every prefix of the sample.

    Index [t-1] of each output covers observations 1..t.  Suffix values
    follow by subtracting from the final entry, since the truncated AR
    residuals do not depend on the window split.
    """
    n = data.shape[0]
    padded = np.concatenate((np.zeros(p), data))
    lags = np.stack([padded[p - j : p - j + n] for j in range(1, p + 1)], axis=1)
    x = data
    outer = np.einsum("ti,tj->tij", lags, lags)
    a = np.cumsum(outer, axis=0)
    b = np.cumsum(x[:, None] * lags, axis=0)
    m2 = np.cumsum(x[:, None, None] ** 2 * outer, axis=0)
    m3 = np.cumsum(x[:, None, None, None] * np.einsum("ti,tj,tl->tijl", lags, lags, lags), axis=0)
    m4 = np.cumsum(np.einsum("tij,tab->tijab", outer, np.einsum("ta,tb->tab", lags, lags)), axis=0)
    return a, b, m2, m3, m4


def _ar_g_hat(
    a: NDArray[np.float64],
    m2: NDArray[np.float64],
    m3: NDArray[np.float64],
    m4: NDArray[np.float64],
    theta: NDArray[np.float64],
    card: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Batched G for AR: (4/card) * sum (X_t - phi'lags)^2 lags lags'."""
    term2 = np.einsum("kijl,kl->kij", m3, theta)
    term3 = np.einsum("kijab,ka,kb->kij", m4, theta, theta)
    g = 4.0 * (m2 - 2.0 * term2 + term3) / card[:, None, None]
    return (g + np.swapaxes(g, 1, 2)) / 2.0


def _batched_fgf(
    f: NDArray[np.float64], g: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """F G^(-1) F and an invertibility mask for stacked matrices."""
    cond = np.linalg.cond(g)
    ok = np.isfinite(cond) & (cond <= COND_MAX)
    out = np.zeros_like(f)
    if np.any(ok):
        sol = np.linalg.solve(g[ok], f[ok])
        prod = f[ok] @ sol
        out[ok] = (prod + np.swapaxes(prod, 1, 2)) / 2.0
    return out, ok


def _scan_ar_fast(
    spec: ModelSpec,
    series: SeriesSegment,
    window: ScanWindow,
    alpha: float,
    table: CriticalTable,
    opts: OptimOptions | None,
) -> ScanResult:
    ks = window.indices
    n = series.n
    data = series.data
    p = spec.p
    lo, hi = spec.domain.as_arrays()
    c = 1.0 - spec.domain.margin

    a, b, m2, m3, m4 = _ar_prefix_stats(data, p)
    idx = ks - 1

    def solve_block(a_blk, b_blk, segments):
        """Constrained least squares per row, optimizer fallback when needed."""
        nk = a_blk.shape[0]
        theta = np.zeros((nk, p))
        ok = np.ones(nk, dtype=bool)
        with np.errstate(all="ignore"):
            cond = np.linalg.cond(a_blk)
        good = np.isfinite(cond) & (cond <= COND_MAX)
        if np.any(good):
            theta[good] = np.linalg.solve(a_blk[good], b_blk[good][..., None])[..., 0]
        if p == 1:
            # Concave parabola: the constrained optimum is the clamped vertex.
            lo1, hi1 = max(lo[0], -c), min(hi[0], c)
            theta[good] = np.clip(theta[good], lo1, hi1)
            fallback = ~good
        else:
            fallback = ~(good & in_domain_rows(spec, theta))
        for r in np.flatnonzero(fallback):
            res = estimate(spec, segments(r), opts=opts)
            theta[r] = res.theta_hat
            ok[r] = res.converged
        return theta, ok

    a_l, b_l = a[idx], b[idx]
    a_r, b_r = a[-1] - a[idx], b[-1] - b[idx]
    theta_l, ok_l = solve_block(
        a_l, b_l, lambda r: SeriesSegment.prefix(data, int(ks[r]))
    )
    theta_r, ok_r = solve_block(
        a_r, b_r, lambda r: SeriesSegment.suffix(data, int(ks[r]))
    )

    cond_full = float(np.linalg.cond(a[-1]))
    if np.isfinite(cond_full) and cond_full <= COND_MAX:
        theta_full = np.linalg.solve(a[-1], b[-1])
        if p == 1:
            theta_full = np.clip(theta_full, max(lo[0], -c), min(hi[0], c))
        elif not in_domain(spec, theta_full):
            theta_full = estimate(spec, series, opts=opts).theta_hat
    else:
        theta_full = estimate(spec, series, opts=opts).theta_hat

    card_l = ks.astype(float)
    card_r = (n - ks).astype(float)
    f_l = 2.0 * a_l / card_l[:, None, None]
    f_r = 2.0 * a_r / card_r[:, None, None]
    # Residuals inside G use the full-sample fit on both sides, matching
    # the generic path's evaluation point (module docstring).
    th_eval = np.broadcast_to(theta_full, theta_l.shape)
    g_l = _ar_g_hat(a_l, m2[idx], m3[idx], m4[idx], th_eval, card_l)
    g_r = _ar_g_hat(
        a_r, m2[-1] - m2[idx], m3[-1] - m3[idx], m4[-1] - m4[idx], th_eval, card_r
    )
    fgf_l, _ = _batched_fgf(f_l, g_l)
    fgf_r, _ = _batched_fgf(f_r, g_r)
    sigma = (card_l / n)[:, None, None] * fgf_l + (card_r / n)[:, None, None] * fgf_r

    dl = theta_l - theta_full
    dr = theta_r - theta_full
    q1 = (card_l**2 / n) * np.einsum("ki,kij,kj->k", dl, sigma, dl)
    q2 = (card_r**2 / n) * np.einsum("ki,kij,kj->k", dr, sigma, dr)
    bad = ~(ok_l & ok_r)
    q1[bad] = np.nan
    q2[bad] = np.nan
    return _finalize(spec, window, ks, q1, q2, theta_full, alpha, table)


def scan(
    spec: ModelSpec,
    series: SeriesSegment,
    window: ScanWindow | None = None,
    alpha: float = 0.05,
    table: CriticalTable | None = None,
    opts: OptimOptions | None = None,
    window_estimator: str | None = None,
) -> ScanResult:
    """Run the change-point scan over the whole series.

    Parameters
    ----------
    series
        The full sample (a SeriesSegment covering index 1 through n).
    window
        Candidate set; defaults to the family's window policy.
    table
        Critical values; defaults to the built-in table.
    window_estimator
        How each sub-sample's parameter is estimated: ``"exact"``
        maximizes the window's own quasi-likelihood, ``"one_step"``
        takes a single Fisher-scoring step from the full-sample fit
        (see the module docstring for why).  None picks the family
        default: exact for ARCH, one_step for AR and GARCH.

    Raises
    ------
    ScanError
        If estimation fails on more than 10% of the candidate set, or
        the fits or the linear algebra break down numerically (for
        example on values near 1e150, whose squares overflow).
    CalibrationRequiredError
        If the table lacks an entry for (d, alpha).
    """
    if series.start != 1 or series.end != series.n:
        raise ShapeError("scan expects the full series, not a sub-window")
    window = window or default_window(spec, series.n)
    if window.n != series.n:
        raise ShapeError(
            f"window built for n={window.n} but the series has n={series.n}"
        )
    if window_estimator is None:
        window_estimator = (
            "exact" if spec.family is ModelFamily.ARCH else "one_step"
        )
    if window_estimator not in ("exact", "one_step"):
        raise ValueError(
            f"window_estimator must be 'exact' or 'one_step', got"
            f" {window_estimator!r}"
        )
    table = table or CriticalTable.builtin()
    # Fail early if the table cannot cover the decision.
    table.lookup(spec.d, alpha)
    try:
        if (
            window_estimator == "exact"
            and spec.family is ModelFamily.AR
            and spec.p <= _AR_FAST_MAX_ORDER
        ):
            return _scan_ar_fast(spec, series, window, alpha, table, opts)
        return _scan_generic(
            spec, series, window, alpha, table, opts, window_estimator
        )
    except (np.linalg.LinAlgError, DomainError) as exc:
        # Inputs were validated above, so these come from overflow or
        # loss of precision inside the fits and the linear algebra.
        raise ScanError(
            f"numerical breakdown in the scan ({type(exc).__name__}: {exc})"
        ) from exc
