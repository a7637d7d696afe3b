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
indicator.  The stacked G and AR least-squares matrices are screened
without an SVD: each is divided by its trace, which makes the screen
scale-free, and factored by a Cholesky pass vectorised over the stack.
For an SPD matrix of trace 1 the largest eigenvalue is at most 1 and
the smallest at least the determinant, so cond <= 1/det; a row whose
pivots are positive with det >= 100/1e12 passes, and its factor does
its solves.  Only the rows this bound cannot clear get
``np.linalg.cond``, which is the rule itself, so the mask is exactly
the condition-number test's.

A sub-sample whose estimation fails marks that k missing; missing k are
excluded from the maxima, and a scan with more than 10% of Pi_n missing
raises ScanError rather than returning a maximum over too thin a grid.

Every scan runs one pipeline: the full-sample fit, one derivative pass
at th_full and its cumulative sums, the side deltas, then the
quadratic forms.  Only the side deltas depend on the window estimator.
In exact mode every prefix T_k and every complement is climbed from
th_full, so no window depends on its neighbours.  All windows are
climbed together in one batched projected-Newton pass over a stack of
parameter rows (``qmle.estimate_windows``), the ascent a warm
``estimate`` call runs on its one window; the windows that pass leaves
unconverged get the cold multi-start in one more batch, whose rows are
(start x window) (``qmle.retry_cold``).  For AR models the
quasi-likelihood is exactly quadratic, so window estimates are
constrained least squares, solved in closed form for every k at once
from cumulative sums of lags lags' and X_t lags, at any order.  Only
the windows whose least-squares system is ill-conditioned or whose
solution leaves the domain go through the batch; the quasi-likelihood
is concave, so that warm climb reaches the same optimum as a cold one,
and a test checks the closed form against per-window optimizer fits.

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
from .likelihood import _ar_lags, loglik
from .models import (
    DomainError,
    ModelFamily,
    ModelSpec,
    ScanError,
    ScanWindow,
    SeriesSegment,
    ShapeError,
    ar1_interval,
    default_window,
    in_domain_rows,
)
from .qmle import EstimateResult, OptimOptions, estimate, estimate_windows, retry_cold

if TYPE_CHECKING:
    from pathlib import Path

    from numpy.typing import NDArray

__all__ = ["InfoMatrices", "ScanResult", "decide", "info_matrices", "scan", "sigma_hat"]

COND_MAX = 1e12

_SCREEN_MARGIN = 100.0

_MISSING_FRACTION = 0.10


def _invertible(cond: NDArray[np.float64] | float) -> NDArray[np.bool_] | bool:
    """The invertibility test: a finite condition number of at most COND_MAX."""
    return np.isfinite(cond) & (cond <= COND_MAX)


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
        g_invertible=bool(_invertible(cond)),
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


def _scan_pipeline(
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
    batched projected-Newton pass (``estimate_windows``).  AR windows
    first take the closed form (``_ar_window_least_squares``), and only
    the rows it cannot settle enter the batch; the AR quasi-likelihood
    is concave, so a warm climb reaches the same optimum as a cold one.
    The windows the batch leaves unconverged are retried cold, all in
    one batch (``retry_cold``); each adopts its cold fit if that
    converged or has the higher log-likelihood.
    """
    nk = ks.size
    n = data.shape[0]
    starts = np.concatenate((np.ones(nk, dtype=np.int64), ks + 1))
    ends = np.concatenate((ks, np.full(nk, n, dtype=np.int64)))
    if spec.family is ModelFamily.AR:
        theta, ok = _ar_window_least_squares(spec, data, ks)
    else:
        theta, ok = np.empty((2 * nk, spec.d)), np.zeros(2 * nk, dtype=bool)
    rows = np.flatnonzero(~ok)
    theta[rows], ok[rows] = estimate_windows(
        spec, data, starts[rows], ends[rows], theta_full, opts
    )
    rows = rows[~ok[rows]]
    if rows.size:
        theta[rows], ok[rows] = retry_cold(
            spec, data, starts[rows], ends[rows], theta[rows], opts
        )
    return theta[:nk], ok[:nk], theta[nk:], ok[nk:]


def _ar_window_least_squares(
    spec: ModelSpec, data: NDArray[np.float64], ks: NDArray[np.int64]
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Closed-form AR estimates for every prefix T_k, then every suffix.

    The AR quasi-likelihood is -1/2 times a residual sum of squares, so
    a window's interior optimum solves the normal equations A theta = b
    with A and b the window's sums of lags lags' and X_t lags.  Those
    are differences of cumulative sums, since the truncated lags do not
    depend on the window.  Every system is solved at once by
    ``_solve_rows``: forward and back substitution with the Cholesky
    factor where the screen clears A, LU where only the SVD passes it.
    Returns (theta (2 |ks|, p), settled mask).
    For p = 1 the constrained optimum is the vertex clamped into the
    interval; for p > 1 a solution outside the domain is not the
    constrained optimum, so that row, like any whose system fails the
    condition test, comes back unsettled for the optimizer.
    """
    n = data.shape[0]
    p = spec.p
    lags = _ar_lags(data, p, n).T
    a = np.cumsum(np.einsum("ti,tj->tij", lags, lags), axis=0)
    b = np.cumsum(data[:, None] * lags, axis=0)
    idx = ks - 1
    a_w = np.concatenate((a[idx], a[-1] - a[idx]))
    b_w = np.concatenate((b[idx], b[-1] - b[idx]))
    theta, ok = _solve_rows(a_w, b_w[..., None])
    theta = theta[..., 0]
    if p == 1:
        return np.clip(theta, *ar1_interval(spec)), ok
    return theta, ok & in_domain_rows(spec, theta)


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
    if not _invertible(cond):
        raise ScanError(
            f"full-sample mean hessian is numerically singular (cond={cond:.3g})"
        )
    sgrad = np.cumsum(per_t_grads, axis=0)
    gbar_l = sgrad[idx] / card_l[:, None]
    gbar_r = (sgrad[-1] - sgrad[idx]) / card_r[:, None]
    steps = -np.linalg.solve(f_full, np.concatenate((gbar_l, gbar_r)).T).T
    dl, dr = steps[: idx.size], steps[idx.size :]
    ok_l = np.isfinite(dl).all(axis=1)
    ok_r = np.isfinite(dr).all(axis=1)
    return dl, ok_l, dr, ok_r


def _batched_fgf(
    f: NDArray[np.float64], g: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """F G^(-1) F and the invertibility mask for stacked matrices.

    On rows the Cholesky screen clears, G = tr L L' with L the factor of
    G / tr, so F G^(-1) F = M' M with M = L^(-1) F / sqrt(tr): one
    forward substitution, symmetric by construction, and no product
    below or above the scale of the result.  Rows only the SVD fallback
    passes keep the LU solve; failing rows are zero.
    """
    chol, scale, cleared, ok = _cholesky_rows(g)
    out = np.zeros_like(f)
    m = _forward_substitute(chol, f[cleared] / np.sqrt(scale)[:, None, None])
    out[cleared] = np.einsum("kji,kjl->kil", m, m)
    rest = ok & ~cleared
    if np.any(rest):
        prod = f[rest] @ np.linalg.solve(g[rest], f[rest])
        out[rest] = (prod + np.swapaxes(prod, 1, 2)) / 2.0
    return out, ok


def _solve_rows(
    m: NDArray[np.float64], rhs: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """m^(-1) rhs for stacked symmetric m, and the invertibility mask.

    Rows the Cholesky screen clears take a forward and a back
    substitution with their factor; rows only the SVD fallback passes
    keep the LU solve; failing rows are zero.
    """
    chol, scale, cleared, ok = _cholesky_rows(m)
    out = np.zeros_like(rhs)
    x = _back_substitute(chol, _forward_substitute(chol, rhs[cleared]))
    out[cleared] = x / scale[:, None, None]
    rest = ok & ~cleared
    if np.any(rest):
        out[rest] = np.linalg.solve(m[rest], rhs[rest])
    return out, ok


def _cholesky_rows(
    m: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.bool_], NDArray[np.bool_]]:
    """Invertibility of a stack of symmetric matrices, with Cholesky factors.

    Returns (chol, scale, cleared, ok).  ``ok`` equals
    ``_invertible(np.linalg.cond(m))`` row for row, but the SVD runs only
    on rows a cheaper bound cannot clear.  Each row is divided by its
    trace ``scale``, which makes the test scale-free; for an SPD matrix
    of trace 1 every eigenvalue is at most 1, so the smallest is at
    least the determinant and cond <= 1/det.  A row whose Cholesky
    pivots are all positive, with product at least _SCREEN_MARGIN /
    COND_MAX, is ``cleared``: its cond is below the threshold by a
    margin far wider than the rounding of the factor or of the SVD.
    The other rows (rank-deficient, near the threshold, indefinite,
    zero or non-finite) get ``np.linalg.cond``.  ``chol`` and ``scale``
    cover the cleared rows only, in order; the lower triangle of each
    ``chol`` row is the factor of that row's m / scale.
    """
    rows, d, _ = m.shape
    det = np.ones(rows)
    with np.errstate(all="ignore"):
        scale = np.trace(m, axis1=1, axis2=2)
        pos = scale > 0.0
        # Factored in place, column by column; the strict upper triangle
        # keeps m / scale and is never read.
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


def _forward_substitute(
    chol: NDArray[np.float64], x: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Overwrite x (rows, d, m) with L^(-1) x for stacked lower-triangular L."""
    for i in range(chol.shape[1]):
        x[:, i] -= np.einsum("kj,kjm->km", chol[:, i, :i], x[:, :i])
        x[:, i] /= chol[:, i, i, None]
    return x


def _back_substitute(
    chol: NDArray[np.float64], x: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Overwrite x (rows, d, m) with L'^(-1) x for stacked lower-triangular L."""
    for i in reversed(range(chol.shape[1])):
        x[:, i] -= np.einsum("kj,kjm->km", chol[:, i + 1 :, i], x[:, i + 1 :])
        x[:, i] /= chol[:, i, i, None]
    return x


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
        return _scan_pipeline(
            spec, series, window, alpha, table, opts, window_estimator
        )
    except (np.linalg.LinAlgError, DomainError) as exc:
        # Inputs were validated above, so these come from overflow or
        # loss of precision inside the fits and the linear algebra.
        raise ScanError(
            f"numerical breakdown in the scan ({type(exc).__name__}: {exc})"
        ) from exc
