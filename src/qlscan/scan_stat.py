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

The condition tests and stacked solves use ``_stacks``'s screen.  The
cumulative sums over t are taken once; everything after them works on
one block of splits at a time, and every step is elementwise along the
split axis, so the blocks change no result and the scan's memory is a
few cumulative sums of length n plus one block's stacks.

A sub-sample whose estimation fails marks that k missing; missing k are
excluded from the maxima, and a scan with more than 10% of Pi_n missing
raises ScanError rather than returning a maximum over too thin a grid.

Every scan runs one pipeline: the full-sample fit, one derivative pass
at th_full and its cumulative sums, then, one block of splits at a
time, the side deltas, Sigma and the quadratic forms.  Only the side
deltas depend on the window estimator, and both estimators read them
off the pass's cumulative sums.
In exact mode every prefix T_k and every complement is climbed from
th_full, so no window depends on its neighbours.  A block's windows are
climbed together in one batched projected-Newton climb over a stack of
parameter rows (``qmle.estimate_windows``), the fit a warm
``estimate`` call makes on its one window.  The climb starts from data
the scan already has: the block's window sums of the derivative pass's
q_t, scores and hessian entries give every window's likelihood,
gradient and hessian at th_full, so no window is evaluated at its
start.  Each window is evaluated only over its own class, its end
rounded up to a multiple of 128 observations and, for AR and ARCH, its
start rounded down to the first observation of its block of 128
(``likelihood.loglik_rows``).  The windows the climb leaves
unconverged get the cold multi-start in one more climb of the same
call, whose rows are (start x window).  A climbed window's bits depend
only on its own window and start, so the blocks change no result, and
no array of window estimates spans the scan.  For AR models the
quasi-likelihood is exactly quadratic, so one Newton step from th_full
on a window's sums of the pass's scores and hessian entries lands on
the window's least-squares optimum, at any order; every AR window of a
block takes that step first, on the hessian sums that also give the
block's F.  Only the windows whose hessian sum is ill-conditioned or
whose step leaves the domain go through the climb; the
quasi-likelihood is concave, so that warm climb reaches the same
optimum as a cold one, and a test checks the steps against per-window
optimizer fits.

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

    th_side = th_full - Fbar^(-1) (gbar_side - gbar_full),

where gbar_side is the side's mean per-observation gradient at th_full,
gbar_full the full-sample one, and Fbar is the full-sample mean hessian
(the pooled curvature; a side's own small-window hessian can be
near-singular and makes the step explode).  Centring the side means is
the centred-score CUSUM form of Berkes, Horvath & Kokoszka (2004).  At
an interior optimum gbar_full is zero up to the optimizer's tolerance,
but at a fit on the domain boundary it is not, and uncentred side means
would carry that offset into every split, scaled by k^2/n: 300 ones
under AR(1) fit phi on its bound and gave Q = 240 and a rejection.
One-step estimators from a root-n-consistent start share the argmax
estimator's first-order asymptotics, so the statistic keeps its limit
law, and q becomes a smooth functional of cumulative score sums:
simulated levels drop to 0.04 under the same design.

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

from ._stacks import _batched_fgf, _cholesky_rows, _solve_rows
from .critical_values import CriticalTable
from .likelihood import _distinct_entries, loglik
from .models import (
    DomainError,
    ModelFamily,
    ModelSpec,
    ScanError,
    ScanWindow,
    SeriesSegment,
    ShapeError,
    SizingError,
    ar1_interval,
    default_window,
    in_domain_rows,
)
from .qmle import estimate, estimate_windows

if TYPE_CHECKING:
    from collections.abc import Iterator
    from pathlib import Path

    from numpy.typing import NDArray

__all__ = ["ScanResult", "decide", "scan"]

_MISSING_FRACTION = 0.10

# Splits per block of the Sigma/q assembly.  At d = 3 a (d, d, 2 * block)
# stack holds 9 * 2^12 values, about 2^15 like ``likelihood._CHUNK_VALUES``,
# so a block's stacks stay in a core's L2 cache.
_BLOCK_SPLITS = 2**11


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
    estimator: str,
) -> ScanResult:
    """One scan, in stages.

    The full fit; one derivative pass at theta_full, with the cumulative
    sums over t of everything the scan reads from it
    (``_derivative_pass``); the condition test of the full-sample mean
    hessian (``_pooled_curvature``), which raises ScanError in either
    mode.  Then one loop over blocks of at most ``_BLOCK_SPLITS``
    splits: each block's prefix and suffix sums; its side deltas
    (``_one_step_deltas`` on the block's score sums, or
    ``_exact_deltas``, which also reads its value and hessian sums); G
    and F, Sigma and the quadratic forms, written into the preallocated
    q1 and q2.  A window's exact fit depends only on its own window and
    start, and every other step of the loop is elementwise along the
    split axis, so the block size changes no bit of the result; it only
    bounds the loop's stacks to (d, d, 2 * block) and an exact climb to
    the block's 2 * block windows.
    """
    ks = window.indices
    n = series.n
    nk = ks.size
    full = estimate(spec, series)
    theta_full = full.theta_hat
    sums = _derivative_pass(spec, series, theta_full)
    pos = _distinct_entries(spec.d)[2]
    # Either estimator needs an invertible full-sample curvature.
    f_full = _pooled_curvature(sums.hessian[-1][pos] / n)
    score_mean = sums.scores[-1] / n

    q1 = np.empty(nk)
    q2 = np.empty(nk)
    for sl in _split_blocks(nk):
        k = ks[sl]
        idx = k - 1
        cards = np.concatenate((k, n - k)).astype(float)
        left, right = cards[: k.size], cards[k.size :]
        hessian = _window_sums(sums.hessian, idx)
        scores = _window_sums(sums.scores, idx)
        if estimator == "one_step":
            delta, ok = _one_step_deltas(scores, f_full, score_mean, cards)
        else:
            delta, ok = _exact_deltas(spec, series.data, k, theta_full,
                                      _window_sums(sums.values[:, None], idx)[0],
                                      scores, hessian)
        f = (hessian / cards)[pos]
        # Freed before Sigma's stacks are built, so one-step peaks do not rise.
        del hessian, scores
        g = (_window_sums(sums.outer, idx) / cards)[pos]
        fgf, _ = _batched_fgf(f, g)
        sigma = (left / n) * fgf[..., : k.size] + (right / n) * fgf[..., k.size :]
        q1[sl] = (left**2 / n) * _quadratic_form(delta[:, : k.size], sigma)
        q2[sl] = (right**2 / n) * _quadratic_form(delta[:, k.size :], sigma)
        bad = ~(ok[: k.size] & ok[k.size :])
        q1[sl][bad] = np.nan
        q2[sl][bad] = np.nan
    return _finalize(spec, window, ks, q1, q2, theta_full, alpha, table)


@dataclass(frozen=True)
class _PassSums:
    """The derivative pass at theta_full, as cumulative sums over t.

    ``hessian`` and ``outer`` (n, m) hold those of the m = d(d+1)/2
    distinct entries of d2q_t and of the score outer product dq_t dq_t',
    in ``likelihood._distinct_entries`` order, as ``loglik`` returns the
    former; ``scores`` (n, d) and ``values`` (n,) those of dq_t and q_t.
    A window's sums are differences of them (``_window_sums``).
    """

    hessian: NDArray[np.float64]
    outer: NDArray[np.float64]
    scores: NDArray[np.float64]
    values: NDArray[np.float64]


def _derivative_pass(
    spec: ModelSpec, series: SeriesSegment, theta_full: NDArray[np.float64]
) -> _PassSums:
    """One full-sample derivative pass at theta_full.

    The truncated recursions start at time 1 regardless of the window,
    so per-observation terms of a prefix or suffix match the
    full-sample terms, and every side's G, F, mean score and likelihood
    are differences of cumulative sums.  Only the per-observation
    arrays are read, so ``loglik`` is asked for order 0 and skips the
    derivative sums.  It returns only the distinct entries of the
    symmetric per-observation hessians, and every cumulative sum is
    taken in place over its per-observation array.
    """
    ev = loglik(spec, theta_full, series, order=0, keep_per_t=True)
    assert ev.per_t_hessians is not None
    grads, values = ev.per_t_grads, ev.per_t_values
    hessian = _cumulative_sums(ev.per_t_hessians)
    iu, ju, _ = _distinct_entries(spec.d)
    outer = _cumulative_sums(_products(grads, iu, ju))
    return _PassSums(hessian=hessian, outer=outer, scores=_cumulative_sums(grads),
                     values=_cumulative_sums(values))


def _split_blocks(nk: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_BLOCK_SPLITS`` splits covering 0..nk-1."""
    step = _BLOCK_SPLITS
    return (slice(i, min(i + step, nk)) for i in range(0, nk, step))


def _exact_deltas(
    spec: ModelSpec,
    data: NDArray[np.float64],
    k: NDArray[np.int64],
    theta_full: NDArray[np.float64],
    values: NDArray[np.float64],
    scores: NDArray[np.float64],
    hessian: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Argmax deltas th_side - th_full for a block of splits ``k``.

    Every window is climbed from the full-sample optimum rather than
    from the neighbouring window's optimum.  Short ARCH/GARCH windows
    have spurious high-persistence local maxima that can even beat the
    basin of the data-generating parameter on the window's own
    likelihood; a neighbour-chained warm start that wanders in stays
    captured for long stretches of k and inflates the scan statistic
    under the null.  Anchoring at the full-sample estimate chains no
    neighbour, and makes each window's result independent of scan order
    and of the block.  It does not keep every window in the basin the
    test's limit theory tracks: short windows still reach the domain
    boundary or a high-persistence basin from theta_full (7 of the 10
    rejections in 60 exact GARCH(1,1) level replications at n = 1500
    came from such a side fit).

    ``values`` (2 |k|,), ``scores`` (d, 2 |k|) and ``hessian``
    (m, 2 |k|) are the block's window sums of the derivative pass's q_t,
    scores and distinct hessian entries at theta_full
    (``_window_sums``).  Since no window depends on another, the block's
    windows are climbed in one batched projected-Newton climb, warm
    from theta_full and then cold on the windows it leaves unconverged
    (``estimate_windows``), seeded with each window's likelihood,
    gradient and hessian at theta_full, -1/2 times those sums.  AR
    windows first take one Newton step on the same sums
    (``_ar_window_steps``), and only the windows it leaves unsettled
    enter the climb: the AR quasi-likelihood is concave, so a warm
    climb from theta_full reaches the same optimum as a cold one.
    Returns the deltas (d, 2 |k|) and the converged mask (2 |k|,),
    prefixes then suffixes, the layout of ``_one_step_deltas``.
    """
    nk = k.size
    n = data.shape[0]
    if spec.family is ModelFamily.AR:
        theta, ok = _ar_window_steps(spec, theta_full, hessian, scores)
    else:
        theta, ok = np.empty((2 * nk, spec.d)), np.zeros(2 * nk, dtype=bool)
    starts = np.concatenate((np.ones(nk, dtype=np.int64), k + 1))
    ends = np.concatenate((k, np.full(nk, n, dtype=np.int64)))
    rows = np.flatnonzero(~ok)
    if rows.size:
        seeds = (-0.5 * values[rows], -0.5 * scores[:, rows].T,
                 -0.5 * hessian[:, rows].T[:, _distinct_entries(spec.d)[2]])
        fits = estimate_windows(spec, data, starts[rows], ends[rows], theta_full, seeds)
        theta[rows], ok[rows] = fits.theta, fits.converged
    return (theta - theta_full).T, ok


def _ar_window_steps(
    spec: ModelSpec,
    theta_full: NDArray[np.float64],
    hessian: NDArray[np.float64],
    scores: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Exact AR estimates for a stack of windows.

    ``hessian`` (m, W) and ``scores`` (p, W) are the windows' sums of
    the pass's distinct hessian entries and scores at theta_full
    (``_window_sums``).  q_t is a squared residual, so they are H = 2A
    and g = -2 (b - A theta_full), with A and b the window's sums of
    lags lags' and X_t lags.  One Newton step theta_full - H^(-1) g is
    therefore the window's least-squares solution A^(-1) b, its interior
    optimum, solved by ``_solve_rows``.  Returns (theta (W, p), settled
    mask (W,)).
    For p = 1 the constrained optimum is the vertex clamped into the
    interval; for p > 1 a solution outside the domain is not the
    constrained optimum, so that row, like any whose H fails the
    condition test, comes back unsettled for the optimizer.
    """
    step, settled = _solve_rows(hessian[_distinct_entries(spec.p)[2]], scores[:, None])
    theta = theta_full - step[:, 0].T
    if spec.p == 1:
        theta = np.clip(theta, *ar1_interval(spec))
    else:
        settled &= in_domain_rows(spec, theta)
    return theta, settled


def _pooled_curvature(f_full: NDArray[np.float64]) -> NDArray[np.float64]:
    """The full-sample mean hessian, or ScanError if it fails the condition test."""
    if not _cholesky_rows(f_full[..., None])[3][0]:
        raise ScanError("full-sample mean hessian is numerically singular"
                        f" (cond={np.linalg.cond(f_full):.3g})")
    return f_full


def _one_step_deltas(
    scores: NDArray[np.float64],
    f_full: NDArray[np.float64],
    score_mean: NDArray[np.float64],
    cards: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Fisher-scoring deltas th_side - th_full for a block of splits.

    ``scores`` (d, W) holds the windows' sums of the per-observation
    scores (``_window_sums``), ``score_mean`` (d,) the full-sample mean
    score and ``cards`` the window sizes, prefixes then suffixes; the
    deltas come back as (d, W), with their finiteness mask (W,), in
    that order.  Each side's mean score is centred by the full-sample
    mean score, and the step solves against the pooled full-sample
    curvature ``f_full``, so the whole path comes from one cumulative
    sum of per-observation scores (module docstring).
    """
    gbar = scores / cards - score_mean[:, None]
    deltas = -_solve_rows(f_full[..., None], gbar[..., None])[0][..., 0]
    return deltas, np.isfinite(deltas).all(axis=0)


def _cumulative_sums(values: NDArray[np.float64]) -> NDArray[np.float64]:
    """Overwrite ``values`` (n, ...) with its sequential cumulative sums over t."""
    return np.cumsum(values, axis=0, out=values)


def _products(
    x: NDArray[np.float64], iu: NDArray[np.intp], ju: NDArray[np.intp]
) -> NDArray[np.float64]:
    """(n, m) products x[:, iu[e]] * x[:, ju[e]] of the columns of x (n, d),
    written column by column so that no gathered (n, m) copy is made."""
    out = np.empty((x.shape[0], iu.size))
    for e, (i, j) in enumerate(zip(iu, ju)):
        np.multiply(x[:, i], x[:, j], out=out[:, e])
    return out


def _window_sums(
    cum: NDArray[np.float64], idx: NDArray[np.int64]
) -> NDArray[np.float64]:
    """Window sums from the cumulative sums ``cum`` (n, m) of m rows over t.

    The sums run over every prefix {1..idx+1}, then every complement,
    stack-last as (m, 2 |idx|); a suffix is the total minus a prefix.
    """
    head = cum[idx].T
    out = np.empty((cum.shape[1], 2 * idx.size))
    out[:, : idx.size] = head
    np.subtract(cum[-1][:, None], head, out=out[:, idx.size :])
    return out


def _quadratic_form(
    v: NDArray[np.float64], m: NDArray[np.float64]
) -> NDArray[np.float64]:
    """v' m v for every column of v (d, rows) and stack-last m (d, d, rows).

    The d^2 terms are added in row-major order.
    """
    d = v.shape[0]
    return sum((v[i] * m[i, j]) * v[j] for i in range(d) for j in range(d))


def scan(
    spec: ModelSpec,
    series: SeriesSegment,
    window: ScanWindow | None = None,
    alpha: float = 0.05,
    table: CriticalTable | None = None,
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

    Every fit, of the full sample and of the windows, runs ``qmle``'s
    fixed optimizer policy: five cold starts (the domain centre alone
    for AR), at most 200 iterations, and a stop once the
    projected-gradient norm is at most 1e-8 * Card(T).

    Raises
    ------
    ScanError
        If estimation fails on more than 10% of the candidate set, or
        the fits or the linear algebra break down numerically (for
        example on values near 1e150, whose squares overflow).
    SizingError
        If the window floor v_n is below d + 1, so that the shortest
        side cannot identify the d parameters.
    ValueError
        If alpha lies outside (0, 1].
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
    if window.v_n < spec.d + 1:
        raise SizingError(
            f"v_n={window.v_n} is below d + 1 = {spec.d + 1}: each side must"
            f" hold at least d + 1 observations"
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
        return _scan_pipeline(spec, series, window, alpha, table, window_estimator)
    except (np.linalg.LinAlgError, DomainError) as exc:
        # Inputs were validated above, so these come from overflow or
        # loss of precision inside the fits and the linear algebra.
        raise ScanError(
            f"numerical breakdown in the scan ({type(exc).__name__}: {exc})"
        ) from exc
