"""Sigma_k at one split, one side at a time: the oracle for the scan's Sigma.

``scan_stat`` builds every split's weight matrix at once, from cumulative
sums of one full-sample derivative pass and stacked linear algebra.
This module builds it for a single k from first principles: one
``loglik`` pass per side, G from the gradient rows, F from the side's
per-observation hessians, the SVD condition test and a Cholesky solve.
Tests compare the scan's q1/q2 and the normalizer's limit against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qlscan import SeriesSegment, loglik
from qlscan._stacks import _invertible


@dataclass(frozen=True)
class InfoMatrices:
    """Empirical information matrices of one sub-sample.

    ``g_hat`` averages outer products of the per-observation gradient
    rows, ``f_hat`` averages the per-observation hessians; both are
    evaluated at the parameter the caller supplies and symmetric.
    """

    g_hat: np.ndarray
    f_hat: np.ndarray
    cond_g: float
    g_invertible: bool


def info_matrices(spec, segment, theta_hat):
    """Compute G and F on a segment at the given parameter."""
    ev = loglik(spec, theta_hat, segment, order=2, keep_per_t=True)
    g = ev.per_t_grads.T @ ev.per_t_grads / segment.card
    g = (g + g.T) / 2.0
    # F is the mean per-observation hessian, rebuilt from its distinct
    # entries (upper triangle, row-major).
    iu, ju = np.triu_indices(spec.d)
    f = np.empty((spec.d, spec.d))
    f[iu, ju] = f[ju, iu] = ev.per_t_hessians.sum(axis=0) / segment.card
    cond = float(np.linalg.cond(g))
    return InfoMatrices(
        g_hat=g,
        f_hat=f,
        cond_g=cond,
        g_invertible=bool(_invertible(cond)),
    )


def fgf(info):
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


def combine_sigma(n, k, left, right):
    """(k/n) F_L G_L^(-1) F_L + ((n-k)/n) F_R G_R^(-1) F_R, failing sides zero."""
    d = left.g_hat.shape[0]
    sigma = np.zeros((d, d))
    fgf_l = fgf(left)
    if fgf_l is not None:
        sigma += (k / n) * fgf_l
    fgf_r = fgf(right)
    if fgf_r is not None:
        sigma += ((n - k) / n) * fgf_r
    return sigma


def sigma_hat(spec, series, k, est_left, est_right, theta_eval=None):
    """The weight matrix Sigma_k built from the two sub-sample averages.

    ``theta_eval`` fixes the parameter at which both sides' G and F are
    evaluated; ``scan`` uses the full-sample estimate.  When it is None,
    each side is evaluated at its own fit, which is the textbook form of
    the definition.

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
    return combine_sigma(series.n, k, left, right)
