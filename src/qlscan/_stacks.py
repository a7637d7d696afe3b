"""Small symmetric matrices in stacks: one screen for cond and PSD repair.

Invertibility uses a condition-number threshold (1e12) rather than a
determinant test, so scale changes in the data do not flip the
indicator.  The stacked G matrices and AR window hessians are screened
without an SVD: each is divided by its trace, which makes the screen
scale-free, and factored by a Cholesky pass vectorised over the stack.
For an SPD matrix of trace 1 the largest eigenvalue is at most 1 and
the smallest at least the determinant, so cond <= 1/det; a row whose
pivots are positive with det >= 100/1e12 passes, and its factor does
its solves.  Only the rows this bound cannot clear get
``np.linalg.cond``, which is the rule itself, so the mask is exactly
the condition-number test's.

Every stack of small matrices in this assembly is kept stack-last, as
(d, d, rows) with the prefixes then the suffixes along the last axis,
so each matrix entry is one contiguous vector and the screen, the
substitutions, Sigma and the quadratic forms are whole-vector
operations.  G and F are symmetric, so only their d(d+1)/2 distinct
entries are cumulated over t.  The rows the screen cannot clear are
handed to ``np.linalg.cond`` and ``np.linalg.solve`` as (rows, d, d).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import NDArray

COND_MAX = 1e12
_SCREEN_MARGIN = 100.0
# Relative floor of the repaired eigenvalues (``_psd_repair``).
_EIGEN_FLOOR = 1e-8


def _invertible(cond: NDArray[np.float64] | float) -> NDArray[np.bool_] | bool:
    """The invertibility test: a finite condition number of at most COND_MAX."""
    return np.isfinite(cond) & (cond <= COND_MAX)


def _dot(
    a: NDArray[np.float64], b: NDArray[np.float64]
) -> NDArray[np.float64] | float:
    """sum_r a[r] * b[r] over the leading axis, added in order; 0 if empty."""
    if not len(a):
        return 0.0
    out = a[0] * b[0]
    for r in range(1, len(a)):
        out += a[r] * b[r]
    return out


def _rows_first(a: NDArray[np.float64], rows: NDArray[np.bool_]) -> NDArray[np.float64]:
    """The selected matrices of a stack-last (d, d', R) stack as (r, d, d')."""
    return np.ascontiguousarray(np.moveaxis(a[..., rows], -1, 0))


def _batched_fgf(
    f: NDArray[np.float64], g: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """F G^(-1) F and the invertibility mask for stack-last (d, d, R) matrices.

    On rows the Cholesky screen clears, G = tr L L' with L the factor of
    G / tr, so F G^(-1) F = M' M with M = L^(-1) F / sqrt(tr): one
    forward substitution, symmetric by construction, and no product
    below or above the scale of the result.  Rows only the SVD fallback
    passes keep the LU solve; failing rows are zero.
    """
    chol, scale, cleared, ok = _cholesky_rows(g)
    out = np.empty_like(f)
    # Every row is substituted; rows the screen did not clear are
    # overwritten below, so their overflow or NaN is never seen.
    with np.errstate(all="ignore"):
        m = _forward_substitute(chol, f / np.sqrt(scale))
        for i in range(g.shape[0]):
            out[i, i:] = _dot(m[:, i, None], m[:, i:])
            out[i + 1 :, i] = out[i, i + 1 :]
    out[..., ~cleared] = 0.0
    rest = ok & ~cleared
    if np.any(rest):
        f_rest = _rows_first(f, rest)
        prod = f_rest @ np.linalg.solve(_rows_first(g, rest), f_rest)
        out[..., rest] = np.moveaxis((prod + np.swapaxes(prod, 1, 2)) / 2.0, 0, -1)
    return out, ok


def _solve_rows(
    m: NDArray[np.float64], rhs: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """m^(-1) rhs for stack-last symmetric m (d, d, R) and rhs (d, c, R),
    and the invertibility mask.

    Rows the Cholesky screen clears take a forward and a back
    substitution with their factor; rows only the SVD fallback passes
    keep the LU solve; failing rows are zero.
    """
    chol, scale, cleared, ok = _cholesky_rows(m)
    with np.errstate(all="ignore"):
        out = _back_substitute(chol, _forward_substitute(chol, rhs.copy())) / scale
    out[..., ~cleared] = 0.0
    rest = ok & ~cleared
    if np.any(rest):
        x = np.linalg.solve(_rows_first(m, rest), _rows_first(rhs, rest))
        out[..., rest] = np.moveaxis(x, 0, -1)
    return out, ok


def _cholesky_rows(
    m: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.bool_], NDArray[np.bool_]]:
    """Invertibility of a stack-last (d, d, R) stack of symmetric matrices,
    with Cholesky factors: (chol, scale, cleared, ok).

    ``ok`` equals ``_invertible(np.linalg.cond(m))`` row for row.  Rows
    whose ``_factor`` pivots are positive with product at least
    _SCREEN_MARGIN / COND_MAX are ``cleared``, by a margin far wider than
    the rounding of the factor or of the SVD; only the others
    (rank-deficient, near the threshold, indefinite, zero or non-finite)
    get ``np.linalg.cond``.  ``chol`` holds meaning only on cleared rows.
    """
    chol, scale, pos, det = _factor(m)
    cleared = pos & (det >= _SCREEN_MARGIN / COND_MAX)
    ok = cleared.copy()
    rest = ~cleared
    if np.any(rest):
        ok[rest] = _invertible(np.linalg.cond(_rows_first(m, rest)))
    return chol, scale, cleared, ok


def _factor(
    m: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.bool_], NDArray[np.float64]]:
    """(chol, scale, pos, det) of a stack-last (d, d, R) stack: the Cholesky
    factors of m / scale, with scale the traces, pos whether the trace and
    every pivot are positive (never on a non-finite row), det of m / scale."""
    d, _, rows = m.shape
    det = np.ones(rows)
    with np.errstate(all="ignore"):
        scale = np.trace(m)
        pos = scale > 0.0
        # Factored in place, column by column; the strict upper triangle
        # keeps m / scale and is never read.
        chol = m / scale
        for j in range(d):
            lj = chol[j, :j]
            piv = chol[j, j] - _dot(lj, lj)
            pos &= piv > 0.0
            det *= piv
            root = np.sqrt(piv)
            chol[j, j] = root
            chol[j + 1 :, j] -= _dot(np.swapaxes(chol[j + 1 :, :j], 0, 1), lj[:, None])
            chol[j + 1 :, j] /= root
    return chol, scale, pos, det


def _forward_substitute(
    chol: NDArray[np.float64], x: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Overwrite x (d, c, R) with L^(-1) x for stack-last lower-triangular L."""
    for i in range(chol.shape[0]):
        x[i] -= _dot(chol[i, :i, None], x[:i])
        x[i] /= chol[i, i]
    return x


def _back_substitute(
    chol: NDArray[np.float64], x: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Overwrite x (d, c, R) with L'^(-1) x for stack-last lower-triangular L."""
    for i in reversed(range(chol.shape[0])):
        x[i] -= _dot(chol[i + 1 :, i, None], x[i + 1 :])
        x[i] /= chol[i, i]
    return x


def _psd_repair(hess: NDArray[np.float64]) -> NDArray[np.float64]:
    """Positive-definite repair of a symmetric matrix or a rows-first stack.

    Eigenvalues are replaced by their absolute value, floored at
    ``_EIGEN_FLOOR`` * max(1, largest |eigenvalue|), so saddle curvature
    repels instead of producing a huge ill-scaled step.  A matrix whose
    eigenvalues all lie at or above that floor is its own repair, so a
    matrix that ``_repair_screen`` proves to be one is returned as it
    is; only the others go through ``eigh``.
    """
    stack = hess.reshape((-1,) + hess.shape[-2:])
    repair = ~_repair_screen(stack)
    if not np.any(repair):
        return hess
    evals, evecs = np.linalg.eigh(stack[repair])
    floor = _EIGEN_FLOOR * np.maximum(1.0, np.max(np.abs(evals), axis=-1, keepdims=True))
    evals = np.maximum(np.abs(evals), floor)
    out = stack.copy()
    out[repair] = (evecs * evals[..., None, :]) @ np.swapaxes(evecs, -1, -2)
    return out.reshape(hess.shape)


def _repair_screen(stack: NDArray[np.float64]) -> NDArray[np.bool_]:
    """Whether each H of a rows-first (R, m, m) stack provably has every
    eigenvalue at or above the repair's floor: with positive pivots they
    lie in [det * tr, tr]."""
    _, scale, pos, det = _factor(np.moveaxis(stack, 0, -1))
    with np.errstate(all="ignore"):
        return pos & (det * scale >= _EIGEN_FLOOR * np.maximum(1.0, scale))
