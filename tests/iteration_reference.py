"""The always-full filter and the always-repair Newton step: references.

``likelihood._first_order_filter`` stops its doubling passes once no
later pass can change a bit, and ``_stacks._psd_repair`` (which
``qmle`` binds as ``qmle._psd_repair``) returns a matrix that the
Cholesky screen proves positive definite above the repair's floor
without an eigendecomposition.  This module keeps the versions they
replaced, which run every pass until the coefficient underflows and
repair every matrix through ``eigh``.  Tests compare the two.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from qlscan import qmle


def first_order_filter(x, beta):
    """y[0] = x[0], y[t] = beta * y[t-1] + x[t], every doubling pass
    until the largest coefficient underflows to zero."""
    if np.ndim(beta) == 0:
        coef = float(beta)
        top = abs(coef)
        y = x.copy()
    else:
        coef = np.asarray(beta, dtype=float)
        top = float(np.max(np.abs(coef)))
        y = np.array(np.broadcast_to(x, (coef.size, x.shape[-1])))
    y_t = y.T
    shift = 1
    while shift < y_t.shape[0] and top != 0.0:
        y_t[shift:] += coef * y_t[:-shift]
        shift *= 2
        coef = coef * coef
        top *= top
    return y


def psd_repair(hess):
    """Every matrix through ``eigh``: eigenvalues replaced by their
    absolute value, floored at 1e-8 * max(1, largest |eigenvalue|)."""
    evals, evecs = np.linalg.eigh(hess)
    floor = 1e-8 * np.maximum(1.0, np.max(np.abs(evals), axis=-1, keepdims=True))
    evals = np.maximum(np.abs(evals), floor)
    return (evecs * evals[..., None, :]) @ np.swapaxes(evecs, -1, -2)


def newton_directions(spec, x, grad, hess):
    """``qmle._newton_directions`` with every row's masked hessian (its
    frozen coordinates decoupled) repaired through ``eigh``."""
    with mock.patch.object(qmle, "_psd_repair", psd_repair):
        return qmle._newton_directions(spec, x, grad, hess)
