"""Simulation of AR/ARCH/GARCH paths, optionally with a parameter break.

Innovations are iid standard Gaussians from a counter-based generator
(Philox keyed by the plan seed, ziggurat sampling), so identical plans
reproduce identical paths and distinct seeds give independent streams.

The recursion runs through ``burn_in`` pre-sample steps under ``theta0``
before the first emitted observation.  A break at index k means that
X_1 .. X_k follow theta0 and X_{k+1} .. X_n follow theta1, with the
recursion state (lagged values, conditional variance) carried across
the switch rather than re-initialised.

Start-up state: AR recursions start from zero lags; ARCH/GARCH start
from the stationary variance alpha_0 / (1 - alpha_1 - beta_1) implied
by theta0.  Both choices wash out over the burn-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .models import ModelFamily, ModelSpec, SeriesSegment, SizingError

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = ["SimPlan", "generate"]

DEFAULT_BURN_IN = 500


@dataclass(frozen=True)
class SimPlan:
    """A fully specified simulation.

    ``theta1`` and ``break_index`` must be given together; the break
    applies from observation ``break_index + 1`` onward.
    """

    spec: ModelSpec
    n: int
    theta0: tuple[float, ...]
    theta1: tuple[float, ...] | None = None
    break_index: int | None = None
    burn_in: int = DEFAULT_BURN_IN
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SizingError(f"n must be positive, got {self.n}")
        if self.burn_in < 0:
            raise SizingError(f"burn_in must be >= 0, got {self.burn_in}")
        object.__setattr__(self, "theta0", tuple(
            self.spec.check_theta(self.theta0, "theta0").tolist()))
        if (self.theta1 is None) != (self.break_index is None):
            raise ValueError("theta1 and break_index must be given together")
        if self.theta1 is not None:
            object.__setattr__(self, "theta1", tuple(
                self.spec.check_theta(self.theta1, "theta1").tolist()))
            assert self.break_index is not None
            if not 1 <= self.break_index < self.n:
                raise SizingError(
                    f"break_index {self.break_index} must lie in [1, n-1]"
                )


def _ar_path(
    plan: SimPlan, eps: NDArray[np.float64], split: int
) -> NDArray[np.float64]:
    """The AR path, by the direct-form-II-transposed recursion of an IIR filter.

    The state z carries the lag terms into the next step: X_t = z_0 +
    eps_t, then z_i = z_{i+1} + phi_{i+1} X_t and z_{p-1} = phi_p X_t.
    So the lag terms add from phi_p X_{t-p} up to phi_1 X_{t-1}, and the
    innovation comes last.  At step ``split`` (the break) the state is
    rebuilt from the trailing outputs under theta1, so the new
    coefficients act on the carried lags from the very first post-break
    step; keeping the old state would apply theta0 to one more
    observation.  These are the operations of ``scipy.signal.lfilter``
    and ``lfiltic`` in their order, so paths are bit for bit theirs.
    """
    p = plan.spec.p
    out = np.empty(eps.size)
    z = [0.0] * p
    phi = list(plan.theta0)
    for t, e in enumerate(eps.tolist()):
        if t == split and plan.theta1 is not None:
            phi = list(plan.theta1)
            # lfiltic's sums: z_m = 0 - sum_i (-phi_{m+1+i}) X_{t-1-i}.
            hist = np.zeros(p)
            trail = out[t - 1 :: -1][:p]
            hist[: trail.size] = trail
            neg = -np.asarray(phi)
            z = [0.0 - float(np.sum(neg[m:] * hist[: p - m])) for m in range(p)]
        x = z[0] + e
        for i in range(p - 1):
            z[i] = z[i + 1] + x * phi[i]
        z[p - 1] = x * phi[p - 1]
        out[t] = x
    return out


def _garch_path(plan: SimPlan, eps: NDArray[np.float64], split: int) -> NDArray[np.float64]:
    """The ARCH/GARCH recursion, one step per innovation, on Python floats.

    Python floats are IEEE doubles and ``math.sqrt`` is correctly
    rounded, as numpy's is, so every step gives the bits that numpy
    float64 scalars give, at a fraction of their cost; the path becomes
    an array once, at the end.
    """
    has_beta = plan.spec.family is ModelFamily.GARCH

    def coefficients(theta: tuple[float, ...]) -> tuple[float, float, float]:
        return float(theta[0]), float(theta[1]), float(theta[2]) if has_beta else 0.0

    a0, a1, b1 = coefficients(plan.theta0)
    h = a0 / (1.0 - a1 - b1)  # stationary variance under theta0
    x_prev = 0.0
    out = []
    for t, e in enumerate(eps.tolist()):
        if t == split and plan.theta1 is not None:
            a0, a1, b1 = coefficients(plan.theta1)
        if t > 0:
            h = a0 + a1 * x_prev * x_prev + b1 * h
        x_prev = math.sqrt(h) * e
        out.append(x_prev)
    return np.array(out)


def generate(plan: SimPlan) -> SeriesSegment:
    """Simulate the plan and return the emitted series X_1 .. X_n."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(plan.seed)))
    total = plan.burn_in + plan.n
    eps = rng.standard_normal(total)
    # Split point in recursion steps: the break applies after emitted
    # index break_index, i.e. after burn_in + break_index steps.
    split = total if plan.break_index is None else plan.burn_in + plan.break_index
    if plan.spec.family is ModelFamily.AR:
        path = _ar_path(plan, eps, split)
    else:
        path = _garch_path(plan, eps, split)
    return SeriesSegment.full(path[plan.burn_in :])
