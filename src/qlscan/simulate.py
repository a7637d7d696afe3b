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

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .models import (
    DomainError,
    ModelFamily,
    ModelSpec,
    SeriesSegment,
    SizingError,
    in_domain,
)

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
        theta0 = tuple(float(v) for v in self.spec.check_theta(self.theta0))
        object.__setattr__(self, "theta0", theta0)
        if not in_domain(self.spec, theta0):
            raise DomainError(f"theta0 {list(theta0)} outside the feasible domain")
        if (self.theta1 is None) != (self.break_index is None):
            raise ValueError("theta1 and break_index must be given together")
        if self.theta1 is not None:
            theta1 = tuple(float(v) for v in self.spec.check_theta(self.theta1))
            object.__setattr__(self, "theta1", theta1)
            if not in_domain(self.spec, theta1):
                raise DomainError(
                    f"theta1 {list(theta1)} outside the feasible domain"
                )
            assert self.break_index is not None
            if not 1 <= self.break_index < self.n:
                raise SizingError(
                    f"break_index {self.break_index} must lie in [1, n-1]"
                )


def _ar_chunks(
    plan: SimPlan, eps: NDArray[np.float64], split: int
) -> NDArray[np.float64]:
    # Imported here so that only AR simulation pays scipy's start-up
    # cost; lfilter keeps simulated AR paths bit-identical.
    from scipy.signal import lfilter, lfiltic

    zi = np.zeros(plan.spec.p)
    chunks = [(plan.theta0, eps[:split])]
    if plan.theta1 is not None:
        chunks.append((plan.theta1, eps[split:]))
    out: list[NDArray[np.float64]] = []
    for theta, innov in chunks:
        a = np.concatenate(([1.0], -np.asarray(theta)))
        if out:
            # Rebuild the filter state from the trailing outputs so the
            # new coefficients act on the carried lags from the very
            # first post-break step; reusing the old state would apply
            # theta0 to one more observation.
            hist = out[-1][::-1][: plan.spec.p]
            zi = lfiltic([1.0], a, hist)
        y, zi = lfilter([1.0], a, innov, zi=zi)
        out.append(y)
    return np.concatenate(out)


def _garch_path(plan: SimPlan, eps: NDArray[np.float64], split: int) -> NDArray[np.float64]:
    theta0 = np.asarray(plan.theta0)
    has_beta = plan.spec.family is ModelFamily.GARCH
    a0, a1 = theta0[0], theta0[1]
    b1 = theta0[2] if has_beta else 0.0
    x = np.empty(eps.size)
    h = a0 / (1.0 - a1 - b1)  # stationary variance under theta0
    x_prev = 0.0
    for t in range(eps.size):
        if t == split and plan.theta1 is not None:
            theta1 = np.asarray(plan.theta1)
            a0, a1 = theta1[0], theta1[1]
            b1 = theta1[2] if has_beta else 0.0
        if t > 0:
            h = a0 + a1 * x_prev * x_prev + b1 * h
        x_prev = np.sqrt(h) * eps[t]
        x[t] = x_prev
    return x


def generate(plan: SimPlan) -> SeriesSegment:
    """Simulate the plan and return the emitted series X_1 .. X_n."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(plan.seed)))
    total = plan.burn_in + plan.n
    eps = rng.standard_normal(total)
    # Split point in recursion steps: the break applies after emitted
    # index break_index, i.e. after burn_in + break_index steps.
    split = total if plan.break_index is None else plan.burn_in + plan.break_index
    if plan.spec.family is ModelFamily.AR:
        path = _ar_chunks(plan, eps, split)
    else:
        path = _garch_path(plan, eps, split)
    return SeriesSegment.full(path[plan.burn_in :])
