"""Model families, parameter domains, and shared containers.

The package covers three conditionally specified families driven by iid
standard Gaussian innovations:

* AR(p):        X_t = phi_1 X_{t-1} + ... + phi_p X_{t-p} + xi_t
* ARCH(1):      X_t = sigma_t xi_t,  sigma_t^2 = alpha_0 + alpha_1 X_{t-1}^2
* GARCH(1,1):   X_t = sigma_t xi_t,  sigma_t^2 = alpha_0 + alpha_1 X_{t-1}^2
                                               + beta_1 sigma_{t-1}^2

Parameters live in a compact box intersected with a stationarity-type
constraint (sum of |phi_k| bounded away from 1 for AR, alpha_1 + beta_1
bounded away from 1 for ARCH/GARCH), stated here alone
(``constraint_signs``, ``in_domain``).  Everything downstream
(likelihood, estimation, scan statistics) consumes the containers
defined here.

Index convention: observations are 1-based, X_1 .. X_n, matching the
sub-sample notation T_k = {1..k} and its complement {k+1..n} used by the
scan statistics.  Values before X_1 are treated as unobserved zeros.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike, NDArray

__all__ = [
    "CalibrationRequiredError",
    "DomainError",
    "ExperimentError",
    "ModelFamily",
    "ModelSpec",
    "ParamDomain",
    "ScanError",
    "ScanWindow",
    "SeriesParseError",
    "SeriesSegment",
    "ShapeError",
    "SizingError",
    "ar1_interval",
    "ar_spec",
    "arch_spec",
    "constraint_signs",
    "default_window",
    "garch_spec",
    "in_domain",
    "in_domain_rows",
    "make_spec",
    "scan_window",
    "stationarity_stat",
]

# Feasibility slack absorbing floating-point round-off from projections.
DOMAIN_ATOL = 1e-12

# Default distance kept between the parameter and the non-stationarity
# boundary (sum |phi_k| = 1, resp. alpha_1 + beta_1 = 1).
DEFAULT_MARGIN = 0.02

# Default bounds for the volatility intercept alpha_0.
DEFAULT_ALPHA0_LOWER = 1e-4
DEFAULT_ALPHA0_UPPER = 10.0

# Smallest sample size the default window policy accepts.
MIN_SAMPLE_SIZE = 20


class ShapeError(ValueError):
    """A vector or matrix argument has the wrong dimensions."""


class SizingError(ValueError):
    """A sample or segment is too short for the requested operation."""


class DomainError(ValueError):
    """A parameter vector lies outside the feasible domain."""


class SeriesParseError(ValueError):
    """A series file could not be parsed; the message names the line."""


class CalibrationRequiredError(LookupError):
    """No critical value is available for the requested (d, alpha)."""


class ScanError(RuntimeError):
    """A scan failed, e.g. estimation broke down on too many sub-samples."""


class ExperimentError(RuntimeError):
    """Raised when so many replications fail that the rate is untrustworthy."""


class ModelFamily(enum.Enum):
    """Supported conditional model families."""

    AR = "ar"
    ARCH = "arch"
    GARCH = "garch"


@dataclass(frozen=True)
class ParamDomain:
    """Compact parameter box with a stationarity margin.

    Parameters
    ----------
    lower, upper
        Coordinate-wise bounds, length d each.
    margin
        Distance kept from the non-stationarity boundary: the feasible
        set also keeps sum_i s_i theta_i <= 1 - margin over the phi_k
        (AR) or alpha_1, beta_1 (ARCH/GARCH), with s_i the box's sign
        where the box keeps one sign in coordinate i, else sign(theta_i).
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    margin: float = DEFAULT_MARGIN

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ShapeError(
                f"bound lengths differ: {len(self.lower)} vs {len(self.upper)}"
            )
        if not 0.0 < self.margin < 1.0:
            raise DomainError(f"margin must lie in (0, 1), got {self.margin}")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise DomainError(f"empty box: lower {lo} >= upper {hi}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def bound(self) -> float:
        """c = 1 - margin, the largest feasible stationarity statistic."""
        return 1.0 - self.margin

    def as_arrays(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        return np.asarray(self.lower, dtype=float), np.asarray(self.upper, dtype=float)


def _default_domain(family: ModelFamily, p: int) -> ParamDomain:
    c = 1.0 - DEFAULT_MARGIN
    if family is ModelFamily.AR:
        return ParamDomain(lower=(-c,) * p, upper=(c,) * p)
    if family is ModelFamily.ARCH:
        return ParamDomain(lower=(DEFAULT_ALPHA0_LOWER, 0.0), upper=(DEFAULT_ALPHA0_UPPER, c))
    return ParamDomain(lower=(DEFAULT_ALPHA0_LOWER, 0.0, 0.0),
                       upper=(DEFAULT_ALPHA0_UPPER, c, c))


@dataclass(frozen=True)
class ModelSpec:
    """A model family together with its order and parameter domain.

    Parameters
    ----------
    family
        One of the three supported families.
    p
        Autoregression order.  Must be 1 for ARCH and GARCH, where the
        conditional variance looks one step back.
    domain
        Feasible parameter set.  Defaults to the box |phi_k| <= 1 - margin
        for AR and to ``alpha_0 in [1e-4, 10], alpha_1, beta_1 in
        [0, 1 - margin]`` for the volatility families, with the default
        margin 0.02.  Any other box or margin is a ``ParamDomain`` passed
        here: ``ModelSpec(family, p, ParamDomain(lower, upper, margin))``.
        A box that misses the stationarity constraint altogether raises
        ``DomainError``, as does a volatility box that lets h_t reach 0:
        alpha_0 needs a lower bound > 0, and alpha_1 and beta_1 lower
        bounds >= 0.

    Attributes
    ----------
    d
        Parameter dimension: p for AR, 2 for ARCH(1), 3 for GARCH(1,1).
    """

    family: ModelFamily
    p: int = 1
    domain: ParamDomain = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ShapeError(f"order p must be >= 1, got {self.p}")
        if self.family is not ModelFamily.AR and self.p != 1:
            raise ShapeError(
                f"order applies to AR only (got {self.p} for {self.family.value})"
            )
        if self.domain is None:
            object.__setattr__(self, "domain", _default_domain(self.family, self.p))
        if self.domain.dim != self.d:
            raise ShapeError(
                f"domain dimension {self.domain.dim} does not match d={self.d}"
            )
        # h_t = alpha_0 + alpha_1 X_{t-1}^2 (+ beta_1 h_{t-1}) must stay
        # positive on the whole box, or a fit takes the log of h_t <= 0.
        names = () if self.family is ModelFamily.AR else ("alpha_0", "alpha_1", "beta_1")
        for i, (name, bound) in enumerate(zip(names, self.domain.lower)):
            if not (bound > 0.0 if i == 0 else bound >= 0.0):
                raise DomainError(f"{name} has lower bound {bound}; a positive h_t needs"
                                  " alpha_0 > 0 and alpha_1, beta_1 >= 0")
        # The statistic sums |theta_i| over the constrained coordinates,
        # so the box's point nearest zero is its point of least statistic.
        lo, hi = self.domain.as_arrays()
        least = float(stationarity_stat(self, np.clip(0.0, lo, hi)))
        if least > self.domain.bound + DOMAIN_ATOL:
            raise DomainError(
                f"empty feasible set: the box lower={self.domain.lower},"
                f" upper={self.domain.upper} keeps the stationarity statistic"
                f" at or above {least:.6g}, beyond the bound {self.domain.bound:.6g}"
            )

    @property
    def d(self) -> int:
        if self.family is ModelFamily.AR:
            return self.p
        return 2 if self.family is ModelFamily.ARCH else 3

    def check_theta(self, theta: ArrayLike, name: str | None = None) -> NDArray[np.float64]:
        """Validate shape and return theta as a float vector of length d; with
        ``name``, theta must also be feasible, or ``DomainError`` names it."""
        arr = np.atleast_1d(np.asarray(theta, dtype=float))
        if arr.ndim != 1 or arr.shape[0] != self.d:
            raise ShapeError(
                f"theta has shape {np.shape(theta)}, expected ({self.d},)"
            )
        if name is not None and not in_domain_rows(self, arr):
            raise DomainError(f"{name} {arr.tolist()} outside the feasible domain")
        return arr


def ar_spec(p: int = 1) -> ModelSpec:
    """``ModelSpec(ModelFamily.AR, p)``: AR(p) on the default domain."""
    return ModelSpec(ModelFamily.AR, p)


def arch_spec() -> ModelSpec:
    """``ModelSpec(ModelFamily.ARCH)``: ARCH(1) on the default domain."""
    return ModelSpec(ModelFamily.ARCH)


def garch_spec() -> ModelSpec:
    """``ModelSpec(ModelFamily.GARCH)``: GARCH(1,1) on the default domain."""
    return ModelSpec(ModelFamily.GARCH)


def make_spec(model: str, order: int = 1) -> ModelSpec:
    """``ModelSpec(family, order)`` for the ``ModelFamily`` whose value is
    ``model``: an unknown name raises ``ValueError``, and ``ModelSpec``
    rejects an order other than 1 for ARCH/GARCH (``ShapeError``)."""
    try:
        family = ModelFamily(model)
    except ValueError:
        raise ValueError(f"unknown model {model!r}") from None
    return ModelSpec(family, order)


def in_domain(spec: ModelSpec, theta: ArrayLike) -> bool:
    """Whether theta lies in the feasible set of ``spec``.

    The feasible set is the box ``[lower, upper]`` intersected with
    ``stationarity_stat <= 1 - margin``, tested with a small absolute
    slack so that points a floating-point projection puts on the
    boundary test as feasible.
    """
    return bool(in_domain_rows(spec, spec.check_theta(theta)))


def in_domain_rows(spec: ModelSpec, thetas: NDArray[np.float64]) -> NDArray[np.bool_]:
    """``in_domain`` for every row of a (..., d) stack of parameters."""
    lo, hi = spec.domain.as_arrays()
    tol = DOMAIN_ATOL
    inside = np.all((thetas >= lo - tol) & (thetas <= hi + tol), axis=-1)
    return inside & (stationarity_stat(spec, thetas) <= spec.domain.bound + tol)


def constraint_signs(
    spec: ModelSpec, thetas: NDArray[np.float64] | None = None
) -> tuple[slice, NDArray[np.float64]]:
    """``(part, s)``: the stationarity constraint is sum_i s_i theta_i <= c
    over ``theta[..., part]`` (every phi_k, or the coefficients after
    alpha_0), per row of a (..., d) stack.  s_i is the box's sign where
    the box keeps one sign in coordinate i, else sign(theta_i), 0 at the
    kink theta_i = 0; on the box s_i theta_i = |theta_i|.  Without
    ``thetas``, s holds the box's signs and 0 where s_i follows theta_i.
    """
    part = slice(None) if spec.family is ModelFamily.AR else slice(1, None)
    box = np.array([1.0 if lo >= 0.0 else -1.0 if hi <= 0.0 else 0.0
                    for lo, hi in zip(spec.domain.lower[part], spec.domain.upper[part])])
    if thetas is None:
        return part, box
    return part, np.where(box != 0.0, box, np.sign(thetas[..., part]))


def stationarity_stat(
    spec: ModelSpec, thetas: NDArray[np.float64]
) -> NDArray[np.float64]:
    """sum |theta_i| over ``constraint_signs``' coordinates for every row of a
    (..., d) stack: on the box sum_i s_i theta_i, sum |phi_k| or alpha_1 +
    beta_1.  The feasible set keeps it at most ``spec.domain.bound``."""
    return np.sum(np.abs(thetas[..., constraint_signs(spec)[0]]), axis=-1)


def ar1_interval(spec: ModelSpec) -> tuple[float, float]:
    """The feasible set of an AR(1) coefficient: the box cut to |phi| <= c."""
    c = spec.domain.bound
    return max(spec.domain.lower[0], -c), min(spec.domain.upper[0], c)


@dataclass(frozen=True)
class SeriesSegment:
    """A full observed series plus a 1-based window of interest.

    ``data`` always holds the complete series X_1 .. X_n; ``start`` and
    ``end`` delimit the sub-sample T = {start, ..., end} (inclusive)
    that likelihood sums range over.  Keeping the full series around
    matters because the truncated likelihood of any sub-sample looks at
    observations before its own start, all the way back to X_1.
    """

    data: NDArray[np.float64]
    start: int
    end: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 1:
            raise ShapeError(f"series must be 1-d, got shape {arr.shape}")
        if arr.size == 0:
            raise SizingError("series is empty")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0]) + 1
            raise ValueError(f"series contains a non-finite value at index {bad}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        n = arr.shape[0]
        if not (1 <= self.start <= self.end <= n):
            raise SizingError(
                f"window [{self.start}, {self.end}] invalid for series of length {n}"
            )

    @property
    def n(self) -> int:
        """Length of the full series."""
        return int(self.data.shape[0])

    @property
    def card(self) -> int:
        """Number of indices in the window."""
        return self.end - self.start + 1

    @classmethod
    def full(cls, data: ArrayLike) -> SeriesSegment:
        arr = np.asarray(data, dtype=float)
        return cls(arr, 1, int(arr.shape[0]))

    @classmethod
    def prefix(cls, data: ArrayLike, k: int) -> SeriesSegment:
        """T_k = {1, ..., k}."""
        return cls(np.asarray(data, dtype=float), 1, k)

    @classmethod
    def suffix(cls, data: ArrayLike, k: int) -> SeriesSegment:
        """The complement {k+1, ..., n}."""
        arr = np.asarray(data, dtype=float)
        return cls(arr, k + 1, int(arr.shape[0]))


@dataclass(frozen=True)
class ScanWindow:
    """Candidate change points Pi_n = {v_n, ..., n - v_n}."""

    n: int
    v_n: int

    def __post_init__(self) -> None:
        if self.v_n < 1 or self.v_n > self.n - self.v_n:
            raise SizingError(
                f"v_n={self.v_n} leaves no candidate change points for n={self.n}"
            )

    @property
    def indices(self) -> NDArray[np.int64]:
        """All candidate k, ascending."""
        return np.arange(self.v_n, self.n - self.v_n + 1, dtype=np.int64)

    @property
    def size(self) -> int:
        return self.n - 2 * self.v_n + 1


def default_window(spec: ModelSpec, n: int) -> ScanWindow:
    """Default scan window for a sample of size n.

    The trimming parameter grows slowly with n:

    * AR:          v_n = floor((ln n)^2)
    * ARCH/GARCH:  v_n = floor((ln n)^(5/2))

    and is then clamped into [d + 1, floor(n/2) - 1] so that every
    sub-sample is long enough to estimate d parameters and the candidate
    set is non-empty.

    Raises
    ------
    SizingError
        If n is below the minimum sample size for this family.
    """
    n_min = max(MIN_SAMPLE_SIZE, 2 * spec.d + 4)
    if n < n_min:
        raise SizingError(
            f"n={n} too small for a {spec.family.value} scan; need n >= {n_min}"
        )
    ln = math.log(n)
    raw = ln * ln if spec.family is ModelFamily.AR else ln**2.5
    v = int(math.floor(raw))
    v = max(v, spec.d + 1)
    v = min(v, n // 2 - 1)
    return ScanWindow(n=n, v_n=v)


def scan_window(spec: ModelSpec, n: int, v_n: int | None = None) -> ScanWindow:
    """The window for n observations: floor ``v_n``, or the family policy if None."""
    return default_window(spec, n) if v_n is None else ScanWindow(n=n, v_n=v_n)
