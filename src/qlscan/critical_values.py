"""Critical values of the sup of a squared Brownian-bridge norm.

The test statistic converges under the null to

    sup_{0 <= tau <= 1}  || W_d(tau) ||^2,

where W_d is a d-dimensional Brownian bridge with independent standard
components.  The test at level alpha rejects above C(d, alpha), the
quantile of this law at level 1 - alpha/2.

Quantiles are obtained by Monte Carlo: each replication simulates a
Gaussian random walk on the grid tau_j = j/m (increments scaled by
1/sqrt(m)), bridges it by subtracting tau_j times the endpoint, and
records the maximum over the grid of the squared norm.  Replication r
draws from its own counter-based stream derived from (seed, r), so the
sample does not depend on evaluation order, and a parallel run would
reproduce the sequential sample exactly.  The stream is Philox keyed
by ``SeedSequence((seed, r))``; the keys of all replications are
computed at once (``_stream_keys``), and one generator is set to each
stream in turn.  Replication r of dimension d
uses the first d * m normals of that stream, component i the normals
i * m to (i + 1) * m - 1, and its squared norm adds the components in
index order.  So the d-dimensional norm is the (d - 1)-dimensional one
plus one more term, and one simulation at the largest dimension gives
every smaller dimension's sample, bit for bit: ``calibrate`` simulates
once and reads each dimension off that run.  Replications are
simulated in chunks that fill one reused buffer of at most 2^15 grid
values (one replication when d * m is larger), in place: the walk, the
bridge and the squared norm.  Every step acts along one replication
only, so a chunk never changes a replication's value.

A small table calibrated at m = 1000, R = 100000 ships with the
package; reference values for orientation are 2.20 (d=1), 3.02 (d=2),
3.47 (d=3) at alpha = 0.05.  The d=1 case can be cross-checked against
the Kolmogorov-Smirnov law: the continuum 0.975-quantile of
sup |W_1|^2 is log(80)/2 = 2.191 up to exponentially small terms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .models import CalibrationRequiredError

if TYPE_CHECKING:
    from collections.abc import Callable
    from pathlib import Path

    from numpy.typing import NDArray

__all__ = [
    "CriticalTable",
    "TableEntry",
    "calibrate",
    "simulate_sup_bb",
    "sup_bb_quantile",
]

DEFAULT_GRID = 1000
DEFAULT_REPLICATIONS = 100_000
# Replications per chunk hold at most this many grid values (256 KiB).
_CHUNK_VALUES = 2**15


def _check_dimension(d: int) -> None:
    if not float(d).is_integer():
        raise ValueError(f"dimension must be an integer, got {d}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")


def _check_grid(m: int, reps: int) -> None:
    if m < 2:
        raise ValueError(f"grid size must be >= 2, got {m}")
    if reps < 1:
        raise ValueError(f"replication count must be >= 1, got {reps}")


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _stream_keys(seed: int, reps: int) -> NDArray[np.uint64]:
    """(reps, 2) Philox keys: row r is the key that
    ``Philox(SeedSequence((seed, r)))`` draws, for r = 0..reps-1.

    SeedSequence hashes its entropy words, here those of seed then the
    single word r, into a pool of four words, and draws the key from the
    pool.  Every step is uint32 arithmetic whose constants do not depend
    on the data, so it runs once on a vector over r, in numpy's order.
    The seed is checked by SeedSequence itself, so a negative or
    non-integer seed raises its ValueError or TypeError.
    """
    np.random.SeedSequence((seed, 0))
    if reps > 2**32:
        raise ValueError(f"at most 2^32 replications, got {reps}")
    seed = operator.index(seed)
    words = []
    while True:
        words.append(np.full(reps, seed & _MASK32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy = [*words, np.arange(reps, dtype=np.uint32)]

    def hasher(
        const: int, mult: int
    ) -> Callable[[NDArray[np.uint32]], NDArray[np.uint32]]:
        # numpy's hashmix; its multiplier advances with every call.
        def hash_word(value: NDArray[np.uint32]) -> NDArray[np.uint32]:
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & _MASK32
            value *= np.uint32(const)
            value ^= value >> np.uint32(16)
            return value
        return hash_word

    def mix(x: NDArray[np.uint32], y: NDArray[np.uint32]) -> NDArray[np.uint32]:
        out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        out ^= out >> np.uint32(16)
        return out

    hashmix = hasher(_INIT_A, _MULT_A)
    zero = np.zeros(reps, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(2, np.uint64): four words, paired little-endian.
    draw = hasher(_INIT_B, _MULT_B)
    state = [draw(word).astype(np.uint64) for word in pool]
    keys = np.empty((reps, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


def _nested_sup_bb(d_max: int, m: int, reps: int, seed: int) -> NDArray[np.float64]:
    """Samples of sup_tau ||W_d(tau)||^2 for every d = 1, ..., d_max at once.

    Returns a (d_max, reps) array whose row d - 1 is the dimension-d
    sample.  Each replication is simulated once, at d_max: the squared
    norm adds the components in index order, and the grid maximum is
    recorded after each one.  Component i is the same for every
    dimension above i, so row d - 1 is the d-dimensional simulation.
    """
    _check_dimension(d_max)
    _check_grid(m, reps)
    # Checks reps and the seed before anything of size reps is allocated.
    keys = _stream_keys(seed, reps)
    out = np.empty((d_max, reps))
    scale = 1.0 / math.sqrt(m)
    tau = np.arange(1, m + 1) / m
    chunk = max(1, _CHUNK_VALUES // (d_max * m))
    buf = np.empty((min(chunk, reps), d_max, m))
    # One generator, set to stream (seed, r) by assigning the state that
    # Philox(SeedSequence((seed, r))) starts in: key, counter 0, empty buffer.
    bits = np.random.Philox(0)
    normals = np.random.Generator(bits)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for pos in range(0, reps, chunk):
        w = buf[: min(chunk, reps - pos)]
        rows = slice(pos, pos + w.shape[0])
        for j in range(w.shape[0]):
            state["state"]["key"] = keys[pos + j]
            bits.state = state
            normals.standard_normal(out=w[j])
        # Walk, bridge and squared norm, all in place; the norm adds the
        # components in index order, and its maximum after component i
        # is the dimension-(i + 1) sup.
        np.cumsum(w, axis=2, out=w)
        w *= scale
        w -= tau * w[:, :, -1:]
        np.square(w, out=w)
        np.max(w[:, 0], axis=1, out=out[0, rows])
        for i in range(1, d_max):
            w[:, 0] += w[:, i]
            np.max(w[:, 0], axis=1, out=out[i, rows])
    return out


def simulate_sup_bb(
    d: int, m: int = DEFAULT_GRID, reps: int = DEFAULT_REPLICATIONS, seed: int = 0
) -> NDArray[np.float64]:
    """Monte Carlo sample of sup_tau ||W_d(tau)||^2 on an m-point grid.

    Returns one value per replication.  Values are nonnegative, and the
    bridge is exactly zero at both grid endpoints by construction.
    ``calibrate`` reads the same sample off one simulation at its
    largest dimension, given the same m and seed.
    """
    return _nested_sup_bb(d, m, reps, seed)[d - 1]


def sup_bb_quantile(samples: NDArray[np.float64], alpha: float) -> float:
    """Empirical critical value at test level alpha.

    Reads off the sample quantile at level 1 - alpha/2 with linear
    interpolation; alpha = 1 therefore gives the median.
    """
    _check_alpha(alpha)
    return float(np.quantile(np.asarray(samples, dtype=float), 1.0 - alpha / 2.0))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def _alpha_key(alpha: float) -> float:
    return round(float(alpha), 10)


@dataclass(frozen=True)
class TableEntry:
    """One calibrated critical value, finite and > 0 (a NaN C never rejects, a
    C <= 0 always), with its Monte Carlo provenance: m >= 2, reps >= 1."""

    c: float
    m: int
    reps: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"C must be finite and > 0, got {self.c}")
        _check_grid(self.m, self.reps)


@dataclass(frozen=True)
class CriticalTable:
    """Critical values keyed by (dimension d >= 1, level alpha in (0, 1]);
    building a table checks the keys and :meth:`validate`."""

    entries: dict[tuple[int, float], TableEntry]

    def __post_init__(self) -> None:
        for d, alpha in self.entries:
            _check_dimension(d)
            _check_alpha(alpha)
        self.validate()

    def lookup(self, d: int, alpha: float) -> float:
        """The critical value C(d, alpha).

        Raises
        ------
        ValueError
            If d is not an integer >= 1 or alpha lies outside (0, 1],
            where no calibration can produce an entry.
        CalibrationRequiredError
            If the table holds no entry for this (d, alpha).
        """
        _check_dimension(d)
        _check_alpha(alpha)
        key = (int(d), _alpha_key(alpha))
        if key not in self.entries:
            raise CalibrationRequiredError(
                f"no critical value for d={d}, alpha={alpha}; "
                f"run calibration and pass the resulting table"
            )
        return self.entries[key].c

    def validate(self) -> None:
        """Check monotonicity: C decreases in alpha and increases in d."""
        by_d: dict[int, list[tuple[float, float]]] = {}
        by_alpha: dict[float, list[tuple[int, float]]] = {}
        for (d, alpha), entry in self.entries.items():
            by_d.setdefault(d, []).append((alpha, entry.c))
            by_alpha.setdefault(alpha, []).append((d, entry.c))
        for d, pairs in by_d.items():
            pairs.sort()
            for (a1, c1), (a2, c2) in zip(pairs, pairs[1:]):
                if not c1 > c2:
                    raise ValueError(
                        f"C(d={d}, alpha={a1}) = {c1} not above "
                        f"C(d={d}, alpha={a2}) = {c2}"
                    )
        for alpha, pairs in by_alpha.items():
            pairs.sort()
            for (d1, c1), (d2, c2) in zip(pairs, pairs[1:]):
                if not c1 < c2:
                    raise ValueError(
                        f"C(d={d1}, alpha={alpha}) = {c1} not below "
                        f"C(d={d2}, alpha={alpha}) = {c2}"
                    )

    def save(self, path: str | Path) -> None:
        """Write the table as plain text, one `d alpha C m reps seed` row."""
        lines = [
            "# critical values: quantiles at level 1 - alpha/2 of the",
            "# Monte Carlo law of sup_tau ||W_d(tau)||^2 on an m-point grid",
            "# columns: d alpha C m reps seed",
        ]
        for (d, alpha), e in sorted(self.entries.items()):
            lines.append(f"{d} {alpha:.10g} {e.c:.17g} {e.m} {e.reps} {e.seed}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> CriticalTable:
        """Read a table written by :meth:`save`.

        Every row is checked as a one-row table, then the whole table
        as it is built.  Two rows with one (d, alpha)
        key (alpha rounded to 10 decimals, as :meth:`lookup` keys it)
        raise ``ValueError`` rather than the later one silently
        replacing the earlier.  A leading UTF-8 byte-order mark is
        dropped.  Every error names the file.
        """
        entries: dict[tuple[int, float], TableEntry] = {}
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 6:
                    raise ValueError(
                        f"{path}: line {lineno}: expected 6 fields, got {len(parts)}"
                    )
                try:
                    d, alpha = int(parts[0]), float(parts[1])
                    entry = TableEntry(float(parts[2]), *map(int, parts[3:]))
                    cls(entries={(d, alpha): entry})
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
                key = (d, _alpha_key(alpha))
                if key in entries:
                    raise ValueError(
                        f"{path}: line {lineno}: repeats the row for d={d}, alpha={alpha}"
                    )
                entries[key] = entry
        if not entries:
            raise ValueError(f"{path}: no table rows found")
        try:
            return cls(entries=entries)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def builtin(cls) -> CriticalTable:
        """The table shipped with the package (see module docstring)."""
        entries = {
            (d, _alpha_key(alpha)): TableEntry(
                c, _BUILTIN_GRID, _BUILTIN_REPS, _BUILTIN_SEED
            )
            for (d, alpha), c in _BUILTIN_C.items()
        }
        return cls(entries=entries)


def calibrate(
    ds: tuple[int, ...] = (1, 2, 3),
    alphas: tuple[float, ...] = (0.01, 0.05, 0.10),
    m: int = DEFAULT_GRID,
    reps: int = DEFAULT_REPLICATIONS,
    seed: int = 0,
) -> CriticalTable:
    """Simulate fresh samples and build a table for the given keys.

    One simulation of ``reps`` replications at the largest dimension in
    ``ds`` gives the sample of every smaller dimension (see the module
    docstring); each dimension's sample of ``reps`` sup values is reused
    across the levels.  The resulting table is validated for the
    monotonicity invariants before it is returned.
    """
    entries: dict[tuple[int, float], TableEntry] = {}
    if ds:
        for d in ds:  # before the simulation indexes by d
            _check_dimension(d)
        samples = _nested_sup_bb(max(ds), m, reps, seed)
        for d in ds:
            for alpha in alphas:
                entries[(d, _alpha_key(alpha))] = TableEntry(
                    c=sup_bb_quantile(samples[d - 1], alpha), m=m, reps=reps, seed=seed
                )
    return CriticalTable(entries=entries)


# Shipped values, produced by calibrate() with the constants below and
# frozen at full precision.  Re-running the same calibration reproduces
# them exactly; an acceptance test does precisely that.
_BUILTIN_GRID = DEFAULT_GRID
_BUILTIN_REPS = DEFAULT_REPLICATIONS
_BUILTIN_SEED = 20260401
_BUILTIN_C: dict[tuple[int, float], float] = {
    (1, 0.01): 2.9601607652187241,
    (1, 0.05): 2.1360488248606595,
    (1, 0.10): 1.7956837137882302,
    (2, 0.01): 3.7247417270002496,
    (2, 0.05): 2.845059394885344,
    (2, 0.10): 2.4470596564962794,
    (3, 0.01): 4.3340590309491471,
    (3, 0.05): 3.4178793327584214,
    (3, 0.10): 3.0030918739514951,
}
