"""Monte Carlo harness for empirical level and power of the scan test.

An experiment fixes one simulation plan (a model with constant
parameters for a level study, or with one break for a power study),
runs the change-point scan on ``replications`` independent samples, and
reports the rejection rate.  Per-replication seeds derive from
``(base_seed, r)``, never from consuming a shared stream, so any subset
of replications can be rerun or distributed without changing a single
sample, and the aggregate rate is invariant to chunking.

A replication whose scan raises is flagged rather than fatal; flagged
replications leave the rate denominator.  When more than 5% of a run
is flagged, the whole experiment fails loudly, since a rate computed
over too thin a remainder would be quietly misleading.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .critical_values import CriticalTable
from .models import ModelFamily, ModelSpec, ScanError, make_spec, scan_window
from .scan_stat import scan
from .simulate import DEFAULT_BURN_IN, SimPlan, generate

__all__ = [
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentReport",
    "RepRecord",
    "run_experiment",
]

_MAX_FLAGGED_FRACTION = 0.05


class ExperimentError(RuntimeError):
    """Raised when so many replications fail that the rate is untrustworthy."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified Monte Carlo run.

    ``plan`` acts as the template; its seed is ignored and replaced by
    a per-replication seed derived from ``(base_seed, r)``.  ``v_n``
    of None selects the family's default window policy.
    """

    plan: SimPlan
    replications: int
    alpha: float = 0.05
    v_n: int | None = None
    base_seed: int = 0
    table: CriticalTable | None = None

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    @classmethod
    def from_file(cls, path: str | Path) -> ExperimentConfig:
        """Parse a plain-text key=value experiment description.

        Recognised keys: ``model`` (ar|arch|garch), ``order`` (AR only:
        ARCH/GARCH raise ``ShapeError`` unless it is 1),
        ``n``, ``theta0``, ``theta1``, ``break`` (comma-separated values
        for the thetas), ``reps``, ``alpha``, ``vn``, ``base_seed``,
        ``burn_in``.  Lines starting with ``#`` and blank lines are
        ignored.  Unknown keys raise, catching typos early.
        """
        known = {
            "model", "order", "n", "theta0", "theta1", "break",
            "reps", "alpha", "vn", "base_seed", "burn_in",
        }
        kv: dict[str, str] = {}
        for lineno, raw in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            kv[key] = value.strip()
        for required in ("model", "n", "theta0", "reps"):
            if required not in kv:
                raise ValueError(f"{path}: missing required key {required!r}")
        spec = make_spec(kv["model"].lower(), int(kv.get("order", "1")))
        theta0 = tuple(float(v) for v in kv["theta0"].split(","))
        theta1 = (
            tuple(float(v) for v in kv["theta1"].split(","))
            if "theta1" in kv
            else None
        )
        plan = SimPlan(
            spec=spec,
            n=int(kv["n"]),
            theta0=theta0,
            theta1=theta1,
            break_index=int(kv["break"]) if "break" in kv else None,
            burn_in=int(kv.get("burn_in", str(DEFAULT_BURN_IN))),
        )
        return cls(
            plan=plan,
            replications=int(kv["reps"]),
            alpha=float(kv.get("alpha", "0.05")),
            v_n=int(kv["vn"]) if "vn" in kv else None,
            base_seed=int(kv.get("base_seed", "0")),
        )


@dataclass(frozen=True)
class RepRecord:
    """Outcome of a single replication.

    ``reject`` and the statistics are None when the replication was
    flagged; ``error`` then carries the reason.
    """

    rep: int
    seed: tuple[int, int]
    q: float | None
    reject: bool | None
    argmax_k: int | None
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated experiment outcome with per-replication detail."""

    config: ExperimentConfig
    records: tuple[RepRecord, ...]
    rejection_rate: float
    n_flagged: int
    c_alpha: float
    wall_time: float

    def table(self) -> str:
        """Human-readable summary block."""
        cfg = self.config
        plan = cfg.plan
        spec = plan.spec
        lines = [
            f"model         {_spec_label(spec)}",
            f"n             {plan.n}",
            f"theta0        {', '.join(f'{v:g}' for v in plan.theta0)}",
        ]
        if plan.theta1 is not None:
            lines.append(
                f"theta1        {', '.join(f'{v:g}' for v in plan.theta1)}"
                f" (break after k={plan.break_index})"
            )
        window = scan_window(spec, plan.n, cfg.v_n)
        lines += [
            f"alpha         {cfg.alpha:g}",
            f"v_n           {window.v_n}",
            f"C_alpha       {self.c_alpha:.6g}",
            f"replications  {cfg.replications} ({self.n_flagged} flagged)",
            f"rejection     {self.rejection_rate:.6g}",
            f"wall_time_s   {self.wall_time:.6g}",
        ]
        return "\n".join(lines)

    def save_csv(self, path: str | Path) -> None:
        """One row per replication, full precision, header included."""
        buf = io.StringIO()
        buf.write("rep,seed0,seed1,q,decision,argmax_k,error\n")
        for rec in self.records:
            if rec.error is None:
                assert rec.q is not None and rec.argmax_k is not None
                decision = "reject" if rec.reject else "fail_to_reject"
                buf.write(
                    f"{rec.rep},{rec.seed[0]},{rec.seed[1]},{rec.q:.17g},"
                    f"{decision},{rec.argmax_k},\n"
                )
            else:
                err = rec.error.replace(",", ";").replace("\n", " ")
                buf.write(f"{rec.rep},{rec.seed[0]},{rec.seed[1]},,error,,{err}\n")
        Path(path).write_text(buf.getvalue(), encoding="utf-8")


def _spec_label(spec: ModelSpec) -> str:
    if spec.family is ModelFamily.AR:
        return f"AR({spec.p})"
    return "ARCH(1)" if spec.family is ModelFamily.ARCH else "GARCH(1,1)"


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all replications and aggregate the rejection rate.

    Raises
    ------
    ExperimentError
        If more than 5% of replications flag scan errors.
    CalibrationRequiredError
        If the critical table lacks the needed (d, alpha) entry.
    """
    table = config.table or CriticalTable.builtin()
    spec = config.plan.spec
    c_alpha = table.lookup(spec.d, config.alpha)
    window = scan_window(spec, config.plan.n, config.v_n)
    t0 = time.perf_counter()
    records: list[RepRecord] = []
    n_reject = 0
    n_flagged = 0
    for r in range(config.replications):
        seed = (config.base_seed, r)
        plan = replace(config.plan, seed=seed)
        try:
            result = scan(
                spec,
                generate(plan),
                window=window,
                alpha=config.alpha,
                table=table,
            )
        except ScanError as exc:
            n_flagged += 1
            records.append(
                RepRecord(rep=r, seed=seed, q=None, reject=None, argmax_k=None,
                          error=str(exc))
            )
            continue
        n_reject += result.reject
        records.append(
            RepRecord(
                rep=r,
                seed=seed,
                q=result.q_max,
                reject=result.reject,
                argmax_k=result.argmax_k,
            )
        )
    wall = time.perf_counter() - t0
    if n_flagged > _MAX_FLAGGED_FRACTION * config.replications:
        raise ExperimentError(
            f"{n_flagged} of {config.replications} replications failed; "
            "the rejection rate over the remainder would be misleading"
        )
    denom = config.replications - n_flagged
    rate = n_reject / denom if denom else float("nan")
    return ExperimentReport(
        config=config,
        records=tuple(records),
        rejection_rate=rate,
        n_flagged=n_flagged,
        c_alpha=c_alpha,
        wall_time=wall,
    )
