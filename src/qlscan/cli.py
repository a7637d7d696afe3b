"""Command-line front end for the change-point scan test.

Five commands: ``test`` runs the scan on a series file and reports the
decision through its exit code, ``scan-curve`` writes the per-k
statistics for plotting, ``simulate`` generates series files,
``calibrate`` rebuilds critical-value tables, and ``experiment`` runs a
Monte Carlo level or power study.

Exit codes are stable API: 0 means no change detected, 2 means change
detected, 1 means any error (including flag validation).  Screen output
rounds to 6 significant digits; files carry full precision.  The
``QLSCAN_TABLE`` environment variable supplies a default critical-value
table file for every command that takes ``--table``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Sequence

import click
import numpy as np

from .critical_values import CriticalTable, calibrate
from .experiments import ExperimentConfig, ExperimentError, run_experiment
from .models import (
    CalibrationRequiredError,
    DomainError,
    ScanError,
    SeriesParseError,
    SeriesSegment,
    ShapeError,
    SizingError,
    make_spec,
    scan_window,
)
from .scan_stat import scan
from .simulate import SimPlan, generate

_FAMILIES = ("ar", "arch", "garch")


def read_series(path: str | Path) -> SeriesSegment:
    """Parse a one-column numeric file into a series.

    The first line may be a header; it is skipped iff it does not parse
    as a number.  Blank lines are ignored.  Any other non-numeric line
    is an error naming the offending line.
    """
    values: list[float] = []
    first_data_line = True
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip().rstrip(",")
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                if first_data_line:
                    first_data_line = False  # header line, skip
                    continue
                raise SeriesParseError(
                    f"{path}:{lineno}: expected one number per line, got {line!r}"
                ) from None
            first_data_line = False
    if not values:
        raise SeriesParseError(f"{path}: no numeric data found")
    return SeriesSegment.full(np.asarray(values))


def _load_table(table_path: str | None) -> CriticalTable:
    if table_path is None:
        return CriticalTable.builtin()
    return CriticalTable.load(table_path)


_model_opt = click.option(
    "--model", type=click.Choice(_FAMILIES), required=True,
    help="Model family.")
_order_opt = click.option(
    "--order", type=int, default=1, show_default=True,
    help="AR order p (AR only).")
_alpha_opt = click.option(
    "--alpha", type=float, default=0.05, show_default=True,
    help="Nominal level.")
_vn_opt = click.option(
    "--vn", type=int, default=None,
    help="Window floor v_n (default: family policy).")
_table_opt = click.option(
    "--table", "table_path", type=click.Path(exists=True, dir_okay=False),
    envvar="QLSCAN_TABLE", default=None,
    help="Critical-value table file (env: QLSCAN_TABLE; default: built-in).")


@click.group()
def cli() -> None:
    """Quasi-likelihood scan test for parameter changes in time series."""


@cli.command("test")
@click.argument("series_file", type=click.Path(exists=True, dir_okay=False))
@_model_opt
@_order_opt
@_alpha_opt
@_vn_opt
@_table_opt
def cmd_test(series_file: str, model: str, order: int, alpha: float,
             vn: int | None, table_path: str | None) -> int:
    """Test SERIES_FILE for a parameter change.

    Exit code 2 when a change is detected, 0 when not, 1 on error.
    """
    spec = make_spec(model, order)
    series = read_series(series_file)
    res = scan(spec, series, window=scan_window(spec, series.n, vn), alpha=alpha,
               table=_load_table(table_path))
    click.echo(f"n         {series.n}")
    click.echo(f"d         {spec.d}")
    click.echo(f"v_n       {res.window.v_n}")
    click.echo(f"Q1        {res.q1_max:.6g}")
    click.echo(f"Q2        {res.q2_max:.6g}")
    click.echo(f"Q         {res.q_max:.6g}")
    click.echo(f"C_alpha   {res.c_alpha:.6g} (alpha={alpha:g}, d={spec.d})")
    click.echo(f"argmax_k  {res.argmax_k}")
    click.echo(f"decision  {'reject' if res.reject else 'fail_to_reject'}")
    return 2 if res.reject else 0


@cli.command("scan-curve")
@click.argument("series_file", type=click.Path(exists=True, dir_okay=False))
@_model_opt
@_order_opt
@_alpha_opt
@_vn_opt
@_table_opt
@click.option("--out", type=click.Path(dir_okay=False, writable=True),
              required=True, help="Output curve file (k q1 q2 rows).")
def cmd_scan_curve(series_file: str, model: str, order: int, alpha: float,
                   vn: int | None, table_path: str | None, out: str) -> int:
    """Write the per-k scan statistics of SERIES_FILE to a file."""
    spec = make_spec(model, order)
    series = read_series(series_file)
    res = scan(spec, series, window=scan_window(spec, series.n, vn), alpha=alpha,
               table=_load_table(table_path))
    res.save(out)
    click.echo(f"wrote {res.ks.size} rows to {out}")
    click.echo(f"Q         {res.q_max:.6g}")
    click.echo(f"C_alpha   {res.c_alpha:.6g}")
    click.echo(f"decision  {'reject' if res.reject else 'fail_to_reject'}")
    return 0


@cli.command("simulate")
@_model_opt
@_order_opt
@click.option("--n", type=int, required=True, help="Sample size.")
@click.option("--theta", required=True,
              help="Parameters, comma-separated (e.g. '1.0,0.3').")
@click.option("--theta2", default=None,
              help="Post-break parameters (requires --break).")
@click.option("--break", "break_index", type=int, default=None,
              help="Last index before the break (requires --theta2).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True),
              required=True, help="Output series file, one value per line.")
def cmd_simulate(model: str, order: int, n: int, theta: str,
                 theta2: str | None, break_index: int | None, seed: int,
                 out: str) -> int:
    """Generate a simulated series and write it to a file."""
    spec = make_spec(model, order)
    plan = SimPlan(
        spec=spec,
        n=n,
        theta0=tuple(float(v) for v in theta.split(",")),
        theta1=tuple(float(v) for v in theta2.split(",")) if theta2 else None,
        break_index=break_index,
        seed=seed,
    )
    series = generate(plan)
    with open(out, "w", encoding="utf-8") as fh:
        for v in series.data:
            fh.write(f"{v:.17g}\n")
    click.echo(f"wrote {series.n} values to {out}")
    return 0


@cli.command("calibrate")
@click.option("--d", "ds", type=int, multiple=True, default=(1, 2, 3),
              show_default=True, help="Parameter dimensions (repeatable).")
@_alpha_opt
@click.option("--grid", type=int, default=1000, show_default=True,
              help="Time-grid points m.")
@click.option("--reps", type=int, default=100_000, show_default=True,
              help="Monte Carlo replications.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True),
              default=None, help="Write the table to this file.")
def cmd_calibrate(ds: tuple[int, ...], alpha: float, grid: int, reps: int,
                  seed: int, out: str | None) -> int:
    """Simulate critical values C(d, alpha) afresh."""
    table = calibrate(ds=tuple(ds), alphas=(alpha,), m=grid, reps=reps,
                      seed=seed)
    for d in ds:
        click.echo(f"C(d={d}, alpha={alpha:g}) = {table.lookup(d, alpha):.6g}")
    if out is not None:
        table.save(out)
        click.echo(f"wrote table to {out}")
    return 0


@cli.command("experiment")
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Key=value experiment file (overrides the flags below).")
@click.option("--model", type=click.Choice(_FAMILIES), default=None)
@click.option("--order", type=int, default=1, show_default=True)
@click.option("--n", type=int, default=None)
@click.option("--theta", default=None, help="Null parameters, comma-separated.")
@click.option("--theta2", default=None, help="Post-break parameters.")
@click.option("--break", "break_index", type=int, default=None)
@click.option("--reps", type=int, default=None)
@_alpha_opt
@_vn_opt
@click.option("--seed", "base_seed", type=int, default=0, show_default=True,
              help="Base seed; replication r uses (seed, r).")
@_table_opt
@click.option("--out", type=click.Path(dir_okay=False, writable=True),
              default=None, help="Per-replication CSV output.")
def cmd_experiment(config_path: str | None, model: str | None, order: int,
                   n: int | None, theta: str | None, theta2: str | None,
                   break_index: int | None, reps: int | None, alpha: float,
                   vn: int | None, base_seed: int, table_path: str | None,
                   out: str | None) -> int:
    """Run a Monte Carlo level or power experiment."""
    if config_path is not None:
        config = ExperimentConfig.from_file(config_path)
        if table_path is not None:
            config = replace(config, table=_load_table(table_path))
    else:
        missing = [name for name, val in
                   (("--model", model), ("--n", n), ("--theta", theta),
                    ("--reps", reps)) if val is None]
        if missing:
            raise click.UsageError(
                f"either --config or all of --model/--n/--theta/--reps are "
                f"required (missing {', '.join(missing)})")
        spec = make_spec(model, order)
        plan = SimPlan(
            spec=spec,
            n=n,
            theta0=tuple(float(v) for v in theta.split(",")),
            theta1=tuple(float(v) for v in theta2.split(",")) if theta2 else None,
            break_index=break_index,
        )
        config = ExperimentConfig(
            plan=plan, replications=reps, alpha=alpha, v_n=vn,
            base_seed=base_seed, table=_load_table(table_path))
    report = run_experiment(config)
    click.echo(report.table())
    if out is not None:
        report.save_csv(out)
        click.echo(f"wrote per-replication rows to {out}")
    return 0


def main(argv: Sequence[str] | None = None) -> None:
    """Entry point translating outcomes into the stable exit codes."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        raise SystemExit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        raise SystemExit(1)
    except click.Abort:
        click.echo("aborted", err=True)
        raise SystemExit(1)
    except (SeriesParseError, ShapeError, SizingError, DomainError,
            CalibrationRequiredError, ScanError, ExperimentError,
            ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    raise SystemExit(int(rv) if rv else 0)
