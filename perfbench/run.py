#!/usr/bin/env python3
"""Benchmark for qlscan: start-up, Monte Carlo studies, long scans, calibration.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload numerics --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py                      # every workload, one process

Each workload prints one JSON line with the environment, one with the
raw figures (program and reference medians, in seconds), then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics (from a traced half of the run,
compared with an untraced half for the tracing overhead).  ``--out FILE``
also writes the environment, the raw figures and the result to FILE, for
compare.py.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Context:
    def __init__(self, seed, workdir, env):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.root = ROOT
        self.here = HERE


def measure(wl, seconds, tracer):
    """Whole rounds while the next one is expected to end within ``seconds``.

    The first round always runs.  Returns the rounds' wall-time samples,
    merged by operation, and the number of rounds run.
    """
    samples, walls = {}, []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for key, values in wl.round(tracer).items():
            samples.setdefault(key, []).extend(values)
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return samples, len(walls)


def setup_seconds(env):
    """Median wall time of a fresh interpreter that imports qlscan and exits."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qlscan"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_workload(cls, ctx, seconds, trace, spec):
    """Set up, measure and check one workload.

    Returns the workload, its declared metrics and the raw figures
    (program and reference medians) behind ``op_rel``.
    """
    import qlscan
    from spans import Tracer, install_program

    wl = cls(ctx)
    wl.setup()
    if trace:
        plain, _ = measure(wl, seconds / 2, None)
        tracer = Tracer()
        install_program(tracer, qlscan)
        try:
            traced, rounds = measure(wl, seconds / 2, tracer)
        finally:
            tracer.close()
        metrics = wl.layer_metrics(tracer, rounds)
        metrics["trace.overhead"] = (wl.figures(traced)["op_s"]
                                     / wl.figures(plain)["op_s"] - 1)
        raw = wl.figures(plain)
        declared = spec["per_layer"]
    else:
        samples, rounds = measure(wl, seconds, None)
        raw = wl.figures(samples)
        raw["rounds"] = rounds
        metrics = {"op_rel": raw["op_rel"], "peak_rss_mb": raw["peak_rss_mb"],
                   "setup_s": setup_seconds(ctx.env)}
        declared = spec["end_to_end"]
    wl.check()
    units = {m["name"]: m["unit"] for m in declared}
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    # A layer that does no work in this workload reads zero.
    return wl, {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                for name, unit in units.items()}, raw


def environment(seed, workload, trace, seconds):
    import numpy as np
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30).stdout.strip()
    except OSError:
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qlscan").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit or "unknown",
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# Headline numbers printed by the all-workloads summary, under ROADMAP names.
HEADLINES = (("test_wall_s", "cli-test"), ("numerics_round_s", "numerics"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write environment and result to this JSON file")
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally: subprocess.run kills its child and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qlscan" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a qlscan checkout; {SRC / 'qlscan'} not found",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qlscan
    from workloads import WORKLOADS, child_env

    if Path(qlscan.__file__).resolve().parent != SRC / "qlscan":
        print(f"error: qlscan imported from {qlscan.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; one of"
              f" {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    # An installed package ships compiled bytecode; without this the first
    # run in a fresh checkout would also time the compilation.
    compileall.compile_dir(str(SRC), quiet=1)

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.seed, workdir, child_env(SRC))
    results, raws = {}, {}
    try:
        for name in names:
            wl, metrics, raw = run_workload(WORKLOADS[name], ctx, seconds,
                                            args.trace, spec)
            for msg in wl.problems:
                print(f"check failed: {msg}", file=sys.stderr)
            env = environment(args.seed, name, args.trace, seconds)
            result = {"correct": not wl.problems, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}
            results[name] = result
            raws[name] = raw
            print(json.dumps({"env": env}))
            print(json.dumps({"raw": raw}))
            print(json.dumps(result), flush=True)
            if args.out is not None and len(names) == 1:
                args.out.write_text(json.dumps(
                    {"env": env, "raw": raw, "result": result}, indent=1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if len(names) > 1:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
        if not args.trace:
            for label, wl_name in HEADLINES:
                raw = raws[wl_name]
                print(f"{label:20s} {raw['op_s']:.6g} s  ({wl_name} op_s;"
                      f" op_rel {raw['op_rel']:.4g})")
        if args.out is not None:
            args.out.write_text(json.dumps(
                {"env": environment(args.seed, "all", args.trace, seconds),
                 "result": combined}, indent=1))
        print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
