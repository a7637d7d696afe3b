"""The benchmark's workloads: inputs made from the seed, measured rounds, checks.

Every workload repeats a round of fixed operations until its time is
up (closed loop, one client).  A round returns its wall-time samples by
operation, and beside them the wall time of a reference job: a fixed
computation that does not use qlscan.  ``op_rel`` is the program's
time over the reference job's, from the same run, so a stretch in which
the shared machine runs slow moves both and cancels.  Checks run after
the timed rounds and compare the program's outputs with ``reference``
(an independent implementation) or with properties the test must have.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import qlscan

import reference as ref
import spans as sp

# First-order conditions: largest feasible ascent slope of the mean
# log-likelihood.  The optimizer stops at a projected-gradient norm of
# 1e-8 per observation, so 1e-6 leaves two orders of slack.
KKT_TOL = 1e-6
# Q1/Q2 against the reference: both sides are float64 evaluations of the
# same formula, apart from summation order.
Q_RTOL, Q_ATOL = 1e-6, 1e-9
# Kolmogorov check of the d=1 calibration sample: a KS distance this far
# out has probability below 1e-5 for an exact law, plus an allowance for
# the first-order grid correction.
KS_C, KS_SLACK = 2.5, 0.005
CHILD_TIMEOUT_S = 120


class Workload:
    """One workload.

    Subclasses define ``setup``, ``round``, ``figures`` and ``check``.
    """

    name = ""

    def __init__(self, ctx):
        self.ctx = ctx
        self.seed = ctx.seed
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, msg):
        self.problems.append(f"{self.name}: {msg}")

    def layer_metrics(self, tracer, rounds):
        return sp.program_metrics(tracer.spans, rounds)


def spawn(cmd, env, cwd, out_path):
    """Run ``cmd`` to its end.

    Returns (wall seconds, exit code, stdout, stderr, peak RSS in MB).
    The child is killed after CHILD_TIMEOUT_S, and on any exception
    (SIGTERM included) it is killed and waited for before re-raising.
    """
    err_path = f"{out_path}.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return wall, proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0


# ----------------------------------------------------------------- checks


def sample_ks(res):
    n, v_n = res.window.n, res.window.v_n
    ks = {v_n, n // 4, n // 2, (3 * n) // 4, n - v_n, res.argmax_k}
    return sorted(k for k in ks if v_n <= k <= n - v_n)


def _close(a, b):
    return abs(a - b) <= Q_RTOL * abs(b) + Q_ATOL


def check_scan(wl, label, kind, spec, x, res, estimator):
    """Check one ScanResult against the reference and the test's invariants."""
    n = x.shape[0]
    v_n = res.window.v_n
    q1, q2 = res.q1, res.q2
    fin = np.isfinite(q1) & np.isfinite(q2)
    if np.any(q1[fin] < -Q_ATOL) or np.any(q2[fin] < -Q_ATOL):
        wl.problem(f"{label}: negative q")
    q_max = max(float(np.nanmax(q1)), float(np.nanmax(q2)))
    if q_max != res.q_max:
        wl.problem(f"{label}: Q={res.q_max} is not max(q1, q2)={q_max}")
    if res.reject != (res.q_max > res.c_alpha):
        wl.problem(f"{label}: reject={res.reject} but Q={res.q_max}, C={res.c_alpha}")
    if not v_n <= res.argmax_k <= n - v_n:
        wl.problem(f"{label}: argmax_k={res.argmax_k} outside [{v_n}, {n - v_n}]")
    elif max(q1[res.argmax_k - v_n], q2[res.argmax_k - v_n]) != res.q_max:
        wl.problem(f"{label}: Q is not attained at argmax_k")

    theta = res.theta_full
    sref = ref.ScanReference(kind, x, theta)
    if sref.kkt_violation() > KKT_TOL:
        wl.problem(f"{label}: theta_full={theta} fails the first-order conditions"
                   f" (slope {sref.kkt_violation():.3g})")
    for k in sample_ks(res):
        i = k - v_n
        if estimator == "one_step":
            cands = [sref.q_pair(k, *sref.one_step_deltas(k, centred))
                     for centred in (False, True)]
        elif kind == "ar":
            sides = [ref.ar_window_lstsq(x, spec.p, 1, k),
                     ref.ar_window_lstsq(x, spec.p, k + 1, n)]
            if spec.p == 1:
                sides = [np.clip(s, -ref.STATIONARITY, ref.STATIONARITY) for s in sides]
            elif not all(ref.feasible(kind, s) for s in sides):
                continue  # the program's optimizer fallback handles this k
            cands = [sref.q_pair(k, sides[0] - theta, sides[1] - theta)]
        else:
            fits = []
            for seg, (start, end) in (
                (qlscan.SeriesSegment.prefix(x, k), (1, k)),
                (qlscan.SeriesSegment.suffix(x, k), (k + 1, n)),
            ):
                est = qlscan.estimate(spec, seg, init=theta)
                slope = ref.kkt_violation(kind, est.theta_hat, x, start, end)
                if est.converged and slope > KKT_TOL:
                    wl.problem(f"{label}: window [{start}, {end}] estimate fails"
                               f" the first-order conditions (slope {slope:.3g})")
                fits.append(est.theta_hat - theta)
            cands = [sref.q_pair(k, *fits)]
        if not any(_close(q1[i], c1) and _close(q2[i], c2) for c1, c2 in cands):
            wl.problem(f"{label}: k={k} q=({q1[i]}, {q2[i]}) but the reference"
                       f" gives {cands}")


# ---------------------------------------------------------------- cli-test


def _write_series(path, x):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value\n")
        fh.writelines(f"{v:.17g}\n" for v in x)


def _parse_cli(stdout):
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value.strip()
    return out


class CliTest(Workload):
    """Fresh ``qlscan test`` processes, each after a reference process.

    The reference process is a fresh interpreter that imports the
    third-party modules qlscan imports (REFERENCE_IMPORTS) and nothing
    else.  ``op_rel`` is the median, over the regular cases, of a
    process's wall time over that of the reference process started
    just before it.
    """

    name = "cli-test"
    REFERENCE_IMPORTS = "import numpy, scipy.linalg, scipy.signal, click"

    # (label, model); the two F inputs are known faults, counted as failed.
    CASES = (("ar1", "ar"), ("ar1-break", "ar"), ("garch", "garch"),
             ("F1-constant", "ar"), ("F2-arch-x10", "arch"))

    def setup(self):
        s = self.seed
        arch_power = ref.simulate("arch", 500, (1.0, 0.3), (0.5, 0.3), 250,
                                  seed=(922000, 0))
        self.series = {
            "ar1": ref.simulate("ar", 1000, (0.5,), seed=(s, 1)),
            "ar1-break": ref.simulate("ar", 1000, (0.1,), (0.8,), 500, seed=(s, 2)),
            "garch": ref.simulate("garch", 1500, (1.0, 0.4, 0.1), seed=(s, 3)),
            # F1 and F2 do not depend on the seed.
            "F1-constant": np.ones(300),
            "F2-arch-x10": 10.0 * arch_power,
        }
        self.arch_unit = arch_power
        self.paths = {}
        for label, _ in self.CASES:
            self.paths[label] = str(self.ctx.workdir / f"{label}.txt")
            _write_series(self.paths[label], self.series[label])
        self.outputs = {label: [] for label, _ in self.CASES}
        self.child_spans = []
        self.child_imports = []
        self.peak_rss = 0.0

    def _command(self, label, model, traced):
        args = ["test", self.paths[label], "--model", model]
        if traced:
            return [sys.executable, "-X", "importtime",
                    str(self.ctx.here / "cli_child.py"), *args]
        return [sys.executable, "-c", "from qlscan.cli import main; main()", *args]

    def _reference(self):
        wall, code, _, stderr, _ = spawn(
            [sys.executable, "-c", self.REFERENCE_IMPORTS], self.ctx.env,
            self.ctx.root, str(self.ctx.workdir / "reference.out"))
        if code != 0:
            raise RuntimeError(f"reference process failed: {stderr.strip()}")
        return wall

    def round(self, tracer):
        samples = {"op": [], "ref": [], "pair": []}
        spans_path = self.ctx.workdir / "spans.json"
        env = dict(self.ctx.env)
        if tracer is not None:
            env["PERFBENCH_SPANS"] = str(spans_path)
        for label, model in self.CASES:
            regular = not label.startswith("F")
            if regular:
                ref_wall = self._reference()
            wall, code, stdout, stderr, rss = spawn(
                self._command(label, model, tracer is not None), env,
                self.ctx.root, str(self.ctx.workdir / "cli.out"))
            self.attempted += 1
            self.peak_rss = max(self.peak_rss, rss)
            self.outputs[label].append((code, stdout, stderr))
            if regular:
                samples["op"].append(wall)
                samples["ref"].append(ref_wall)
                samples["pair"].append(wall / ref_wall)
            if tracer is not None:
                self.child_imports.append(sp.import_times(
                    stderr, ("qlscan", "numpy", "scipy", "click")))
                with open(spans_path, encoding="utf-8") as fh:
                    self.child_spans.append(json.load(fh))
        return samples

    def figures(self, samples):
        return {"op_rel": statistics.median(samples["pair"]),
                "op_s": statistics.median(samples["op"]),
                "ref_s": statistics.median(samples["ref"]),
                "peak_rss_mb": self.peak_rss}

    def layer_metrics(self, tracer, rounds):
        merged = []
        phases = {"read": [], "scan": [], "output": []}
        for spans in self.child_spans:
            offset = len(merged)
            merged.extend([n, a, b, p + offset if p >= 0 else -1, note]
                          for n, a, b, p, note in spans)
            for key, value in sp.cli_phases(spans).items():
                phases[key].append(value)
        out = sp.program_metrics(merged, rounds)
        for pkg in ("qlscan", "numpy", "scipy", "click"):
            out[f"cli.import.{pkg}_s"] = sp.median_or_zero(
                [imp[pkg] for imp in self.child_imports])
        for key, values in phases.items():
            out[f"cli.phase.{key}_s"] = sp.median_or_zero(values)
        return out

    def check(self):
        for label, model in self.CASES[:3]:
            spec = {"ar": qlscan.ar_spec(1), "garch": qlscan.garch_spec()}[model]
            x = self.series[label]
            res = qlscan.scan(spec, qlscan.SeriesSegment.full(x))
            check_scan(self, label, model, spec, x, res, "one_step")
            want = {"Q": f"{res.q_max:.6g}", "argmax_k": str(res.argmax_k),
                    "decision": "reject" if res.reject else "fail_to_reject"}
            for code, stdout, stderr in self.outputs[label]:
                got = _parse_cli(stdout)
                if code != (2 if res.reject else 0) or any(
                        got.get(k) != v for k, v in want.items()):
                    self.problem(f"{label}: CLI gave exit {code} {got} {stderr.strip()}"
                                 f" but the scan gives {want}")
            if label == "ar1-break" and not res.reject:
                self.problem("ar1-break: a 0.1 -> 0.8 break at n/2 was not detected")

        # F1: a constant series has no change to find; anything but reject.
        for code, stdout, _ in self.outputs["F1-constant"]:
            if code == 2 or _parse_cli(stdout).get("decision") == "reject":
                self.failed += 1
        # F2: the scan is scale-equivariant, so x10 must reproduce the unit answer.
        unit = qlscan.scan(qlscan.arch_spec(), qlscan.SeriesSegment.full(self.arch_unit))
        check_scan(self, "F2 at unit scale", "arch", qlscan.arch_spec(),
                   self.arch_unit, unit, "exact")
        want = "reject" if unit.reject else "fail_to_reject"
        for code, stdout, _ in self.outputs["F2-arch-x10"]:
            got = _parse_cli(stdout)
            try:
                q = float(got.get("Q", "nan"))
            except ValueError:
                q = math.nan
            if code not in (0, 2) or got.get("decision") != want or not (
                    abs(q - unit.q_max) <= 1e-4 * unit.q_max):
                self.failed += 1


# ------------------------------------------------------------- mc studies


class Numerics(Workload):
    """In-process studies, long scans and a calibration, beside a reference job.

    Round i runs, in order:

    * one ARCH(1) n=500 replication of the README level design and one
      of the power design through ``run_experiment`` (default ``exact``
      windows: hundreds of short warm-started fits, per-call overhead),
      each on stream (README base seed + 1000 * seed + i, 0);
    * a GARCH(1,1) one-step scan and an AR(3) exact scan at n=2e4 (a few
      cold fits on long arrays, Sigma/q algebra over about 2e4 splits,
      and the AR cumulative-statistics fast path with its O(p^4 n)
      prefix tensors), of series i % SERIES of a pool made in set-up;
    * ``calibrate`` for d = 1, 2, 3, the only caller of ``critical_values``;
    * the reference job (``reference_job``), once after the level
      replication and once at the end.

    ``op_s`` adds up the median wall time of each of the five program
    operations, and ``op_rel`` divides it by the reference job's median
    wall time.
    """

    name = "numerics"
    # (label, theta0, theta1, break, README base seed); ARCH(1), n = 500
    STUDIES = (("arch-level", (1.0, 0.3), None, None, 933000),
               ("arch-power", (1.0, 0.3), (0.5, 0.3), 250, 922000))
    N_STUDY = 500
    # (label, family, n, theta, window estimator, stream tag)
    SCANS = (("garch", "garch", 20_000, (1.0, 0.4, 0.1), "one_step", 11),
             ("ar3-exact", "ar", 20_000, (0.3, 0.2, 0.1), "exact", 12))
    # Series per scan; a run's medians then average over several inputs.
    SERIES = 4
    M = 1000
    PATHS = 500
    DS = (1, 2, 3)
    ALPHAS = (0.01, 0.05, 0.10)

    def setup(self):
        self.arch = qlscan.arch_spec()
        self.plans = [qlscan.SimPlan(spec=self.arch, n=self.N_STUDY, theta0=th0,
                                     theta1=th1, break_index=brk)
                      for _, th0, th1, brk, _ in self.STUDIES]
        self.scans = []
        for label, kind, n, theta, est, tag in self.SCANS:
            spec = qlscan.ar_spec(len(theta)) if kind == "ar" else qlscan.garch_spec()
            xs = [ref.simulate(kind, n, theta, seed=(self.seed, tag, j))
                  for j in range(self.SERIES)]
            self.scans.append((label, kind, spec, xs, est))
        self.rounds = 0
        self.replications = []
        self.outputs = {}
        self.results = {}
        self.peak_rss = 0.0

    def studies(self, i):
        """Round i's studies: one replication of each design."""
        return [(label, qlscan.ExperimentConfig(
                    plan=plan, replications=1, base_seed=base + 1000 * self.seed + i))
                for (label, *_, base), plan in zip(self.STUDIES, self.plans)]

    def _once(self, label, value):
        """Record an output; a repeated round must reproduce it exactly."""
        if self.outputs.setdefault(label, value) != value:
            self.problem(f"{label}: the same input gave a different result in two rounds")

    def round(self, tracer):
        samples = {"ref": []}
        i = self.rounds
        self.rounds += 1
        for pos, (label, cfg) in enumerate(self.studies(i)):
            t0 = time.perf_counter()
            report = qlscan.experiments.run_experiment(cfg)
            samples[label] = [time.perf_counter() - t0]
            self.attempted += 1
            self.failed += report.n_flagged
            self.replications.append((label, cfg, report.c_alpha, report.records[0]))
            if pos == 0:
                samples["ref"].append(reference_job())
        for label, _, spec, xs, est in self.scans:
            j = i % self.SERIES
            series = qlscan.SeriesSegment.full(xs[j])
            t0 = time.perf_counter()
            res = qlscan.scan_stat.scan(spec, series, window_estimator=est)
            samples[label] = [time.perf_counter() - t0]
            self.attempted += 1
            self._once((label, j), res.q_max)
            self.results[label] = (j, res)
        t0 = time.perf_counter()
        table = qlscan.critical_values.calibrate(ds=self.DS, alphas=self.ALPHAS,
                                                 m=self.M, reps=self.PATHS,
                                                 seed=self.seed)
        samples["calibrate"] = [time.perf_counter() - t0]
        self.attempted += 1
        self._once("calibrate", table.entries)
        samples["ref"].append(reference_job())
        return samples

    def figures(self, samples):
        ops = {k: statistics.median(v) for k, v in samples.items() if k != "ref"}
        op_s = sum(ops.values())
        ref_s = statistics.median(samples["ref"])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"op_rel": op_s / ref_s, "op_s": op_s, "ref_s": ref_s,
                "peak_rss_mb": rss_mb, "ops_s": ops}

    def check(self):
        self._check_studies()
        for label, kind, spec, xs, est in self.scans:
            j, res = self.results[label]
            check_scan(self, f"{label} series {j}", kind, spec, xs[j], res, est)
        self._check_calibration()

    def _check_studies(self):
        window = qlscan.default_window(self.arch, self.N_STUDY)
        for label, _, c_alpha, rec in self.replications:
            if rec.error is None and (
                    rec.q < 0 or rec.reject != (rec.q > c_alpha)
                    or not window.v_n <= rec.argmax_k <= self.N_STUDY - window.v_n):
                self.problem(f"{label}: replication {rec.seed} is inconsistent: {rec}")
        # The first power replication in depth: its series, then its scan.
        label, cfg, _, rec = self.replications[1]
        plan = cfg.plan
        x = qlscan.generate(replace(plan, seed=rec.seed)).data
        x_ref = ref.simulate("arch", self.N_STUDY, plan.theta0, plan.theta1,
                             plan.break_index, seed=rec.seed)
        if not np.allclose(x, x_ref, rtol=1e-9, atol=1e-12 * np.max(np.abs(x_ref))):
            self.problem(f"{label}: simulated series differs from the reference"
                         f" by {np.max(np.abs(x - x_ref)):.3g}")
        res = qlscan.scan(self.arch, qlscan.SeriesSegment.full(x), window=window)
        if rec.error is None and res.q_max != rec.q:
            self.problem(f"{label}: replication {rec.seed} gives Q={rec.q} in"
                         f" the study but {res.q_max} when rescanned")
        check_scan(self, f"{label} {rec.seed}", "arch", self.arch, x, res, "exact")

    def _check_calibration(self):
        c = {key: e.c for key, e in self.outputs["calibrate"].items()}
        for d in self.DS:
            levels = [c[(d, a)] for a in self.ALPHAS]
            if not all(a > b for a, b in zip(levels, levels[1:])):
                self.problem(f"C(d={d}, alpha) does not decrease in alpha: {levels}")
        for a in self.ALPHAS:
            dims = [c[(d, a)] for d in self.DS]
            if not all(x < y for x, y in zip(dims, dims[1:])):
                self.problem(f"C(d, alpha={a}) does not increase in d: {dims}")

        cv = qlscan.critical_values
        sample = cv.simulate_sup_bb(1, m=self.M, reps=self.PATHS, seed=self.seed)
        for a in self.ALPHAS:
            want = float(np.quantile(sample, 1.0 - a / 2.0))
            if c[(1, a)] != want:
                self.problem(f"C(1, {a})={c[(1, a)]} is not the sample quantile {want}")
        dist = ref.grid_ks_distance(sample, self.M)
        if dist > KS_C / math.sqrt(self.PATHS) + KS_SLACK:
            self.problem(f"d=1 sample is {dist:.4f} from the Kolmogorov law (KS)")
        for d in self.DS:
            head = cv.simulate_sup_bb(d, m=self.M, reps=3, seed=self.seed)
            for r in range(3):
                want = ref.bridge_sup(d, self.M, self.seed, r)
                if abs(head[r] - want) > 1e-12 * want:
                    self.problem(f"d={d} replication {r}: {head[r]} but the bridge"
                                 f" formula gives {want}")
            if d == 1 and not np.array_equal(head, sample[:3]):
                self.problem("replications depend on the replication count")


def reference_job(reps=500):
    """Wall time of a fixed in-process computation that uses no qlscan code.

    It draws ``reps`` Brownian-bridge suprema for each d = 1, 2, 3 with
    ``reference.bridge_sup`` (m = 1000, fixed seed): per draw a Philox
    generator and a few small numpy calls, the kind of work that fills
    the program's rounds.  About 0.2 s.
    """
    t0 = time.perf_counter()
    for d in (1, 2, 3):
        for r in range(reps):
            ref.bridge_sup(d, 1000, 0, r)
    return time.perf_counter() - t0


WORKLOADS = {w.name: w for w in (CliTest, Numerics)}


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env
