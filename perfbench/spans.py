"""Spans recorded around qlscan's public functions, and the layer metrics built from them.

The benchmark wraps each function under the name its caller looks it
up by (``qlscan.scan_stat.estimate`` is what the scan calls, so that is
the attribute replaced).  Spans live in memory as
``[name, start, end, parent_index, note]`` and are turned into metrics
when the traced rounds are over.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded,
so children never overlap.
"""

from __future__ import annotations

import re
import statistics
import time
from collections import defaultdict

SCAN_SPANS = ("qlscan.experiments.scan", "qlscan.scan_stat.scan", "qlscan.cli.scan")
ESTIMATE = "qlscan.scan_stat.estimate"
DERIVATIVE_PASS = "qlscan.scan_stat.loglik"
LOGLIK_SPANS = ("qlscan.qmle.loglik", DERIVATIVE_PASS)


class Tracer:
    """Replaces functions by span-recording wrappers until ``close``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, note=None):
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def close(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _note_loglik(args, kwargs, result):
    return {"order": _arg(args, kwargs, 3, "order", 2), "points": args[2].card}


def _note_estimate(args, kwargs, result):
    seg = args[1]
    return {
        "warm": _arg(args, kwargs, 2, "init") is not None,
        "full": seg.start == 1 and seg.end == seg.n,
        "iterations": result.iterations,
        "converged": bool(result.converged),
    }


def install_program(tracer, qlscan):
    """Wrap the layer boundaries below the scan: estimate, loglik, projection."""
    tracer.wrap(qlscan.scan_stat, "scan", "qlscan.scan_stat.scan",
                lambda a, k, r: {"missing": r.n_missing})
    tracer.wrap(qlscan.scan_stat, "estimate", ESTIMATE, _note_estimate)
    tracer.wrap(qlscan.scan_stat, "loglik", DERIVATIVE_PASS, _note_loglik)
    tracer.wrap(qlscan.qmle, "loglik", "qlscan.qmle.loglik", _note_loglik)
    tracer.wrap(qlscan.qmle, "project_to_domain", "qlscan.qmle.project_to_domain")
    tracer.wrap(qlscan.experiments, "generate", "qlscan.experiments.generate")
    tracer.wrap(qlscan.experiments, "scan", "qlscan.experiments.scan",
                lambda a, k, r: {"missing": r.n_missing})
    tracer.wrap(qlscan.experiments, "run_experiment",
                "qlscan.experiments.run_experiment",
                lambda a, k, r: {"reps": len(r.records), "flagged": r.n_flagged})
    cv = qlscan.critical_values
    tracer.wrap(cv, "simulate_sup_bb", "qlscan.critical_values.simulate_sup_bb",
                lambda a, k, r: {"d": a[0]})
    tracer.wrap(cv, "sup_bb_quantile", "qlscan.critical_values.sup_bb_quantile")
    tracer.wrap(cv.CriticalTable, "validate",
                "qlscan.critical_values.CriticalTable.validate")


def self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def program_metrics(spans, rounds):
    """Per-round layer metrics from the spans of ``rounds`` traced rounds."""
    selfs = self_times(spans)
    m = defaultdict(float)
    points = 0
    estimates = converged = 0
    scan_spans = {i for i, s in enumerate(spans) if s[0] in SCAN_SPANS}
    for i, (name, start, end, parent, note) in enumerate(spans):
        dur = end - start
        if name in LOGLIK_SPANS:
            m[f"likelihood.loglik.calls.o{note['order']}"] += 1
            m["likelihood.loglik.self_s"] += selfs[i]
            points += note["points"]
            if parent in scan_spans:
                m["scan_stat.derivative_pass_s"] += dur
        elif name == ESTIMATE:
            estimates += 1
            converged += note["converged"]
            m["qmle.estimate.calls.warm" if note["warm"] else "qmle.estimate.calls.cold"] += 1
            m["qmle.estimate.self_s"] += selfs[i]
            m["qmle.estimate.iterations"] += note["iterations"]
            if parent in scan_spans:
                if note["full"]:
                    m["scan_stat.full_fit_s"] += dur
                else:
                    m["scan_stat.window_fit_s"] += dur
                    m["scan_stat.window_fits.warm" if note["warm"]
                      else "scan_stat.window_fits.cold"] += 1
        elif name == "qlscan.qmle.project_to_domain":
            m["qmle.project_to_domain.calls"] += 1
            m["qmle.project_to_domain.self_s"] += selfs[i]
        elif i in scan_spans:
            m["scan_stat.scan_s"] += dur
            m["scan_stat.assembly_s"] += selfs[i]
            m["scan_stat.missing_k"] += note["missing"]
        elif name == "qlscan.experiments.generate":
            m["simulate.generate.calls"] += 1
            m["simulate.generate.self_s"] += selfs[i]
        elif name == "qlscan.experiments.run_experiment":
            m["experiments.run_experiment.self_s"] += selfs[i]
            m["experiments.reps"] += note["reps"]
            m["experiments.flagged"] += note["flagged"]
        elif name == "qlscan.critical_values.simulate_sup_bb":
            m[f"critical_values.simulate_sup_bb.self_s.d{note['d']}"] += selfs[i]
        elif name == "qlscan.critical_values.sup_bb_quantile":
            m["critical_values.sup_bb_quantile.self_s"] += selfs[i]
        elif name == "qlscan.critical_values.CriticalTable.validate":
            m["critical_values.validate.self_s"] += selfs[i]
    loglik_calls = sum(v for k, v in m.items() if k.startswith("likelihood.loglik.calls."))
    out = {k: v / rounds for k, v in m.items()}
    out["likelihood.loglik.points_per_call"] = points / loglik_calls if loglik_calls else 0.0
    out["qmle.estimate.converged_ratio"] = converged / estimates if estimates else 0.0
    return out


# ------------------------------------------------------------ CLI child


def cli_phases(spans):
    """Durations of the read, scan and output phases of one CLI process."""
    phase = {"qlscan.cli.read_series": "read", "qlscan.cli.scan": "scan",
             "click.echo": "output"}
    out = {"read": 0.0, "scan": 0.0, "output": 0.0}
    for name, start, end, _, _ in spans:
        if name in phase:
            out[phase[name]] += end - start
    return out


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times(stderr, packages):
    """First-import cumulative seconds per top-level package, from -X importtime.

    An entry counts for package P when it is P or a submodule of P and
    no module that imported it belongs to P, so nested imports of the
    same package are not counted twice.
    """
    entries = []  # (depth, name, cumulative_us, parent)
    pending = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        depth = len(match.group(3)) // 2
        idx = len(entries)
        entries.append([depth, match.group(4), int(match.group(2)), -1])
        # Children are printed before the module that imported them.
        while pending and entries[pending[-1]][0] > depth:
            entries[pending.pop()][3] = idx
        pending.append(idx)
    out = {}
    for pkg in packages:
        total = 0
        for depth, name, cum, parent in entries:
            if name != pkg and not name.startswith(pkg + "."):
                continue
            up = parent
            inside = False
            while up >= 0:
                up_name = entries[up][1]
                if up_name == pkg or up_name.startswith(pkg + "."):
                    inside = True
                    break
                up = entries[up][3]
            if not inside:
                total += cum
        out[pkg] = total / 1e6
    return out


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
