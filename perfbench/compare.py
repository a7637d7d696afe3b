#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --out`` (one per
run, untraced).  For every workload and end-to-end metric this prints
both medians and quartiles, the pairs the change won (runs paired by
seed, ties counting for neither side), and a verdict under the bounds
in BENCHMARK.json:

* improved   the change wins at least 9 in 10 pairs and its median is
             better by more than the parent's interquartile distance;
* unresolved the parent's spread (IQR / median) exceeds the bound and
             not every change run beats every parent run;
* worse      the change's median is worse by more than the bound;
* no worse   otherwise.

Runs from different machines or library versions are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fields that must agree between every run compared.
SAME = ("nproc", "cpus_usable", "machine", "python", "numpy", "scipy", "click",
        "blas", "threads", "seconds")


def load(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc["env"]["trace"] == 0 and doc["env"]["workload"] != "all":
            runs.append(doc)
    if not runs:
        raise SystemExit(f"error: no untraced result files in {directory}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, pairs_won, pairs, better, bound):
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (p_med - c_med)  # positive when the change is better
    if pairs and pairs_won >= 0.9 * pairs and gain > p_q3 - p_q1:
        return "improved"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        return "unresolved"
    if -gain / p_med > bound:
        return "worse"
    return "no worse"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(argv[0]), load(argv[1])
    ref_env = parent[0]["env"]
    for doc in parent + change:
        diff = [k for k in SAME if doc["env"].get(k) != ref_env.get(k)]
        if diff:
            print(f"error: runs differ in {', '.join(diff)}; not comparable",
                  file=sys.stderr)
            return 2
    for side, docs in (("parent", parent), ("change", change)):
        commits = sorted({d["env"]["git_commit"] + " src " + d["env"]["src_sha256"][:12]
                          for d in docs})
        print(f"{side}: {'; '.join(commits)}")

    workloads = sorted({d["env"]["workload"] for d in parent + change})
    print(f"{'workload':12s} {'metric':12s} {'parent median [q1, q3]':34s}"
          f" {'change median [q1, q3]':34s} {'won':>7s}  verdict")
    for wl in workloads:
        p_runs = {d["env"]["seed"]: d["result"] for d in parent if d["env"]["workload"] == wl}
        c_runs = {d["env"]["seed"]: d["result"] for d in change if d["env"]["workload"] == wl}
        if not p_runs or not c_runs:
            print(f"{wl:12s} missing on one side")
            continue
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            att = sum(r["attempted"] for r in runs.values())
            fail = sum(r["failed"] for r in runs.values())
            bad = sum(not r["correct"] for r in runs.values())
            print(f"{wl:12s} {side}: {fail}/{att} operations failed,"
                  f" {bad} runs with failed checks")
        seeds = sorted(set(p_runs) & set(c_runs))
        for m in spec["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            pv = [r["metrics"][name]["value"] for r in p_runs.values()]
            cv = [r["metrics"][name]["value"] for r in c_runs.values()]
            sign = 1.0 if better == "lower" else -1.0
            won = sum(sign * (p_runs[s]["metrics"][name]["value"]
                              - c_runs[s]["metrics"][name]["value"]) > 0 for s in seeds)
            cells = []
            for vals in (pv, cv):
                q1, q3 = quartiles(vals)
                cells.append(f"{statistics.median(vals):.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{wl:12s} {name:12s} {cells[0]:34s} {cells[1]:34s}"
                  f" {won:>3d}/{len(seeds):<3d}  {verdict(pv, cv, won, len(seeds), better, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
