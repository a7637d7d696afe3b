"""Same-numbers digest of the README reproduction tables.

Runs the 12 designs of README's "Reproduction measurements" tables
(1,300 replications) exactly as ``qlscan experiment`` runs them:
replication r simulates with seed (base seed, r) and scans with the
built-in table at alpha = 0.05 and the family's default window.  It
prints each design's rejection count beside the count README's
measured rate implies, then one sha256 over q1, q2 and ``theta_full``
of every replication of each family (AR, ARCH, GARCH) and one over all
1,300, in design and replication order, and the wall time.  Two
checkouts whose scans give the same bits print the same digests, so a
change shows which family's bits it moved; a BLAS kernel forced
through ``OPENBLAS_CORETYPE`` gives that kernel's digests.

Run from the repository root:

    PYTHONPATH=src python tests/readme_digest.py

Exit status 1 if a design's rejection count differs from README's or a
replication fails.  The name has no ``test_`` prefix, so pytest does
not collect it: the run takes about 25 s on one core of a 2-core
x86-64 machine.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import replace

from qlscan import CriticalTable, ScanError, SimPlan, generate, scan
from qlscan.models import make_spec, scan_window

# (model, n, theta0, theta1, break, reps, base seed, README measured rate);
# every break design switches at n/2.
DESIGNS = (
    ("ar", 1024, (0.9,), None, None, 100, 931000, 0.030),
    ("ar", 2048, (0.9,), None, None, 100, 936000, 0.030),
    ("ar", 4096, (0.9,), None, None, 200, 920000, 0.025),
    ("ar", 1024, (0.9,), (0.5,), 512, 100, 932000, 1.000),
    ("ar", 2048, (0.9,), (0.5,), 1024, 100, 923000, 1.000),
    ("ar", 4096, (0.9,), (0.5,), 2048, 100, 937000, 1.000),
    ("arch", 500, (1.0, 0.3), None, None, 100, 933000, 0.070),
    ("arch", 500, (1.0, 0.3), (0.5, 0.3), 250, 100, 922000, 1.000),
    ("arch", 500, (1.0, 0.3), (0.5, 0.6), 250, 100, 938000, 0.840),
    ("garch", 1500, (1.0, 0.4, 0.1), None, None, 100, 910000, 0.040),
    ("garch", 1500, (1.0, 0.4, 0.1), (0.7, 0.4, 0.1), 750, 100, 934000, 0.690),
    ("garch", 1500, (1.0, 0.4, 0.1), (1.0, 0.4, 0.3), 750, 100, 935000, 0.880),
)


def main() -> int:
    table = CriticalTable.builtin()
    digest = hashlib.sha256()
    families = {model: hashlib.sha256() for model, *_ in DESIGNS}
    ok = True
    t0 = time.perf_counter()
    for model, n, theta0, theta1, brk, reps, base_seed, rate in DESIGNS:
        spec = make_spec(model)
        plan = SimPlan(spec=spec, n=n, theta0=theta0, theta1=theta1, break_index=brk)
        window = scan_window(spec, n)
        rejected = failed = 0
        for r in range(reps):
            series = generate(replace(plan, seed=(base_seed, r)))
            try:
                res = scan(spec, series, window=window, alpha=0.05, table=table)
            except ScanError:
                failed += 1
                continue
            rejected += res.reject
            for arr in (res.q1, res.q2, res.theta_full):
                digest.update(arr.tobytes())
                families[model].update(arr.tobytes())
        readme = round(rate * reps)
        match = rejected == readme and failed == 0
        ok &= match
        design = f"{model} n={n} {theta0}" + (f" -> {theta1} after {brk}" if theta1 else "")
        print(f"{design:<58} seed {base_seed}: {rejected:>3}/{reps} rejected,"
              f" README {readme:>3}, {failed} failed{'' if match else '  MISMATCH'}")
    for model, family in families.items():
        print(f"sha256(q1, q2, theta_full) {model:<5} {family.hexdigest()}")
    print(f"sha256(q1, q2, theta_full) all   {digest.hexdigest()}")
    print(f"wall time {time.perf_counter() - t0:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
