"""List every pooled input on which the library misses its reference.

    python3 perfbench/list_failures.py [WORKLOAD ...]

Runs each workload's check over its whole input pool (inputs.py), not just
one seed's draw, and writes seed_failures.json.  The runner reports
`correct: false` only for a failure that is not in that list, so the list
records the defects of the commit it was generated at; the failures still
count in `failed` and `ok_frac`.  Takes about five minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    workdir = os.path.join(ROOT, ".perfbench_out", "list-failures")
    os.makedirs(workdir, exist_ok=True)
    n_ray, n_other = len(inputs.DESIGN_RAYLEIGH), len(inputs.DESIGN_OTHER)
    pools = {
        "sweep": [workloads.Sweep([(name, shapes) for name in inputs.SWEEP_AXES
                                   for shapes in inputs.sweep_variants(name)], refs, workdir)],
        "ergodic": [workloads.Ergodic(
            [(k, fn, sc) for k, (fn, sc) in inputs.all_ergodic_cases().items()], refs, workdir)],
        "design": [workloads.Design(k % n_ray, k % n_other, 0, refs, workdir)
                   for k in range(max(n_ray, n_other))],
    }
    only = sys.argv[1:] or list(pools)
    out_path = os.path.join(HERE, "seed_failures.json")
    failures, report = [], {}
    if sys.argv[1:]:  # recompute some pools, keep the others
        with open(out_path, encoding="utf-8") as fh:
            old = json.load(fh)
        report = {k: v for k, v in old["pools"].items() if k not in only}
        failures = [f for f in old["failures"] if f.split("|")[0] not in only]
    for name in only:
        attempted, fails, digits = 0, [], []
        for wl in pools[name]:
            checks = wl.check(wl.run())
            attempted += checks.attempted
            fails += checks.failures
            digits += checks.digits
        failures += fails
        report[name] = {"attempted": attempted, "failed": len(fails),
                        "lowest_digits": sorted(digits)[:5]}
        print(name, json.dumps(report[name]), file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"pools": report, "failures": sorted(set(failures))}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
