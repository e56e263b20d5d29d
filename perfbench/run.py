"""Benchmark runner for fdrigs.

    python3 perfbench/run.py --workload {sweep,ergodic,design}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in its own worker
process (perfbench/worker.py) with BLAS/OpenMP pinned to one thread.  With
--trace 0 the runner first starts SETUP_PROBES extra workers that only set
up, and reports the median set-up time of all of them with the end-to-end
metrics; with --trace 1 it reports the per-layer metrics of a traced run.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "ergodic", "design")
SETUP_PROBES = 2
DEADLINE_S = 170.0  # the whole run must end within 180 s

ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def _worker(args, started, setup_only=False):
    """Start one worker and return its JSON line; raise on any failure."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace)]
    env = dict(os.environ, **ENV)
    env.pop("PYTHONPATH", None)
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise TimeoutError("no time left for another worker")
    spawned_at = time.time()
    proc = subprocess.run(cmd + [repr(spawned_at)] + (["--setup-only"] if setup_only else []),
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=left, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fdrigs", "__init__.py")):
        print(f"run.py: no fdrigs sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        setups = []
        if not args.trace:
            probes = [_worker(args, started, setup_only=True) for _ in range(SETUP_PROBES)]
            setups = [p["setup_s"] for p in probes]
        result = _worker(args, started)
    except (OSError, RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        result["raw_s"]["setup"] = statistics.median([p["setup_raw"] for p in probes] + [result["raw_s"]["setup"]])
    for name, m in result["metrics"].items():
        print(f"{args.workload:9s} {name:40s} {m['value']:.6g} {m['unit']}")
    for key in ("batches", "known_failures", "raw_s", "unexpected_failures", "min_digits_at", "absent", "spans"):
        if key in result:
            print(f"{args.workload:9s} {key}: {result.pop(key)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
