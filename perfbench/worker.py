"""One workload process: set up, run timed batches for the budget, check
every output, and print one JSON line.  Started by run.py, never directly.

    worker.py WORKLOAD SEED SECONDS TRACE SPAWNED_AT [--setup-only]

SPAWNED_AT is the parent's time.time() just before it started this
process, so the reported set-up time covers interpreter start, the imports
of fdrigs, NumPy and SciPy, loading refs.json and building the inputs.
The set-up time is normalised by the calibration kernel (clock.py), run in
this process before the imports and again after set-up; the first run's
own duration is left out of the set-up time.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def main(argv) -> int:
    workload, seed, seconds, trace, spawned_at = argv[:5]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from clock import Clock, calibrate, normalise

    kernel_before = calibrate()

    import fdrigs.cli  # noqa: F401  (set-up cost: all of fdrigs, NumPy, SciPy)

    import workloads

    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    with open(os.path.join(HERE, "seed_failures.json"), encoding="utf-8") as fh:
        known = set(json.load(fh)["failures"])
    workdir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[workload].from_seed(seed, refs, workdir)
    setup_raw = time.time() - float(spawned_at) - kernel_before
    setup_s = normalise(setup_raw, kernel_before, calibrate())
    if "--setup-only" in argv:
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s, "setup_raw": setup_raw}))
        return 0

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    plain, traced, raw, traced_raw = [], [], [], []
    attempted = cells = failed_cells = 0
    failures, digits = [], []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            # in a traced run, batches alternate untraced / traced
            use_trace = tracer is not None and len(traced) < len(plain)
            if use_trace:
                tracer.install()
            try:
                start = time.perf_counter()
                clock = Clock(segments=not use_trace)
                try:
                    out = wl.run()
                finally:
                    elapsed, elapsed_raw = clock.stop()
                took = time.perf_counter() - start
            finally:
                if use_trace:
                    tracer.uninstall()
            checks = wl.check(out)
            (traced if use_trace else plain).append(elapsed)
            (traced_raw if use_trace else raw).append(elapsed_raw)
            attempted += checks.attempted
            failures += checks.failures
            digits += checks.digits
            if use_trace:
                cells += checks.cells
                failed_cells += checks.failed_cells
            done = tracer is None or traced
            if done and time.perf_counter() + took > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # A listed failure is a known defect of the library: it lowers ok_frac
    # but is not a failed operation.  Any other failure is, and makes the
    # run incorrect.
    unknown = [key for key in failures if key not in known]
    result = {
        "correct": not unknown,
        "attempted": attempted,
        "failed": len(unknown),
        "known_failures": len(failures) - len(unknown),
        "batches": len(plain) + len(traced),
        "unexpected_failures": sorted(set(unknown))[:20],
        "min_digits_at": min(digits)[1] if digits else None,
        "raw_s": {"setup": setup_raw, "batch_median": statistics.median(raw)},
    }
    if tracer is None:
        wall = statistics.median(plain)
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "ok_frac": {"value": 1.0 - len(failures) / attempted, "unit": "ratio"},
            "min_digits": {"value": min(digits)[0] if digits else 0.0, "unit": "digits"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        n = len(traced)
        extra = {
            "cli.cells": cells / n,
            "cli.failed_cells": failed_cells / n,
            "trace.wall_s": statistics.median(traced),
            "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        }
        names = tracing.per_layer_names()
        # spans are timed in raw seconds; rescale them like the batch times
        result["metrics"] = tracer.metrics(n, extra, names, sum(traced) / sum(traced_raw))
        result["absent"] = tracer.absent
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, "trace-%s-%d.jsonl" % (workload, seed))
        tracer.write(spans)
        result["spans"] = {"path": os.path.relpath(spans, ROOT), "kept": len(tracer.spans),
                           "dropped": tracer.dropped}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
