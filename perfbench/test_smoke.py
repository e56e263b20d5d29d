"""Smoke test of the benchmark runner with a tiny budget.

    python3 -m pytest perfbench/test_smoke.py

Checks that BENCHMARK.json names every workload and metric the benchmark
defines, that one short run in each mode reports exactly those metrics
with their units, and that the runner refuses to report without sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOADS = {"sweep", "ergodic", "design"}
END_TO_END = {"setup_s": "s", "wall_s": "s", "ok_frac": "ratio", "min_digits": "digits",
              "peak_rss_mb": "MB"}
LAYER_EXAMPLES = [
    "specfun.log_q.calls", "specfun.log_q.self_s", "specfun.xi_n.calls", "specfun.tricomi_u.self_s",
    "quad.calls", "quad.evals", "quad.self_s", "quad.failed", "quad.evals_per_value",
    "outage.p_e2e_exact.calls", "outage.p_e2e_rayleigh_ub.self_s", "ergodic.r_e2e_ub.failed",
    "montecarlo.samples", "montecarlo.self_s", "optimize.bisect.iterations",
    "optimize.ub_derivative.calls", "cli.sweep.self_s", "cli.cells", "cli.failed_cells",
    "trace.overhead_s",
]


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_every_workload_and_metric():
    bench = _bench()
    assert {w["name"] for w in bench["workloads"]} == WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert layers == dict(tracing.per_layer_names())
    assert set(LAYER_EXAMPLES) <= set(layers)


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_reports_every_metric(trace):
    proc = _run(ROOT, "--workload", "design", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1 and out["failed"] == 0
    expected = _bench()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
