"""Compute the committed reference values in refs.json.

    python3 perfbench/gen_refs.py [--jobs 2]

Covers every input any seed can draw (the pools in inputs.py), using only
the mpmath/scipy oracle in oracle.py.  Takes about ten minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import oracle  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def sweep_task(axis_name, i, value):
    """References at one point of one axis for every quadruple a seed can
    draw there: the first-hop survivals, which need the quadrature, depend
    on (m_sr, m_rr) only, so they are computed once."""
    variants = inputs.sweep_variants(axis_name)
    sc = inputs.sweep_point(variants[0], axis_name, value)
    r = sc["r"]
    first = {"exact": oracle.sr_survival_exact(sc, r), "lb": oracle.sr_survival_lb(sc, r)}
    out = {}
    for shapes in variants:
        sc = inputs.sweep_point(shapes, axis_name, value)
        second = oracle.rd_survival(sc, r)
        ps = {name: 1 - s1 * second for name, s1 in first.items()}
        if shapes == (1, 1, 1, 1):
            ps["ub"] = oracle.outage_rayleigh_ub(sc)
        # outage, and throughput = r (1 - outage)
        out["%s|%s|%d" % (",".join(map(str, shapes)), axis_name, i)] = {
            name: [float(p), float(r * (1 - p))] for name, p in ps.items()}
    return "sweep", out


def ergodic_task(key, fn_name, sc):
    fn = {"r_e2e_ub": oracle.ergodic_ub, "r_e2e_exact": oracle.ergodic_exact,
          "r_e2e_rayleigh_lb": oracle.rayleigh_lb}[fn_name]
    return "ergodic", {key: float(fn(sc))}


def design_rayleigh_task(i):
    sc = inputs.design_rayleigh(i)
    r = sc["r"]
    out = {
        "2d-cd": float(oracle.min_rayleigh_ub(sc, r)[0]),
        "1d-cx": float(oracle.min_rayleigh_ub(sc, r, p_r=sc["p_r"])[0]),
        "1d-pr": float(oracle.min_rayleigh_ub(sc, r, c_x=sc["c_x"])[0]),
        "throughput": [],
    }
    for rate in inputs.rate_axis():
        _, p_star, c_star = oracle.min_rayleigh_ub(sc, rate)
        igs = oracle.outage_exact(oracle.at(sc, p_r=p_star, c_x=c_star, r=rate))
        out["throughput"].append({
            "pgs": float(rate * (1 - oracle.min_proper_rayleigh(sc, rate))),
            "igs": float(rate * (1 - igs)),
            "mhdf": float(rate * (1 - oracle.hdr_outage(sc, rate, False))),
            "mrc": float(rate * (1 - oracle.hdr_outage(sc, rate, True))),
        })
    return "design", {"rayleigh|%d" % i: out}


def design_other_task(j):
    sc = inputs.design_other(j)
    out = {"grid": float(oracle.min_lb_on_grid(sc, sc["r"])[0]), "throughput": []}
    for rate in inputs.rate_axis():
        out["throughput"].append({
            "pgs": float(rate * (1 - oracle.min_lb_on_grid(sc, rate, c_fixed=0.0)[0])),
            "igs": float(rate * (1 - oracle.min_lb_on_grid(sc, rate)[0])),
            "mhdf": float(rate * (1 - oracle.hdr_outage(sc, rate, False))),
            "mrc": float(rate * (1 - oracle.hdr_outage(sc, rate, True))),
        })
    return "design", {"other|%d" % j: out}


def _run(task):
    fn, args = task
    return globals()[fn](*args)


def tasks():
    out = []
    for key, (fn, sc) in inputs.all_ergodic_cases().items():
        out.append(("ergodic_task", (key, fn, sc)))
    out += [("design_rayleigh_task", (i,)) for i in range(len(inputs.DESIGN_RAYLEIGH))]
    out += [("design_other_task", (j,)) for j in range(len(inputs.DESIGN_OTHER))]
    for name in inputs.SWEEP_AXES:
        out += [("sweep_task", (name, i, v)) for i, v in enumerate(inputs.sweep_values(name))]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--only", help="comma-separated sections to recompute, keeping the rest")
    args = parser.parse_args()
    sections = ["sweep", "ergodic", "design"]
    refs = {s: {} for s in sections}
    if args.only:
        with open(OUT, encoding="utf-8") as fh:
            old = json.load(fh)
        sections = args.only.split(",")
        refs.update({s: old[s] for s in refs if s not in sections})
    todo = [t for t in tasks() if t[0].split("_")[0] in sections]
    start = time.time()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs) as pool:
        for n, (section, values) in enumerate(pool.imap_unordered(_run, todo, chunksize=4), 1):
            refs[section].update(values)
            if n % 100 == 0:
                print(f"{n}/{len(todo)} after {time.time() - start:.0f} s", file=sys.stderr)
    for section in sections:
        refs[section] = dict(sorted(refs[section].items()))
    refs["oracle"] = "mpmath %s; see oracle.py" % oracle.mp.__version__
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}: {len(todo)} tasks in {time.time() - start:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
