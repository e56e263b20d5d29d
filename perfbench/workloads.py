"""The three workloads: seeded inputs, one timed batch (``run``), and the
output check.

Each workload drives fdrigs only through public entry points
(``fdrigs.cli.main`` and the ``fdrigs.r_e2e_*`` functions) and compares every output with refs.json.

Analytic outputs are compared by relative error against the reference,
normalised by max(|ref|, floor); they pass at or below ``tol`` and count
-log10(error) correct digits, capped at what the library promises.  Monte
Carlo outputs pass when |estimate - ref| <= 5 standard errors.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

import inputs

QUAD_DIGITS = 10  # the default QuadratureConfig's rel_tol of 1e-10
Z_MAX = 5.0


class Checks:
    """Outcome of checking one batch."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # keys of outputs that raised or missed their reference
        self.digits = []  # (correct digits, key) of every passing analytic output
        self.cells = 0
        self.failed_cells = 0

    def analytic(self, key, value, ref, floor=1e-12, tol=1e-6, cap=QUAD_DIGITS):
        self.attempted += 1
        if value is None or not math.isfinite(value):
            self.failures.append(key)
            return
        err = abs(value - ref) / max(abs(ref), floor)
        if err > tol:
            self.failures.append(key)
            return
        self.digits.append((cap if err == 0 else min(cap, -math.log10(err)), key))

    def monte_carlo(self, key, value, stderr, ref):
        self.attempted += 1
        if value is None or not stderr or abs(value - ref) > Z_MAX * stderr:
            self.failures.append(key)

    def failed(self, key):
        self.attempted += 1
        self.failures.append(key)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _cell(row, header, name):
    """Float value of column `name`, or None when the row, column or cell is missing."""
    if row is None or name not in header:
        return None
    text = row[header.index(name)]
    return float(text) if text else None


def _count_cells(checks, rows):
    for row in rows:
        for text in row[1:]:
            checks.cells += 1
            checks.failed_cells += not text


def _shape_sets(shapes):
    return [f"m_{link}={m}" for link, m in zip(inputs.LINKS, shapes)]


def _cli(argv):
    """fdrigs.cli.main with its stdout report discarded; returns the exit code."""
    from fdrigs import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _sets(pairs):
    argv = []
    for item in pairs:
        argv += ["--set", item]
    return argv


# ---------------------------------------------------------------- sweep
class Sweep:
    """`fdrigs sweep` of outage and throughput along c_x, pi_rr (dB) and p_r,
    one 67-point sweep per axis."""

    name = "sweep"

    @classmethod
    def from_seed(cls, seed, refs, workdir):
        return cls(inputs.sweep_draw(seed).items(), refs, workdir)

    def __init__(self, sweeps, refs, workdir):
        self.refs = refs["sweep"]
        self.jobs = []
        for n, (axis_name, shapes) in enumerate(sweeps):
            ax = inputs.SWEEP_AXES[axis_name]
            methods = "exact,lb,ub" if shapes == (1, 1, 1, 1) else "exact,lb"
            out = os.path.join(workdir, "sweep-%d.csv" % n)
            argv = ["sweep", "--out", out] + _sets(_shape_sets(shapes) + [
                f"sweep_var={ax['var']}", f"sweep_start={ax['start']!r}",
                f"sweep_stop={ax['stop']!r}", f"sweep_points={inputs.SWEEP_POINTS}",
                f"sweep_scale={ax['scale']}", "metrics=outage,throughput", f"methods={methods}",
            ])
            self.jobs.append((shapes, axis_name, methods.split(","), out, argv))

    def run(self):
        codes = []
        for job in self.jobs:
            codes.append(_cli(job[-1]))
        return codes

    def check(self, codes):
        checks = Checks()
        tags = {"exact": "exact-integral", "lb": "lower-bound", "ub": "upper-bound"}
        for (shapes, axis_name, methods, out, _), code in zip(self.jobs, codes):
            header, rows = _read_csv(out) if code == 0 else ([], [])
            _count_cells(checks, rows)
            base = "%s|%s" % (",".join(map(str, shapes)), axis_name)
            for i in range(inputs.SWEEP_POINTS):
                row = rows[i] if i < len(rows) else None
                ref = self.refs["%s|%d" % (base, i)]
                for method in methods:
                    p_ref, s_ref = ref[method]
                    for metric, target in (("outage", p_ref), ("throughput", s_ref)):
                        key = "sweep|%s|%d|%s|%s" % (base, i, metric, method)
                        value = _cell(row, header, f"{metric}:{tags[method]}")
                        checks.analytic(key, value, target)
        return checks


# -------------------------------------------------------------- ergodic
class Ergodic:
    """r_e2e_ub, r_e2e_rayleigh_lb and r_e2e_exact on seeded shape draws."""

    name = "ergodic"

    @classmethod
    def from_seed(cls, seed, refs, workdir):
        return cls(inputs.ergodic_cases(seed), refs, workdir)

    def __init__(self, cases, refs, workdir):
        import fdrigs
        from fdrigs.model import LinkStat

        self.refs = refs["ergodic"]
        self.cases = []
        for key, fn_name, sc in cases:
            links = [LinkStat(m, pi) for m, pi in zip(sc["m"], sc["pi"])]
            sys_p = fdrigs.SystemParams(*links, p_s=sc["p_s"], p_max=sc["p_max"])
            sig = fdrigs.SignalParams(sc["p_r"], sc["c_x"])
            self.cases.append((key, fn_name, sys_p, sig))

    def run(self):
        import fdrigs

        out = []
        for _, fn_name, sys_p, sig in self.cases:
            try:
                out.append(getattr(fdrigs, fn_name)(sys_p, sig).value)
            except (ArithmeticError, ValueError, RuntimeError):
                out.append(None)
        return out

    def check(self, values):
        checks = Checks()
        for (key, *_), value in zip(self.cases, values):
            # ergodic rates are O(1) bits/s/Hz: errors are taken relative to
            # max(|ref|, 1 bit/s/Hz)
            checks.analytic("ergodic|" + key, value, self.refs[key], floor=1.0)
        return checks


# --------------------------------------------------------------- design
class Design:
    """`fdrigs optimize` and `fdrigs throughput` on one Rayleigh and one
    non-Rayleigh scenario."""

    name = "design"

    @classmethod
    def from_seed(cls, seed, refs, workdir):
        return cls(*inputs.design_draw(seed), seed % 2**31, refs, workdir)

    def __init__(self, i, j, mc_seed, refs, workdir):
        self.refs = refs["design"]
        ray = ["pi_rr_db=%r" % inputs.DESIGN_RAYLEIGH[i]["rr"], "pi_sd_db=%r" % inputs.DESIGN_RAYLEIGH[i]["sd"]]
        shapes, pi_db = inputs.DESIGN_OTHER[j]
        other = _shape_sets(shapes) + ["pi_rr_db=%r" % pi_db["rr"]]
        rates = ["sweep_var=r", "sweep_start=%r" % inputs.DESIGN_RATES["start"],
                 "sweep_stop=%r" % inputs.DESIGN_RATES["stop"],
                 "sweep_points=%d" % inputs.DESIGN_RATES["points"]]
        self.jobs = []
        for opt in ("2d-cd", "1d-cx", "1d-pr"):
            self.jobs.append(("optimize", "rayleigh|%d" % i, opt, ray + [f"optimizer={opt}"]))
        self.jobs.append(("optimize", "other|%d" % j, "grid", other + ["optimizer=grid"]))
        self.jobs.append(("throughput", "rayleigh|%d" % i, None, ray + rates))
        self.jobs.append(("throughput", "other|%d" % j, None, other + rates))
        self.argvs = []
        for n, (cmd, _, _, sets) in enumerate(self.jobs):
            out = os.path.join(workdir, "design-%d.csv" % n)
            argv = [cmd, "--out", out] + _sets(sets)
            if cmd == "throughput":
                argv += ["--seed", str(mc_seed)]
            self.argvs.append((out, argv))

    def run(self):
        codes = []
        for _, argv in self.argvs:
            codes.append(_cli(argv))
        return codes

    def check(self, codes):
        checks = Checks()
        for (cmd, ref_key, opt, _), (out, _), code in zip(self.jobs, self.argvs, codes):
            ref = self.refs[ref_key]
            key = "design|%s|%s|%s" % (ref_key, cmd, opt or "")
            if code != 0:
                checks.failed(key)
                continue
            header, rows = _read_csv(out)
            _count_cells(checks, rows)
            if cmd == "optimize":
                obj = next((h for h in header if h.startswith("objective:")), None)
                row = rows[0] if rows else None
                converged = _cell(row, header, "converged") == 1.0
                value = _cell(row, header, obj) if obj and converged else None
                checks.analytic(key, value, ref[opt])
                continue
            for n, tref in enumerate(ref["throughput"]):
                row = rows[n] if n < len(rows) else None
                for scheme, name in (("pgs", "pgs-optimized"), ("igs", "igs-optimized"),
                                     ("mhdf", "hdr-mhdf"), ("mrc", "hdr-mrc")):
                    k = "%s|%d|%s" % (key, n, scheme)
                    col = next((h for h in header if h.startswith(f"throughput:{name}:")), "")
                    value = _cell(row, header, col)
                    if col.endswith(":monte-carlo"):
                        stderr = _cell(row, header, col + ":stderr")
                        checks.monte_carlo(k, value, stderr, tref[scheme])
                    elif scheme == "igs" and ref_key.startswith("rayleigh"):
                        # outage at the optimizer's design point: the point is
                        # only as accurate as the search's 1e-10 stopping rule
                        checks.analytic(k, value, tref[scheme], tol=1e-4, cap=4)
                    else:
                        checks.analytic(k, value, tref[scheme])
        return checks


WORKLOADS = {cls.name: cls for cls in (Sweep, Ergodic, Design)}
