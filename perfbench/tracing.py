"""Timing wrappers installed around each layer's functions for a traced run.

The wrappers are patched in from outside the library, at every place a
caller looks the name up: the defining module, every fdrigs module that
imported the name, and ``scipy.integrate`` for the quadrature routines.
Spans (id, parent, name, start, end) are kept in memory and written when
the run ends; self time is a span's duration minus its child spans.
A target that no longer exists is reported absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import warnings
from collections import defaultdict

import numpy as np

# (metric prefix, module, attribute).  Several attributes may share a prefix.
TARGETS = [
    ("specfun.log_q", "fdrigs.specfun", "log_upper_incomplete_gamma_int"),
    ("specfun.xi_n", "fdrigs.specfun", "xi_n"),
    ("specfun.tricomi_u", "fdrigs.specfun", "tricomi_u"),
    ("outage.integrate_semi_infinite", "fdrigs.outage", "integrate_semi_infinite"),
    ("outage.p_e2e_exact", "fdrigs.outage", "p_e2e_exact"),
    ("outage.p_e2e_lb", "fdrigs.outage", "p_e2e_lb"),
    ("outage.p_e2e_rayleigh_ub", "fdrigs.outage", "p_e2e_rayleigh_ub"),
    ("ergodic.r_e2e_exact", "fdrigs.ergodic", "r_e2e_exact"),
    ("ergodic.r_e2e_ub", "fdrigs.ergodic", "r_e2e_ub"),
    ("ergodic.r_e2e_rayleigh_lb", "fdrigs.ergodic", "r_e2e_rayleigh_lb"),
    ("montecarlo", "fdrigs.montecarlo", "estimate_outage"),
    ("montecarlo", "fdrigs.montecarlo", "estimate_link_outage"),
    ("montecarlo", "fdrigs.montecarlo", "estimate_ergodic"),
    ("montecarlo", "fdrigs.montecarlo", "estimate_hdr_outage"),
    ("optimize.grid_search", "fdrigs.optimize", "grid_search"),
    ("optimize.coordinate_descent", "fdrigs.optimize", "coordinate_descent"),
    ("optimize.bisect", "fdrigs.optimize", "bisect_circularity"),
    ("optimize.bisect", "fdrigs.optimize", "bisect_power"),
    ("optimize.ub_derivative", "fdrigs.optimize", "ub_derivative_cx"),
    ("optimize.ub_derivative", "fdrigs.optimize", "ub_derivative_pr"),
    ("cli.sweep", "fdrigs.cli", "cmd_sweep"),
    ("cli.optimize", "fdrigs.cli", "cmd_optimize"),
    ("cli.throughput", "fdrigs.cli", "cmd_throughput"),
    ("quad", "scipy.integrate", "quad"),
    ("quad", "scipy.integrate", "quad_vec"),
]


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for prefix in dict.fromkeys(t[0] for t in TARGETS):
        if prefix == "quad":
            names += [("quad.calls", "count"), ("quad.evals", "count"), ("quad.self_s", "s"),
                      ("quad.failed", "count"), ("quad.evals_per_value", "evals/value")]
        elif prefix == "montecarlo":
            names += [("montecarlo.samples", "count"), ("montecarlo.self_s", "s")]
        elif prefix.startswith("cli."):
            names.append((prefix + ".self_s", "s"))
        else:
            names += [(prefix + ".calls", "count"), (prefix + ".self_s", "s")]
            if prefix.startswith("ergodic."):
                names.append((prefix + ".failed", "count"))
            if prefix in ("optimize.grid_search", "optimize.coordinate_descent", "optimize.bisect"):
                names.append((prefix + ".iterations", "count"))
    names += [("cli.cells", "count"), ("cli.failed_cells", "count")]
    names += [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return names


class Tracer:
    """Collects spans and per-name counters while its wrappers are installed."""

    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        self.spans = []
        self.dropped = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.absent = []
        self._stack = []  # [span id, child time] per open span
        self._next_id = 0
        self._saved = []

    # -- spans --------------------------------------------------------------
    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([sid, 0.0])
        return sid, parent, time.perf_counter()

    def _exit(self, name, sid, parent, start):
        end = time.perf_counter()
        _, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if len(self.spans) < self.span_cap:
            self.spans.append((sid, parent, name, start, end))
        else:
            self.dropped += 1

    def wrap(self, name, fn, after=None):
        """A span around fn; after(result) may add counters; raised
        exceptions count as <name>.failed and propagate."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                self._exit(name, sid, parent, start)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap_quad(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(func, *args, **kwargs):
            evals = [0]

            def counted(*a, **k):
                evals[0] += 1
                return func(*a, **k)

            sid, parent, start = tracer._enter()
            try:
                result = fn(counted, *args, **kwargs)
            except BaseException:
                tracer.counts["quad.failed"] += 1
                raise
            finally:
                tracer._exit("quad", sid, parent, start)
                tracer.counts["quad.evals"] += evals[0]
            # quad with full_output returns a fourth item only when it failed
            if fn.__name__ == "quad" and isinstance(result, tuple) and len(result) == 4:
                tracer.counts["quad.failed"] += 1
            value = result[0] if isinstance(result, tuple) else result
            tracer.counts["quad.values"] += int(np.size(value))
            return result

        return wrapper

    def _count_warning(self, message, category, *args, **kwargs):
        if category.__name__ == "IntegrationWarning":
            self.counts["quad.failed"] += 1
        else:
            self._showwarning(message, category, *args, **kwargs)

    # -- patching -----------------------------------------------------------
    def install(self):
        """Patch every target wherever a loaded module holds a reference to it."""
        self.absent = []
        by_obj = {}
        for prefix, mod_name, attr in TARGETS:
            try:
                orig = getattr(importlib.import_module(mod_name), attr, None)
            except ImportError:
                orig = None
            if orig is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            if prefix == "quad":
                by_obj[id(orig)] = (orig, self._wrap_quad(orig))
            else:
                by_obj[id(orig)] = (orig, self.wrap(prefix, orig, self._after(prefix)))
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fdrigs" or n.startswith("fdrigs.") or n == "scipy.integrate")]
        for mod in holders:
            for key, value in list(vars(mod).items()):
                hit = by_obj.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, key, value))
                    setattr(mod, key, hit[1])
        self._warn_ctx = warnings.catch_warnings()
        self._warn_ctx.__enter__()
        warnings.simplefilter("always")
        self._showwarning = warnings.showwarning
        warnings.showwarning = self._count_warning

    def uninstall(self):
        self._warn_ctx.__exit__(None, None, None)
        for mod, key, value in reversed(self._saved):
            setattr(mod, key, value)
        self._saved = []

    def _after(self, prefix):
        if prefix == "montecarlo":
            return lambda res: self.counts.__setitem__(
                "montecarlo.samples", self.counts["montecarlo.samples"] + res.n)
        if prefix in ("optimize.grid_search", "optimize.coordinate_descent", "optimize.bisect"):
            key = prefix + ".iterations"
            return lambda res: self.counts.__setitem__(key, self.counts[key] + res.iterations)
        return None

    # -- report -------------------------------------------------------------
    def metrics(self, batches: int, extra, names, time_scale: float = 1.0):
        """Per-layer metrics averaged over the traced batches; times are
        multiplied by time_scale."""
        values = dict(extra)
        for name, unit in names:
            if name in values:
                continue
            prefix, _, field = name.rpartition(".")
            if name == "quad.evals_per_value":
                vals = self.counts["quad.values"]
                values[name] = self.counts["quad.evals"] / vals if vals else 0.0
                continue
            if field == "calls":
                v = self.calls[prefix]
            elif field == "self_s":
                v = self.self_s[prefix] * time_scale
            else:
                v = self.counts[name]
            values[name] = v / batches
        return {name: {"value": values[name], "unit": unit} for name, unit in names}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
