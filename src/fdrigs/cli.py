"""Batch front-end: parameter sweeps, optimizer runs, throughput tables and
the self-validation gate, all emitting RFC-4180 CSV.

Scenario files are plain ``key = value`` text; command-line ``--set``
overrides win over file values, and a later ``--set`` over an earlier one,
also where they give a link power in its other form (linear or dB).  All
powers are linear inside the library; dB values (``*_db`` keys or
``sweep_scale = db``) are converted exactly once, here at the boundary, via
``10 ** (db / 10)``.

A sweep looks each outage and ergodic (metric, method) column up in
`METRICS`, the library's one table from a metric name to its function.  A
throughput column is r (1 - outage) of the outage of its method at the same
point, evaluated once for both cells, whether it succeeds or fails.  The
header is laid out before any evaluation: each column is tagged
``metric:tag`` with the tag `METHOD_TAGS` fixes for its method.  A point
that fails leaves its cells empty and a line in the diagnostics sidecar.
`throughput` takes both optima of a rate from `optimize.design_optima` and
the half-duplex baselines from `outage.p_hdr_mhdf` and `outage.p_hdr_mrc`,
and tags each column with the method its results carry.  Every output is
deterministic: Monte Carlo runs only inside ``validate``, as an oracle.
`throughput` still accepts an integer ``--seed``, which it ignores.
Sweep points run one after another: a worker pool gained only a few percent
on these interpreter-bound evaluations, so it was removed with its flag.
`main` parses with one argument parser per process, built at its first call
rather than at import and reused by every later call; a call leaves nothing
in it, so each call parses as in a fresh process.

Importing this module loads neither SciPy, NumPy nor the Monte Carlo
sampler, and a sweep of the ``exact``, ``lb`` and ``ub`` columns evaluates
on floats only, so it never loads NumPy.  The optimizers, the throughput
table and ``validate`` work on arrays and load NumPy at their first array
call; ``validate`` imports the acceptance suite when it runs.

`optimize` writes the method tag its optimizer attaches to the optimum; its
grid minimizes the bound the links call for (`optimize.grid_search`).
`build_config` resolves each sweep point once, into its axis value and
parameters, and `sweep` and `throughput` read those points.
Configuration errors (exit 2) are found before any evaluation: a ``grid_n``
below 101, a non-finite number, a dB value whose linear power overflows a
float, a value or sweep point that the parameter types refuse, such as a
rate <= 0 on the ``sweep_var = r`` axis of ``sweep`` and ``throughput``, a
rate >= 512, whose gamma overflows, or a p_r above p_max, also on a
``sweep_var = p_r`` axis, and a Rayleigh-only optimizer
(``2d-cd``, ``1d-cx``, ``1d-pr``) asked to run on other shapes.  An
``--out`` path or diagnostics sidecar that cannot be written is one too,
found when the output is written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys as _sys
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from . import optimize
from .ergodic import r_e2e_exact, r_e2e_rayleigh_lb, r_e2e_ub
from .model import LinkStat, RateTarget, SignalParams, SystemParams
from .outage import (
    METHOD_EXACT_INTEGRAL,
    METHOD_LOWER_BOUND,
    METHOD_UPPER_BOUND,
    EvalResult,
    p_e2e_exact,
    p_e2e_lb,
    p_e2e_rayleigh_ub,
    p_hdr_mhdf,
    p_hdr_mrc,
    throughput,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Invalid scenario file or override."""


def db_to_linear(db: float, key: str) -> float:
    """10 ** (db / 10); a linear power that overflows a float is a config error naming key."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigError(f"field {key}: {db!r} dB overflows a float") from None


# Baseline scenario: 20 dB relayed hops, 10 dB self-interference, 3 dB
# direct link, unit powers, strongly improper relay signal, rate 1.
_DEFAULTS: Dict[str, str] = {
    "m_sr": "1",
    "m_rd": "1",
    "m_rr": "1",
    "m_sd": "1",
    "pi_sr_db": "20",
    "pi_rd_db": "20",
    "pi_rr_db": "10",
    "pi_sd_db": "3",
    "p_s": "1",
    "p_max": "1",
    "p_r": "1",
    "c_x": "0.9",
    "r": "1",
    "sweep_var": "c_x",
    "sweep_start": "0",
    "sweep_stop": "1",
    "sweep_points": "21",
    "sweep_scale": "linear",
    "metrics": "outage",
    "methods": "exact,lb,ub",
    "optimizer": "2d-cd",
    "grid_n": "101",
}

Evaluator = Callable[[SystemParams, SignalParams, RateTarget], EvalResult]

# The evaluators look their functions up at call time, so a wrapper patched
# onto this module's names sees every call.  Throughput is not an entry: it
# is r (1 - outage) of the outage entry of the same method.
METRICS: Dict[Tuple[str, str], Evaluator] = {
    ("outage", "exact"): lambda sys, sig, target: p_e2e_exact(sys, sig, target),
    ("outage", "lb"): lambda sys, sig, target: p_e2e_lb(sys, sig, target),
    ("outage", "ub"): lambda sys, sig, target: p_e2e_rayleigh_ub(sys, sig, target),
    ("ergodic", "exact"): lambda sys, sig, target: r_e2e_exact(sys, sig),
    ("ergodic", "lb"): lambda sys, sig, target: r_e2e_rayleigh_lb(sys, sig),
    ("ergodic", "ub"): lambda sys, sig, target: r_e2e_ub(sys, sig),
}

# The tag every evaluation of a method carries, whatever its metric.
METHOD_TAGS: Dict[str, str] = {
    "exact": METHOD_EXACT_INTEGRAL,
    "lb": METHOD_LOWER_BOUND,
    "ub": METHOD_UPPER_BOUND,
}

_POWER_LIKE = {"pi_sr", "pi_rd", "pi_rr", "pi_sd", "p_s", "p_max", "p_r"}
_SWEEPABLE = _POWER_LIKE | {"c_x", "r"}
_METRICS = ("outage", "ergodic", "throughput")


@dataclass
class RunConfig:
    """Fully resolved run description: linear powers, and each sweep point
    as its axis value, in the scale it was given, and the parameters it
    resolves to."""

    raw: Dict[str, str]
    sys: SystemParams
    sig: SignalParams
    target: RateTarget
    sweep_var: str
    sweep_points: List[Tuple[float, SystemParams, SignalParams, RateTarget]]
    metrics: List[str]
    methods: List[str]
    optimizer: str
    grid_n: int


def _parse_kv_file(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, val = stripped.partition("=")
                key, val = key.strip(), val.strip()
                if not key or not val:
                    raise ConfigError(f"{path}:{lineno}: empty key or value")
                values[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return values


def _as_float(raw: Dict[str, str], key: str) -> float:
    try:
        value = float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"field {key}: not a number: {raw[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"field {key}: not a finite number: {raw[key]!r}")
    return value


def _as_int(raw: Dict[str, str], key: str) -> int:
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"field {key}: not an integer: {raw[key]!r}") from exc


def _apply_source(raw: Dict[str, str], values: Dict[str, str]) -> None:
    """Lay one source's values over those of earlier sources: a link power
    it sets in one form, linear (pi_xx) or dB (pi_xx_db), drops the other
    form an earlier source set, so the later source wins in either form."""
    for key in values:
        if key.startswith("pi_"):
            other = key[:-3] if key.endswith("_db") else f"{key}_db"
            if other not in values:
                raw.pop(other, None)
    raw.update(values)


def _resolve_pi(raw: Dict[str, str], link: str) -> float:
    """A mean link power may be given linearly (pi_xx) or in dB (pi_xx_db);
    where one source gives both, the linear form wins."""
    if f"pi_{link}" in raw:
        return _as_float(raw, f"pi_{link}")
    return db_to_linear(_as_float(raw, f"pi_{link}_db"), f"pi_{link}_db")


def build_config(scenario: Optional[str], overrides: List[str]) -> RunConfig:
    raw = dict(_DEFAULTS)
    if scenario:
        _apply_source(raw, _parse_kv_file(scenario))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        _apply_source(raw, {key.strip(): val.strip()})

    known = set(_DEFAULTS) | {f"pi_{l}" for l in ("sr", "rd", "rr", "sd")}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown field(s): {', '.join(sorted(unknown))}")

    try:
        sys_params = SystemParams(
            sr=LinkStat(_as_int(raw, "m_sr"), _resolve_pi(raw, "sr")),
            rd=LinkStat(_as_int(raw, "m_rd"), _resolve_pi(raw, "rd")),
            rr=LinkStat(_as_int(raw, "m_rr"), _resolve_pi(raw, "rr")),
            sd=LinkStat(_as_int(raw, "m_sd"), _resolve_pi(raw, "sd")),
            p_s=_as_float(raw, "p_s"),
            p_max=_as_float(raw, "p_max"),
        )
        sig = SignalParams(_as_float(raw, "p_r"), _as_float(raw, "c_x"))
        sys_params.check_signal(sig)
        target = RateTarget(_as_float(raw, "r"))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc

    sweep_var = raw["sweep_var"]
    if sweep_var not in _SWEEPABLE:
        raise ConfigError(f"sweep_var must be one of {sorted(_SWEEPABLE)}, got {sweep_var!r}")
    scale = raw["sweep_scale"]
    if scale not in ("linear", "db"):
        raise ConfigError(f"sweep_scale must be 'linear' or 'db', got {scale!r}")
    if scale == "db" and sweep_var not in _POWER_LIKE:
        raise ConfigError(f"dB scale is only valid for power-like variables, not {sweep_var}")
    points = _as_int(raw, "sweep_points")
    if points < 2:
        raise ConfigError(f"sweep_points must be >= 2, got {points}")
    start, stop = _as_float(raw, "sweep_start"), _as_float(raw, "sweep_stop")
    axis = [start + (stop - start) * i / (points - 1) for i in range(points)]
    if scale == "db":
        # the axis keeps the dB values its column prints; the points lie between
        # the endpoints, so converting those first names the key that overflows
        db_to_linear(start, "sweep_start")
        db_to_linear(stop, "sweep_stop")

    metrics = _names(raw, "metrics", _METRICS)
    methods = _names(raw, "methods", tuple(METHOD_TAGS))
    optimizer = raw["optimizer"]
    if optimizer not in ("1d-cx", "1d-pr", "2d-cd", "grid"):
        raise ConfigError(f"optimizer must be 1d-cx | 1d-pr | 2d-cd | grid, got {optimizer!r}")
    grid_n = _as_int(raw, "grid_n")
    if grid_n < 101:
        raise ConfigError(f"grid_n must be >= 101, got {grid_n}")
    # A sweep point the parameter types refuse (a rate <= 0 or >= 512, c_x
    # outside [0, 1], ...) is a configuration error, found before any evaluation.
    sweep_points = []
    for value in axis:
        linear = db_to_linear(value, "sweep_stop") if scale == "db" else value
        try:
            sweep_points.append((value, *_sweep_point(sys_params, sig, target, sweep_var, linear)))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"sweep point {sweep_var}={value!r}: {exc}") from exc
    return RunConfig(
        raw=raw,
        sys=sys_params,
        sig=sig,
        target=target,
        sweep_var=sweep_var,
        sweep_points=sweep_points,
        metrics=metrics,
        methods=methods,
        optimizer=optimizer,
        grid_n=grid_n,
    )


def _names(raw: Dict[str, str], key: str, known: Tuple[str, ...]) -> List[str]:
    """The comma-separated entries of `key`, each one of `known`; a repeated
    entry is dropped, the first-seen order kept, and an empty list is a
    config error that names the key."""
    names = list(dict.fromkeys(m.strip() for m in raw[key].split(",") if m.strip()))
    if not names:
        raise ConfigError(f"at least one {key[:-1]} is required, but {key} is empty")
    for m in names:
        if m not in known:
            raise ConfigError(f"unknown {key[:-1]} {m!r} (choose from {known})")
    return names


def _sweep_point(
    sys_p: SystemParams, sig: SignalParams, target: RateTarget, var: str, value: float
) -> Tuple[SystemParams, SignalParams, RateTarget]:
    """The parameters with the sweep variable var set to its linear value;
    a point whose p_r exceeds its p_max raises ValueError."""
    if var in ("pi_sr", "pi_rd", "pi_rr", "pi_sd"):
        link = var[3:]
        sys_p = replace(sys_p, **{link: replace(getattr(sys_p, link), pi=value)})
    elif var == "p_s":
        sys_p = replace(sys_p, p_s=value)
    elif var == "p_max":
        sys_p = replace(sys_p, p_max=value)
        sig = replace(sig, p_r=min(sig.p_r, value))
    elif var == "p_r":
        sig = replace(sig, p_r=value)
    elif var == "c_x":
        sig = replace(sig, c_x=value)
    elif var == "r":
        target = RateTarget(value)
    sys_p.check_signal(sig)
    return sys_p, sig, target


def _fmt(value: object) -> str:
    if value is None:
        return ""
    return format(float(value), ".12g")


def _open_out(path: str):
    """Open an output file for writing; a path that cannot be written is a config error."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: Optional[str], header: List[str], rows: List[List[object]]) -> None:
    out = _open_out(path) if path else _sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])
    finally:
        if path:
            out.close()


def cmd_sweep(cfg: RunConfig, out_path: Optional[str]) -> int:
    pairs = [(metric, method) for metric in cfg.metrics for method in cfg.methods]
    header = [cfg.sweep_var + (":db-input" if cfg.raw["sweep_scale"] == "db" else "")]
    header += [f"{metric}:{METHOD_TAGS[method]}" for metric, method in pairs]
    diagnostics: List[str] = []
    rows = []
    for value, sys_p, sig, target in cfg.sweep_points:
        # One evaluation per (metric, method) entry and point: its result, or the
        # error it raised, also serves the throughput cell of the same method.
        memo: Dict[Tuple[str, str], Union[EvalResult, Exception]] = {}
        row: List[object] = [value]
        for metric, method in pairs:
            key = ("ergodic" if metric == "ergodic" else "outage", method)
            if key not in memo:
                try:
                    memo[key] = METRICS[key](sys_p, sig, target)
                except (ArithmeticError, ValueError) as exc:
                    memo[key] = exc
            res = memo[key]
            try:
                if isinstance(res, Exception):
                    raise res
                row.append(throughput(target, res.value) if metric == "throughput" else res.value)
            except (ArithmeticError, ValueError) as exc:
                row.append(None)
                diagnostics.append(f"{cfg.sweep_var}={value!r} {metric}/{method}: {exc}")
        rows.append(row)
    _write_csv(out_path, header, rows)
    if diagnostics:
        sidecar = (out_path or "sweep") + ".diagnostics.txt"
        with _open_out(sidecar) as fh:
            fh.write("\n".join(diagnostics) + "\n")
        print(f"{len(diagnostics)} point(s) failed; see {sidecar}", file=_sys.stderr)
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, out_path: Optional[str]) -> int:
    if cfg.optimizer != "grid" and not cfg.sys.all_rayleigh:
        raise ConfigError(
            f"optimizer {cfg.optimizer} minimizes the Rayleigh upper bound and needs "
            "all shapes equal to 1; use optimizer=grid on other shapes"
        )
    if cfg.optimizer == "1d-cx":
        result = optimize.bisect_circularity(cfg.sys, cfg.target, cfg.sig.p_r)
    elif cfg.optimizer == "1d-pr":
        result = optimize.bisect_power(cfg.sys, cfg.target, cfg.sig.c_x)
    elif cfg.optimizer == "2d-cd":
        result = optimize.coordinate_descent(cfg.sys, cfg.target)
    else:
        result = optimize.grid_search(cfg.sys, cfg.target, cfg.grid_n)

    print(f"optimizer  : {cfg.optimizer}")
    print(f"p_r*       : {result.p_r_star:.10g}")
    print(f"c_x*       : {result.c_x_star:.10g}")
    print(f"objective  : {result.objective:.10g} ({result.method})")
    print(f"iterations : {result.iterations}")
    print(f"converged  : {result.converged}")
    if cfg.optimizer == "2d-cd" and result.trace:
        print("trace      : " + ", ".join(f"{v:.10g}" for v in result.trace))
    header = ["optimizer", "p_r_star", "c_x_star", f"objective:{result.method}", "iterations", "converged"]
    row: List[object] = [cfg.optimizer, result.p_r_star, result.c_x_star, result.objective,
                         float(result.iterations), 1.0 if result.converged else 0.0]
    if out_path:
        _write_csv(out_path, header, [row])
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def cmd_throughput(cfg: RunConfig, out_path: Optional[str]) -> int:
    if cfg.sweep_var != "r":
        raise ConfigError("the throughput command needs sweep_var = r")
    targets = [target for *_, target in cfg.sweep_points]
    optima = [optimize.design_optima(cfg.sys, target, cfg.grid_n) for target in targets]
    baselines = [(p_hdr_mhdf(cfg.sys, target), p_hdr_mrc(cfg.sys, target)) for target in targets]
    (pgs, igs), (mhdf, mrc) = optima[0], baselines[0]
    header = [
        "r",
        f"throughput:pgs-optimized:{pgs.method}",
        f"throughput:igs-optimized:{igs.method}",
        f"throughput:hdr-mhdf:{mhdf.method}",
        f"throughput:hdr-mrc:{mrc.method}",
    ]
    rows = [
        [target.r, *(throughput(target, p) for p in (pgs.objective, igs.objective, mhdf.value, mrc.value))]
        for target, (pgs, igs), (mhdf, mrc) in zip(targets, optima, baselines)
    ]
    _write_csv(out_path, header, rows)
    return EXIT_OK


def cmd_validate() -> int:
    from . import acceptance

    results = acceptance.run_all(report=print)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one argument parser of the process, built at the first `main` call.

    Reuse is stateless: parsing writes only to a fresh namespace, and the
    append action of ``--set`` copies its default list before it appends.
    """
    parser = argparse.ArgumentParser(
        prog="fdrigs",
        description="Outage and ergodic-rate analysis of a full-duplex relay "
        "with an improper Gaussian transmit signal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "sweep one variable and emit metric columns as CSV"),
        ("optimize", "run a 1D/2D optimizer and report the design point"),
        ("throughput", "optimized throughput vs target rate, with half-duplex baselines"),
        ("validate", "run the self-validation suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name != "validate":
            p.add_argument("--config", metavar="PATH", help="scenario file (key = value lines)")
            p.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                           help="override a scenario field (repeatable)")
            p.add_argument("--out", metavar="PATH", help="output CSV path (default: stdout)")
        if name == "throughput":
            p.add_argument("--seed", type=int, help="ignored: the table is deterministic")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate()
        cfg = build_config(args.config, args.set)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
        if args.command == "optimize":
            return cmd_optimize(cfg, args.out)
        return cmd_throughput(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
