"""Relay signal design: derivative bisection over each of (p_r, c_x),
coordinate descent for the joint problem, and a grid-search oracle that
works for every metric and any fading shape.

`METRICS` maps each outage and ergodic (metric, method) pair to its
evaluator; it is the one table behind both `grid_search` and the CLI sweep.
Throughput is derived from the outage of the same method, so it is neither
an entry nor a `grid_search` objective: at a fixed rate it peaks where the
outage is least.  `METHOD_TAGS` gives the one tag every evaluation of a
method carries.  `grid_search` minimizes outage and maximizes the ergodic
rate, and evaluates the closed-form outage bounds over its whole grid as
one array.  `design_optima` gives the proper and improper optima of the
throughput table.

The 1D searches exploit that the Rayleigh outage upper bound is monotone or
unimodal in each variable separately, so a single interior stationary point
(found by bisecting the analytic derivative) plus the interval endpoints
always contain the global minimizer.  Every optimum carries the method tag
of the objective it minimized, set by the optimizer that chose it.

The searches run on Python floats, as the 1D searches convert their fixed
coordinate after its check.  The derivatives take a float branch that
checks ranges by comparison, and take the rate-threshold pair from
`model._psi_pair`, which takes its square root in `math` on a float, but
keep `np.exp` in the survival factor, so a float call returns exactly its
array element.  The best candidate is picked in plain Python, the first of
equal minima as with `np.argmin`; a non-finite candidate raises
ArithmeticError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ._lazy import np
from .ergodic import r_e2e_exact, r_e2e_rayleigh_lb, r_e2e_ub
from .model import RateTarget, SignalParams, SystemParams, _psi_pair
from .outage import (
    METHOD_CLOSED_FORM,
    METHOD_EXACT_INTEGRAL,
    METHOD_LOWER_BOUND,
    METHOD_UPPER_BOUND,
    EvalResult,
    _rayleigh_ub_parts,
    e2e_lb_value,
    e2e_rayleigh_ub_value,
    p_e2e_exact,
    p_e2e_lb,
    p_e2e_rayleigh_ub,
)

__all__ = [
    "METRICS",
    "METHOD_TAGS",
    "OptResult",
    "ub_derivative_cx",
    "ub_derivative_pr",
    "bisect_circularity",
    "bisect_power",
    "coordinate_descent",
    "grid_search",
    "design_optima",
]

# The derivative carries a structural zero at c_x = 0, so the bisection
# bracket starts just inside the box.
_EDGE = 1e-7

# Bisection stops at this bracket width, coordinate descent at this
# objective gain; both give up after _MAX_ITERS steps.
_X_TOL = 1e-8
_F_TOL = 1e-10
_MAX_ITERS = 200


@dataclass(frozen=True)
class OptResult:
    """Optimizer output: the design point, its objective and method tag, and the run record."""

    p_r_star: float
    c_x_star: float
    objective: float
    method: str
    iterations: int
    converged: bool
    trace: Optional[List[float]] = field(default=None, compare=False)


def ub_derivative_cx(sys: SystemParams, target: RateTarget, p_r, c_x):
    """Analytic d/dc_x of the survival bound 1 - p_e2e_rayleigh_ub,
    elementwise over arrays p_r and c_x.

    A positive value means increasing impropriety still helps at this point.
    The leading factor c_x forces a zero at c_x = 0.  A Python float c_x
    takes its range check as a plain comparison.  With psi = psi_r(c_x) and
    ratio = psi_r(c_x) / (1 - c_x^2) from one `_psi_pair` (`math` on a
    float), the second-hop exponent's derivative is
    ratio^2 c_x / (p_r pi_rd (1 + psi)).  The survival factor takes `np.exp`
    on floats too, so a scalar matches its array element exactly.
    """
    inside = 0.0 < c_x < 1.0 if type(c_x) is float else np.all((0.0 < c_x) & (c_x < 1.0))
    if not inside:
        raise ValueError(f"c_x must lie in (0, 1), got {c_x}")
    gam = target.gamma
    u, v, w, y, d, survival = _rayleigh_ub_parts(sys, target, p_r, c_x, np.exp)
    s_y = 1.0 + v / w
    psi, ratio = _psi_pair(gam, c_x)
    du = ratio * ratio * c_x / (p_r * sys.rd.pi * (1.0 + psi))
    a = y / c_x  # the RSI loading factor
    dv = -w * gam * a * a * c_x / s_y
    return survival * (-du - dv - d * du / (d * u + 1.0))


def ub_derivative_pr(sys: SystemParams, target: RateTarget, p_r, c_x):
    """Analytic d/dp_r of the Rayleigh outage upper bound, elementwise over
    arrays p_r and c_x.

    Balances the second-hop gain (more relay power) against the growing
    self-interference seen by the first hop, including the dependence of the
    RSI loading factor on p_r.  A Python float p_r takes its range check
    as a plain comparison.  The survival factor takes `np.exp` on floats
    too, so a scalar matches its array element exactly.
    """
    if (p_r <= 0) if type(p_r) is float else np.any(p_r <= 0):
        raise ValueError(f"p_r must be > 0, got {p_r}")
    gam = target.gamma
    u, v, w, y, d, survival = _rayleigh_ub_parts(sys, target, p_r, c_x, np.exp)
    s_y = 1.0 + v / w
    beta = p_r * sys.rr.pi
    du = -u / p_r
    dpsi = -gam * y / s_y
    dv = sys.rr.pi / (sys.p_s * sys.sr.pi) * (v / w + c_x * dpsi / (beta + 1.0))
    dsurv = survival * (-du - dv - d * du / (d * u + 1.0))
    return -dsurv


def _bisect_root(
    deriv: Callable[[float], float], lo: float, hi: float, f_lo: float
) -> Tuple[float, int, bool]:
    """Root of a sign-changing derivative on [lo, hi] by plain bisection,
    given f_lo = deriv(lo)."""
    iters = 0
    while hi - lo > _X_TOL and iters < _MAX_ITERS:
        mid = 0.5 * (lo + hi)
        f_mid = deriv(mid)
        if f_mid == 0.0:
            return mid, iters + 1, True
        if (f_lo > 0) == (f_mid > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        iters += 1
    return 0.5 * (lo + hi), iters, hi - lo <= _X_TOL


def _bracket_and_pick(
    deriv: Callable[[float], float],
    value_fn: Callable[[float], float],
    lo: float,
    hi: float,
    ends: Tuple[float, float],
    point: Callable[[float], Tuple[float, float]],
    method: str,
) -> OptResult:
    """Minimize value_fn over the interval ends plus the root of deriv, which
    is bisected only if deriv changes sign on [lo, hi]; point maps the search
    variable to the design point (p_r, c_x).

    The first of equal minima wins, as with `np.argmin`; a non-finite
    candidate value raises ArithmeticError instead of being picked or skipped.
    """
    candidates = list(ends)
    iterations = 0
    converged = True
    f_lo = deriv(lo)
    if (f_lo > 0) != (deriv(hi) > 0):
        root, iterations, converged = _bisect_root(deriv, lo, hi, f_lo)
        candidates.append(root)
    values = [value_fn(x) for x in candidates]
    if not all(math.isfinite(v) for v in values):
        raise ArithmeticError(f"non-finite objective among the candidates: {values}")
    best = min(range(len(values)), key=values.__getitem__)
    p_r, c_x = point(candidates[best])
    return OptResult(
        p_r_star=p_r,
        c_x_star=c_x,
        objective=values[best],
        method=method,
        iterations=iterations,
        converged=converged,
        trace=values,
    )


def bisect_circularity(sys: SystemParams, target: RateTarget, p_r: float) -> OptResult:
    """Minimize the Rayleigh outage upper bound over c_x at fixed p_r."""
    if not sys.all_rayleigh:
        raise ValueError("bisect_circularity requires all shapes equal to 1")
    if not 0 < p_r <= sys.p_max:
        raise ValueError(f"p_r must lie in (0, p_max], got {p_r}")
    p_r = float(p_r)
    return _bracket_and_pick(
        # The objective falls as the survival rises: bisect on -survival'.
        lambda c: -ub_derivative_cx(sys, target, p_r, c),
        lambda c: e2e_rayleigh_ub_value(sys, target, p_r, c),
        _EDGE,
        1.0 - _EDGE,
        (0.0, 1.0),
        lambda c: (p_r, c),
        METHOD_UPPER_BOUND,
    )


def _pgs_exact_dlog(sys: SystemParams, target: RateTarget, p_r: float) -> float:
    """d/dp_r of -log(survival) for the proper case; same sign as the
    outage derivative, but free of the survival factor's underflow."""
    u = target.eta / (sys.p_s * sys.sr.pi)
    phi = target.eta / (p_r * sys.rd.pi)
    d = sys.p_s * sys.sd.pi
    return (
        -phi / p_r
        + sys.rr.pi * u / (1.0 + p_r * sys.rr.pi * u)
        - d * phi / (p_r * (1.0 + d * phi))
    )


def bisect_power(
    sys: SystemParams, target: RateTarget, c_x: float, objective: str = "auto"
) -> OptResult:
    """Minimize the end-to-end outage over p_r at fixed c_x.

    At c_x = 0 the objective is the exact proper-signaling outage (closed
    form); for c_x > 0 the Rayleigh upper bound is the tractable surrogate.
    Pass objective="ub" to force the bound at c_x = 0 as well, which is what
    coordinate descent needs for a consistent descent function.
    """
    if not sys.all_rayleigh:
        raise ValueError("bisect_power requires all shapes equal to 1")
    if not 0.0 <= c_x <= 1.0:
        raise ValueError(f"c_x must lie in [0, 1], got {c_x}")
    if objective not in ("auto", "ub"):
        raise ValueError(f"objective must be 'auto' or 'ub', got {objective!r}")
    c_x = float(c_x)
    lo, hi = _EDGE * sys.p_max, sys.p_max
    if objective == "auto" and c_x == 0.0:
        deriv = lambda p: _pgs_exact_dlog(sys, target, p)
        value_fn = lambda p: p_e2e_lb(sys, SignalParams(p, 0.0), target).value
        method = METHOD_CLOSED_FORM
    else:
        deriv = lambda p: ub_derivative_pr(sys, target, p, c_x)
        value_fn = lambda p: e2e_rayleigh_ub_value(sys, target, p, c_x)
        method = METHOD_UPPER_BOUND
    return _bracket_and_pick(deriv, value_fn, lo, hi, (lo, hi), lambda p: (p, c_x), method)


def coordinate_descent(sys: SystemParams, target: RateTarget) -> OptResult:
    """Alternate the two 1D searches from (p_max, 0) until no improvement.

    The objective trace must be nonincreasing; a rise indicates a broken 1D
    solver and raises immediately rather than returning a bogus optimum.
    """
    p_r, c_x = sys.p_max, 0.0
    trace = [e2e_rayleigh_ub_value(sys, target, p_r, c_x)]
    for _ in range(_MAX_ITERS):
        p_r = bisect_power(sys, target, c_x, objective="ub").p_r_star
        step = bisect_circularity(sys, target, p_r)
        c_x = step.c_x_star
        if step.objective > trace[-1] + 1e-12:
            raise RuntimeError(
                f"coordinate descent objective rose from {trace[-1]} to {step.objective}"
            )
        trace.append(step.objective)
        if trace[-2] - trace[-1] < _F_TOL:
            break
    return OptResult(
        p_r_star=p_r,
        c_x_star=c_x,
        objective=trace[-1],
        method=METHOD_UPPER_BOUND,
        iterations=len(trace) - 1,
        converged=trace[-2] - trace[-1] < _F_TOL,
        trace=trace,
    )


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

# Outage methods with a closed form over a whole (p_r, c_x) grid;
# grid_search evaluates these as one array.
_GRID_OUTAGE = {"lb": e2e_lb_value, "ub": e2e_rayleigh_ub_value}


def _grid_values(
    sys: SystemParams,
    target: RateTarget,
    objective: str,
    grid_n: int,
    p_r_fixed: Optional[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """The objective on the grid: (p_grid, c_grid, values[p, c], method tag)."""
    metric, _, method = objective.partition("-")
    method = method or "exact"
    evaluator = METRICS.get((metric, method))
    if evaluator is None:
        raise ValueError(f"unknown objective {objective!r}")
    if grid_n < 101:
        raise ValueError(f"grid_n must be >= 101, got {grid_n}")
    if p_r_fixed is not None:
        if not 0 < p_r_fixed <= sys.p_max:
            raise ValueError(f"p_r_fixed must lie in (0, p_max], got {p_r_fixed}")
        p_grid = np.array([p_r_fixed])
    else:
        # p_max * n / n can round above p_max, where the per-point signal check refuses it
        p_grid = np.minimum(sys.p_max * np.arange(1, grid_n + 1) / grid_n, sys.p_max)
    c_grid = np.linspace(0.0, 1.0, grid_n)

    if metric == "outage" and method in _GRID_OUTAGE:
        values = _GRID_OUTAGE[method](sys, target, p_grid[:, None], c_grid[None, :])
    else:
        values = np.empty((len(p_grid), grid_n))
        for i, p in enumerate(p_grid):
            for j, c in enumerate(c_grid):
                values[i, j] = evaluator(sys, SignalParams(p, c), target).value
    return p_grid, c_grid, values, METHOD_TAGS[method]


def _grid_pick(
    p_grid: np.ndarray, c_grid: np.ndarray, values: np.ndarray, tag: str, minimize: bool
) -> OptResult:
    """The best grid cell, first in row-major order among ties.  A non-finite
    objective there raises ArithmeticError: `np.argmin` and `np.argmax`
    return the first nan, so checking the chosen cell suffices."""
    flat = np.argmin(values) if minimize else np.argmax(values)
    i, j = np.unravel_index(flat, values.shape)
    if not math.isfinite(values[i, j]):
        raise ArithmeticError(f"non-finite objective {values[i, j]} at p_r={p_grid[i]}, c_x={c_grid[j]}")
    return OptResult(
        p_r_star=float(p_grid[i]),
        c_x_star=float(c_grid[j]),
        objective=float(values[i, j]),
        method=tag,
        iterations=values.size,
        converged=True,
    )


def grid_search(
    sys: SystemParams,
    target: RateTarget,
    objective: str = "outage-ub",
    grid_n: int = 101,
    p_r_fixed: Optional[float] = None,
) -> OptResult:
    """Exhaustive search on a grid_n x grid_n grid over (0, p_max] x [0, 1].

    Works for every metric and any fading shape its evaluator accepts.  The
    objective names a METRICS key as "metric-method" ("outage-lb",
    "ergodic-ub"); a bare metric name means its exact method.  Outage is
    minimized and the ergodic rate maximized; at a fixed rate r the
    throughput r (1 - outage) peaks where the outage is least, so it needs
    no objective of its own.  Ties break deterministically toward the
    smallest p_r, then the smallest c_x.  Fixing p_r collapses the search
    to a 1D sweep over c_x.  The outage bounds are evaluated as one
    closed-form array, every other objective point by point.
    """
    p_grid, c_grid, values, tag = _grid_values(sys, target, objective, grid_n, p_r_fixed)
    return _grid_pick(p_grid, c_grid, values, tag, objective.startswith("outage"))


def design_optima(
    sys: SystemParams, target: RateTarget, grid_n: int = 101
) -> Tuple[OptResult, OptResult]:
    """The outage-optimal proper (c_x = 0) and improper designs at one rate,
    each tagged with the method of its objective.

    On Rayleigh links the proper optimum is `bisect_power` at c_x = 0 (closed
    form) and the improper one the `coordinate_descent` point, scored by its
    exact outage.  On other shapes both come from one lower-bound grid: the
    proper optimum is the best cell of its c_x = 0 column, the improper one
    the best cell overall.
    """
    if sys.all_rayleigh:
        proper = bisect_power(sys, target, 0.0)
        cd = coordinate_descent(sys, target)
        exact = p_e2e_exact(sys, SignalParams(cd.p_r_star, cd.c_x_star), target)
        return proper, replace(cd, objective=exact.value, method=exact.method)
    p_grid, c_grid, values, tag = _grid_values(sys, target, "outage-lb", grid_n, None)
    proper = _grid_pick(p_grid, c_grid[:1], values[:, :1], tag, True)
    return proper, _grid_pick(p_grid, c_grid, values, tag, True)
