"""Optimizers: analytic derivatives against finite differences, bisection
against exhaustive search, and deterministic tie-breaking."""

import itertools

import mpmath as mp
import numpy as np
import pytest

from fdrigs import optimize
from fdrigs.ergodic import r_e2e_ub
from fdrigs.model import LinkStat, RateTarget, SignalParams, SystemParams
from fdrigs.optimize import (
    _bracket_and_pick,
    _grid_values,
    bisect_circularity,
    bisect_power,
    coordinate_descent,
    design_optima,
    grid_search,
    ub_derivative_cx,
    ub_derivative_pr,
)
from fdrigs.outage import e2e_rayleigh_ub_value, p_e2e_exact, p_e2e_lb


def base_system(pi_rr=10.0, p_max=1.0):
    return SystemParams(
        sr=LinkStat(1, 100.0),
        rd=LinkStat(1, 100.0),
        rr=LinkStat(1, pi_rr),
        sd=LinkStat(1, 2.0),
        p_s=1.0,
        p_max=p_max,
    )


TARGET = RateTarget(1.0)


def fd(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_search_config_validation():
    with pytest.raises(ValueError):
        grid_search(base_system(), TARGET, "outage-ub", grid_n=10)


@pytest.mark.parametrize("p_r", [0.3, 1.0])
@pytest.mark.parametrize("c_x", [0.2, 0.5, 0.8])
def test_cx_derivative_matches_finite_difference(p_r, c_x):
    sys_p = base_system()
    # ub_derivative_cx differentiates the complement 1 - UB
    def f(c):
        return 1.0 - e2e_rayleigh_ub_value(sys_p, TARGET, p_r, c)

    d = ub_derivative_cx(sys_p, TARGET, p_r, c_x)
    approx = fd(f, c_x)
    assert abs(d - approx) <= abs(approx) * 1e-5 + 1e-10


def test_cx_derivative_matches_mpmath_as_cx_tends_to_one():
    # the second-hop term takes psi_r(c_x) and psi_r(c_x) / (1 - c_x^2) from
    # one _psi_pair, which does not cancel as c_x -> 1; the reference
    # differentiates the survival bound with the naive psi_r at 50 digits
    for pis, r, p_r in itertools.product(((100.0, 100.0, 10.0, 2.0), (1e3, 10.0, 0.5, 30.0)),
                                         (0.3, 3.0), (0.2, 1.0)):
        sys_p = SystemParams(*(LinkStat(1, pi) for pi in pis), p_s=1.0, p_max=1.0)
        with mp.workdps(50):
            gamma, beta = mp.mpf(2) ** (2 * mp.mpf(r)) - 1, p_r * mp.mpf(sys_p.rr.pi)
            w, a = (beta + 1) / mp.mpf(sys_p.sr.pi), beta / (beta + 1)

            def psi(x):
                return mp.sqrt(1 + gamma * (1 - x * x)) - 1

            def survival(c):
                u = psi(c) / ((1 - c * c) * p_r * mp.mpf(sys_p.rd.pi))
                return mp.exp(-(u + w * psi(a * c))) / (mp.mpf(sys_p.sd.pi) * u + 1)

            for c_x in (0.5, 0.9, 1.0 - 1e-4, 1.0 - 1e-7, 1.0 - 1e-9):
                ref = float(mp.diff(survival, mp.mpf(c_x)))
                value = ub_derivative_cx(sys_p, RateTarget(r), p_r, c_x)
                assert abs(value - ref) <= 1e-13 * abs(ref), (pis, r, p_r, c_x, value, ref)


@pytest.mark.parametrize("p_r", [0.2, 0.6, 1.0])
@pytest.mark.parametrize("c_x", [0.0, 0.5, 0.95])
def test_pr_derivative_matches_finite_difference(p_r, c_x):
    sys_p = base_system(p_max=2.0)

    def f(p):
        return e2e_rayleigh_ub_value(sys_p, TARGET, p, c_x)

    d = ub_derivative_pr(sys_p, TARGET, p_r, c_x)
    approx = fd(f, p_r)
    assert abs(d - approx) <= abs(approx) * 1e-5 + 1e-10


def test_derivatives_accept_arrays():
    # one call per 2001-point grid, as in acceptance criterion 8
    rng = np.random.default_rng(18)
    for pi_rr in (0.5, 10.0, 60.0):
        sys_p = base_system(pi_rr, p_max=3.0)
        target = RateTarget(rng.uniform(0.3, 2.0))
        p_r, c_x = rng.uniform(0.05, 1.0) * sys_p.p_max, rng.uniform(0.02, 0.98)
        c_grid = np.linspace(1e-7, 1 - 1e-7, 2001)
        array = ub_derivative_cx(sys_p, target, p_r, c_grid)
        scalar = [ub_derivative_cx(sys_p, target, p_r, float(c)) for c in c_grid]
        assert np.max(np.abs(array - scalar)) <= 1e-17
        p_grid = np.linspace(1e-7 * sys_p.p_max, sys_p.p_max, 2001)
        array = ub_derivative_pr(sys_p, target, p_grid, c_x)
        scalar = [ub_derivative_pr(sys_p, target, float(p), c_x) for p in p_grid]
        assert np.max(np.abs(array - scalar)) <= 1e-17
    with pytest.raises(ValueError):
        ub_derivative_cx(base_system(), TARGET, 1.0, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        ub_derivative_pr(base_system(), TARGET, np.array([0.5, 0.0]), 0.5)


def test_derivative_float_branch_is_exact_and_scalar(monkeypatch):
    # a float call checks its range by comparison and takes its square root
    # in math: it returns exactly its array element and calls no NumPy reduction
    rng = np.random.default_rng(18)
    cases = []
    for pi_rr in (0.5, 10.0, 60.0):
        sys_p = base_system(pi_rr, p_max=3.0)
        target = RateTarget(rng.uniform(0.3, 2.0))
        p_r, c_x = rng.uniform(0.05, 1.0) * sys_p.p_max, rng.uniform(0.02, 0.98)
        c_grid = np.linspace(1e-7, 1 - 1e-7, 2001)
        p_grid = np.linspace(1e-7 * sys_p.p_max, sys_p.p_max, 2001)
        cases.append((ub_derivative_cx(sys_p, target, p_r, c_grid),
                      lambda c, s=sys_p, t=target, p=p_r: ub_derivative_cx(s, t, p, c), c_grid))
        cases.append((ub_derivative_pr(sys_p, target, p_grid, c_x),
                      lambda p, s=sys_p, t=target, c=c_x: ub_derivative_pr(s, t, p, c), p_grid))

    def no_reduction(*args, **kwargs):
        raise AssertionError("a float derivative called a NumPy reduction")

    with monkeypatch.context() as m:
        m.setattr(optimize.np, "all", no_reduction)
        m.setattr(optimize.np, "any", no_reduction)
        scalars = [[fn(float(x)) for x in grid] for _, fn, grid in cases]
        for c_x in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError):
                ub_derivative_cx(base_system(), TARGET, 1.0, c_x)
        with pytest.raises(ValueError):
            ub_derivative_pr(base_system(), TARGET, 0.0, 0.5)
    for (array, _, _), scalar in zip(cases, scalars):
        assert np.array_equal(array, scalar)


def _pick(values, deriv=lambda x: 1.0):
    """_bracket_and_pick over c_x on [0, 1], with value_fn read from a table."""
    return _bracket_and_pick(deriv, lambda x: values[x], 0.1, 0.9, (0.0, 1.0),
                             lambda x: (1.0, x), "upper-bound")


def test_bracket_and_pick_keeps_the_first_of_equal_minima():
    res = _pick({0.0: 0.25, 1.0: 0.25})
    assert (res.c_x_star, res.objective, res.iterations) == (0.0, 0.25, 0)
    # the derivative 0.5 - x has its root at the first midpoint, 0.5; the
    # upper end ties with the root and comes first among the candidates
    res = _pick({0.0: 0.5, 1.0: 0.25, 0.5: 0.25}, deriv=lambda x: 0.5 - x)
    assert res.trace == [0.5, 0.25, 0.25]
    assert (res.c_x_star, res.objective, res.iterations) == (1.0, 0.25, 1)


@pytest.mark.parametrize("bad", [0.0, 1.0, 0.5])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_bracket_and_pick_rejects_a_non_finite_candidate(bad, value):
    values = {0.0: 0.5, 1.0: 0.25, 0.5: 0.25}
    values[bad] = value
    with pytest.raises(ArithmeticError):
        _pick(values, deriv=lambda x: 0.5 - x)


def test_bisect_circularity_vs_fine_grid():
    for pi_rr in (1.0, 10.0, 10**1.5):
        sys_p = base_system(pi_rr)
        res = bisect_circularity(sys_p, TARGET, 1.0)
        grid_c = np.linspace(0.0, 1.0, 200_001)
        vals = e2e_rayleigh_ub_value(sys_p, TARGET, 1.0, grid_c)
        assert res.objective <= vals.min() + 1e-10
        assert res.converged


def test_bisect_power_exact_objective_when_proper():
    # at c_x = 0 the default objective is the exact closed form, not the bound
    sys_p = base_system(pi_rr=1.0, p_max=4.0)
    res = bisect_power(sys_p, TARGET, 0.0)
    grid_p = np.linspace(1e-4, 4.0, 20_001)
    vals = [p_e2e_exact(sys_p, SignalParams(p, 0.0), TARGET).value for p in grid_p[::200]]
    assert res.objective <= min(vals) + 1e-8
    assert res.converged
    assert res.method == "closed-form-exact"


def test_bisect_power_forced_ub_objective():
    sys_p = base_system(pi_rr=1.0, p_max=4.0)
    res = bisect_power(sys_p, TARGET, 0.0, objective="ub")
    grid_p = np.linspace(1e-4, 4.0, 100_001)
    vals = e2e_rayleigh_ub_value(sys_p, TARGET, grid_p, 0.0)
    assert res.objective <= vals.min() + 1e-10
    assert res.method == "upper-bound"


def test_coordinate_descent_monotone_and_consistent():
    sys_p = base_system()
    res = coordinate_descent(sys_p, TARGET)
    # trace never increases
    diffs = np.diff(res.trace)
    assert np.all(diffs <= 1e-12)
    # agrees with a fine grid on the same objective
    ref = grid_search(sys_p, TARGET, "outage-ub", grid_n=1001)
    assert res.objective <= ref.objective + 1e-6
    assert res.converged
    assert res.method == ref.method == "upper-bound"


def test_non_rayleigh_rejected_by_bisection():
    sys_p = SystemParams(
        sr=LinkStat(2, 100.0), rd=LinkStat(1, 100.0), rr=LinkStat(1, 10.0),
        sd=LinkStat(1, 2.0), p_s=1.0, p_max=1.0,
    )
    with pytest.raises(ValueError):
        bisect_circularity(sys_p, TARGET, 1.0)
    with pytest.raises(ValueError):
        coordinate_descent(sys_p, TARGET)
    # so does the grid's vectorized Rayleigh bound
    with pytest.raises(ValueError):
        grid_search(sys_p, TARGET, "outage-ub")
    # exhaustive search still works on any shape, on the bounds that hold there
    res = grid_search(sys_p, TARGET, "outage-lb")
    assert 0.0 <= res.objective <= 1.0
    assert res.method == "lower-bound"


def test_grid_search_tie_breaking():
    # at r = 40 every grid value of both bounds is exactly 1.0: the search
    # must return the smallest p_r, then the smallest c_x
    sys_p = base_system()
    for objective in ("outage-ub", "outage-lb"):
        res = grid_search(sys_p, RateTarget(40.0), objective)
        assert res.objective == 1.0
        assert res.p_r_star == pytest.approx(sys_p.p_max / 101)
        assert res.c_x_star == 0.0


def test_grid_search_stability_with_resolution():
    sys_p = base_system()
    coarse = grid_search(sys_p, TARGET, "outage-ub")
    fine = grid_search(sys_p, TARGET, "outage-ub", grid_n=1001)
    assert fine.objective <= coarse.objective + 1e-12
    assert abs(fine.objective - coarse.objective) < 1e-3


def test_grid_search_fixed_power_slice():
    sys_p = base_system()
    res = grid_search(sys_p, TARGET, "outage-ub", p_r_fixed=0.5)
    assert res.p_r_star == 0.5
    with pytest.raises(ValueError):
        grid_search(sys_p, TARGET, "outage-ub", p_r_fixed=2.0)


def test_grid_search_maximize_metric():
    sys_p = base_system()
    res = grid_search(sys_p, TARGET, "ergodic-ub", p_r_fixed=1.0)
    # the ergodic rate is maximized: the first of the largest cells wins
    c_grid = np.linspace(0.0, 1.0, 101)
    values = [r_e2e_ub(sys_p, SignalParams(1.0, c)).value for c in c_grid]
    assert res.objective == max(values)
    assert res.c_x_star == c_grid[values.index(max(values))]
    # at a fixed rate the throughput peaks where the outage is least, so it
    # is no objective of its own
    for objective in ("throughput", "throughput-lb", "throughput-ub"):
        with pytest.raises(ValueError, match="unknown objective"):
            grid_search(sys_p, TARGET, objective)


@pytest.mark.parametrize("shapes", [(2, 2, 3, 2), (4, 4, 4, 4), (1, 3, 2, 4)])
@pytest.mark.parametrize("r", [1.0, 40.0])
def test_lb_grid_array_matches_scalar_bound(shapes, r):
    # the lower-bound grid is one array evaluation: every cell, the c_x = 1
    # column included, must match the scalar bound at its point; at r = 40
    # every value is exactly 1
    sys_p = SystemParams(
        *(LinkStat(m, pi) for m, pi in zip(shapes, (100.0, 100.0, 10.0, 2.0))),
        p_s=1.0, p_max=2.0,
    )
    target = RateTarget(r)
    p_grid, c_grid, values, tag = _grid_values(sys_p, target, "outage-lb", 101, None)
    assert tag == "lower-bound"
    assert values.shape == (101, 101) and c_grid[-1] == 1.0
    ref = np.array(
        [[p_e2e_lb(sys_p, SignalParams(p, c), target).value for c in c_grid] for p in p_grid]
    )
    assert np.max(np.abs(values - ref)) <= 1e-14
    if r == 40.0:
        assert np.all(values == 1.0) and np.all(ref == 1.0)


def test_design_optima_tags_and_proper_column():
    # off Rayleigh the proper optimum is the c_x = 0 column of the improper
    # optimum's lower-bound grid; on Rayleigh both come from the 1D/2D solvers
    sys_p = SystemParams(
        sr=LinkStat(2, 100.0), rd=LinkStat(2, 100.0), rr=LinkStat(3, 10.0),
        sd=LinkStat(2, 2.0), p_s=1.0, p_max=1.0,
    )
    pgs, igs = design_optima(sys_p, TARGET)
    assert pgs.method == igs.method == "lower-bound"
    assert pgs.c_x_star == 0.0
    column = [p_e2e_lb(sys_p, SignalParams(k / 101, 0.0), TARGET).value for k in range(1, 102)]
    assert pgs.objective == pytest.approx(min(column), abs=1e-14)
    assert igs == grid_search(sys_p, TARGET, "outage-lb")
    assert igs.objective <= pgs.objective
    pgs, igs = design_optima(base_system(), TARGET)
    assert (pgs.method, igs.method) == ("closed-form-exact", "exact-integral")
    assert pgs.c_x_star == 0.0
    sig = SignalParams(igs.p_r_star, igs.c_x_star)
    assert igs.objective == p_e2e_exact(base_system(), sig, TARGET).value


def test_grid_top_row_is_p_max():
    # p_max * 101 / 101 rounds above p_max = 2.7; the top row must be p_max
    # itself, which the per-point signal check accepts
    sys_p = SystemParams(
        sr=LinkStat(2, 100.0), rd=LinkStat(1, 100.0), rr=LinkStat(1, 10.0),
        sd=LinkStat(1, 2.0), p_s=1.0, p_max=2.7,
    )
    assert 2.7 * 101 / 101 > 2.7
    p_grid, *_ = _grid_values(sys_p, TARGET, "outage-lb", 101, None)
    assert p_grid[-1] == 2.7 and np.all(p_grid <= 2.7)
    res = grid_search(sys_p, TARGET, "outage-lb")
    assert 0.0 < res.p_r_star <= 2.7
    p_e2e_lb(sys_p, SignalParams(res.p_r_star, res.c_x_star), TARGET)
