"""The library's one adaptive quadrature (QUADPACK's QK21 rule in `math`):
agreement with SciPy's QUADPACK on the integrands the library builds, the
single-panel start's frozen bits, break points and final panels, and its
typed failures."""

import math
import random

import pytest
from scipy import integrate

from fdrigs import ergodic, outage
from fdrigs.model import LinkStat, RateTarget, SignalParams, SystemParams
from fdrigs.outage import (
    QUAD_ABS_TOL,
    QUAD_LIMIT,
    QUAD_REL_TOL,
    QuadratureError,
    adaptive_quad,
)


def _draws(seed, n):
    """Seeded systems in the benchmark's range: shapes 1..4, link powers
    0..30 dB, c_x at 0, 1, near 1 and uniform, r in 0.1..6.3."""
    rng = random.Random(seed)
    for i in range(n):
        shapes = (1, 1, 1, 1) if i % 3 == 0 else tuple(rng.randint(1, 4) for _ in range(4))
        links = [LinkStat(m, 10 ** rng.uniform(0.0, 3.0)) for m in shapes]
        sys_p = SystemParams(*links, p_s=1.0, p_max=1.0)
        c_x = rng.choice([0.0, 1.0, rng.random(), 1.0 - 10 ** rng.uniform(-12, -2)])
        yield sys_p, SignalParams(rng.uniform(0.01, 1.0), c_x), RateTarget(10 ** rng.uniform(-1, 0.8))


def _recorded_integrals(monkeypatch, evaluate):
    """(integrand, a, b, breaks, value) of every adaptive_quad call made by evaluate()."""
    calls = []

    def recording(f, a, b, breaks=(), panels=None):
        value = adaptive_quad(f, a, b, breaks, panels)
        calls.append((f, a, b, tuple(breaks), value))
        return value

    monkeypatch.setattr(outage, "adaptive_quad", recording)
    monkeypatch.setattr(ergodic, "adaptive_quad", recording)
    evaluate()
    return calls


def _counting(f):
    """f and a one-element list that counts its evaluations."""
    evals = [0]

    def counted(x):
        evals[0] += 1
        return f(x)

    return counted, evals


def test_matches_quadpack_on_library_integrands(monkeypatch):
    def evaluate():
        for k, (sys_p, sig, target) in enumerate(_draws(seed=3, n=40)):
            outage.p_e2e_exact(sys_p, sig, target)
            if k % 4 == 0:
                ergodic.r_e2e_ub(sys_p, sig)

    calls = _recorded_integrals(monkeypatch, evaluate)
    # 10 outer rate integrals, and 149 pieces of the 40 first-hop integrals,
    # each cut to its domain and split at its knots
    assert len(calls) == 159
    assert sum(1 for *_, breaks, _ in calls if breaks) == 10
    for f, a, b, breaks, value in calls:
        ref, _, info = integrate.quad(
            f, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT,
            points=breaks or None, full_output=True,
        )
        mine, mine_evals = _counting(f)
        adaptive_quad(mine, a, b, breaks)
        if not breaks:
            # one panel: the same QK21 nodes and value to rounding as QUADPACK
            assert value == pytest.approx(ref, rel=1e-14, abs=1e-300)
            assert mine_evals[0] == info["neval"]
        else:
            # the rate integrals start from their knot at r_cap / 2, where a
            # start from [0, r_cap] would have bisected after one wasted panel
            assert abs(value - ref) <= 2.0 * max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(ref))
            whole, whole_evals = _counting(f)
            assert adaptive_quad(whole, a, b) == pytest.approx(value, rel=1e-14, abs=1e-300)
            assert mine_evals[0] < whole_evals[0]


def test_known_integrals():
    assert adaptive_quad(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-14)
    # a polynomial of degree <= 31 is integrated exactly by one QK21 step
    assert adaptive_quad(lambda x: x**31, 0.0, 1.0) == pytest.approx(1.0 / 32.0, rel=1e-15)


KINK = 1.0 / 3.0


def _kinked(x):
    return math.exp(-abs(x - KINK))


def test_break_point_at_a_kink_saves_evaluations():
    # exp(-|x - c|) is smooth on each side of c: one QK21 panel each
    exact = 2.0 - math.exp(-KINK) - math.exp(KINK - 1.0)
    tol = max(QUAD_ABS_TOL, QUAD_REL_TOL * exact)
    split, split_evals = _counting(_kinked)
    whole, whole_evals = _counting(_kinked)
    assert abs(adaptive_quad(split, 0.0, 1.0, (KINK,)) - exact) <= tol
    assert abs(adaptive_quad(whole, 0.0, 1.0) - exact) <= tol
    assert split_evals[0] == 42
    assert whole_evals[0] == 693


@pytest.mark.parametrize(
    "f, a, b, breaks",
    [
        (_kinked, 0.0, 1.0, (KINK,)),
        (math.sqrt, 0.0, 1.0, (0.25, 0.5)),
        (lambda x: 1.0 / (1.0 + 100.0 * x * x), -1.0, 2.0, (0.0,)),
        (lambda x: math.cos(30.0 * x), 0.0, 1.0, ()),
    ],
)
def test_final_panels_tile_the_interval(f, a, b, breaks):
    panels = []
    value = adaptive_quad(f, a, b, breaks, panels)
    assert panels[0] == a and panels[-1] == b
    assert all(x0 < x1 for x0, x1 in zip(panels, panels[1:]))
    assert set(breaks) <= set(panels)
    assert len(panels) - 1 <= QUAD_LIMIT
    # the value is the sum of the final panels' QK21 estimates
    pieces = sum(outage._qk21(f, x0, x1)[0] for x0, x1 in zip(panels, panels[1:]))
    assert pieces == pytest.approx(value, rel=1e-14)


# (integrand, a, b, value as float.hex, evaluations) from one panel, as
# before break points existed; tiny_cos is below QUAD_ABS_TOL from its first
# panel, whose error equals its resasc, so QUADPACK's rule bisects it once
SINGLE_PANEL = {
    "sin": (math.sin, 0.0, math.pi, "0x1.0000000000000p+1", 21),
    "x31": (lambda x: x**31, 0.0, 1.0, "0x1.0000000000002p-5", 63),
    "runge": (lambda x: 1.0 / (1.0 + 100.0 * x * x), 0.0, 1.0, "0x1.2d49756780044p-3", 147),
    "sqrt": (math.sqrt, 0.0, 1.0, "0x1.5555555555696p-1", 777),
    "tiny_cos": (lambda x: 1e-14 * math.cos(30.0 * x), 0.0, 1.0, "-0x1.7bb5279a76463p-52", 63),
    "kink": (_kinked, 0.0, 1.0, "0x1.8a44330e25d45p-1", 693),
}


@pytest.mark.parametrize("name", sorted(SINGLE_PANEL))
def test_single_panel_keeps_its_bits(name):
    f, a, b, value, evals = SINGLE_PANEL[name]
    counted, n = _counting(f)
    assert adaptive_quad(counted, a, b).hex() == value
    assert n[0] == evals


def test_start_does_not_end_on_a_panel_whose_error_equals_its_resasc():
    # both first panels are below QUAD_ABS_TOL, and both errors equal their
    # resasc: the start goes on to bisect, as one such panel alone would
    counted, n = _counting(lambda x: 1e-14 * math.cos(30.0 * x))
    value = adaptive_quad(counted, 0.0, 2.0, (1.0,))
    assert n[0] == 84
    assert abs(value - 1e-14 * math.sin(60.0) / 30.0) <= QUAD_ABS_TOL


def test_subinterval_limit_raises():
    evals = [0]

    def oscillating(x):
        evals[0] += 1
        return math.cos(1e4 * x)

    with pytest.raises(QuadratureError, match=f"{QUAD_LIMIT} subintervals"):
        adaptive_quad(oscillating, 0.0, 1.0)
    # one QK21 step, then QUAD_LIMIT - 1 bisections of two steps each
    assert evals[0] == 21 * (2 * QUAD_LIMIT - 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_integrand_raises(bad):
    with pytest.raises(QuadratureError, match="non-finite"):
        adaptive_quad(lambda x: bad if x > 0.7 else 1.0, 0.0, 1.0)
    # non-finite on every panel of a start split at a break point
    with pytest.raises(QuadratureError, match="non-finite"):
        adaptive_quad(lambda x: bad, 0.0, 1.0, (0.5,))
