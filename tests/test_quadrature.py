"""The library's one adaptive quadrature (QUADPACK's QK21 rule in `math`):
agreement with SciPy's QUADPACK on the integrands the library builds, and
its typed failures."""

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
    integrate_semi_infinite,
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
    """(integrand, a, b, value) of every adaptive_quad call made by evaluate()."""
    calls = []

    def recording(f, a, b):
        value = adaptive_quad(f, a, b)
        calls.append((f, a, b, value))
        return value

    monkeypatch.setattr(outage, "adaptive_quad", recording)
    monkeypatch.setattr(ergodic, "adaptive_quad", recording)
    evaluate()
    return calls


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
    for f, a, b, value in calls:
        evals = [0]

        def counted(x):
            evals[0] += 1
            return f(x)

        ref, _, info = integrate.quad(
            counted, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT,
            full_output=True,
        )
        assert value == pytest.approx(ref, rel=1e-14, abs=1e-300)
        # the same QK21 nodes: as many integrand evaluations as QUADPACK
        mine = [0]

        def counted_mine(x):
            mine[0] += 1
            return f(x)

        adaptive_quad(counted_mine, a, b)
        assert mine[0] == info["neval"]


def test_known_integrals():
    assert adaptive_quad(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-14)
    assert integrate_semi_infinite(lambda x: math.exp(-x), 1.0) == pytest.approx(1.0, rel=1e-13)
    # a polynomial of degree <= 31 is integrated exactly by one QK21 step
    assert adaptive_quad(lambda x: x**31, 0.0, 1.0) == pytest.approx(1.0 / 32.0, rel=1e-15)


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
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_semi_infinite(lambda x: bad, 1.0)
