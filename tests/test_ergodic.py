"""Ergodic rate: the upper bound, the Rayleigh lower bound and the exact
survival integral, each against an independent oracle."""

import math
import random
import warnings

import hypothesis
import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fdrigs.ergodic import _rate_cap, r_e2e_exact, r_e2e_rayleigh_lb, r_e2e_ub
from fdrigs.model import LinkStat, RateTarget, SignalParams, SystemParams, alpha, psi_r, psi_ratio_limit
from fdrigs.outage import QUAD_ABS_TOL, QUAD_REL_TOL, _bound_survival, _rd_hop, _sr_hop, p_e2e_exact
from audit_domain import d_draws
from mp_oracles import mp_hop_survival

# frozen anchors (cross-checked against quadrature oracles)
ERG_UB = 3.0983351016783516
ERG_EXACT = 2.9165506228136158
ERG_LB = 2.6370203039880513
M2_ERG_UB = 3.5586808626614763


def base_system(m_relayed=1, shapes=None, pi_sr=100.0, pi_rd=100.0):
    """Shapes (sr, rd, rr, sd) default to (m_relayed, m_relayed, 1, 1)."""
    m_sr, m_rd, m_rr, m_sd = shapes or (m_relayed, m_relayed, 1, 1)
    return SystemParams(
        sr=LinkStat(m_sr, pi_sr),
        rd=LinkStat(m_rd, pi_rd),
        rr=LinkStat(m_rr, 10.0),
        sd=LinkStat(m_sd, 2.0),
        p_s=1.0,
        p_max=1.0,
    )


SIG = SignalParams(1.0, 0.9)


def oracle_survival_integral(sys_p, sig, upper=40.0):
    """Independent oracle: integrate the rate survival function over r."""
    val, err = integrate.quad(
        lambda r: 1.0 - p_e2e_exact(sys_p, sig, RateTarget(r)).value,
        0.0,
        upper,
        limit=400,
        epsrel=1e-10,
    )
    return val


# Split points of the mpmath reference: the decades of r from 1e-12, where
# the survival's mass can sit when it is all at r << 1, then the bulk.
MP_RATE_SPLITS = [0.0] + [10.0**k for k in range(-12, 1)] + [2.0, 4.0, 6.0, 8.0, 12.0, 20.0, 40.0]


def mp_ergodic_ub(sys_p, sig):
    """mpmath: int_0^inf of the outage lower bound's survival over r.

    Hop 1 survives when p_s g_sr >= (p_r g_rr + 1) (sqrt(1 + gamma (1 - c^2)) - 1);
    hop 2 when p_r g_rd >= (p_s g_sd + 1) gamma / (1 + sqrt(1 + gamma (1 - c^2))).
    gamma = expm1(2 r ln 2), and sqrt(1 + g) - 1 is taken as g / (1 + sqrt(1 + g)),
    so neither cancels as r -> 0.  The survival is smooth on each piece, where
    Gauss-Legendre gives tanh-sinh's value in half its evaluations.
    """
    c = mp.mpf(sig.c_x)
    p_s, p_r = mp.mpf(sys_p.p_s), mp.mpf(sig.p_r)
    sr, rd, rr, sd = sys_p.sr, sys_p.rd, sys_p.rr, sys_p.sd

    def survival(r):
        gam = mp.expm1(2 * r * mp.log(2))
        g = gam * (1 - c) * (1 + c)
        root = mp.sqrt(1 + g)
        hop1 = mp_hop_survival(sr.m, g / (1 + root) / (p_s * sr.theta), p_r, rr.m, mp.mpf(rr.theta))
        hop2 = mp_hop_survival(rd.m, gam / (1 + root) / (p_r * rd.theta), p_s, sd.m, mp.mpf(sd.theta))
        return hop1 * hop2

    with mp.workdps(20):
        return float(mp.quad(survival, MP_RATE_SPLITS, method="gauss-legendre"))


def test_frozen_anchors():
    sys_p = base_system()
    assert r_e2e_ub(sys_p, SIG).value == pytest.approx(ERG_UB, abs=1e-10)
    assert r_e2e_exact(sys_p, SIG).value == pytest.approx(ERG_EXACT, abs=1e-10)
    assert r_e2e_rayleigh_lb(sys_p, SIG).value == pytest.approx(ERG_LB, abs=1e-10)
    assert r_e2e_ub(base_system(2), SIG).value == pytest.approx(M2_ERG_UB, abs=1e-10)


def test_exact_vs_survival_oracle():
    sys_p = base_system()
    assert r_e2e_exact(sys_p, SIG).value == pytest.approx(
        oracle_survival_integral(sys_p, SIG), rel=1e-9
    )
    sys2 = base_system(2)
    assert r_e2e_exact(sys2, SIG).value == pytest.approx(
        oracle_survival_integral(sys2, SIG), rel=1e-9
    )


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("c_x", [0.0, 0.5, 0.9])
def test_ub_dominates_exact(m, c_x):
    sys_p = base_system(m)
    sig = SignalParams(0.8, c_x)
    assert r_e2e_ub(sys_p, sig).value >= r_e2e_exact(sys_p, sig).value - 1e-9


def test_ub_exact_when_proper():
    for m in (1, 2, 3):
        sys_p = base_system(m)
        sig = SignalParams(0.9, 0.0)
        assert r_e2e_ub(sys_p, sig).value == pytest.approx(
            r_e2e_exact(sys_p, sig).value, abs=1e-6
        )


def test_ub_dominates_exact_along_cx_in_the_default_scenario():
    # the exact rate integrates a survival never above the bound's, on the
    # bound's own panels, and at c_x = 0 the two survivals are equal: the
    # scenario file's 20/20/10/3 dB links, unit powers
    links = [LinkStat(1, 10.0 ** (db / 10.0)) for db in (20, 20, 10, 3)]
    sys_p = SystemParams(*links, p_s=1.0, p_max=1.0)
    for c_x in (0.0, 0.25, 0.5, 0.75, 1.0):
        sig = SignalParams(1.0, c_x)
        exact, ub = r_e2e_exact(sys_p, sig).value, r_e2e_ub(sys_p, sig).value
        assert exact <= ub + 1e-10 * ub, (c_x, exact, ub)
        if c_x == 0.0:
            assert abs(exact - ub) <= 1e-10 * ub, (exact, ub)


@pytest.mark.parametrize(
    "shapes, c_x",
    [
        ((4, 4, 4, 4), 0.9),
        ((3, 3, 4, 4), 0.9),
        ((3, 4, 3, 1), 0.9),
        ((2, 2, 2, 2), 1.0 - 1e-6),
        ((3, 3, 3, 3), 1.0 - 1e-6),
        ((4, 4, 4, 4), 1.0 - 1e-6),
    ],
)
def test_ub_matches_mpmath_oracle(shapes, c_x):
    sys_p = base_system(shapes=shapes)
    sig = SignalParams(1.0, c_x)
    assert r_e2e_ub(sys_p, sig).value == pytest.approx(mp_ergodic_ub(sys_p, sig), abs=1e-9)


def test_ub_continuous_through_pole_collision():
    # at pi_sr = pi_rr (1 - c_x) two poles of the bound's rational factor in
    # psi coincide, where a partial-fraction evaluation breaks down
    def collision_system(eps):
        return base_system(shapes=(2, 2, 2, 2), pi_sr=10.0 * (1.0 - SIG.c_x) * (1.0 + eps))

    at_collision = r_e2e_ub(collision_system(0.0), SIG).value
    assert at_collision == pytest.approx(mp_ergodic_ub(collision_system(0.0), SIG), abs=1e-9)
    for eps in (1e-8, 1e-6, 1e-4):
        value = r_e2e_ub(collision_system(eps), SIG).value
        assert math.isfinite(value)
        assert abs(value - at_collision) <= 2.0 * eps + 1e-9


def test_rayleigh_lb_continuous_on_degenerate_set():
    # pi_rd chosen so that p_r pi_rd (1 - c_x^2) = p_s pi_sd (1 - a c_x):
    # two poles of the integrand, -(1 - a c_x) and -x, coincide
    base = base_system()
    ac = alpha(base, SIG.p_r) * SIG.c_x
    pi_rd = base.p_s * base.sd.pi * (1.0 - ac) / (SIG.p_r * (1.0 - SIG.c_x**2))

    def lb(rel):
        return r_e2e_rayleigh_lb(base_system(pi_rd=pi_rd * (1.0 + rel)), SIG).value

    at_degenerate = lb(0.0)
    assert math.isfinite(at_degenerate)
    for rel in (1e-10, -1e-10, 1e-6, -1e-6):
        assert abs(lb(rel) - at_degenerate) <= 10.0 * abs(rel) + 1e-12


def mp_rayleigh_lb(sys_p, sig):
    """mpmath: the Rayleigh lower bound's Laplace-type integral, with
    1 - c_x^2 formed exactly from the binary c_x."""
    c = mp.mpf(sig.c_x)
    p_s, p_r = mp.mpf(sys_p.p_s), mp.mpf(sig.p_r)
    beta = p_r * sys_p.rr.pi
    ac = beta / (beta + 1) * c
    prd = p_r * sys_p.rd.pi * (1 - c) * (1 + c)
    x = prd / (p_s * sys_p.sd.pi)
    omega = (beta + 1) / (p_s * sys_p.sr.pi) + 1 / prd

    def integrand(s):
        return mp.exp(-omega * s) * x * (s + 1) / ((s + 1 - ac) * (s + 1 + ac) * (s + x))

    with mp.workdps(30):
        return float(mp.quad(integrand, [0, 1 / omega, 10 / omega, mp.inf]) / mp.log(2))


RAYLEIGH_LADDER = (1.0 - 1e-9, 1.0 - 1e-11, 1.0 - 1e-13, 1.0 - 1e-15, 1.0 - 2.0**-53, 1.0)


def test_rayleigh_lb_falls_to_zero_as_cx_tends_to_one():
    # the bound tends to 0 as c_x -> 1 and is exactly 0 there; a clamp of
    # c_x below 1 would freeze the ladder at its first value
    strong_rsi = SystemParams(
        sr=LinkStat(1, 1e4), rd=LinkStat(1, 1e4), rr=LinkStat(1, 1e6),
        sd=LinkStat(1, 1e-2), p_s=1.0, p_max=1.0,
    )
    near_one = SignalParams(1.0, 1.0 - 1e-12)
    assert r_e2e_rayleigh_lb(strong_rsi, near_one).value == pytest.approx(
        mp_rayleigh_lb(strong_rsi, near_one), rel=1e-8
    )
    rng = random.Random(2024)
    systems = [strong_rsi] + [
        SystemParams(*(LinkStat(1, 10 ** rng.uniform(-2.0, 6.0)) for _ in range(4)),
                     p_s=1.0, p_max=1.0)
        for _ in range(399)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sys_p in systems:
            ladder = [r_e2e_rayleigh_lb(sys_p, SignalParams(1.0, c)).value for c in RAYLEIGH_LADDER]
            assert all(a >= b for a, b in zip(ladder, ladder[1:])), ladder
            assert ladder[-1] == 0.0


def test_rayleigh_lb_sandwich():
    sys_p = base_system()
    for c_x in (0.0, 0.4, 0.9):
        sig = SignalParams(1.0, c_x)
        lb = r_e2e_rayleigh_lb(sys_p, sig).value
        exact = r_e2e_exact(sys_p, sig).value
        assert lb <= exact + 1e-9
    with pytest.raises(ValueError):
        r_e2e_rayleigh_lb(base_system(2), SIG)


def test_monotone_in_circularity_tradeoff():
    # stronger RSI rewards improperness; the exact ergodic rate at high RSI
    # must increase from c_x = 0 to the best c_x on a coarse grid
    strong = SystemParams(
        sr=LinkStat(1, 100.0), rd=LinkStat(1, 100.0), rr=LinkStat(1, 10**2.5),
        sd=LinkStat(1, 2.0), p_s=1.0, p_max=1.0,
    )
    vals = [r_e2e_exact(strong, SignalParams(1.0, c)).value for c in (0.0, 0.5, 0.9)]
    assert vals[2] > vals[0]


AUDIT = [(sys_p, sig) for sys_p, sig, _ in d_draws(150, rate=False)]


def small_rate_system():
    """Shapes (1, 2, 3, 2) and pi = (-6.7, 4.1, 44.6, 48.6) dB: at c_x = 0 the
    bound survival falls from 1 to 1e-12 below r = 0.02, and a rate cap that
    could only grow from 20 let QK21 miss all of it."""
    pis_db = (-6.7, 4.1, 44.6, 48.6)
    links = (LinkStat(m, 10.0 ** (db / 10.0)) for m, db in zip((1, 2, 3, 2), pis_db))
    return SystemParams(*links, p_s=1.0, p_max=1.0)


@pytest.mark.parametrize("p_r", [0.3, 0.65, 1.0])
def test_ergodic_integrals_find_mass_at_small_rates(p_r):
    # mpmath gives 1.55e-5, 1.52e-5 and 1.26e-5 where a cap of 20 gave ~1e-14
    sys_p, sig = small_rate_system(), SignalParams(p_r, 0.0)
    ub = r_e2e_ub(sys_p, sig).value
    assert ub == pytest.approx(mp_ergodic_ub(sys_p, sig), rel=1e-9)
    # the bound is exact at c_x = 0, and both integrals share the cap
    assert r_e2e_exact(sys_p, sig).value == pytest.approx(ub, rel=1e-9)


@pytest.mark.parametrize("draw", list(range(16)) + [115])
def test_ub_matches_mpmath_over_audit_slice(draw):
    # draw 115 (c_x = 1, value 1.5e-6) is the one of the first 150 that a
    # cap of 20 got wrong
    sys_p, sig = AUDIT[draw]
    ref = mp_ergodic_ub(sys_p, sig)
    assert abs(r_e2e_ub(sys_p, sig).value - ref) <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(ref))


def test_exact_below_upper_bound_and_equal_at_proper_signaling_over_audit_slice():
    # the exact rate integrates a survival never above the bound's, and at
    # c_x = 0 the two survivals are equal; with the first hop integrated over
    # a domain mapped at scale theta_rr, draws 9 and 20 (c_x = 0) read 2.6e-3
    # and 2.2e-5 relative below the bound
    for sys_p, sig in AUDIT[:24]:
        exact, ub = r_e2e_exact(sys_p, sig).value, r_e2e_ub(sys_p, sig).value
        tol = max(QUAD_ABS_TOL, QUAD_REL_TOL * ub)
        assert exact <= ub + tol, (sys_p, sig, exact, ub)
        if sig.c_x == 0.0:
            assert abs(exact - ub) <= tol, (sys_p, sig, exact, ub)


def test_rate_cap_brackets_the_bound_survival():
    # the cap is the smallest 20 * 2^k with survival <= 1e-12, where the
    # survival is the cap's own: 1 - p_e2e_lb cancels to ~1e-4 relative there
    designs = AUDIT + [(small_rate_system(), SignalParams(p_r, 0.0)) for p_r in (0.3, 0.65, 1.0)]
    for sys_p, sig in designs:
        survival = _bound_survival(sys_p, sig.p_r, sig.c_x)
        cap = _rate_cap(survival)
        assert math.log2(cap / 20.0).is_integer(), cap
        assert survival(cap) <= 1e-12 < survival(0.5 * cap), (sys_p, sig, cap)


@pytest.mark.parametrize("integral", [r_e2e_ub, r_e2e_exact])
def test_rate_cap_past_overflow_is_overflow_error(integral):
    # the survival is still above 1e-12 at r = 320, and gamma overflows at 640
    huge = SystemParams(*(LinkStat(1, pi) for pi in (1e300, 1e300, 1.0, 1.0)), p_s=1.0, p_max=1.0)
    with pytest.raises(OverflowError):
        integral(huge, SignalParams(1.0, 0.5))


def test_rayleigh_lower_bound_below_exact_over_audit_slice():
    # the 20 all-Rayleigh draws among the first 60 designs of D
    for sys_p, sig in AUDIT[:60:3]:
        assert sys_p.all_rayleigh
        exact, lb = r_e2e_exact(sys_p, sig).value, r_e2e_rayleigh_lb(sys_p, sig).value
        assert lb <= exact + max(QUAD_ABS_TOL, QUAD_REL_TOL * exact), (sys_p, sig, exact, lb)


def test_ergodic_bounds_finite_and_rayleigh_lb_matches_mpmath_over_audit_domain():
    # r_e2e_ub on every draw of D and r_e2e_rayleigh_lb on its all-Rayleigh
    # draws are finite and >= 0; on the all-Rayleigh draws of D[:300] the
    # Rayleigh bound is within QUAD_* of mpmath (0 at c_x = 1, exactly)
    for k, (sys_p, sig, _) in enumerate(d_draws(1500)):
        ub = r_e2e_ub(sys_p, sig).value
        assert math.isfinite(ub) and ub >= 0.0, (k, ub)
        if sys_p.all_rayleigh:
            lb = r_e2e_rayleigh_lb(sys_p, sig).value
            assert math.isfinite(lb) and lb >= 0.0, (k, lb)
            if k < 300:
                ref = 0.0 if sig.c_x == 1.0 else mp_rayleigh_lb(sys_p, sig)
                assert abs(lb - ref) <= max(QUAD_ABS_TOL, QUAD_REL_TOL * ref), (k, lb, ref)


def scaled_hops(t):
    """base_system() with both relayed hops at 100 t."""
    return base_system(pi_sr=100.0 * t, pi_rd=100.0 * t)


@pytest.mark.parametrize("lo, hi", [(1.0, 10.0), (1e3, 1e4)])
def test_ergodic_integrals_continuous_where_the_rate_cap_switches(lo, hi):
    # bisect for the t where the bound survival at the cap of t = lo crosses
    # 1e-12: the cap (10 -> 20, the turn at r = 20, then 20 -> 40) doubles
    # there, and the knot at r_cap / 2 moves with it
    def cap_of(t):
        return _rate_cap(_bound_survival(scaled_hops(t), SIG.p_r, SIG.c_x))

    cap = cap_of(lo)
    while hi / lo - 1.0 > 1e-13:
        mid = math.sqrt(lo * hi)
        if _bound_survival(scaled_hops(mid), SIG.p_r, SIG.c_x)(cap) > 1e-12:
            hi = mid
        else:
            lo = mid
    t = math.sqrt(lo * hi)
    assert cap_of(t * (1.0 - 1e-9)) == cap
    assert cap_of(t * (1.0 + 1e-9)) == 2.0 * cap
    for integral in (r_e2e_ub, r_e2e_exact):
        value = {d: integral(scaled_hops(t * (1.0 + d)), SIG).value for d in (-1e-6, -1e-9, 1e-9, 1e-6)}
        # the smooth change over 2e-9, about 6 tolerances here, estimated as
        # 1e-3 of the change over 2e-6, is not a jump
        smooth = 1e-3 * (value[1e-6] - value[-1e-6])
        jump = value[1e-9] - value[-1e-9] - smooth
        assert abs(jump) <= 4.0 * max(QUAD_ABS_TOL, QUAD_REL_TOL * value[1e-9]), (integral, t, value)


# Rates on both sides of RateTarget's switch at r = 1, and far into the tail.
CODED_ONCE_RATES = (1e-3, 0.5, math.nextafter(1.0, 0.0), 1.0, 7.0, 300.0)


def test_bound_integrand_is_the_hop_survivals_bit_for_bit_over_audit_domain():
    # the bound survival, which r_e2e_ub integrates and e2e_lb_value takes at
    # the target rate, forms gamma, the psi pair and both hops with the same
    # helpers as RateTarget and the per-target hop survivals, so it cannot
    # drift from them by a single bit; it raises as RateTarget does
    for sys_p, sig, _ in d_draws(1500):
        survival = _bound_survival(sys_p, sig.p_r, sig.c_x)
        for r in CODED_ONCE_RATES:
            target = RateTarget(r)
            first = _sr_hop(sys_p, sig.p_r)(psi_r(target, sig.c_x))
            ref = first * _rd_hop(sys_p, sig.p_r)(psi_ratio_limit(target, sig.c_x))
            assert survival(r).hex() == ref.hex(), (sys_p, sig, r)
        with pytest.raises(OverflowError):
            survival(640.0)
        with pytest.raises(ValueError):
            survival(0.0)


@pytest.mark.parametrize("shapes", [(1, 1, 1, 1), (3, 4, 3, 1)])
def test_ergodic_integrals_continuous_as_cx_tends_to_one(shapes):
    # psi_r(c_x) / (1 - c_x^2) is gamma / (1 + sqrt(1 + g)), whose limit
    # gamma / 2 at c_x = 1 needs no special case; both integrals must reach
    # their value at c_x = 1 with no jump
    sys_p = base_system(shapes=shapes)
    for integral in (r_e2e_ub, r_e2e_exact):
        at_one = integral(sys_p, SignalParams(1.0, 1.0)).value
        tol = max(QUAD_ABS_TOL, QUAD_REL_TOL * at_one)
        # the smooth change over 1 - c_x, estimated from the change over 1e-6
        slope = (integral(sys_p, SignalParams(1.0, 1.0 - 1e-6)).value - at_one) / 1e-6
        for c_x in (1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15):
            value = integral(sys_p, SignalParams(1.0, c_x)).value
            jump = value - at_one - slope * (1.0 - c_x)
            assert abs(jump) <= 4.0 * tol, (integral, c_x, value, at_one)


@given(
    shapes=st.tuples(*[st.integers(min_value=1, max_value=4)] * 4),
    log_pis=st.tuples(*[st.floats(min_value=-1.0, max_value=6.0)] * 4),
    p_r=st.floats(min_value=0.01, max_value=1.0),
    c_x=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_exact_rate_is_below_its_upper_bound_in_a_targeted_search(shapes, log_pis, p_r, c_x):
    # the search is steered towards the largest excess of the exact rate
    # over the upper bound, in units of the quadrature tolerance
    links = [LinkStat(m, 10.0**e) for m, e in zip(shapes, log_pis)]
    sys_p = SystemParams(*links, p_s=1.0, p_max=1.0)
    sig = SignalParams(p_r, c_x)
    exact, ub = r_e2e_exact(sys_p, sig).value, r_e2e_ub(sys_p, sig).value
    tol = max(QUAD_ABS_TOL, QUAD_REL_TOL * ub)
    hypothesis.target((exact - ub) / tol)
    assert exact <= ub + tol, (shapes, log_pis, p_r, c_x, exact, ub)
