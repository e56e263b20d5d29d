"""Outage probability: closed forms against brute-force quadrature oracles,
bound orderings, frozen anchors, and the high-RSI asymptote."""

import itertools
import math

import hypothesis
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from fdrigs.ergodic import r_e2e_rayleigh_lb, r_e2e_ub
from fdrigs.model import LinkStat, RateTarget, SignalParams, SystemParams, psi_r, psi_ratio_limit
from fdrigs.outage import (
    QUAD_ABS_TOL,
    QUAD_REL_TOL,
    _combined_survival,
    _hop_survival,
    _rayleigh_ub_parts,
    _rd_hop,
    _sr_hop,
    _sr_survival_exact,
    _zero_load_survivals,
    asymptotic_k,
    e2e_lb_value,
    e2e_rayleigh_ub_value,
    p_e2e_exact,
    p_e2e_lb,
    p_e2e_rayleigh_ub,
    p_hdr_mhdf,
    p_hdr_mrc,
    throughput,
)
from audit_domain import d_draws
from mp_oracles import mp_combined_survival, mp_hop_survival, mp_sr_survival_exact

# frozen anchors, cross-checked against independent quadrature oracles
PGS_E2E_EXACT = 0.12638264411162647
IGS_E2E_EXACT = 0.07963357269139759
IGS_E2E_LB = 0.06491068492025687
IGS_E2E_UB = 0.08134084344731285
ASYM_K = 0.07184710501640779
M2_E2E_EXACT = 0.008902758924379528
M2_E2E_LB = 0.006702206760615614


def base_system(m_relayed=1, m_rr=1, m_sd=1):
    return SystemParams(
        sr=LinkStat(m_relayed, 100.0),
        rd=LinkStat(m_relayed, 100.0),
        rr=LinkStat(m_rr, 10.0),
        sd=LinkStat(m_sd, 2.0),
        p_s=1.0,
        p_max=1.0,
    )


SIG = SignalParams(1.0, 0.9)
TARGET = RateTarget(1.0)


# Each hop's outage, from the primitive the end-to-end metrics take it from.
def sr_exact_survival(sys_p, sig, target):
    """The exact first-hop survival at `target`, as `p_e2e_exact` takes it."""
    return _sr_survival_exact(sys_p, sig, target.gamma, psi_r(target, sig.c_x))


def sr_exact_outage(sys_p, sig, target):
    """The exact first-hop outage (the first factor of `p_e2e_exact`)."""
    return 1.0 - sr_exact_survival(sys_p, sig, target)


def sr_lb_outage(sys_p, sig, target):
    """The first-hop lower bound (the first factor of `e2e_lb_value`)."""
    return 1.0 - _sr_hop(sys_p, sig.p_r)(psi_r(target, sig.c_x))


def rd_outage(sys_p, sig, target):
    """The second-hop outage, exact in closed form (the second factor of
    every end-to-end outage)."""
    return 1.0 - _rd_hop(sys_p, sig.p_r)(psi_ratio_limit(target, sig.c_x))


def oracle_sr_outage(sys_p, sig, target):
    """Independent 2D oracle: E over g_rr of the g_sr threshold CDF."""
    rr = stats.gamma(a=sys_p.rr.m, scale=sys_p.rr.theta)
    sr = stats.gamma(a=sys_p.sr.m, scale=sys_p.sr.theta)

    def integrand(g):
        i = sig.p_r * g
        thr = (i + 1.0) * psi_r(target, i * sig.c_x / (i + 1.0)) / sys_p.p_s
        return sr.cdf(thr) * rr.pdf(g)

    val, err = integrate.quad(integrand, 0.0, np.inf, limit=300)
    return val


def oracle_rd_outage(sys_p, sig, target):
    """Independent 2D oracle: E over g_sd of the g_rd threshold CDF."""
    sd = stats.gamma(a=sys_p.sd.m, scale=sys_p.sd.theta)
    rd = stats.gamma(a=sys_p.rd.m, scale=sys_p.rd.theta)
    gamma = 2.0 ** (2.0 * target.r) - 1.0
    denom = 1.0 + math.sqrt(1.0 + gamma * (1.0 - sig.c_x**2))

    def integrand(g):
        thr = (sys_p.p_s * g + 1.0) * gamma / denom / sig.p_r
        return rd.cdf(thr) * sd.pdf(g)

    val, err = integrate.quad(integrand, 0.0, np.inf, limit=300)
    return val


def oracle_sr_lb_survival(sys_p, sig, target):
    """Independent oracle: E over g_rr of the g_sr survival at the lower
    bound's threshold psi_r(c_x) (P_r g_rr + 1) / P_s."""
    rr = stats.gamma(a=sys_p.rr.m, scale=sys_p.rr.theta)
    sr = stats.gamma(a=sys_p.sr.m, scale=sys_p.sr.theta)
    psi = psi_r(target, sig.c_x)

    def integrand(g):
        return sr.sf(psi * (sig.p_r * g + 1.0) / sys_p.p_s) * rr.pdf(g)

    val, err = integrate.quad(integrand, 0.0, np.inf, limit=300, epsabs=1e-13)
    return val


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("c_x", [0.0, 0.5, 1.0])
def test_sr_exact_vs_oracle(m, c_x):
    sys_p = base_system(m)
    sig = SignalParams(0.7, c_x)
    ref = oracle_sr_outage(sys_p, sig, TARGET)
    assert sr_exact_outage(sys_p, sig, TARGET) == pytest.approx(ref, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("c_x", [0.0, 0.5, 1.0])
def test_rd_exact_vs_oracle(m, c_x):
    sig = SignalParams(0.7, c_x)
    for m_sd in (1, 2, 3, 4):
        sys_p = base_system(m, m_sd=m_sd)
        ref = oracle_rd_outage(sys_p, sig, TARGET)
        assert rd_outage(sys_p, sig, TARGET) == pytest.approx(ref, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("m_rr", [1, 2, 3, 4])
@pytest.mark.parametrize("m_sr", [1, 2, 3, 4])
def test_sr_lb_vs_oracle(m_sr, m_rr):
    sys_p = base_system(m_sr, m_rr=m_rr)
    for c_x in (0.0, 0.5, 0.9, 1.0):
        sig = SignalParams(0.7, c_x)
        ref = 1.0 - oracle_sr_lb_survival(sys_p, sig, TARGET)
        assert sr_lb_outage(sys_p, sig, TARGET) == pytest.approx(ref, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("m_i", [1, 2, 3, 4])
@pytest.mark.parametrize("m_sig", [1, 2, 3, 4])
def test_hop_survival_vs_mpmath(m_sig, m_i):
    # u in 1e-8..1e3, load in 1e-3..1e3, theta_i in 1e-2..1e5: the corners of
    # the box in log scale and seeded log-uniform draws inside it
    rng = np.random.default_rng(10 * m_sig + m_i)
    corners = itertools.product((-8.0, 3.0), (-3.0, 3.0), (-2.0, 5.0))
    draws = rng.uniform((-8.0, -3.0, -2.0), (3.0, 3.0, 5.0), size=(60, 3))
    checked = 0
    with mp.workdps(40):
        for log_u, log_load, log_theta in [*corners, *draws]:
            u, load = float(10.0**log_u), float(10.0**log_load)
            interferer = LinkStat(m_i, float(m_i * 10.0**log_theta))
            value = _hop_survival(m_sig, load, interferer, 1.0)(u)
            ref = mp_hop_survival(m_sig, u, load, m_i, interferer.theta)
            if ref > 1e-300:
                assert value == pytest.approx(float(ref), rel=1e-13), (u, load, interferer)
                checked += 1
            else:
                assert 0.0 <= value <= 1e-299
    assert checked >= 60


@pytest.mark.parametrize("m_i", [1, 2, 3, 4])
def test_hop_survival_is_zero_where_its_exponential_underflows(m_i):
    # past u ~ 745 the survival is below the smallest double; from u ~ 1e103
    # u^m overflows, so e^-u must enter the Poisson weights before the sum:
    # 0 * inf = nan would come out as a survival of 1 through the clamp, or
    # as nan on an array, as it does at u = inf unless the float returns 0
    # first and the array caps u.  At u = 700 and 740, e^-u is positive but
    # theta_i load u of 1e77..1e300 overflows t**m_i, while (1/t)**m_i is 0.
    interferer = LinkStat(m_i, 10.0)
    u = np.array([800.0, 1e103, 1e120, 1e200, 1e300, math.inf])
    for m_sig in (1, 2, 3, 4):
        for load in (1e-3, 1.0, 1e3):
            hop = _hop_survival(m_sig, load, interferer, 1.0)
            assert [hop(float(v)) for v in u] == [0.0] * 6
            assert list(hop(u)) == [0.0] * 6
            assert list(_hop_survival(m_sig, np.full(6, load), interferer, 1.0)(u)) == [0.0] * 6
        for v in (700.0, 740.0):
            load = 10.0 ** np.array([77.0, 100.0, 200.0, 300.0]) / (interferer.theta * v)
            array = _hop_survival(m_sig, load, interferer, 1.0)(np.full(4, v))
            floats = [_hop_survival(m_sig, float(b), interferer, 1.0)(v) for b in load]
            assert floats == list(array) == [0.0] * 4


def test_zero_load_hop_is_q_within_1e15_of_mpmath():
    # At load 0 the hop survival is Q(m, x) = e^-x sum_{k<m} x^k / k!, the
    # library's one closed-form Gamma survival, which the half-duplex
    # baselines and K take at this precision.  Checked where Q > 1e-300 on
    # seeded (m, x), x = 10^U(-8, log10 700); the array branch agrees with
    # the float one.
    rng = np.random.default_rng(11)
    ms = rng.integers(1, 5, size=20_000)
    xs = 10.0 ** rng.uniform(-8.0, math.log10(700.0), size=20_000)
    hops = {m: _hop_survival(m, 0.0, LinkStat(1, 1.0), 1.0) for m in (1, 2, 3, 4)}
    checked = 0
    with mp.workdps(40):
        for m, x in zip(ms.tolist(), xs.tolist()):
            x_mp = mp.mpf(x)
            ref = mp.exp(-x_mp) * mp.fsum(x_mp**k / mp.factorial(k) for k in range(m))
            if ref > 1e-300:
                assert abs(hops[m](x) - ref) <= 1e-15 * ref, (m, x)
                checked += 1
    assert checked >= 19_900
    for m, hop in hops.items():
        array = hop(xs[ms == m])
        floats = np.array([hop(x) for x in xs[ms == m].tolist()])
        assert np.all(np.abs(array - floats) <= 1e-15 * floats)


def test_second_hop_outage_is_one_at_huge_rates_over_audit_domain():
    # gamma = 2^(2r) - 1 puts the second hop's threshold past 1e54 here; at
    # r = 200 the sum without the zero at e^-u = 0 gave outage 0 on 23 of
    # D's draws and raised OverflowError on 127
    for sys_p, sig, _ in d_draws(1500):
        for r in (200.0, 300.0, 500.0):
            target = RateTarget(r)
            assert rd_outage(sys_p, sig, target) == 1.0, (sys_p, sig, r)
            assert p_e2e_lb(sys_p, sig, target).value == 1.0, (sys_p, sig, r)
    # here the threshold u itself overflows to inf; without the zero at
    # e^-u = 0, Poisson weights carrying e^-u would read 0 * inf = nan, which
    # the clamp turns into survival 1 (outage 0)
    links = (LinkStat(m, pi) for m, pi in zip((2, 3, 1, 2), (100.0, 1e-3, 10.0, 1.0)))
    sys_p = SystemParams(*links, p_s=1.0, p_max=1.0)
    assert rd_outage(sys_p, SignalParams(1e-12, 1.0), RateTarget(505.0)) == 1.0


def test_e2e_factorizes_over_hops():
    # hops depend on disjoint gain sets, so survivals multiply
    sys_p = base_system(2)
    p_sr = sr_exact_outage(sys_p, SIG, TARGET)
    p_rd = rd_outage(sys_p, SIG, TARGET)
    expected = 1.0 - (1.0 - p_sr) * (1.0 - p_rd)
    assert p_e2e_exact(sys_p, SIG, TARGET).value == pytest.approx(expected, rel=1e-10)


def test_frozen_anchors():
    sys_p = base_system()
    assert p_e2e_exact(sys_p, SignalParams(1.0, 0.0), TARGET).value == pytest.approx(
        PGS_E2E_EXACT, abs=1e-12
    )
    assert p_e2e_exact(sys_p, SIG, TARGET).value == pytest.approx(IGS_E2E_EXACT, abs=1e-12)
    assert p_e2e_lb(sys_p, SIG, TARGET).value == pytest.approx(IGS_E2E_LB, abs=1e-12)
    assert p_e2e_rayleigh_ub(sys_p, SIG, TARGET).value == pytest.approx(IGS_E2E_UB, abs=1e-12)
    sys2 = base_system(2)
    assert p_e2e_exact(sys2, SIG, TARGET).value == pytest.approx(M2_E2E_EXACT, abs=1e-12)
    assert p_e2e_lb(sys2, SIG, TARGET).value == pytest.approx(M2_E2E_LB, abs=1e-12)


def test_rayleigh_specialization_agrees():
    # at m_sr = m_rr = 1 the first-hop survival is E[exp(-w(g))] over an
    # exponential RSI gain g: the integral of exp(-w(x) - x / pi_rr) / pi_rr,
    # with w in its naive square-root form
    sys_p = base_system(1)
    pi_rr, gamma = sys_p.rr.pi, TARGET.gamma

    def w(g, sig):
        x = sig.p_r * g * sig.c_x / (sig.p_r * g + 1.0)
        return (sig.p_r * g + 1.0) / (sys_p.p_s * sys_p.sr.pi) * (math.sqrt(1.0 + gamma * (1.0 - x * x)) - 1.0)

    for c_x in (0.0, 0.4, 0.95):
        sig = SignalParams(0.8, c_x)
        general = sr_exact_outage(sys_p, sig, TARGET)
        survival, _ = integrate.quad(
            lambda x: math.exp(-w(x, sig) - x / pi_rr) / pi_rr,
            0.0,
            np.inf,
            limit=300,
            epsrel=1e-12,
        )
        assert 1.0 - survival == pytest.approx(general, rel=1e-8)


@given(
    p_r=st.floats(min_value=0.05, max_value=1.0),
    c_x=st.floats(min_value=0.0, max_value=1.0),
    r=st.floats(min_value=0.2, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_bound_ordering(p_r, c_x, r):
    sys_p = base_system(1)
    sig = SignalParams(p_r, c_x)
    t = RateTarget(r)
    lb = p_e2e_lb(sys_p, sig, t).value
    exact = p_e2e_exact(sys_p, sig, t).value
    ub = p_e2e_rayleigh_ub(sys_p, sig, t).value
    assert lb <= exact + 1e-9
    assert exact <= ub + 1e-9
    assert 0.0 <= lb and ub <= 1.0


def test_lb_exact_when_proper():
    for m in (1, 2):
        sys_p = base_system(m)
        sig = SignalParams(0.9, 0.0)
        assert p_e2e_lb(sys_p, sig, TARGET).value == pytest.approx(
            p_e2e_exact(sys_p, sig, TARGET).value, abs=1e-8
        )


def test_sr_ub_jensen_direction():
    sys_p = base_system(1)
    for c_x in (0.1, 0.5, 0.9):
        sig = SignalParams(1.0, c_x)
        # the Jensen first-hop exponent w psi_y of the Rayleigh upper bound
        *_, psi_y, _, w, _, _ = _rayleigh_ub_parts(sys_p, TARGET.gamma, sig.p_r, sig.c_x, math.exp)
        assert -math.expm1(-w * psi_y) >= sr_exact_outage(sys_p, sig, TARGET) - 1e-10


def test_asymptotic_k_high_rsi_limit():
    sys_p = base_system(1)
    assert asymptotic_k(sys_p, TARGET) == pytest.approx(ASYM_K, abs=1e-12)
    # with huge RSI the maximally improper bound saturates at K
    strong = SystemParams(
        sr=LinkStat(1, 100.0), rd=LinkStat(1, 100.0), rr=LinkStat(1, 1e7),
        sd=LinkStat(1, 2.0), p_s=1.0, p_max=1.0,
    )
    ub = p_e2e_rayleigh_ub(strong, SignalParams(1.0, 1.0), TARGET).value
    assert ub == pytest.approx(asymptotic_k(strong, TARGET), abs=1e-5)


@pytest.mark.parametrize("shapes", [(2, 2, 3, 2), (4, 1, 2, 3), (3, 4, 4, 1)])
def test_asymptotic_k_every_shape(shapes):
    # K is the pi_rr -> inf limit of the exact maximally improper outage at
    # p_max, and lies above it at moderate RSI
    def system(pi_rr):
        links = (LinkStat(m, pi) for m, pi in zip(shapes, (100.0, 100.0, pi_rr, 2.0)))
        return SystemParams(*links, p_s=1.0, p_max=1.0)

    sig = SignalParams(1.0, 1.0)
    k = asymptotic_k(system(1e9), TARGET)
    assert k == asymptotic_k(system(10.0), TARGET)
    assert p_e2e_exact(system(1e9), sig, TARGET).value == pytest.approx(k, rel=1e-8)
    assert k >= p_e2e_exact(system(10.0), sig, TARGET).value


def test_vectorized_ub_matches_scalar():
    sys_p = base_system(1)
    p = np.array([0.25, 0.5, 1.0])
    c = np.array([0.0, 0.5, 1.0])
    grid = e2e_rayleigh_ub_value(sys_p, TARGET, p[:, None], c[None, :])
    for i, pv in enumerate(p):
        for j, cv in enumerate(c):
            scalar = p_e2e_rayleigh_ub(sys_p, SignalParams(pv, cv), TARGET).value
            assert grid[i, j] == pytest.approx(scalar, rel=1e-13)


def test_rayleigh_ub_float_branch():
    # two Python floats take the `math` branch and return a float within
    # rounding of the array branch; NumPy scalars stay on the array branch
    sys_p = base_system(1)
    p = np.array([0.25, 0.5, 1.0])
    c = np.array([0.0, 0.5, 0.9, 1.0])
    for target in (TARGET, RateTarget(0.3), RateTarget(4.0)):
        grid = e2e_rayleigh_ub_value(sys_p, target, p[:, None], c[None, :])
        for i, pv in enumerate(p):
            for j, cv in enumerate(c):
                value = e2e_rayleigh_ub_value(sys_p, target, float(pv), float(cv))
                result = p_e2e_rayleigh_ub(sys_p, SignalParams(float(pv), float(cv)), target)
                assert type(value) is float and type(result.value) is float
                assert value == result.value
                assert value == pytest.approx(grid[i, j], rel=1e-13)
                assert e2e_rayleigh_ub_value(sys_p, target, pv, cv) == grid[i, j]


def test_rayleigh_ub_keeps_its_digits_at_high_rsi_as_cx_tends_to_one():
    # at pi_rr = 80 dB, alpha is 1 - 1e-8, so 1 - alpha c_x cancels when
    # formed as a difference (2.3e-9 relative off here); its complement
    # (1 + beta (1 - c_x)) / (beta + 1) does not.  The reference is the
    # naive formula at 50 digits
    sys_p = SystemParams(*(LinkStat(1, 10.0 ** (db / 10.0)) for db in (40, 40, 80, 0)),
                         p_s=1.0, p_max=1.0)
    p_r, c_x, r = 1.0, 1.0 - 1e-9, 0.3
    with mp.workdps(50):
        gamma, c = mp.mpf(2) ** (2 * mp.mpf(r)) - 1, mp.mpf(c_x)
        beta = p_r * mp.mpf(sys_p.rr.pi)
        w, a = (beta + 1) / mp.mpf(sys_p.sr.pi), beta / (beta + 1)

        def psi(x):
            return mp.sqrt(1 + gamma * (1 - x * x)) - 1

        u = psi(c) / ((1 - c * c) * p_r * mp.mpf(sys_p.rd.pi))
        ref = float(1 - mp.exp(-(u + w * psi(a * c))) / (mp.mpf(sys_p.sd.pi) * u + 1))
    for p, cx in ((p_r, c_x), (np.array([p_r]), np.array([c_x]))):
        value = float(np.squeeze(e2e_rayleigh_ub_value(sys_p, RateTarget(r), p, cx)))
        assert abs(value - ref) <= 1e-12 * ref, (value, ref)


def test_scalar_and_array_branches_agree():
    # a float takes the `math` branch, an array the NumPy one; a NumPy scalar
    # returns its array element bit for bit (the maps check it as a 0-d array
    # and take it as a float, the hop survival takes the NumPy branch)
    c_x = np.array([0.0, 0.5, 1.0 - 1e-12, 1.0])
    rng = np.random.default_rng(7)
    for r in (0.1, 1.0, 5.0):
        target = RateTarget(r)
        for fn in (psi_r, psi_ratio_limit):
            array = fn(target, c_x)
            assert [fn(target, float(c)) for c in c_x] == list(array)
            numpy_scalars = [fn(target, c) for c in c_x]
            assert numpy_scalars == list(array)
            assert all(type(value) is float for value in numpy_scalars)
        for _ in range(20):
            shapes = rng.integers(1, 5, size=3)
            interferer = LinkStat(int(shapes[2]), float(10.0 ** rng.uniform(-1.0, 4.0)))
            u = psi_ratio_limit(target, c_x) * 10.0 ** rng.uniform(-3.0, 1.0)
            load = 10.0 ** rng.uniform(-2.0, 2.0, size=4)
            for m_sig in shapes[:2]:
                array = _hop_survival(int(m_sig), load, interferer, 1.0)(u)
                for k in range(4):
                    scalar = _hop_survival(int(m_sig), float(load[k]), interferer, 1.0)(float(u[k]))
                    assert isinstance(scalar, float)
                    assert scalar == pytest.approx(array[k], rel=1e-15, abs=1e-300)
                    numpy_scalar = _hop_survival(int(m_sig), load[k], interferer, 1.0)(u[k])
                    assert type(numpy_scalar) is float and numpy_scalar == array[k]
                # a hop bound once over a float load and a threshold scale, as
                # the rate integrand binds it, gives an array's elements bit for
                # bit to NumPy scalars and within rounding to floats
                for k, scale in enumerate((0.1, 0.5, 2.0, 7.3)):
                    hop = _hop_survival(int(m_sig), float(load[k]), interferer, scale)
                    on_array = hop(u)
                    assert type(hop(u[k])) is float and hop(u[k]) == on_array[k]
                    assert hop(float(u[k])) == pytest.approx(on_array[k], rel=1e-15, abs=1e-300)


def test_metrics_same_bits_for_int_float_and_numpy_parameters():
    # the parameter types store Python floats, so a metric cannot tell 1 from
    # 1.0 or np.float64(1); c_x = 0.9 has no int spelling
    def build(num, p_r, c_x):
        links = [LinkStat(1, num(pi)) for pi in (100, 100, 10, 2)]
        return SystemParams(*links, p_s=num(1), p_max=num(1)), SignalParams(num(p_r), num(c_x))

    for p_r, c_x, kinds in ((1, 0, (int, float, np.float64)), (1, 1, (int, float, np.float64)),
                            (0.5, 0.9, (float, np.float64))):
        for fn in (p_e2e_exact, p_e2e_lb, p_e2e_rayleigh_ub):
            values = [fn(*build(num, p_r, c_x), TARGET).value for num in kinds]
            assert all(type(v) is float for v in values)
            assert len({v.hex() for v in values}) == 1, (fn.__name__, p_r, c_x, values)
        for fn in (r_e2e_ub, r_e2e_rayleigh_lb):
            values = [fn(*build(num, p_r, c_x)).value for num in kinds]
            assert all(type(v) is float for v in values)
            assert len({v.hex() for v in values}) == 1, (fn.__name__, p_r, c_x, values)


def test_throughput_helper():
    assert throughput(RateTarget(2.0), 0.25) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        throughput(RateTarget(1.0), 1.5)


def test_non_rayleigh_ub_rejected():
    with pytest.raises(ValueError):
        p_e2e_rayleigh_ub(base_system(2), SIG, TARGET)


def test_closed_form_probabilities_in_unit_interval_at_full_impropriety():
    # at c_x = 1 the first-hop threshold is 0, where the double sum of the
    # hop survival rounds a few ulp above 1
    rng = np.random.default_rng(2024)
    sig = SignalParams(1.0, 1.0)
    for _ in range(3000):
        shapes = rng.integers(1, 5, size=4)
        pis = 10.0 ** rng.uniform(-1.0, 4.0, size=4)
        links = [LinkStat(int(m), float(pi)) for m, pi in zip(shapes, pis)]
        sys_p = SystemParams(*links, p_s=1.0, p_max=1.0)
        for fn in (sr_lb_outage, lambda *args: p_e2e_lb(*args).value, rd_outage):
            value = fn(sys_p, sig, TARGET)
            assert 0.0 <= value <= 1.0, (fn.__name__, sys_p, value)


def test_asymptotic_k_bounds_exact_over_audit_domain():
    # K is an upper bound on the exact maximally improper outage at p_max
    # for every shape and every RSI power, not only in the limit
    for sys_p, _, target in d_draws(300, signal=False):
        exact = p_e2e_exact(sys_p, SignalParams(sys_p.p_max, 1.0), target).value
        assert exact <= asymptotic_k(sys_p, target) + 1e-9, (sys_p, target)


def found_case():
    """Shapes (3, 4, 1, 4), pi = (-0.75, 21.7, 46.1, -8.9) dB, c_x = 0: over
    a first-hop domain mapped from (0, inf) at scale theta_rr the exact
    outage came out 1, where the closed form, exact at c_x = 0, gives
    0.9999945."""
    links = (LinkStat(m, 10.0 ** (db / 10.0)) for m, db in zip((3, 4, 1, 4), (-0.75, 21.7, 46.1, -8.9)))
    return SystemParams(*links, p_s=0.475, p_max=1.24), SignalParams(1.08, 0.0), RateTarget(0.474)


D_PINNED = {k: draw for k, draw in enumerate(d_draws(859)) if k in (552, 717, 722, 858)}


@pytest.mark.parametrize("case", [722, 858, 552, 717, "found"])
def test_sr_survival_exact_matches_mpmath_where_mass_hides(case):
    # Each survival lives at g_rr << theta_rr, where a domain mapped at
    # scale theta_rr put none of QK21's nodes: draw 722 gave 3.9e-33 for
    # 2.45e-5, draw 858 (c_x = 0) 3.0e-26 for 5.47e-6, draw 552 (c_x = 1)
    # 1.8e-22 for 9.27e-9, and draw 717 (c_x = 1) missed by 6.9e-10.  The
    # found case also runs at p_r = 1, 1.1 and 1.2, and since it is at
    # c_x = 0, where the lower bound is exact, its exact outage must equal
    # the closed form there
    if case == "found":
        sys_p, sig, target = found_case()
        cases = [(sys_p, SignalParams(p_r, 0.0), target) for p_r in (sig.p_r, 1.0, 1.1, 1.2)]
    else:
        cases = [D_PINNED[case]]
    for sys_p, sig, target in cases:
        with mp.workdps(30):
            ref = float(mp_sr_survival_exact(sys_p.sr.m, sys_p.sr.theta, sys_p.rr.m, sys_p.rr.theta,
                                             sys_p.p_s, sig.p_r, sig.c_x, target.r))
        value = sr_exact_survival(sys_p, sig, target)
        assert abs(value - ref) <= max(QUAD_ABS_TOL, QUAD_REL_TOL * ref), (sig, value, ref)
        if case == "found":
            exact, lb = p_e2e_exact(sys_p, sig, target).value, p_e2e_lb(sys_p, sig, target).value
            assert abs(exact - lb) <= 1e-10, (sig, exact, lb)


def first_hop_at(m_sr, th_sr, m_rr, th_rr, sig):
    """The exact first-hop survival at TARGET with Gamma scales th_sr and
    th_rr, p_s = 1."""
    one = LinkStat(1, 1.0)
    sys_p = SystemParams(LinkStat(m_sr, m_sr * th_sr), one, LinkStat(m_rr, m_rr * th_rr), one, p_s=1.0, p_max=1.0)
    return sr_exact_survival(sys_p, sig, TARGET)


def jump_in_tolerances(f, t0, d=1e-9):
    """f's jump at t0 in units of max(QUAD_ABS_TOL, QUAD_REL_TOL f): each side
    is extrapolated linearly to t0 from f at t0 (1 -+ d) and t0 (1 -+ 2d), so
    the smooth trend, tens of tolerances over 2d, drops out."""
    f_at = {k: f(t0 * (1.0 + k * d)) for k in (-2, -1, 1, 2)}
    jump = (2.0 * f_at[1] - f_at[2]) - (2.0 * f_at[-1] - f_at[-2])
    return jump / max(QUAD_ABS_TOL, QUAD_REL_TOL * f_at[1])


FIRST_HOP_SHAPES = list(itertools.product(range(1, 5), repeat=2))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sr_survival_exact_continuous_where_a_ladder_knot_enters(k):
    # the knot 16^k / p_r joins the g-axis once theta_rr passes it, i.e. at
    # p_r theta_rr = 16^k; theta_sr = 16^k puts the integrand's mass there
    p_r = 0.5
    for (m_sr, m_rr), c_x in itertools.product(FIRST_HOP_SHAPES, (0.0, 0.5, 0.99, 1.0)):
        sig = SignalParams(p_r, c_x)
        jump = jump_in_tolerances(lambda th: first_hop_at(m_sr, 16.0**k, m_rr, th, sig), 16.0**k / p_r)
        assert abs(jump) <= 1.0, (k, m_sr, m_rr, c_x, jump)


def test_sr_survival_exact_continuous_where_its_knee_and_cut_switch():
    # with s = psi_r(c_x) / theta_sr (p_s = 1), theta_sr moves s across three
    # switches: the knee (m_sr / s - 1) / p_r enters the g-axis at 0 (s = m_sr)
    # and leaves it at hi = theta_rr (m_rr + 60) (s = m_sr / (1 + p_r hi)),
    # and from s = m_sr + 60 on the survival is 0 with no quadrature
    p_r, th_rr = 0.5, 3.0
    for (m_sr, m_rr), c_x in itertools.product(FIRST_HOP_SHAPES, (0.0, 0.5, 0.99)):
        sig = SignalParams(p_r, c_x)
        psi = psi_r(TARGET, c_x)
        for s in (m_sr, m_sr / (1.0 + p_r * th_rr * (m_rr + 60.0)), m_sr + 60.0):
            jump = jump_in_tolerances(lambda th: first_hop_at(m_sr, th, m_rr, th_rr, sig), psi / s)
            assert abs(jump) <= 1.0, (m_sr, m_rr, c_x, s, jump)
        # past the cut the survival is 0 exactly; just short of it, below 1e-23
        assert first_hop_at(m_sr, psi / (m_sr + 60.0) * (1.0 - 1e-9), m_rr, th_rr, sig) == 0.0
        assert 0.0 <= first_hop_at(m_sr, psi / (m_sr + 60.0) * (1.0 + 1e-9), m_rr, th_rr, sig) < 1e-23


def test_exact_equals_lower_bound_at_proper_signaling_over_audit_domain():
    # at c_x = 0 the lower bound is exact, so the quadrature must agree with
    # it on each of D's 371 proper draws, the found case included
    draws = [draw for draw in d_draws(1500) if draw[1].c_x == 0.0] + [found_case()]
    assert len(draws) == 372
    for sys_p, sig, target in draws:
        exact, lb = p_e2e_exact(sys_p, sig, target).value, p_e2e_lb(sys_p, sig, target).value
        assert abs(exact - lb) <= max(QUAD_ABS_TOL, QUAD_REL_TOL * (1.0 - lb)), (sys_p, sig, target)


def test_hdr_mrc_over_twelve_decades_of_scale():
    # The MRC survival P(X + Y >= gamma), X = p_max g_rd and Y = p_s g_sd,
    # against a split-domain mpmath reference, and the MRC outage never
    # above the MHDF outage.  Two cases put one second-stage link at -50 dB
    # beside 20 dB links: with pi_sd there, the MRC outage comes out 1.0
    # (MHDF: 2.1e-7) when the integral, conditioned on Y, runs over a fixed
    # [0, gamma]; pi_rd there does the same to the integral conditioned on X.
    # The seeded draws put p_max theta_rd and p_s theta_sd anywhere in
    # [1e-6, 1e6] gamma, with the first hop surviving with Q(m_sr, 1).
    weak = 1e-5
    cases = [
        (SystemParams(LinkStat(4, 100.0), LinkStat(4, 100.0), LinkStat(4, 10.0), LinkStat(1, weak),
                      p_s=1.0, p_max=1.0), RateTarget(0.5)),
        (SystemParams(LinkStat(1, 100.0), LinkStat(1, weak), LinkStat(1, 10.0), LinkStat(4, 100.0),
                      p_s=1.0, p_max=1.0), RateTarget(0.5)),
    ]
    rng = np.random.default_rng(21)
    for _ in range(100):
        m_sr, m_rd, m_rr, m_sd = (int(m) for m in rng.integers(1, 5, size=4))
        target = RateTarget(float(rng.uniform(0.1, 6.3)))
        x_scale, y_scale = target.gamma * 10.0 ** rng.uniform(-6.0, 6.0, size=2)
        sys_p = SystemParams(
            sr=LinkStat(m_sr, m_sr * target.gamma), rd=LinkStat(m_rd, m_rd * float(x_scale) / 2.0),
            rr=LinkStat(m_rr, 10.0), sd=LinkStat(m_sd, m_sd * float(y_scale)), p_s=1.0, p_max=2.0,
        )
        cases.append((sys_p, target))
    with mp.workdps(20):
        for sys_p, target in cases:
            stage = (sys_p.rd.m, sys_p.p_max * sys_p.rd.theta, sys_p.sd.m, sys_p.p_s * sys_p.sd.theta,
                     target.gamma)
            value = _combined_survival(sys_p, target.gamma, _zero_load_survivals(sys_p, target.gamma)[1])
            ref = float(mp_combined_survival(*stage))
            # the domain leaves out two tails of less than 1e-20 each
            assert abs(value - ref) <= 1e-9 * ref + 2e-20, (stage, value, ref)
            mrc, mhdf = p_hdr_mrc(sys_p, target).value, p_hdr_mhdf(sys_p, target).value
            assert mrc <= mhdf + 1e-15, (stage, mrc, mhdf)


@pytest.mark.parametrize("m_x, m_y", [(1, 1), (4, 3), (2, 4)])
def test_combined_survival_continuous_where_its_domain_closes(m_x, m_y):
    # the cut domain [gamma - th_y (m_y + 60), th_x (m_x + 60)] is empty from
    # gamma* = th_y (m_y + 60) + th_x (m_x + 60) on, where the survival is
    # X's alone; it must not jump there
    for th_x, th_y in ((1.0, 1.0), (100.0, 0.01), (0.01, 100.0)):
        sys_p = SystemParams(LinkStat(1, 1.0), LinkStat(m_x, m_x * th_x), LinkStat(1, 1.0),
                             LinkStat(m_y, m_y * th_y), p_s=1.0, p_max=1.0)
        edge = th_y * (m_y + 60.0) + th_x * (m_x + 60.0)
        below, above = (
            _combined_survival(sys_p, g, _zero_load_survivals(sys_p, g)[1])
            for g in (edge * (1.0 - 1e-9), edge * (1.0 + 1e-9))
        )
        assert abs(below - above) <= QUAD_ABS_TOL, (th_x, th_y, below, above)


def test_exact_outage_is_not_negative_where_the_first_hop_is_sure():
    # at c_x = 1 and r = 0.01 the first-hop quadrature sums to 1 + 2.9e-15,
    # which read as an exact outage of -2.9e-15 before the survival was
    # clamped at 1, and its throughput cell then failed
    links = [LinkStat(m, pi) for m, pi in zip((4, 4, 3, 2), (1e3, 1e3, 1e3, 1.0))]
    sys_p = SystemParams(*links, p_s=1.0, p_max=1.0)
    sig, target = SignalParams(1.0, 1.0), RateTarget(0.01)
    assert sr_exact_survival(sys_p, sig, target) == 1.0
    # the first hop is sure, so the outage is the second hop's
    exact = p_e2e_exact(sys_p, sig, target).value
    assert 0.0 <= exact == rd_outage(sys_p, sig, target) <= 1.0
    assert throughput(target, exact) == pytest.approx(0.01, rel=1e-12)


@given(
    shapes=st.tuples(*[st.integers(min_value=1, max_value=4)] * 4),
    log_pis=st.tuples(*[st.floats(min_value=-1.0, max_value=6.0)] * 4),
    c_x=st.floats(min_value=0.0, max_value=1.0),
    log_r=st.floats(min_value=-3.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_exact_outage_is_a_probability_in_a_targeted_search(shapes, log_pis, c_x, log_r):
    # the search is steered towards the smallest outage, where a first hop
    # whose quadrature rounds above 1 would show as a negative value
    links = [LinkStat(m, 10.0**e) for m, e in zip(shapes, log_pis)]
    sys_p = SystemParams(*links, p_s=1.0, p_max=1.0)
    exact = p_e2e_exact(sys_p, SignalParams(1.0, c_x), RateTarget(10.0**log_r)).value
    hypothesis.target(-exact)
    assert 0.0 <= exact <= 1.0, (sys_p, c_x, log_r, exact)


def _bound_search_case(shapes, log_pis, p_r, c_x, log_r):
    """(lb, exact, ub or None, tol) at one draw of the bound-order searches:
    unit p_s and p_max, tol = max(QUAD_ABS_TOL, QUAD_REL_TOL exact)."""
    links = [LinkStat(m, 10.0**e) for m, e in zip(shapes, log_pis)]
    sys_p = SystemParams(*links, p_s=1.0, p_max=1.0)
    sig, target = SignalParams(p_r, c_x), RateTarget(10.0**log_r)
    exact = p_e2e_exact(sys_p, sig, target).value
    ub = p_e2e_rayleigh_ub(sys_p, sig, target).value if sys_p.all_rayleigh else None
    return p_e2e_lb(sys_p, sig, target).value, exact, ub, max(QUAD_ABS_TOL, QUAD_REL_TOL * exact)


_LOG_PIS = st.tuples(*[st.floats(min_value=-1.0, max_value=6.0)] * 4)
_P_R = st.floats(min_value=0.01, max_value=1.0)
_C_X = st.floats(min_value=0.0, max_value=1.0)
_LOG_R = st.floats(min_value=-3.0, max_value=1.0)


@given(shapes=st.tuples(*[st.integers(min_value=1, max_value=4)] * 4), log_pis=_LOG_PIS,
       p_r=_P_R, c_x=_C_X, log_r=_LOG_R)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_lower_bound_is_below_exact_in_a_targeted_search(shapes, log_pis, p_r, c_x, log_r):
    # the search is steered towards the largest excess of the lower bound
    # over the exact outage, in units of the quadrature tolerance
    lb, exact, _, tol = _bound_search_case(shapes, log_pis, p_r, c_x, log_r)
    hypothesis.target((lb - exact) / tol)
    assert lb <= exact + tol, (shapes, log_pis, p_r, c_x, log_r, lb, exact)


@given(log_pis=_LOG_PIS, p_r=_P_R, c_x=_C_X, log_r=_LOG_R)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_rayleigh_upper_bound_is_above_exact_in_a_targeted_search(log_pis, p_r, c_x, log_r):
    # the search is steered towards the largest excess of the exact outage
    # over the Rayleigh (Jensen) upper bound, in units of the tolerance
    _, exact, ub, tol = _bound_search_case((1, 1, 1, 1), log_pis, p_r, c_x, log_r)
    hypothesis.target((exact - ub) / tol)
    assert exact <= ub + tol, (log_pis, p_r, c_x, log_r, exact, ub)


def test_bound_values_refuse_nan_and_nonpositive_relay_power():
    # e2e_lb_value(sys, t, 1, nan) read outage 0, and at p_r = -1 the lower
    # bound read 0 and the upper bound -0.105; floats and arrays alike raise
    sys_p, nan = base_system(1), float("nan")
    for c_x in (nan, np.array([0.5, nan])):
        with pytest.raises(ValueError, match="c_x"):
            e2e_lb_value(sys_p, TARGET, 1.0, c_x)
        with pytest.raises(ValueError, match="c_x"):
            e2e_rayleigh_ub_value(sys_p, TARGET, 1.0, c_x)
    for p_r in (-1.0, 0.0, nan, np.array([1.0, -1.0]), np.array([[0.5], [nan]])):
        for value in (e2e_lb_value, e2e_rayleigh_ub_value):
            with pytest.raises(ValueError, match="p_r must be > 0"):
                value(sys_p, TARGET, p_r, 0.5)


def test_metrics_are_probabilities_and_ordered_over_audit_domain():
    # every outage metric is a finite probability; the lower bound is not
    # above the exact outage, nor the exact outage above the Rayleigh upper
    # bound, beyond the quadrature's tolerance
    for k, (sys_p, sig, target) in enumerate(d_draws(300)):
        exact, lb = p_e2e_exact(sys_p, sig, target).value, p_e2e_lb(sys_p, sig, target).value
        values = (exact, lb, p_hdr_mhdf(sys_p, target).value, p_hdr_mrc(sys_p, target).value,
                  asymptotic_k(sys_p, target))
        assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values), (k, values)
        tol = max(QUAD_ABS_TOL, QUAD_REL_TOL * exact)
        assert lb <= exact + tol, (k, lb, exact)
        if sys_p.all_rayleigh:
            ub = p_e2e_rayleigh_ub(sys_p, sig, target).value
            assert exact <= ub + tol, (k, exact, ub)
