"""Parameter containers and the threshold function Psi_r."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdrigs
from fdrigs.model import (
    LinkStat,
    RateTarget,
    SignalParams,
    SystemParams,
    _psi_pair,
    _rate_constants,
    alpha,
    psi_r,
    psi_ratio_limit,
)


def make_system(**kw):
    base = dict(
        sr=LinkStat(1, 100.0),
        rd=LinkStat(1, 100.0),
        rr=LinkStat(1, 10.0),
        sd=LinkStat(1, 2.0),
        p_s=1.0,
        p_max=1.0,
    )
    base.update(kw)
    return SystemParams(**base)


def test_link_stat_validation():
    with pytest.raises(ValueError):
        LinkStat(0, 1.0)
    with pytest.raises(ValueError):
        LinkStat(1, -2.0)
    with pytest.raises(ValueError):
        LinkStat(7, 1.0)  # outside the supported shape set
    for pi in (math.inf, math.nan):
        with pytest.raises(ValueError, match="mean power pi must be finite and > 0"):
            LinkStat(1, pi)
    assert LinkStat(3, 6.0).theta == pytest.approx(2.0)


def test_link_scale_is_derived_not_an_argument():
    link = LinkStat(2, 6.0)
    # the CLI's pi_* sweeps replace pi and rely on theta following it
    moved = dataclasses.replace(link, pi=10.0)
    assert moved.theta == 5.0
    assert dataclasses.replace(LinkStat(3, 1.0), m=4).theta == 0.25
    with pytest.raises(TypeError):
        LinkStat(2, 6.0, theta=3.0)
    with pytest.raises(ValueError):
        dataclasses.replace(link, theta=1.0)
    # equality, hash and repr see (m, pi) only
    assert link == LinkStat(2, 6.0) and link != moved
    assert hash(link) == hash((2, 6.0))
    assert repr(link) == "LinkStat(m=2, pi=6.0)"
    sys_p = make_system()
    assert sys_p == make_system() and hash(sys_p) == hash(make_system())
    assert hash(sys_p) == hash((sys_p.sr, sys_p.rd, sys_p.rr, sys_p.sd, 1.0, 1.0))
    assert repr(sys_p) == (
        "SystemParams(sr=LinkStat(m=1, pi=100.0), rd=LinkStat(m=1, pi=100.0), "
        "rr=LinkStat(m=1, pi=10.0), sd=LinkStat(m=1, pi=2.0), p_s=1.0, p_max=1.0)"
    )


def test_system_validation():
    with pytest.raises(ValueError):
        make_system(p_s=2.0)  # p_s above the power cap
    with pytest.raises(ValueError):
        make_system(p_max=0.0)
    # an infinite cap admits every p_s and p_r, so only the finiteness check refuses it
    with pytest.raises(ValueError, match="p_max must be finite"):
        make_system(p_max=math.inf)
    with pytest.raises(ValueError, match="p_s must be finite"):
        make_system(p_s=math.inf, p_max=math.inf)
    sys_p = make_system()
    assert sys_p.all_rayleigh
    assert not make_system(rd=LinkStat(2, 100.0)).all_rayleigh
    with pytest.raises(ValueError):
        sys_p.check_signal(SignalParams(1.5, 0.0))


def test_signal_validation():
    with pytest.raises(ValueError):
        SignalParams(0.0, 0.5)
    with pytest.raises(ValueError):
        SignalParams(1.0, 1.2)
    for p_r in (math.inf, math.nan):
        with pytest.raises(ValueError, match="p_r must be finite and > 0"):
            SignalParams(p_r, 0.5)
    with pytest.raises(ValueError):
        RateTarget(0.0)


def test_psi_r_endpoints():
    t = RateTarget(1.0)  # gamma = 3, eta = 1
    # x = 1: sqrt(1) - 1 = 0
    assert psi_r(t, 1.0) == pytest.approx(0.0, abs=1e-15)
    # x = 0: sqrt(1 + gamma) - 1 = 2^r - 1 = eta
    assert psi_r(t, 0.0) == pytest.approx(1.0, rel=1e-14)
    # frozen interior value (30-digit reference): x = 0.2
    assert psi_r(t, 0.2) == pytest.approx(0.969771560359221, rel=1e-13)


@given(
    r=st.floats(min_value=0.05, max_value=8.0),
    x1=st.floats(min_value=0.0, max_value=1.0),
    x2=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_psi_r_monotone_decreasing(r, x1, x2):
    t = RateTarget(r)
    lo, hi = sorted((x1, x2))
    assert psi_r(t, hi) <= psi_r(t, lo) + 1e-12


@given(
    r=st.floats(min_value=0.05, max_value=8.0),
    c=st.floats(min_value=0.0, max_value=1.0 - 1e-9),
)
@settings(max_examples=100, deadline=None)
def test_psi_ratio_limit_matches_difference_quotient(r, c):
    # psi_ratio_limit(c) = psi_r(c) / (1 - c^2) exactly, in a form stable at c -> 1
    t = RateTarget(r)
    direct = psi_r(t, c) / ((1.0 - c) * (1.0 + c))
    assert psi_ratio_limit(t, c) == pytest.approx(direct, rel=1e-10)


def test_psi_ratio_limit_at_one():
    # limit c -> 1 equals gamma / 2
    t = RateTarget(2.0)
    gamma = 2.0 ** (2 * t.r) - 1.0
    assert psi_ratio_limit(t, 1.0) == pytest.approx(gamma / 2.0, rel=1e-13)


@pytest.mark.parametrize("num", [int, float, np.float64])
def test_parameter_fields_hold_python_floats(num):
    # whatever number type the caller passes, the five fields are Python floats
    link = LinkStat(2, num(6))
    sys_p = SystemParams(link, link, link, link, p_s=num(1), p_max=num(2))
    sig = SignalParams(num(2), num(1))
    for value in (link.pi, link.theta, sys_p.p_s, sys_p.p_max, sig.p_r, sig.c_x):
        assert type(value) is float
    assert (link.pi, sys_p.p_s, sys_p.p_max, sig.p_r, sig.c_x) == (6.0, 1.0, 2.0, 2.0, 1.0)


def test_string_parameters_still_raise_type_error():
    # the conversion runs after the checks, so a string is refused, not parsed
    with pytest.raises(TypeError):
        SignalParams("1", 0.5)
    with pytest.raises(TypeError):
        LinkStat(1, "2")


def test_int_parameters_leave_numpy_unloaded():
    probe = textwrap.dedent("""
        import sys
        from fdrigs import (LinkStat, RateTarget, SignalParams, SystemParams,
                            p_e2e_lb, p_e2e_rayleigh_ub, r_e2e_ub)
        links = [LinkStat(1, pi) for pi in (100, 100, 10, 2)]
        sys_p = SystemParams(*links, p_s=1, p_max=1)
        sig = SignalParams(1, 0)
        p_e2e_lb(sys_p, sig, RateTarget(1))
        p_e2e_rayleigh_ub(sys_p, sig, RateTarget(1))
        r_e2e_ub(sys_p, sig)
        print(sorted(m for m in ("numpy._core", "numpy.core") if m in sys.modules))
    """)
    src = str(Path(fdrigs.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def test_alpha():
    sys_p = make_system()
    # alpha = P_r pi_rr / (P_r pi_rr + 1)
    assert alpha(sys_p, 1.0) == pytest.approx(10.0 / 11.0, rel=1e-14)
    assert 0.0 < alpha(sys_p, 0.3) < 1.0
    with pytest.raises(ValueError):
        alpha(sys_p, 0.0)


def test_alpha_float_and_array_branches():
    # a Python float takes the `math` branch and returns a float; an array,
    # or a NumPy scalar, the NumPy one
    sys_p = make_system()
    p_r = np.array([1e-6, 0.3, 1.0, 7.5])
    array = alpha(sys_p, p_r)
    for k, p in enumerate(p_r):
        scalar = alpha(sys_p, float(p))
        assert type(scalar) is float
        assert scalar == pytest.approx(array[k], rel=1e-13)
        assert alpha(sys_p, p) == array[k]
    with pytest.raises(ValueError):
        alpha(sys_p, -1.0)


def test_rate_target_overflow_is_one_typed_error():
    # gamma = 2^(2r) - 1 overflows a double from r = 512 on; every such rate
    # raises the same error, with no NumPy warning and no silent inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(RateTarget(500.0).gamma)
        messages = []
        for r in (520.0, 2000.0):
            with pytest.raises(OverflowError) as info:
                RateTarget(r)
            messages.append(str(info.value).replace(repr(r), "R"))
    assert messages[0] == messages[1]


def test_rate_target_constants_match_mpmath():
    # 2.0**r - 1 cancels as r -> 0 (at r = 1e-9 it left gamma 1.2e-7 off);
    # expm1 below r = 1 keeps every digit, and integer rates stay exact
    rng = np.random.default_rng(3)
    rates = [10.0**k for k in range(-12, 0)] + list(10.0 ** rng.uniform(-12.0, math.log10(511.9), 300))
    with mp.workdps(60):
        for r in rates:
            t = RateTarget(float(r))
            eta = mp.expm1(mp.mpf(t.r) * mp.log(2))
            gamma = mp.expm1(2 * mp.mpf(t.r) * mp.log(2))
            assert abs(t.eta - eta) <= 5e-16 * eta, t.r
            assert abs(t.gamma - gamma) <= 5e-16 * gamma, t.r
    for r in range(1, 27):
        assert (RateTarget(r).eta, RateTarget(r).gamma) == (2.0**r - 1.0, 4.0**r - 1.0)


def test_rate_target_continuous_where_eta_switches_form():
    # eta is expm1(r ln 2) below r = 1 and 2^r - 1 from r = 1 on; one ulp
    # below 1 the true eta is 1.5e-16 under 1 and gamma 6.2e-16 under 3
    below, at = RateTarget(math.nextafter(1.0, 0.0)), RateTarget(1.0)
    assert (at.eta, at.gamma) == (1.0, 3.0)
    assert 0.0 <= at.eta - below.eta <= 4.0 * math.ulp(below.eta)
    assert 0.0 <= at.gamma - below.gamma <= 4.0 * math.ulp(below.gamma)


def test_psi_pair_floats_match_arrays_bit_for_bit_and_the_naive_form():
    # _psi_pair is the one body of psi_r and psi_ratio_limit: its float
    # (math) and array (NumPy) forms agree to the bit, and both values agree
    # to 1e-12 with the naive sqrt(1 + gamma (1 - x^2)) - 1 and its quotient
    # by 1 - x^2 (gamma / 2 at x = 1), taken in 40-digit mpmath so that the
    # naive form does not cancel; gamma is RateTarget's, from _rate_constants
    rng = np.random.default_rng(19)
    rates = [math.nextafter(1.0, 0.0), 1.0, 7.0, 300.0, *(10.0 ** rng.uniform(-3.0, 2.5, size=60))]
    cs = [0.0, 0.5, 1.0 - 1e-15, 1.0, *rng.uniform(0.0, 1.0, size=20), *(1.0 - 10.0 ** rng.uniform(-12.0, -1.0, size=20))]
    cs = [float(c) for c in cs]
    for r in rates:
        t = RateTarget(float(r))
        assert _rate_constants(float(r)) == (t.eta, t.gamma)
        psis, ratios = _psi_pair(t.gamma, np.array(cs))
        for c, psi_a, ratio_a in zip(cs, psis, ratios):
            psi, ratio = _psi_pair(t.gamma, c)
            assert (psi.hex(), ratio.hex()) == (float(psi_a).hex(), float(ratio_a).hex()), (r, c)
            with mp.workdps(40):
                one_minus_x2 = 1 - mp.mpf(c) ** 2
                naive = mp.sqrt(1 + mp.mpf(t.gamma) * one_minus_x2) - 1
                ratio_ref = mp.mpf(t.gamma) / 2 if c == 1.0 else naive / one_minus_x2
            assert abs(psi - float(naive)) <= 1e-12 * float(naive), (r, c, psi)
            assert abs(ratio - float(ratio_ref)) <= 1e-12 * float(ratio_ref), (r, c, ratio)


def test_psi_r_stable_under_strong_gamma():
    # the stable product form must not cancel catastrophically near x = 1
    t = RateTarget(10.0)  # gamma ~ 1.05e6
    x = 1.0 - 1e-12
    val = psi_r(t, x)
    gamma = 2.0 ** (2 * t.r) - 1.0
    expected = gamma * (1.0 - x) * (1.0 + x) / (1.0 + math.sqrt(1.0 + gamma * (1.0 - x * x)))
    assert val == pytest.approx(expected, rel=1e-12)
    assert val > 0.0
