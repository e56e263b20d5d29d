"""Instantaneous rate expressions and their consistency with the generic
improper-interference rate formula."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdrigs.model import LinkStat, RateTarget, SignalParams, SystemParams, psi_r
from fdrigs.montecarlo import (
    ChannelRealization,
    e2e_rate,
    rate_rd,
    rate_sr,
)


def single_link_improper_rate(sigma4_y, pseudo2_y, sigma4_z, pseudo2_z):
    """Oracle: the generic rate of one link under improper interference,
    0.5 log2((sigma_y^4 - |pv_y|^2) / (sigma_z^4 - |pv_z|^2))."""
    return 0.5 * np.log2((sigma4_y - pseudo2_y) / (sigma4_z - pseudo2_z))


def make_system():
    return SystemParams(
        sr=LinkStat(1, 100.0),
        rd=LinkStat(1, 100.0),
        rr=LinkStat(1, 10.0),
        sd=LinkStat(1, 2.0),
        p_s=1.0,
        p_max=2.0,
    )


def make_channel(g_sr=3.0, g_rd=2.0, g_rr=0.5, g_sd=0.8):
    return ChannelRealization(
        g_sr=np.asarray(g_sr), g_rd=np.asarray(g_rd),
        g_rr=np.asarray(g_rr), g_sd=np.asarray(g_sd),
    )


gain = st.floats(min_value=1e-3, max_value=50.0)
circ = st.floats(min_value=0.0, max_value=1.0)
power = st.floats(min_value=1e-2, max_value=2.0)


@given(g_sr=gain, g_rr=gain, p_r=power, c_x=circ)
@settings(max_examples=150, deadline=None)
def test_rate_sr_matches_generic_formula(g_sr, g_rr, p_r, c_x):
    # first hop through the generic expression: signal+interference vs
    # interference-only second-order statistics
    sys_p = make_system()
    sig = SignalParams(p_r, c_x)
    ch = make_channel(g_sr=g_sr, g_rr=g_rr)
    s = sys_p.p_s * g_sr
    i = p_r * g_rr
    sigma_y = s + i + 1.0
    pseudo_y = i * c_x
    sigma_z = i + 1.0
    pseudo_z = i * c_x
    generic = single_link_improper_rate(
        sigma_y**2, pseudo_y**2, sigma_z**2, pseudo_z**2
    )
    assert float(rate_sr(sys_p, sig, ch)) == pytest.approx(float(generic), rel=1e-12, abs=1e-12)


@given(g_rd=gain, g_sd=gain, p_r=power, c_x=circ)
@settings(max_examples=150, deadline=None)
def test_rate_rd_matches_generic_formula(g_rd, g_sd, p_r, c_x):
    sys_p = make_system()
    sig = SignalParams(p_r, c_x)
    ch = make_channel(g_rd=g_rd, g_sd=g_sd)
    s = p_r * g_rd
    i = sys_p.p_s * g_sd
    sigma_y = s + i + 1.0
    pseudo_y = s * c_x
    sigma_z = i + 1.0
    generic = single_link_improper_rate(sigma_y**2, pseudo_y**2, sigma_z**2, 0.0)
    assert float(rate_rd(sys_p, sig, ch)) == pytest.approx(float(generic), rel=1e-12, abs=1e-12)


@given(g_sr=gain, g_rr=gain, p_r=power, c1=circ, c2=circ)
@settings(max_examples=100, deadline=None)
def test_rate_sr_increases_with_circularity(g_sr, g_rr, p_r, c1, c2):
    # improperness mitigates the RSI on the first hop
    sys_p = make_system()
    ch = make_channel(g_sr=g_sr, g_rr=g_rr)
    lo, hi = sorted((c1, c2))
    r_lo = float(rate_sr(sys_p, SignalParams(p_r, lo), ch))
    r_hi = float(rate_sr(sys_p, SignalParams(p_r, hi), ch))
    assert r_hi >= r_lo - 1e-12


@given(g_rd=gain, g_sd=gain, p_r=power, c1=circ, c2=circ)
@settings(max_examples=100, deadline=None)
def test_rate_rd_decreases_with_circularity(g_rd, g_sd, p_r, c1, c2):
    # ...but costs rate on the second hop
    sys_p = make_system()
    ch = make_channel(g_rd=g_rd, g_sd=g_sd)
    lo, hi = sorted((c1, c2))
    r_lo = float(rate_rd(sys_p, SignalParams(p_r, lo), ch))
    r_hi = float(rate_rd(sys_p, SignalParams(p_r, hi), ch))
    assert r_hi <= r_lo + 1e-12


def test_e2e_rate_is_hop_minimum():
    sys_p = make_system()
    sig = SignalParams(1.0, 0.6)
    ch = make_channel(
        g_sr=np.array([3.0, 0.1]),
        g_rd=np.array([0.2, 5.0]),
        g_rr=np.array([0.5, 0.5]),
        g_sd=np.array([0.8, 0.8]),
    )
    r1 = rate_sr(sys_p, sig, ch)
    r2 = rate_rd(sys_p, sig, ch)
    np.testing.assert_allclose(e2e_rate(sys_p, sig, ch), np.minimum(r1, r2))


@given(g_rr=gain, p_r=power, c_x=st.floats(min_value=0.0, max_value=1.0 - 1e-6),
       r=st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=150, deadline=None)
def test_sr_outage_event_root_equivalence(g_rr, p_r, c_x, r):
    # rate_sr(g_sr*) = r exactly when
    # P_s g_sr* = (P_r g_rr + 1) Psi_r(P_r g_rr c_x / (P_r g_rr + 1))
    sys_p = make_system()
    sig = SignalParams(p_r, c_x)
    t = RateTarget(r)
    i = p_r * g_rr
    g_star = (i + 1.0) * psi_r(t, i * c_x / (i + 1.0)) / sys_p.p_s
    ch = make_channel(g_sr=g_star, g_rr=g_rr)
    assert float(rate_sr(sys_p, sig, ch)) == pytest.approx(r, rel=1e-9, abs=1e-9)
