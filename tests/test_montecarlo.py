"""Monte Carlo oracle: determinism, sampling distributions, and agreement
with the analytics at the 3-sigma level."""

import math

import numpy as np
import pytest

from fdrigs.model import LinkStat, RateTarget, SignalParams, SystemParams
from fdrigs.montecarlo import (
    _BATCH,
    McConfig,
    _batch_rng,
    _batch_sizes,
    _estimate,
    _gamma_gain,
    estimate_ergodic,
    estimate_hdr_outage,
    estimate_outage,
    sample_gains,
)
from fdrigs.ergodic import r_e2e_exact
from fdrigs.outage import p_e2e_exact, p_rd_exact, p_sr_exact
from fdrigs.rates import rate_rd, rate_sr
from fdrigs.specfun import log_upper_incomplete_gamma_int


def base_system(m_relayed=1):
    return SystemParams(
        sr=LinkStat(m_relayed, 100.0),
        rd=LinkStat(m_relayed, 100.0),
        rr=LinkStat(1, 10.0),
        sd=LinkStat(1, 2.0),
        p_s=1.0,
        p_max=1.0,
    )


SIG = SignalParams(1.0, 0.9)
TARGET = RateTarget(1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_samples=100)
    with pytest.raises(ValueError):
        McConfig(seed=-1)


def test_determinism():
    # counter-based substreams: repeated runs with the same configuration
    # are bit-identical, and the seed selects a distinct stream; the budget
    # spans two full batches and a remainder
    sys_p = base_system()
    cfg = McConfig(600_000, seed=3)
    a = estimate_outage(sys_p, SIG, TARGET, cfg)
    b = estimate_outage(sys_p, SIG, TARGET, cfg)
    assert a.mean == b.mean and a.stderr == b.stderr
    assert a.n == 600_000
    c = estimate_outage(sys_p, SIG, TARGET, McConfig(600_000, seed=4))
    assert c.mean != a.mean


def test_gamma_gain_moments():
    sys_p = base_system(3)
    rng = np.random.default_rng(0)
    ch = sample_gains(sys_p, rng, 200_000)
    # Gamma(m, theta): mean = pi, var = pi^2 / m
    assert ch.g_sr.mean() == pytest.approx(100.0, rel=0.02)
    assert ch.g_sr.var() == pytest.approx(100.0**2 / 3, rel=0.05)
    assert ch.g_rr.mean() == pytest.approx(10.0, rel=0.02)


@pytest.mark.parametrize("n", [_BATCH, 20_000])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gamma_gain_matches_matrix_sum(m, n):
    # the row-wise sampler draws and adds exactly what the (m, n) draw and
    # its column sums did, which pins the full-duplex Monte Carlo streams
    cfg = McConfig(seed=5)
    got = _gamma_gain(_batch_rng(cfg, 1), m, 2.5, n)
    ref = _batch_rng(cfg, 1).exponential(2.5, size=(m, n)).sum(axis=0)
    assert got.shape == (n,)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("m", [1, 2])
def test_e2e_outage_matches_analytics(m):
    sys_p = base_system(m)
    est = estimate_outage(sys_p, SIG, TARGET, McConfig(400_000, seed=10))
    ref = p_e2e_exact(sys_p, SIG, TARGET).value
    assert abs(est.mean - ref) <= 3.5 * est.stderr


def estimate_hop_outage(sys_p, sig, target, cfg, hop_rate):
    """Empirical outage of one hop, whose rate is rate_sr or rate_rd."""

    def batch(rng, size):
        return hop_rate(sys_p, sig, sample_gains(sys_p, rng, size)) < target.r

    return _estimate(cfg, batch)


def test_link_outages_factorize():
    sys_p = base_system()
    cfg = McConfig(400_000, seed=11)
    sr = estimate_hop_outage(sys_p, SIG, TARGET, cfg, rate_sr)
    rd = estimate_hop_outage(sys_p, SIG, TARGET, cfg, rate_rd)
    assert abs(sr.mean - p_sr_exact(sys_p, SIG, TARGET).value) <= 3.5 * sr.stderr
    assert abs(rd.mean - p_rd_exact(sys_p, SIG, TARGET).value) <= 3.5 * rd.stderr


def test_ergodic_matches_analytics():
    sys_p = base_system()
    est = estimate_ergodic(sys_p, SIG, McConfig(400_000, seed=12))
    ref = r_e2e_exact(sys_p, SIG).value
    assert abs(est.mean - ref) <= 3.5 * est.stderr


def test_hdr_mrc_dominates_mhdf():
    # combining the direct copy can only reduce half-duplex outage
    sys_p = base_system()
    cfg = McConfig(200_000, seed=13)
    targets = [RateTarget(r) for r in (0.5, 1.0, 2.0)]
    res = estimate_hdr_outage(sys_p, targets, cfg)
    assert res.n == 200_000
    for mhdf, mrc in zip(res.mhdf, res.mrc):
        assert mrc.mean <= mhdf.mean + 1e-12


def test_hdr_rate_threshold_doubled():
    # the half-duplex baselines pay the two-slot penalty: their outage at
    # target r equals the full-block outage at 2r of the same hops; one pass
    # must give, for every rate and both baselines, exactly the counts of a
    # pass per rate and baseline over the same substreams (two full batches
    # and a remainder).  The reference draws the three gains the baselines
    # read, in the library's order, and compares log-rates with 2r, so it
    # also checks the library's SNR comparison with 2^{2r} - 1.
    sys_p = SystemParams(
        sr=LinkStat(2, 100.0), rd=LinkStat(3, 30.0), rr=LinkStat(1, 10.0),
        sd=LinkStat(4, 20.0), p_s=1.0, p_max=2.0,
    )
    cfg = McConfig(520_000, seed=14)
    rates = (1.0, 2.0, 3.0)
    res = estimate_hdr_outage(sys_p, [RateTarget(r) for r in rates], cfg)
    assert res.n == cfg.n_samples
    for k, r in enumerate(rates):
        for mrc, est in ((False, res.mhdf[k]), (True, res.mrc[k])):
            hits = 0
            for i, size in enumerate(_batch_sizes(cfg)):
                rng = _batch_rng(cfg, i)
                g_sr = _gamma_gain(rng, sys_p.sr.m, sys_p.sr.theta, size)
                g_rd = _gamma_gain(rng, sys_p.rd.m, sys_p.rd.theta, size)
                g_sd = _gamma_gain(rng, sys_p.sd.m, sys_p.sd.theta, size)
                snr2 = sys_p.p_max * g_rd
                if mrc:
                    snr2 = snr2 + sys_p.p_s * g_sd
                r1 = np.log2(1.0 + sys_p.p_s * g_sr)
                r2 = np.log2(1.0 + snr2)
                hits += int(np.count_nonzero(np.minimum(r1, r2) < 2.0 * r))
            p = hits / cfg.n_samples
            assert est.n == cfg.n_samples
            assert est.mean == p
            assert est.stderr == math.sqrt(max(p - p * p, 0.0) / cfg.n_samples)
            assert 0 < hits < cfg.n_samples


def test_hdr_ignores_self_interference_link():
    # neither baseline has a full-duplex relay, so the rr link, shape and
    # power alike, must not change a single count
    links = dict(sr=LinkStat(2, 50.0), rd=LinkStat(1, 20.0), sd=LinkStat(3, 5.0))
    a = SystemParams(rr=LinkStat(1, 10.0), p_s=1.0, p_max=2.0, **links)
    b = SystemParams(rr=LinkStat(4, 1e4), p_s=1.0, p_max=2.0, **links)
    cfg = McConfig(270_000, seed=15)
    targets = [RateTarget(r) for r in (0.5, 1.5)]
    assert estimate_hdr_outage(a, targets, cfg) == estimate_hdr_outage(b, targets, cfg)


def _regularized_q(m, x):
    """Q(m, x) = Gamma(m, x) / Gamma(m), the Gamma(m, 1) survival at x."""
    return math.exp(log_upper_incomplete_gamma_int(m, x) - math.lgamma(m))


@pytest.mark.parametrize(
    "sr, rd, r, seed",
    [
        (LinkStat(1, 30.0), LinkStat(1, 20.0), 1.0, 16),
        (LinkStat(2, 10.0), LinkStat(3, 8.0), 1.5, 17),
    ],
)
def test_hdr_mhdf_matches_closed_form(sr, rd, r, seed):
    # without combining, the half-duplex outage is one minus the product of
    # the two hop survivals at SNR 2^{2r} - 1
    sys_p = SystemParams(sr=sr, rd=rd, rr=LinkStat(1, 10.0), sd=LinkStat(1, 2.0),
                         p_s=1.0, p_max=2.0)
    target = RateTarget(r)
    est = estimate_hdr_outage(sys_p, [target], McConfig(seed=seed)).mhdf[0]
    assert est.n == 1_000_000
    g = target.gamma
    ref = 1.0 - (_regularized_q(sr.m, g / (sys_p.p_s * sr.theta))
                 * _regularized_q(rd.m, g / (sys_p.p_max * rd.theta)))
    assert 0.05 < ref < 0.95
    assert abs(est.mean - ref) <= 4.0 * est.stderr
