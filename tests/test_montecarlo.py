"""Monte Carlo oracle: determinism, sampling distributions, and agreement
with the analytics at the 3-sigma level.  The half-duplex baselines' sampler
lives here, as the oracle of `outage.p_hdr_mhdf` and `outage.p_hdr_mrc`."""

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
import pytest

from fdrigs.model import LinkStat, RateTarget, SignalParams, SystemParams, psi_r, psi_ratio_limit
from fdrigs.montecarlo import (
    _BATCH,
    McConfig,
    McEstimate,
    _batch_rng,
    _batch_sizes,
    _estimate,
    _gamma_gain,
    _summary,
    estimate_ergodic,
    estimate_outage,
    rate_rd,
    rate_sr,
    sample_gains,
)
from fdrigs.ergodic import r_e2e_exact
from fdrigs.outage import _rd_hop, _sr_survival_exact, p_e2e_exact, p_hdr_mhdf, p_hdr_mrc
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
    p_sr = 1.0 - _sr_survival_exact(sys_p, SIG, TARGET.gamma, psi_r(TARGET, SIG.c_x))
    p_rd = 1.0 - _rd_hop(sys_p, SIG.p_r)(psi_ratio_limit(TARGET, SIG.c_x))
    assert abs(sr.mean - p_sr) <= 3.5 * sr.stderr
    assert abs(rd.mean - p_rd) <= 3.5 * rd.stderr


def test_ergodic_matches_analytics():
    sys_p = base_system()
    est = estimate_ergodic(sys_p, SIG, McConfig(400_000, seed=12))
    ref = r_e2e_exact(sys_p, SIG).value
    assert abs(est.mean - ref) <= 3.5 * est.stderr


@dataclass(frozen=True)
class HdrOutage:
    """Half-duplex baseline outages from one pass of n samples: per target
    rate, in the order given, without (mhdf) and with (mrc) combining."""

    n: int
    mhdf: Tuple[McEstimate, ...]
    mrc: Tuple[McEstimate, ...]


def estimate_hdr_outage(
    sys: SystemParams, targets: Sequence[RateTarget], cfg: McConfig
) -> HdrOutage:
    """Outage of the half-duplex decode-and-forward baselines at every target.

    Each hop occupies half the block, so it must support rate 2r, that is an
    SNR of at least gamma = 2^{2r} - 1; the relay transmits at full power and
    suffers no self-interference.  With MRC the destination combines the
    relayed and direct copies, giving second-stage SNR P_r g_rd + P_s g_sd.
    A batch draws only the three gains the baselines read, g_sr, g_rd and
    g_sd in that order, and compares the minimum SNRs with gamma, which is
    the same event as the minimum rate falling below 2r.  Both baselines at
    every target are counted on the same samples, so each estimate is
    bit-identical to a pass of its own.
    """
    thresholds = [target.gamma for target in targets]
    hits_mhdf = [0] * len(thresholds)
    hits_mrc = [0] * len(thresholds)
    n = 0
    for i, size in enumerate(_batch_sizes(cfg)):
        rng = _batch_rng(cfg, i)
        snr1 = _gamma_gain(rng, sys.sr.m, sys.sr.theta, size)
        snr1 *= sys.p_s
        snr2 = _gamma_gain(rng, sys.rd.m, sys.rd.theta, size)
        snr2 *= sys.p_max
        min_snr = np.minimum(snr1, snr2)
        for j, threshold in enumerate(thresholds):
            hits_mhdf[j] += int(np.count_nonzero(min_snr < threshold))
        direct = _gamma_gain(rng, sys.sd.m, sys.sd.theta, size)
        direct *= sys.p_s
        snr2 += direct
        min_snr = np.minimum(snr1, snr2)
        for j, threshold in enumerate(thresholds):
            hits_mrc[j] += int(np.count_nonzero(min_snr < threshold))
        n += size
    # an outage indicator is its own square
    return HdrOutage(
        n=n,
        mhdf=tuple(_summary(h, h, n) for h in hits_mhdf),
        mrc=tuple(_summary(h, h, n) for h in hits_mrc),
    )


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


@pytest.mark.parametrize("shapes", [(1, 1, 1, 1), (2, 3, 1, 2), (4, 2, 3, 1)])
def test_hdr_baselines_match_oracle(shapes):
    # the deterministic baselines against the sampler, at three rates
    m_sr, m_rd, m_rr, m_sd = shapes
    sys_p = SystemParams(
        sr=LinkStat(m_sr, 100.0), rd=LinkStat(m_rd, 30.0), rr=LinkStat(m_rr, 10.0),
        sd=LinkStat(m_sd, 20.0), p_s=1.0, p_max=2.0,
    )
    targets = [RateTarget(r) for r in (0.5, 1.0, 2.0)]
    est = estimate_hdr_outage(sys_p, targets, McConfig(seed=5))
    for target, mhdf, mrc in zip(targets, est.mhdf, est.mrc):
        for fn, sample in ((p_hdr_mhdf, mhdf), (p_hdr_mrc, mrc)):
            value = fn(sys_p, target).value
            assert sample.stderr > 0, (fn.__name__, target.r)
            assert abs(sample.mean - value) <= 4.0 * sample.stderr, (fn.__name__, target.r)
