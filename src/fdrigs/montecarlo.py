"""Monte Carlo oracle: block-fading simulation of the relay link, the
instantaneous rates of both hops, and empirical outage/ergodic estimates.

Sampling uses counter-based Philox substreams, one per accumulation batch of
the fixed size `_BATCH`, so estimates are bit-identical regardless of how
batches are scheduled.  The budget (`McConfig`) is a sample count and a seed.
The half-duplex baselines are deterministic (`outage.p_hdr_mhdf`,
`outage.p_hdr_mrc`); their sampler is a test oracle and lives with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ._lazy import np
from .model import RateTarget, SignalParams, SystemParams

__all__ = [
    "McConfig",
    "McEstimate",
    "ChannelRealization",
    "rate_sr",
    "rate_rd",
    "e2e_rate",
    "sample_gains",
    "estimate_outage",
    "estimate_ergodic",
]

# Samples drawn per substream; bounds the memory one accumulation step holds.
_BATCH = 250_000


@dataclass(frozen=True)
class McConfig:
    """Sampling budget and reproducibility control."""

    n_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 10_000:
            raise ValueError(f"n_samples must be >= 10000, got {self.n_samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    stderr: float
    n: int


class ChannelRealization(NamedTuple):
    """Power gains of the four links, scalars or arrays of one shape."""

    g_sr: object
    g_rd: object
    g_rr: object
    g_sd: object


def rate_sr(sys: SystemParams, sig: SignalParams, ch: ChannelRealization):
    """First-hop rate: RSI-limited S-R link with improper relay interference.

    The quadratic forms are factored as (A+B)(A-B) so that nothing cancels
    when c_x -> 1 with strong RSI.
    """
    s = sys.p_s * ch.g_sr
    i = sig.p_r * ch.g_rr
    y = i * sig.c_x
    num = (s + i + 1.0 + y) * (s + i + 1.0 - y)
    den = (i + 1.0 + y) * (i + 1.0 - y)
    return 0.5 * np.log2(num / den)


def rate_rd(sys: SystemParams, sig: SignalParams, ch: ChannelRealization):
    """Second-hop rate: R-D link with the direct S-D copy as interference."""
    s = sig.p_r * ch.g_rd
    i = sys.p_s * ch.g_sd
    y = s * sig.c_x
    num = (s + i + 1.0 + y) * (s + i + 1.0 - y)
    den = (i + 1.0) ** 2
    return 0.5 * np.log2(num / den)


def e2e_rate(sys: SystemParams, sig: SignalParams, ch: ChannelRealization):
    """Decode-and-forward end-to-end rate min(R_sr, R_rd)."""
    return np.minimum(rate_sr(sys, sig, ch), rate_rd(sys, sig, ch))


def _batch_rng(cfg: McConfig, batch_index: int) -> np.random.Generator:
    """Independent substream for one batch: the seed keys the stream, the
    batch index offsets the 256-bit counter, so streams never overlap."""
    bg = np.random.Philox(key=cfg.seed)
    bg.advance(batch_index << 128)
    return np.random.Generator(bg)


def _batch_sizes(cfg: McConfig):
    full, rem = divmod(cfg.n_samples, _BATCH)
    sizes = [_BATCH] * full
    if rem:
        sizes.append(rem)
    return sizes


def _gamma_gain(rng: np.random.Generator, m: int, theta: float, n: int) -> np.ndarray:
    """Gamma(m, theta) gains as a sum of m exponentials (exact, integer m).

    The m rows of n exponentials are drawn and added one after another, in
    place: the same draws and the same additions, bit for bit, as
    ``rng.exponential(theta, size=(m, n)).sum(axis=0)``, without the (m, n)
    array.
    """
    gain = rng.exponential(theta, size=n)
    for _ in range(m - 1):
        gain += rng.exponential(theta, size=n)
    return gain


def sample_gains(sys: SystemParams, rng: np.random.Generator, n: int) -> ChannelRealization:
    """Draw n independent block-fading realizations of the four link gains."""
    return ChannelRealization(
        g_sr=_gamma_gain(rng, sys.sr.m, sys.sr.theta, n),
        g_rd=_gamma_gain(rng, sys.rd.m, sys.rd.theta, n),
        g_rr=_gamma_gain(rng, sys.rr.m, sys.rr.theta, n),
        g_sd=_gamma_gain(rng, sys.sd.m, sys.sd.theta, n),
    )


def _summary(total: float, total_sq: float, n: int) -> McEstimate:
    """Mean and standard error from the sum and sum of squares of n samples."""
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return McEstimate(mean=mean, stderr=math.sqrt(var / n), n=n)


def _estimate(cfg: McConfig, batch_fn) -> McEstimate:
    """Accumulate sum and sum-of-squares over deterministic batches."""
    total = 0.0
    total_sq = 0.0
    n = 0
    for i, size in enumerate(_batch_sizes(cfg)):
        values = np.asarray(batch_fn(_batch_rng(cfg, i), size), dtype=float)
        total += float(values.sum())
        total_sq += float(np.square(values).sum())
        n += size
    return _summary(total, total_sq, n)


def estimate_outage(
    sys: SystemParams, sig: SignalParams, target: RateTarget, cfg: McConfig
) -> McEstimate:
    """Empirical end-to-end outage: fraction of blocks with min-rate below r."""
    sys.check_signal(sig)

    def batch(rng, size):
        ch = sample_gains(sys, rng, size)
        return e2e_rate(sys, sig, ch) < target.r

    return _estimate(cfg, batch)


def estimate_ergodic(sys: SystemParams, sig: SignalParams, cfg: McConfig) -> McEstimate:
    """Empirical ergodic rate: sample mean of the end-to-end rate."""
    sys.check_signal(sig)

    def batch(rng, size):
        return e2e_rate(sys, sig, sample_gains(sys, rng, size))

    return _estimate(cfg, batch)
