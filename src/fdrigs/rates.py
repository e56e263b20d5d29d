"""Instantaneous achievable rates of both hops under improper relay signaling.

All functions accept scalar or numpy-array channel gains, so the Monte Carlo
oracle can evaluate whole batches at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._lazy import np
from .model import SignalParams, SystemParams

__all__ = [
    "ChannelRealization",
    "rate_sr",
    "rate_rd",
    "e2e_rate",
]


@dataclass(frozen=True)
class ChannelRealization:
    """Nonnegative power gains of the four links (scalars or arrays)."""

    g_sr: object
    g_rd: object
    g_rr: object
    g_sd: object

    def __post_init__(self) -> None:
        for name in ("g_sr", "g_rd", "g_rr", "g_sd"):
            g = np.asarray(getattr(self, name), dtype=float)
            if np.any(g < 0):
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, g if g.ndim else float(g))


def rate_sr(sys: SystemParams, sig: SignalParams, ch: ChannelRealization):
    """First-hop rate: RSI-limited S-R link with improper relay interference.

    The quadratic forms are factored as (A+B)(A-B) so that nothing cancels
    when c_x -> 1 with strong RSI.
    """
    s = sys.p_s * np.asarray(ch.g_sr, dtype=float)
    i = sig.p_r * np.asarray(ch.g_rr, dtype=float)
    y = i * sig.c_x
    num = (s + i + 1.0 + y) * (s + i + 1.0 - y)
    den = (i + 1.0 + y) * (i + 1.0 - y)
    return 0.5 * np.log2(num / den)


def rate_rd(sys: SystemParams, sig: SignalParams, ch: ChannelRealization):
    """Second-hop rate: R-D link with the direct S-D copy as interference."""
    s = sig.p_r * np.asarray(ch.g_rd, dtype=float)
    i = sys.p_s * np.asarray(ch.g_sd, dtype=float)
    y = s * sig.c_x
    num = (s + i + 1.0 + y) * (s + i + 1.0 - y)
    den = (i + 1.0) ** 2
    return 0.5 * np.log2(num / den)


def e2e_rate(sys: SystemParams, sig: SignalParams, ch: ChannelRealization):
    """Decode-and-forward end-to-end rate min(R_sr, R_rd)."""
    return np.minimum(rate_sr(sys, sig, ch), rate_rd(sys, sig, ch))
