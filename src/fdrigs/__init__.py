"""Outage, throughput and ergodic-rate analysis of a full-duplex
decode-and-forward relay that transmits an improper Gaussian signal over
Nakagami-m fading, with a Monte Carlo oracle and design optimizers.
"""

from .model import (
    LinkStat,
    RateTarget,
    SignalParams,
    SystemParams,
    alpha,
    psi_r,
    psi_ratio_limit,
)
from .outage import (
    EvalResult,
    asymptotic_k,
    p_e2e_exact,
    p_e2e_lb,
    p_e2e_rayleigh_ub,
    throughput,
)
from .ergodic import r_e2e_exact, r_e2e_rayleigh_lb, r_e2e_ub

__version__ = "0.1.0"

__all__ = [
    "LinkStat",
    "RateTarget",
    "SignalParams",
    "SystemParams",
    "alpha",
    "psi_r",
    "psi_ratio_limit",
    "EvalResult",
    "asymptotic_k",
    "p_e2e_exact",
    "p_e2e_lb",
    "p_e2e_rayleigh_ub",
    "throughput",
    "r_e2e_exact",
    "r_e2e_rayleigh_lb",
    "r_e2e_ub",
    "__version__",
]
