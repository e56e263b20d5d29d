"""The one special function the analytics call: log Gamma(a, x) for integer a.

For a positive integer a, Gamma(a, x) = (a-1)! e^{-x} sum_{m<a} x^m / m!
(DLMF 8.4.8), a finite, cancellation-free sum.  It is taken in the log
domain, scaled by its largest term, so it stays finite where e^{-x}
underflows.  Pure `math`: the first-hop quadrature calls it once per
integrand evaluation, where NumPy's per-call overhead on a few scalars
would dominate.
"""

from __future__ import annotations

import math

from .model import _require

__all__ = ["log_upper_incomplete_gamma_int"]


def log_upper_incomplete_gamma_int(a: int, x: float) -> float:
    """log Gamma(a, x), stable for x up to ~1e6."""
    _require(
        a % 1 == 0 and a >= 1 and x >= 0,
        "log Gamma(a, x) needs an integer a >= 1 and x >= 0, got a=%s, x=%s", a, x,
    )
    a = int(a)
    if x == 0.0:
        return math.lgamma(a)
    log_x = math.log(x)
    terms = [m * log_x - math.lgamma(m + 1) for m in range(a)]
    top = max(terms)
    # log sum e^t = top + log1p(sum over the other terms of e^(t - top))
    skip = terms.index(top)
    rest = math.fsum(math.exp(t - top) for m, t in enumerate(terms) if m != skip)
    return math.lgamma(a) - x + (math.log1p(rest) + top)
