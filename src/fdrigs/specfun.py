"""The one special function the analytics call: log Gamma(a, x) for integer a.

For a positive integer a, Gamma(a, x) = (a-1)! e^{-x} sum_{m<a} x^m / m!,
a finite, cancellation-free sum; taking it in the log domain keeps it finite
where e^{-x} underflows.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = ["log_upper_incomplete_gamma_int"]


def log_upper_incomplete_gamma_int(a: int, x: float) -> float:
    """log Gamma(a, x), stable for x up to ~1e6."""
    if isinstance(a, float) and not a.is_integer():
        raise ValueError(f"a must be a positive integer, got {a}")
    a = int(a)
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return math.lgamma(a)
    m = np.arange(a)
    terms = m * math.log(x) - special.gammaln(m + 1)
    return float(math.lgamma(a) - x + special.logsumexp(terms))
