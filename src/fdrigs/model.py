"""System parameters, target-rate constants and the rate-threshold maps.

All powers are linear and normalized to unit noise variance at both
receivers.  dB conversion happens at the CLI boundary only.

The parameter types refuse a power pi, p_s, p_max or p_r that is not finite
and > 0, and convert these and c_x to Python floats after their checks.
One rule then picks the arithmetic of every map: a Python float takes
`math`, anything else NumPy.  NumPy is bound lazily (`_lazy`), so an
evaluation at one design point leaves it unloaded.

Both rate-threshold maps have one body, `_psi_pair`, which forms
psi_r(x) and psi_r(x) / (1 - x^2) from one square root; it is the only place
the library forms that root.  Its callers that take an argument from outside
(`psi_r`, `psi_ratio_limit` and `outage.e2e_lb_value`) pass it through one
range check first (`_unit_interval`); the quadrature integrands (the exact
first hop and the end-to-end survivals in `outage`) and the optimizer
derivative call it directly, on values already known to lie in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._lazy import np

__all__ = [
    "LinkStat",
    "SystemParams",
    "SignalParams",
    "RateTarget",
    "psi_r",
    "psi_ratio_limit",
    "alpha",
]

# Integer shapes the analysis is scoped to.
_SUPPORTED_SHAPES = (1, 2, 3, 4)

# gamma = 2^{2r} - 1 overflows a double from r = 512 on.
_R_OVERFLOW = 512.0
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class LinkStat:
    """One fading link: integer shape m and mean power pi.

    The Gamma scale theta = pi/m is derived once, here, and is not an
    argument; it takes no part in equality, hashing or repr, so
    `dataclasses.replace(link, pi=...)` derives it anew.
    """

    m: int
    pi: float
    theta: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m not in _SUPPORTED_SHAPES:
            raise ValueError(f"shape m must be one of {_SUPPORTED_SHAPES}, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        if not 0.0 < self.pi < math.inf:
            raise ValueError(f"mean power pi must be finite and > 0, got {self.pi}")
        object.__setattr__(self, "pi", float(self.pi))
        object.__setattr__(self, "theta", self.pi / self.m)


@dataclass(frozen=True)
class SystemParams:
    """Statistics of the four links plus source power and relay power cap."""

    sr: LinkStat
    rd: LinkStat
    rr: LinkStat
    sd: LinkStat
    p_s: float
    p_max: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p_s < math.inf:
            raise ValueError(f"p_s must be finite and > 0, got {self.p_s}")
        if not 0.0 < self.p_max < math.inf:
            raise ValueError(f"p_max must be finite and > 0, got {self.p_max}")
        if self.p_s > self.p_max:
            raise ValueError(f"p_s={self.p_s} exceeds p_max={self.p_max}")
        object.__setattr__(self, "p_s", float(self.p_s))
        object.__setattr__(self, "p_max", float(self.p_max))

    @property
    def all_rayleigh(self) -> bool:
        return all(link.m == 1 for link in (self.sr, self.rd, self.rr, self.sd))

    def check_signal(self, sig: "SignalParams") -> None:
        if sig.p_r > self.p_max:
            raise ValueError(f"p_r={sig.p_r} exceeds p_max={self.p_max}")


@dataclass(frozen=True)
class SignalParams:
    """The relay design point: transmit power and circularity coefficient."""

    p_r: float
    c_x: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p_r < math.inf:
            raise ValueError(f"p_r must be finite and > 0, got {self.p_r}")
        if not 0.0 <= self.c_x <= 1.0:
            raise ValueError(f"c_x must lie in [0, 1], got {self.c_x}")
        object.__setattr__(self, "p_r", float(self.p_r))
        object.__setattr__(self, "c_x", float(self.c_x))


@dataclass(frozen=True)
class RateTarget:
    """Target rate r with the derived constants gamma = 2^{2r}-1, eta = 2^r-1.

    Below r = 1, eta is expm1(r ln 2), which keeps full relative precision as
    r -> 0, where 2^r - 1 cancels; from r = 1 on it is 2^r - 1, exact at
    integer rates.  Then gamma = eta (eta + 2) in both cases, with no
    cancellation.  A rate whose gamma overflows a double (r >= 512) raises
    OverflowError.
    """

    r: float
    gamma: float = field(init=False)
    eta: float = field(init=False)

    def __post_init__(self) -> None:
        eta, gamma = _rate_constants(self.r)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "gamma", gamma)


def _rate_constants(r) -> tuple[float, float]:
    """(eta, gamma) of the rate r, as `RateTarget` documents them; raises
    ValueError unless r > 0 and OverflowError from r = 512 on.  The
    end-to-end survivals call it at every rate, with no `RateTarget` built."""
    if not r > 0:
        raise ValueError(f"target rate r must be > 0, got {r}")
    if not r < _R_OVERFLOW:
        raise OverflowError(
            f"target rate r={r!r} is too large: gamma = 2^(2r) - 1 "
            f"overflows a double for r >= {_R_OVERFLOW:g}"
        )
    r = float(r)
    eta = math.expm1(r * _LN2) if r < 1.0 else 2.0**r - 1.0
    return eta, eta * (eta + 2.0)


def _scalar_or_array(out):
    """A NumPy result as the maps return it: a 0-d array as a Python float."""
    return float(out) if out.ndim == 0 else out


def _psi_pair(gamma: float, c_x):
    """(psi_r(c_x), psi_ratio_limit(c_x)) at gamma from one square root.

    psi_r(x) = sqrt(1 + gamma (1 - x^2)) - 1 is formed as g / root with
    g = gamma (1 - x)(1 + x) and root = 1 + sqrt(1 + g), which stays
    accurate as x -> 1 where the naive form cancels; psi_r(x) / (1 - x^2),
    continuously extended to gamma / 2 at x = 1, is gamma / root.  This is
    the only body of both maps: a Python float c_x takes `math`, anything
    else NumPy, with no range check.  The end-to-end survivals call it at
    every rate and the exact first hop at every RSI-gain node.
    """
    g = gamma * ((1.0 - c_x) * (1.0 + c_x))
    root = 1.0 + (math.sqrt(1.0 + g) if type(c_x) is float else np.sqrt(1.0 + g))
    return g / root, gamma / root


def _unit_interval(x, name: str):
    """x, checked to lie in [0, 1] (ValueError names it `name`): a Python
    float stays one, anything else becomes a float array, and a 0-d array a
    Python float, so `_psi_pair` takes `math` on it."""
    if type(x) is not float:
        x = _scalar_or_array(np.asarray(x, dtype=float))
    if (x < 0.0 or x > 1.0) if type(x) is float else np.any((x < 0.0) | (x > 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")
    return x


def psi_r(target: RateTarget, x):
    """Rate-threshold map sqrt(1 + gamma (1 - x^2)) - 1 on [0, 1], the first
    element of `_psi_pair`; a Python float in `math`, anything else NumPy."""
    return _psi_pair(target.gamma, _unit_interval(x, "psi_r argument"))[0]


def psi_ratio_limit(target: RateTarget, c_x):
    """psi_r(c_x) / (1 - c_x^2), continuously extended to gamma/2 at c_x = 1,
    the second element of `_psi_pair`; a Python float in `math`, anything
    else NumPy."""
    return _psi_pair(target.gamma, _unit_interval(c_x, "c_x"))[1]


def alpha(sys: SystemParams, p_r):
    """RSI loading factor P_r pi_rr / (P_r pi_rr + 1), strictly inside (0, 1),
    elementwise over an array p_r.  It takes no square root or exponential,
    so floats and arrays share one body; only the range check differs."""
    if (not p_r > 0) if type(p_r) is float else np.any(p_r <= 0):
        raise ValueError("p_r must be > 0")
    beta = p_r * sys.rr.pi
    return beta / (beta + 1.0)
