"""System parameters, target-rate constants and the rate-threshold maps.

All powers are linear and normalized to unit noise variance at both
receivers.  dB conversion happens at the CLI boundary only.

The parameter types refuse a power pi, p_s, p_max or p_r that is not finite
and > 0, and convert these, c_x and the rate r to Python floats after their
checks.
One rule then picks the arithmetic of every map: a Python float takes
`math`, anything else NumPy.  NumPy is bound lazily (`_lazy`), so an
evaluation at one design point leaves it unloaded.

Both rate-threshold maps have one body, `_psi_pair`, which forms
psi_r(x) and psi_r(x) / (1 - x^2) from one square root; it is the only place
the library forms that root.  It takes 1 - x from its caller, beside x, so
a caller whose argument is a product can form the complement without
cancellation.  Its callers that take an argument from outside
(`psi_r`, `psi_ratio_limit` and the bound values `outage.e2e_lb_value` and
`outage.e2e_rayleigh_ub_value`) pass it through the unit-interval check
first (`_unit_interval`); the quadrature integrands (the exact first hop and
the end-to-end survivals in `outage`) and the Rayleigh bound's parts, which
its optimizer derivatives read, call it directly, on values already known
to lie in [0, 1].

Every range check takes one form, `_require(ok, message, *args)`: `ok` is
the comparison itself, a bool on Python numbers and a boolean array
otherwise, and NaN, which compares false, never passes.  The message is a
%-format and its arguments, formatted only on refusal, so a passing check
costs one call; the checks that run at every quadrature node (the rate
check of `_rate_constants` and the argument check of
`specfun.log_upper_incomplete_gamma_int`) take this form too.  The
parameter types check their fields that way, and the RSI loading factor
`alpha` checks p_r > 0, for the Rayleigh bound and its derivatives.
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


def _require(ok, message: str, *args) -> None:
    """The one form of every range check: raise ValueError(message % args)
    unless `ok` holds.  `ok` is a comparison of the checked value, so a
    Python number gives a bool, taken as it is, and an array a boolean
    array, which must hold everywhere (`np.all`).  NaN compares false, so it
    never passes.  The message is formatted only on refusal."""
    if not (ok if type(ok) is bool else np.all(ok)):
        raise ValueError(message % args)


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
        _require(self.m in _SUPPORTED_SHAPES, "shape m must be one of %s, got %s", _SUPPORTED_SHAPES, self.m)
        object.__setattr__(self, "m", int(self.m))
        _require(0.0 < self.pi < math.inf, "mean power pi must be finite and > 0, got %s", self.pi)
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
        _require(0.0 < self.p_s < math.inf, "p_s must be finite and > 0, got %s", self.p_s)
        _require(0.0 < self.p_max < math.inf, "p_max must be finite and > 0, got %s", self.p_max)
        _require(self.p_s <= self.p_max, "p_s=%s exceeds p_max=%s", self.p_s, self.p_max)
        object.__setattr__(self, "p_s", float(self.p_s))
        object.__setattr__(self, "p_max", float(self.p_max))

    @property
    def all_rayleigh(self) -> bool:
        return all(link.m == 1 for link in (self.sr, self.rd, self.rr, self.sd))

    def check_signal(self, sig: "SignalParams") -> None:
        _require(sig.p_r <= self.p_max, "p_r=%s exceeds p_max=%s", sig.p_r, self.p_max)


@dataclass(frozen=True)
class SignalParams:
    """The relay design point: transmit power and circularity coefficient."""

    p_r: float
    c_x: float

    def __post_init__(self) -> None:
        _require(0.0 < self.p_r < math.inf, "p_r must be finite and > 0, got %s", self.p_r)
        _require(0.0 <= self.c_x <= 1.0, "c_x must lie in [0, 1], got %s", self.c_x)
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
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "gamma", gamma)


def _rate_constants(r) -> tuple[float, float]:
    """(eta, gamma) of the rate r, as `RateTarget` documents them; raises
    ValueError unless r > 0 and OverflowError from r = 512 on.  The
    end-to-end survivals call it at every rate, with no `RateTarget` built."""
    _require(r > 0, "target rate r must be > 0, got %s", r)
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


def _psi_pair(gamma: float, x, x_bar):
    """(psi_r(x), psi_ratio_limit(x)) at gamma from one square root, given
    x_bar = 1 - x.

    psi_r(x) = sqrt(1 + gamma (1 - x^2)) - 1 is formed as g / root with
    g = gamma x_bar (1 + x) and root = 1 + sqrt(1 + g), which stays
    accurate as x -> 1 where the naive form cancels; psi_r(x) / (1 - x^2),
    continuously extended to gamma / 2 at x = 1, is gamma / root.  The
    caller forms x_bar: as 1.0 - x where x is its argument itself, and
    without the difference where x is a product, such as alpha c_x, whose
    complement 1 - x cancels as c_x -> 1.  This is the only body of both
    maps: a Python float x takes `math`, anything else NumPy, with no range
    check.  The end-to-end survivals call it at every rate and the exact
    first hop at every RSI-gain node.
    """
    g = gamma * (x_bar * (1.0 + x))
    root = 1.0 + (math.sqrt(1.0 + g) if type(x) is float else np.sqrt(1.0 + g))
    return g / root, gamma / root


def _unit_interval(x, name: str):
    """x, checked to lie in [0, 1] (ValueError names it `name`): a Python
    float stays one, anything else becomes a float array, and a 0-d array a
    Python float, so `_psi_pair` takes `math` on it."""
    if type(x) is not float:
        x = _scalar_or_array(np.asarray(x, dtype=float))
    _require((0.0 <= x) & (x <= 1.0), "%s must lie in [0, 1]", name)
    return x


def psi_r(target: RateTarget, x):
    """Rate-threshold map sqrt(1 + gamma (1 - x^2)) - 1 on [0, 1], the first
    element of `_psi_pair`; a Python float in `math`, anything else NumPy."""
    x = _unit_interval(x, "psi_r argument")
    return _psi_pair(target.gamma, x, 1.0 - x)[0]


def psi_ratio_limit(target: RateTarget, c_x):
    """psi_r(c_x) / (1 - c_x^2), continuously extended to gamma/2 at c_x = 1,
    the second element of `_psi_pair`; a Python float in `math`, anything
    else NumPy."""
    c_x = _unit_interval(c_x, "c_x")
    return _psi_pair(target.gamma, c_x, 1.0 - c_x)[1]


def alpha(sys: SystemParams, p_r):
    """RSI loading factor P_r pi_rr / (P_r pi_rr + 1), strictly inside (0, 1),
    elementwise over an array p_r.  It takes no square root or exponential,
    so floats and arrays share one body, range check included."""
    _require(p_r > 0, "p_r must be > 0")
    beta = p_r * sys.rr.pi
    return beta / (beta + 1.0)
