"""Ergodic-rate analytics: two integrals over the target rate r and one
Laplace-type bound.

* `r_e2e_exact`: the integral of the exact end-to-end survival
  (1 - P_sr(r)) (1 - P_rd(r)).
* `r_e2e_ub`: the integral of the survival of the outage lower bound,
  int_0^inf (1 - P_lb(r)) dr, whose integrand is the product of the two
  closed-form hop survivals.
* `r_e2e_rayleigh_lb`: the Rayleigh lower bound, a single Laplace-type
  integral (see its docstring), over a finite cut that leaves out less
  than 1e-15.

Each integral runs on `outage.adaptive_quad`, the library's one QK21
quadrature, over a finite domain.  The two rate integrals integrate the
end-to-end survivals whose complements are the outage metrics, as
`outage` binds them once per design (`outage._bound_survival`,
`outage._exact_survival`), so this module holds only its rate cap and its
quadratures.  Both integrals share one partition of [0, r_cap]: the cap
brackets the bound survival's tail from above and below (`_rate_cap`), so
the nodes sit where the survival lives, also when its mass is at r << 1.
The bound's integral starts from the knot r_cap / 2, where its survival is
still above 1e-12, and the exact rate starts from the bound's final panels,
since its survival is never above the bound's and has the same tail; it
bisects further only where its own error asks for it.
"""

from __future__ import annotations

import math
from typing import Callable

from .model import SignalParams, SystemParams, _require, alpha
from .outage import (
    METHOD_EXACT_INTEGRAL,
    METHOD_LOWER_BOUND,
    METHOD_UPPER_BOUND,
    EvalResult,
    _bound_survival,
    _exact_survival,
    adaptive_quad,
)

__all__ = [
    "r_e2e_exact",
    "r_e2e_ub",
    "r_e2e_rayleigh_lb",
]


# The bound survival past which the rate axis is cut off.
_CAP_SURVIVAL = 1e-12

# The part of the Rayleigh lower bound's integral left out past its cut.
_LB_TAIL = 1e-15


def _rate_cap(survival: Callable[[float], float]) -> float:
    """The smallest 20 * 2^k (k any integer) at which the bound survival
    (`outage._bound_survival`) is at most 1e-12.

    From r = 20 it doubles while the survival is above 1e-12, or else halves
    while the survival at half the cap is still at most 1e-12, so the cap
    brackets the survival's tail: at most 1e-12 at the cap, above it at half
    the cap.  The survival tends to 1 as r -> 0+, so the halving ends; the
    doubling ends at the latest where gamma overflows and the survival
    raises OverflowError (r >= 512).  The exact survival is never above the
    bound survival, so the cap serves both integrals.
    """
    r_cap = 20.0
    while survival(r_cap) > _CAP_SURVIVAL:
        r_cap *= 2.0
    if r_cap == 20.0:
        while survival(0.5 * r_cap) <= _CAP_SURVIVAL:
            r_cap *= 0.5
    return r_cap


def _bound_integral(survival: Callable[[float], float], panels: list | None = None) -> float:
    """int_0^r_cap of the bound survival by adaptive quadrature, with the cap
    of `_rate_cap` and a knot at r_cap / 2, where the survival is still above
    1e-12; `panels`, if a list, receives the final panel edges."""
    r_cap = _rate_cap(survival)
    return adaptive_quad(survival, 0.0, r_cap, (0.5 * r_cap,), panels)


def r_e2e_ub(sys: SystemParams, sig: SignalParams) -> EvalResult:
    """End-to-end ergodic-rate upper bound; exact at c_x = 0.

    int_0^inf (1 - P_lb(r)) dr, where 1 - P_lb(r) is the product of the
    first-hop lower-bound survival and the second-hop survival, both in
    closed form.  The integral runs over [0, r_cap], past which the
    integrand is at most 1e-12 (`_rate_cap`).
    """
    sys.check_signal(sig)
    return EvalResult(_bound_integral(_bound_survival(sys, sig.p_r, sig.c_x)), METHOD_UPPER_BOUND)


def r_e2e_exact(sys: SystemParams, sig: SignalParams) -> EvalResult:
    """Exact ergodic rate as the integral of the end-to-end survival over r.

    The survival is never above the upper bound's and has the same tail, so
    the quadrature starts from the final panels of the bound's integral over
    [0, r_cap] and bisects further only where its own error asks for it.
    The integrand is `outage._exact_survival`, whose value at the target
    rate is 1 - p_e2e_exact.
    """
    sys.check_signal(sig)
    edges: list[float] = []
    _bound_integral(_bound_survival(sys, sig.p_r, sig.c_x), edges)
    survival = _exact_survival(sys, sig)
    return EvalResult(adaptive_quad(survival, 0.0, edges[-1], edges[1:-1]), METHOD_EXACT_INTEGRAL)


def r_e2e_rayleigh_lb(sys: SystemParams, sig: SignalParams) -> EvalResult:
    """Rayleigh ergodic-rate lower bound; loosens as c_x -> 1.

    (1 / ln 2) int_0^inf e^{-omega s} x (s + 1) / (((s + 1)^2 - a^2 c_x^2) (s + x)) ds

    with a = alpha(p_r), x = p_r pi_rd (1 - c_x^2) / (p_s pi_sd) and
    omega = (p_r pi_rr + 1) / (p_s pi_sr) + 1 / (p_r pi_rd (1 - c_x^2)).
    Every factor is positive on s >= 0, so the integrand stays smooth where
    two of its poles -(1 -+ a c_x) and -x coincide.  At c_x = 1, x = 0 and
    the bound is exactly 0.

    The integrand is at most e^{-omega s} / (1 - a c_x), so the integral runs
    over the finite cut [0, S], S = ln(1 / (omega (1 - a c_x) eps)) / omega,
    past which less than eps = 1e-15 is left; where S <= 0 the whole bound is
    below eps and reads 0.  Knots at x, 1 - a c_x and 1 / omega, the scales
    of its factors, split the cut where they fall inside it.
    """
    _require(sys.all_rayleigh, "r_e2e_rayleigh_lb requires all shapes equal to 1")
    sys.check_signal(sig)
    if sig.c_x == 1.0:
        return EvalResult(0.0, METHOD_LOWER_BOUND)
    prd = sig.p_r * sys.rd.pi * (1.0 - sig.c_x) * (1.0 + sig.c_x)
    x = prd / (sys.p_s * sys.sd.pi)
    ac = alpha(sys, sig.p_r) * sig.c_x
    omega = (sig.p_r * sys.rr.pi + 1.0) / (sys.p_s * sys.sr.pi) + 1.0 / prd
    # each factor's own log, so that no product underflows on the way
    cut = -(math.log(omega) + math.log(1.0 - ac) + math.log(_LB_TAIL)) / omega
    if cut <= 0.0:
        return EvalResult(0.0, METHOD_LOWER_BOUND)

    def integrand(s: float) -> float:
        return math.exp(-omega * s) * x * (s + 1.0) / ((s + 1.0 - ac) * (s + 1.0 + ac) * (s + x))

    knots = sorted(k for k in {x, 1.0 - ac, 1.0 / omega} if 0.0 < k < cut)
    value = adaptive_quad(integrand, 0.0, cut, knots) / math.log(2.0)
    return EvalResult(value, METHOD_LOWER_BOUND)
