"""End-to-end outage probability from its two hop survivals: the exact
integral, the Nakagami lower bound, the Rayleigh (Jensen) upper bound, the
high-RSI asymptote and the half-duplex baselines.  The hops have no public
metric of their own; each end-to-end metric takes them from the private
primitives below.

The exact outage and the lower bound are each the complement of one
end-to-end survival, a function of the rate r bound once per design
(`_exact_survival`, `_bound_survival`): at each r it forms gamma
(`model._rate_constants`, RateTarget's own), both hop thresholds from one
`model._psi_pair`, and the product of the two hops.  `p_e2e_exact` and
`e2e_lb_value` evaluate it at the target rate, and the ergodic integrals
(`ergodic`) integrate the same functions over r.

Both hops reduce to one expectation, a Gamma-faded signal against a
Gamma-faded interferer (`_hop_survival`): the interferer is the residual
self-interference on the first hop of the lower bound (`_sr_hop`) and the
direct S-D copy on the second hop (`_rd_hop`).  It is a short sum of
polynomials in one ratio, with integer rising-factorial coefficients (DLMF
5.2(iii)) tabulated once per interferer shape (`_HOP_POLY`), so an
evaluation calls no Gamma function or binomial.  `_hop_survival` binds
everything but the threshold once and returns the survival as a function of
it.  That function works elementwise on arrays, so `e2e_lb_value` evaluates
the lower bound over a whole design grid at once, and the bound survival
binds both hops once per design and pays only for the polynomials at each
rate node.  It is the library's only closed-form Gamma survival: at
load 0 it is Q(m, u), and the high-RSI limit `asymptotic_k` and the
half-duplex baselines take their Q factors from it (`_zero_load_survivals`).
Its Poisson weights carry e^-u and its interferer factor is (1/t)^m_i, so
floats and arrays share one underflow rule: the survival is 0 where either
underflows, also where the threshold overflows a double.

The exact first hop and the MRC baseline below are both a Gamma mixture
E_X[Q(m, h(X))], with one quadrature, `_gamma_mixture`, over the part of the
axis where the integrand lives; the first hop adds knots where its mass can
sit far below the RSI scale.  The first hop is bound once per (design,
rate): `_sr_survival_exact` takes gamma and psi_r(c_x), from the exact
survival's one `model._psi_pair`, fixes its cut, knots and scale, and at
each RSI-gain node forms the threshold from one more `_psi_pair`, with no
`RateTarget` and no range check; like every survival here, it is clamped
at 1.  Every quadrature in the library, here and in
`ergodic`, goes through `adaptive_quad`: QUADPACK's 21-point Gauss-Kronrod
rule and error estimate (QK21, Piessens et al., 1983), bisecting the
subinterval with the largest error until the summed error meets the fixed
tolerances `QUAD_*`, always over a finite domain.  It is written in `math`, like the scalar branches of
the hop survivals and of the rate-threshold maps its integrands call, so no
evaluation on this path creates a NumPy scalar and the library does not
import SciPy.

The parameter types hold Python floats (`model`), and every outage function
takes its `math` formula on them, so an evaluation at one point never loads
NumPy (bound lazily, see `_lazy`); only array arguments do.  The high-RSI
limit `asymptotic_k` holds for every shape: it is the first-hop Q at its
RSI-free threshold times the second-hop survival at c_x = 1.

The half-duplex decode-and-forward baselines (Laneman, Tse and Wornell,
2004) are deterministic too: without combining (`p_hdr_mhdf`) the outage is
a product of two Q values, and with maximum-ratio combining (`p_hdr_mrc`)
the second one becomes the survival of a sum of two Gamma gains, a Gamma
mixture over the part of [0, gamma] where its integrand lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from sys import float_info
from typing import Callable, Sequence

from ._lazy import np
from .model import (
    _SUPPORTED_SHAPES,
    LinkStat,
    RateTarget,
    SignalParams,
    SystemParams,
    _psi_pair,
    _rate_constants,
    _scalar_or_array,
    _unit_interval,
    psi_r,
    psi_ratio_limit,
)
from .specfun import log_upper_incomplete_gamma_int

__all__ = [
    "EvalResult",
    "QuadratureError",
    "p_e2e_exact",
    "p_e2e_lb",
    "p_e2e_rayleigh_ub",
    "asymptotic_k",
    "p_hdr_mhdf",
    "p_hdr_mrc",
    "throughput",
    "e2e_lb_value",
    "e2e_rayleigh_ub_value",
    "adaptive_quad",
]


# Tolerances and subdivision limit of every adaptive quadrature in the library.
QUAD_REL_TOL = 1e-10
QUAD_ABS_TOL = 1e-12
QUAD_LIMIT = 200

METHOD_EXACT_INTEGRAL = "exact-integral"
METHOD_LOWER_BOUND = "lower-bound"
METHOD_UPPER_BOUND = "upper-bound"
METHOD_CLOSED_FORM = "closed-form-exact"

_METHODS = {
    METHOD_EXACT_INTEGRAL,
    METHOD_LOWER_BOUND,
    METHOD_UPPER_BOUND,
    METHOD_CLOSED_FORM,
}


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class EvalResult:
    """A metric value tagged with the method that produced it."""

    value: float
    method: str

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")


# QUADPACK's QK21 rule on [-1, 1]: the positive Kronrod abscissae (those at
# odd indices, counting from 0, are the 10-point Gauss abscissae), their
# Kronrod weights, the centre weight, and the Gauss weights.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980223048,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPMACH = float_info.epsilon
_UFLOW = float_info.min


def _qk21(f: Callable[[float], float], a: float, b: float):
    """QK21 on [a, b]: (Kronrod estimate, error estimate, resasc), where
    resasc approximates the integral of |f - mean f| and flags a constant
    integrand, as in QUADPACK."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(centre)
    res_g = 0.0
    res_k = _WGK_CENTRE * fc
    res_abs = abs(res_k)
    pairs = [None] * 10
    # the Gauss abscissae first, then the Kronrod-only ones, as in QUADPACK
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = half * _XGK[j]
        f1 = f(centre - absc)
        f2 = f(centre + absc)
        pairs[j] = (f1, f2)
        f_sum = f1 + f2
        if j & 1:
            res_g += _WG[j >> 1] * f_sum
        res_k += _WGK[j] * f_sum
        res_abs += _WGK[j] * (abs(f1) + abs(f2))
    mean = 0.5 * res_k
    res_asc = _WGK_CENTRE * abs(fc - mean)
    for j, (f1, f2) in enumerate(pairs):
        res_asc += _WGK[j] * (abs(f1 - mean) + abs(f2 - mean))
    width = abs(half)
    result = res_k * half
    res_abs *= width
    res_asc *= width
    err = abs((res_k - res_g) * half)
    if res_asc != 0.0 and err != 0.0:
        err = res_asc * min(1.0, (200.0 * err / res_asc) ** 1.5)
    if res_abs > _UFLOW / (50.0 * _EPMACH):
        err = max(50.0 * _EPMACH * res_abs, err)
    if not (math.isfinite(result) and math.isfinite(err)):
        raise QuadratureError(f"non-finite integrand value on [{a!r}, {b!r}]")
    return result, err, res_asc


def adaptive_quad(
    f: Callable[[float], float],
    a: float,
    b: float,
    breaks: Sequence[float] = (),
    panels: list | None = None,
) -> float:
    """Integrate f over [a, b] to the tolerances QUAD_*.

    Starts from one QK21 estimate on each panel between a, the break points
    `breaks` (increasing, inside (a, b)) and b, and bisects the panel with
    the largest error estimate until the summed error is at most
    max(QUAD_ABS_TOL, QUAD_REL_TOL |integral|), with at most QUAD_LIMIT
    panels.  The bookkeeping follows QUADPACK's QAGS (QAGP with break
    points) without its extrapolation step, so a smooth integrand on one
    panel gets the same nodes, and the same value to rounding, as
    `scipy.integrate.quad`.  As there, a first estimate whose error equals
    its resasc is not trusted: the start does not end on it, and its panel
    carries the whole first error until it is bisected.  If `panels` is a
    list, it receives the final panel edges, a to b in increasing order.
    Raises QuadratureError at the panel limit or on a non-finite value.
    """
    edges = (a, *breaks, b)
    # panels [lo, hi] with their estimates, in QUADPACK's storage order
    lo, hi, areas, errs, suspect = list(edges[:-1]), list(edges[1:]), [], [], []
    area = err_sum = 0.0
    for a1, b1 in zip(lo, hi):
        area1, err1, res_asc = _qk21(f, a1, b1)
        areas.append(area1)
        errs.append(err1)
        suspect.append(err1 == res_asc != 0.0)
        area += area1
        err_sum += err1
    if any(suspect) or err_sum > max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(area)):
        errs = [err_sum if s else e for s, e in zip(suspect, errs)]
        err_sum = 0.0
        for e in errs:
            err_sum += e
        for _ in range(QUAD_LIMIT - len(lo)):
            k = max(range(len(errs)), key=errs.__getitem__)
            a1, b2 = lo[k], hi[k]
            mid = 0.5 * (a1 + b2)
            area1, err1, _ = _qk21(f, a1, mid)
            area2, err2, _ = _qk21(f, mid, b2)
            err_sum += err1 + err2 - errs[k]
            area += area1 + area2 - areas[k]
            # the half with the larger error keeps slot k
            if err2 > err1:
                lo[k], areas[k], errs[k] = mid, area2, err2
                lo.append(a1)
                hi.append(mid)
                areas.append(area1)
                errs.append(err1)
            else:
                hi[k], areas[k], errs[k] = mid, area1, err1
                lo.append(mid)
                hi.append(b2)
                areas.append(area2)
                errs.append(err2)
            if err_sum <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(area)):
                break
        else:
            raise QuadratureError(
                f"adaptive quadrature on [{a!r}, {b!r}] did not converge in {QUAD_LIMIT} "
                f"subintervals (value={area:.6g}, err={err_sum:.6g})"
            )
        # a plain running sum, as in QUADPACK (sum() compensates from Python 3.12)
        area = 0.0
        for value in areas:
            area += value
    if panels is not None:
        panels[:] = [*sorted(lo), b]
    return area


# A Gamma(m, theta) gain exceeds theta (m + _TAIL_SPAN) with probability
# below 1e-23 for every supported m.
_TAIL_SPAN = 60.0


def _gamma_mixture(m_x: int, th_x: float, m_q: int, arg: Callable[[float], float], edges) -> float:
    """int f_X(x) Q(m_q, arg(x)) dx over [edges[0], edges[-1]] for X ~ Gamma(m_x, th_x),
    one `adaptive_quad` per piece between consecutive edges, which the caller
    picks: the domain where the integrand lives, and knots where its mass may
    hide from QK21's nodes.  The density and Q are combined in the log domain."""
    log_norm = math.lgamma(m_x) + m_x * math.log(th_x) + math.lgamma(m_q)

    def integrand(x: float) -> float:
        log_f = (m_x - 1.0) * math.log(x) - x / th_x - log_norm
        log_f += log_upper_incomplete_gamma_int(m_q, arg(x))
        return math.exp(log_f)

    return sum(adaptive_quad(integrand, a, b) for a, b in zip(edges, edges[1:]))


def _sr_survival_exact(sys: SystemParams, sig: SignalParams, gamma: float, psi: float) -> float:
    """E_{g_rr}{ Q(m_sr, w(g_rr)) } at the rate whose gamma is `gamma`, with
    psi = psi_r(c_x): a `_gamma_mixture` over the part of the g-axis where
    its integrand lives.  The first-hop outage event is {g_sr < theta_sr w(g)},

        w(g) = (p_r g + 1) / (p_s theta_sr) * psi_r(p_r g c_x / (p_r g + 1)).

    psi_r falls as its argument rises, so w(g) >= s (p_r g + 1) with
    s = psi / (p_s theta_sr): past g_q = ((m_sr + 60) / s - 1) / p_r,
    Q is below 1e-23, so the domain is [0, min(theta_rr (m_rr + 60), g_q)],
    and the survival is 0 if g_q <= 0.  Knots at 1/p_r (where the loading
    saturates), at theta_rr, where the bound on w reaches m_sr, and on a x16
    ladder from 16/p_r up to theta_rr let QK21 see mass at g << theta_rr,
    which a domain mapped at one scale can miss while reporting convergence.
    All of this is fixed once per call; each node forms w(g) from one
    `_psi_pair`, with no range check.  Rounding in the quadrature can lift
    the sum a few ulp above 1 where the first hop is sure to decode, so it
    is clamped at 1, as `_hop_survival` is.
    """
    m_sr, m_rr, th_rr, p_r, c_x = sys.sr.m, sys.rr.m, sys.rr.theta, sig.p_r, sig.c_x
    scale = sys.p_s * sys.sr.theta
    s = psi / scale
    if s >= m_sr + _TAIL_SPAN:
        return 0.0
    hi = th_rr * (m_rr + _TAIL_SPAN)
    knots = {1.0 / p_r, th_rr}
    if s > 0.0:  # at c_x = 1, s = 0 and w stays bounded
        hi = min(hi, ((m_sr + _TAIL_SPAN) / s - 1.0) / p_r)
        knots.add((m_sr / s - 1.0) / p_r)
    rung = 16.0 / p_r
    while rung < th_rr:
        knots.add(rung)
        rung *= 16.0
    edges = [0.0, *sorted(k for k in knots if 0.0 < k < hi), hi]

    def exponent(g: float) -> float:
        loading = p_r * g
        return (loading + 1.0) / scale * _psi_pair(gamma, loading * c_x / (loading + 1.0))[0]

    return min(1.0, _gamma_mixture(m_rr, th_rr, m_sr, exponent, edges))


# Coefficients of P_m(z) = sum_{k<=m} C(m, k) (m_i)_k z^k for interferer
# shapes m_i and signal terms 1 <= m < max shape (P_0 = 1), highest power
# first for Horner's rule, each row split into (leading coefficient, the rest).
_HOP_POLY = {
    m_i: tuple(
        (row[0], row[1:])
        for row in (
            tuple(float(math.comb(m, k) * math.perm(m_i + k - 1, k)) for k in range(m, -1, -1))
            for m in range(1, max(_SUPPORTED_SHAPES))
        )
    )
    for m_i in _SUPPORTED_SHAPES
}


# e^-u is 0 in double precision past u ~ 745.2, so a threshold capped here
# gives the same survival, 0, as any larger one, an overflowed u = inf included.
_U_CAP = 1e3


def _hop_survival(m_sig: int, load, interferer: LinkStat, scale):
    """The hop survival as a function of v, with everything else bound once:
    v -> E_g[Q(m_sig, u (1 + load g))] at u = v / scale, for
    g ~ Gamma(m_i, theta_i), the interferer's shape and scale.  It works
    elementwise over arrays; a float u with a float load takes the same
    formula in `math`.  At load 0 it is Q(m_sig, u), the library's one
    closed-form Gamma survival.

    Q(m, y) = e^-y sum_{m'<m} y^m' / m'!, so after a binomial expansion of
    (1 + load g)^m' every term is a Gamma moment E[g^k e^{-u load g}], and

        E = (1/t)^m_i sum_{m<m_sig} (e^-u u^m / m!) P_m(z),
        t = 1 + theta_i load u,  z = theta_i load / t,
        P_m(z) = sum_{k<=m} C(m, k) (m_i)_k z^k,

    with the rising factorial (m_i)_k = Gamma(m_i + k) / Gamma(m_i) (DLMF
    5.2(iii)).  Every term is positive, and P_m takes its integer
    coefficients from `_HOP_POLY` by Horner's rule.  Bound are theta_i load,
    the coefficient rows, m_i and the scale, so a quadrature over the rate
    pays only for the polynomials at each node.

    One underflow rule serves floats and arrays: e^-u rides in the Poisson
    weights and t enters as (1/t)^m_i, so where either underflows the
    survival is 0, with no sum or power to overflow on the way.  That holds
    at u = inf too, where the weights would read 0 * inf = nan (which min()
    would turn into 1): a float returns 0 where e^-u is 0 before the sum,
    and an array caps v at `_U_CAP` * scale before the divide, so u stays
    finite where v / scale would overflow, and e^-u past the cap is already 0.
    """
    m_i = interferer.m
    x = interferer.theta * load
    rows = _HOP_POLY[m_i][: m_sig - 1]
    floats = type(x) is float and type(scale) is float
    v_cap = _U_CAP * scale

    def survival(v):
        scalar = floats and type(v) is float
        if scalar:
            u = v / scale
            term = math.exp(-u)  # e^-u u^m / m!
            if not term:
                return 0.0
        else:
            u = np.minimum(v, v_cap) / scale
            term = np.exp(-u)
        t = 1.0 + x * u
        z = x / t
        total = term  # P_0 = 1
        for m, (poly, coeffs) in enumerate(rows, 1):
            term = term * u / m
            for c in coeffs:
                poly = poly * z + c
            total = total + term * poly
        # rounding lifts the sum up to a few ulp above 1 as u -> 0; a survival
        # cannot exceed 1
        if scalar:
            return min(1.0, total * (1.0 / t) ** m_i)
        # np.power, not **: a NumPy scalar's ** (C pow) can differ from the array loop
        return _scalar_or_array(np.minimum(1.0, total * np.power(1.0 / t, m_i)))

    return survival


def _sr_hop(sys: SystemParams, p_r):
    """The first-hop survival of the lower bound as a function of psi_r(c_x):
    the RSI gain is the interferer, loaded by p_r."""
    return _hop_survival(sys.sr.m, p_r, sys.rr, sys.p_s * sys.sr.theta)


def _rd_hop(sys: SystemParams, p_r):
    """The second-hop survival as a function of psi_ratio_limit(c_x): the
    direct S-D copy is the interferer, loaded by p_s."""
    return _hop_survival(sys.rd.m, sys.p_s, sys.sd, p_r * sys.rd.theta)


def _bound_survival(sys: SystemParams, p_r, c_x) -> Callable:
    """The survival 1 - P_lb(r) of the end-to-end outage lower bound as a
    function of the rate r, with both hops bound once for the design
    (`_sr_hop`, `_rd_hop`); p_r and c_x are floats or arrays, c_x already in
    [0, 1].  At each r it forms gamma (`_rate_constants`, RateTarget's own,
    which raises as RateTarget does), both hop thresholds from one
    `_psi_pair`, and the two hop polynomials."""
    first, second = _sr_hop(sys, p_r), _rd_hop(sys, p_r)

    def survival(r):
        psi, ratio = _psi_pair(_rate_constants(r)[1], c_x)
        return first(psi) * second(ratio)

    return survival


def _exact_survival(sys: SystemParams, sig: SignalParams) -> Callable[[float], float]:
    """The exact end-to-end survival (1 - P_sr(r)) (1 - P_rd(r)) as a float
    function of the rate r, with the second hop bound once for the design:
    at each r, gamma from `_rate_constants`, both hop thresholds from one
    `_psi_pair`, then the exact first hop at (gamma, psi_r(c_x)) times the
    second hop."""
    second, c_x = _rd_hop(sys, sig.p_r), sig.c_x

    def survival(r: float) -> float:
        gamma = _rate_constants(r)[1]
        psi, ratio = _psi_pair(gamma, c_x)
        return _sr_survival_exact(sys, sig, gamma, psi) * second(ratio)

    return survival


def p_e2e_exact(sys: SystemParams, sig: SignalParams, target: RateTarget) -> EvalResult:
    """Exact end-to-end outage: 1 - (1 - P_sr)(1 - P_rd), the exact
    survival (`_exact_survival`) at target.r."""
    sys.check_signal(sig)
    return EvalResult(1.0 - _exact_survival(sys, sig)(target.r), METHOD_EXACT_INTEGRAL)


def e2e_lb_value(sys: SystemParams, target: RateTarget, p_r, c_x):
    """Closed-form end-to-end outage lower bound, vectorized over (p_r, c_x):
    1 - (first-hop bound survival)(second-hop survival), the bound survival
    (`_bound_survival`) at target.r."""
    return 1.0 - _bound_survival(sys, p_r, _unit_interval(c_x, "c_x"))(target.r)


def p_e2e_lb(sys: SystemParams, sig: SignalParams, target: RateTarget) -> EvalResult:
    """Closed-form end-to-end lower bound; exact at c_x = 0."""
    sys.check_signal(sig)
    return EvalResult(e2e_lb_value(sys, target, sig.p_r, sig.c_x), METHOD_LOWER_BOUND)


def _rayleigh_ub_parts(sys: SystemParams, target: RateTarget, p_r, c_x, exp):
    """Pieces of the Rayleigh survival bound exp(-(u + v)) / (d u + 1),
    vectorized over (p_r, c_x), with the exponential `exp` the caller picks:
    `math.exp` on floats, `np.exp` on arrays.

    u = psi_ratio_limit(c_x) / (p_r pi_rd) is the second-hop exponent and
    v = w psi_r(y) the Jensen first-hop exponent, with
    w = (p_r pi_rr + 1) / (p_s pi_sr), y = alpha(p_r) c_x and d = p_s pi_sd.
    Returns (u, v, w, y, d, survival).
    """
    u = psi_ratio_limit(target, c_x) / (p_r * sys.rd.pi)
    beta = p_r * sys.rr.pi
    w = (beta + 1.0) / (sys.p_s * sys.sr.pi)
    y = beta / (beta + 1.0) * c_x
    v = w * psi_r(target, y)
    d = sys.p_s * sys.sd.pi
    survival = exp(-(u + v)) / (d * u + 1.0)
    return u, v, w, y, d, survival


def e2e_rayleigh_ub_value(sys: SystemParams, target: RateTarget, p_r, c_x):
    """Rayleigh end-to-end outage upper bound, vectorized over (p_r, c_x).

    Two Python floats take the same formula in `math`, anything else NumPy.
    """
    if not sys.all_rayleigh:
        raise ValueError("the Rayleigh upper bound requires all shapes equal to 1")
    if type(p_r) is float and type(c_x) is float:
        return 1.0 - _rayleigh_ub_parts(sys, target, p_r, c_x, math.exp)[-1]
    p_r = np.asarray(p_r, dtype=float)
    c_x = np.asarray(c_x, dtype=float)
    return _scalar_or_array(1.0 - _rayleigh_ub_parts(sys, target, p_r, c_x, np.exp)[-1])


def p_e2e_rayleigh_ub(sys: SystemParams, sig: SignalParams, target: RateTarget) -> EvalResult:
    """Closed-form Rayleigh end-to-end upper bound."""
    sys.check_signal(sig)
    return EvalResult(e2e_rayleigh_ub_value(sys, target, sig.p_r, sig.c_x), METHOD_UPPER_BOUND)


def _zero_load_survivals(sys: SystemParams, gamma: float) -> tuple[float, float]:
    """(Q(m_sr, gamma / (p_s theta_sr)), Q(m_rd, gamma / (p_max theta_rd))):
    the S-R hop without RSI and the R-D hop at p_max without the direct copy,
    each `_hop_survival` at load 0."""
    return _sr_hop(sys, 0.0)(gamma), _hop_survival(sys.rd.m, 0.0, sys.sd, sys.p_max * sys.rd.theta)(gamma)


def asymptotic_k(sys: SystemParams, target: RateTarget) -> float:
    """High-RSI limit K of the maximally improper (c_x = 1) outage, with the
    relay transmitting at p_max, for every shape:

        K = 1 - Q(m_sr, gamma / (p_s theta_sr)) * (second-hop survival at c_x = 1).

    At c_x = 1 the first-hop threshold rises with the RSI gain towards
    gamma / (p_s theta_sr), so K is the pi_rr -> inf limit of the exact
    outage and an upper bound on it at every pi_rr.
    """
    first, _ = _zero_load_survivals(sys, target.gamma)
    return 1.0 - first * _rd_hop(sys, sys.p_max)(psi_ratio_limit(target, 1.0))


def _combined_survival(sys: SystemParams, gamma: float) -> float:
    """P(X + Y >= gamma) for the half-duplex second stage, X = p_max g_rd ~
    Gamma(m_x, th_x) and Y = p_s g_sd ~ Gamma(m_y, th_y):

        Q(m_x, gamma / th_x) + int_0^gamma f_X(x) Q(m_y, (gamma - x) / th_y) dx.

    The integral is the probability that Y lifts a short X over gamma, so it
    is nonnegative, and the sum is never below the survival of X alone.  It
    runs over the part of [0, gamma] where both factors can matter,
    [gamma - th_y (m_y + 60), th_x (m_x + 60)]: a fixed [0, gamma] lets QK21
    miss mass confined to a sliver of it and still report convergence.  The
    two tails left out hold less than 1e-20.
    """
    m_x, th_x, m_y, th_y = sys.rd.m, sys.p_max * sys.rd.theta, sys.sd.m, sys.p_s * sys.sd.theta
    _, base = _zero_load_survivals(sys, gamma)
    lo = max(0.0, gamma - th_y * (m_y + _TAIL_SPAN))
    hi = min(gamma, th_x * (m_x + _TAIL_SPAN))
    if lo >= hi:
        return base
    return min(1.0, base + _gamma_mixture(m_x, th_x, m_y, lambda x: (gamma - x) / th_y, (lo, hi)))


def p_hdr_mhdf(sys: SystemParams, target: RateTarget) -> EvalResult:
    """Outage of half-duplex decode-and-forward without combining (MHDF),
    in closed form.

    Each hop has half the block, so it must carry rate 2r: an SNR of at least
    gamma = 2^{2r} - 1.  The relay sends at p_max and has no
    self-interference, so

        P = 1 - Q(m_sr, gamma / (p_s theta_sr)) Q(m_rd, gamma / (p_max theta_rd)).
    """
    first, second = _zero_load_survivals(sys, target.gamma)
    return EvalResult(1.0 - first * second, METHOD_CLOSED_FORM)


def p_hdr_mrc(sys: SystemParams, target: RateTarget) -> EvalResult:
    """Outage of half-duplex decode-and-forward with maximum-ratio combining
    of the direct copy: as `p_hdr_mhdf`, with the second-hop survival
    replaced by P(p_max g_rd + p_s g_sd >= gamma), one quadrature.  It is
    never above the MHDF outage."""
    first, _ = _zero_load_survivals(sys, target.gamma)
    return EvalResult(1.0 - first * _combined_survival(sys, target.gamma), METHOD_EXACT_INTEGRAL)


def throughput(target: RateTarget, p_out: float) -> float:
    """Fixed-rate throughput r (1 - P_out)."""
    if not 0.0 <= p_out <= 1.0:
        raise ValueError(f"p_out must lie in [0, 1], got {p_out}")
    return target.r * (1.0 - p_out)
