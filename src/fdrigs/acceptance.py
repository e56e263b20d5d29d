"""Self-validation suite: every release-gating property of the analytics,
checked against independent oracles (adaptive quadrature, Monte Carlo,
finite differences, grid search).

Each criterion returns a CriterionResult; `run_all` executes the full gate.
The same functions back both the test suite and the `validate` CLI command.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from . import ergodic, montecarlo, optimize, outage, specfun
from ._lazy import np
from .model import LinkStat, RateTarget, SignalParams, SystemParams
from .montecarlo import McConfig

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: List[str] = field(default_factory=list)

    def add(self, ok: bool, message: str) -> None:
        self.passed = self.passed and ok
        self.details.append(("PASS " if ok else "FAIL ") + message)


def _table1(
    m: int = 1,
    pi_rr: float = 10.0,
    pi_sd: float = 2.0,
    p_max: float = 1.0,
    shapes: Optional[Tuple[int, int, int, int]] = None,
) -> SystemParams:
    """Default simulation scenario: 20 dB hops, 10 dB self-interference,
    ~3 dB direct link, unit powers.  Shapes default to (m, m, 1, 1) for
    (sr, rd, rr, sd)."""
    m_sr, m_rd, m_rr, m_sd = shapes or (m, m, 1, 1)
    return SystemParams(
        sr=LinkStat(m_sr, 100.0),
        rd=LinkStat(m_rd, 100.0),
        rr=LinkStat(m_rr, pi_rr),
        sd=LinkStat(m_sd, pi_sd),
        p_s=1.0,
        p_max=p_max,
    )


_TARGET = RateTarget(1.0)

# Frozen reference: exact proper-signaling outage of the default scenario,
# derived independently from the closed form below and pinned here.
_PGS_ANCHOR = 0.12638264411162647


def _pgs_closed_form(sys: SystemParams, target: RateTarget, p_r: float) -> float:
    """Independent expression of the exact proper Rayleigh outage."""
    eta = target.eta
    u = eta / (sys.p_s * sys.sr.pi)
    phi = eta / (p_r * sys.rd.pi)
    return 1.0 - math.exp(-u - phi) / (
        (1.0 + p_r * sys.rr.pi * u) * (1.0 + sys.p_s * sys.sd.pi * phi)
    )


def _random_rayleigh(rng) -> SystemParams:
    return SystemParams(
        sr=LinkStat(1, 10 ** rng.uniform(0.5, 2.5)),
        rd=LinkStat(1, 10 ** rng.uniform(0.5, 2.5)),
        rr=LinkStat(1, 10 ** rng.uniform(-0.5, 1.8)),
        sd=LinkStat(1, 10 ** rng.uniform(-0.5, 1.0)),
        p_s=1.0,
        p_max=10 ** rng.uniform(0.0, 1.0),
    )


def criterion_1_closed_form_anchor() -> CriterionResult:
    """Proper-signaling closed form: bound, direct formula, pinned value,
    and the Monte Carlo oracle must all coincide."""
    res = CriterionResult("closed-form anchor (proper Rayleigh)", True)
    sys = _table1()
    sig = SignalParams(1.0, 0.0)
    lb = outage.p_e2e_lb(sys, sig, _TARGET).value
    direct = _pgs_closed_form(sys, _TARGET, 1.0)
    res.add(abs(lb - direct) <= 1e-9, f"bound vs direct closed form: |{lb:.12f} - {direct:.12f}| <= 1e-9")
    res.add(abs(lb - _PGS_ANCHOR) <= 1e-9, f"pinned value: |{lb:.12f} - {_PGS_ANCHOR:.12f}| <= 1e-9")
    est = montecarlo.estimate_outage(sys, sig, _TARGET, McConfig(10**6, 11))
    z = abs(est.mean - lb) / est.stderr
    res.add(z <= 3.0, f"Monte Carlo at 1e6 samples: |z| = {z:.2f} <= 3")
    return res


def criterion_2_oracle_agreement() -> CriterionResult:
    """Exact outage vs Monte Carlo on a (p_r, c_x, shape) grid."""
    res = CriterionResult("Monte Carlo oracle agreement", True)
    worst = 0.0
    for m in (1, 2):
        sys = _table1(m=m)
        for p_r in np.linspace(0.2, 1.0, 5):
            for c_x in np.linspace(0.0, 1.0, 5):
                sig = SignalParams(p_r, c_x)
                exact = outage.p_e2e_exact(sys, sig, _TARGET).value
                est = montecarlo.estimate_outage(sys, sig, _TARGET, McConfig(10**6, 12))
                z = abs(est.mean - exact) / est.stderr
                worst = max(worst, z)
    res.add(worst <= 3.0, f"worst |z| over 50 grid points at 1e6 samples: {worst:.2f} <= 3")
    return res


def criterion_3_bound_ordering() -> CriterionResult:
    """Lower bound <= exact <= upper bound across the Rayleigh design box."""
    res = CriterionResult("outage bound ordering", True)
    sys = _table1()
    min_slack = math.inf
    for p_r in np.linspace(0.05, 1.0, 21):
        for c_x in np.linspace(0.0, 1.0, 21):
            sig = SignalParams(p_r, c_x)
            lb = outage.p_e2e_lb(sys, sig, _TARGET).value
            ex = outage.p_e2e_exact(sys, sig, _TARGET).value
            ub = outage.p_e2e_rayleigh_ub(sys, sig, _TARGET).value
            min_slack = min(min_slack, ex - lb, ub - ex)
    res.add(min_slack >= -1e-9, f"min slack on 21x21 grid: {min_slack:.3e} >= -1e-9")
    return res


def criterion_4_ergodic_ub_consistency() -> CriterionResult:
    """Ergodic upper bound vs quadrature of its defining integral
    int (1 - P_lb(r)) dr, on every shape quadruple.  The oracle is a fixed
    composite Gauss-Legendre rule, 20 panels of 20 nodes on [0, 40]: it
    shares no code with the library's adaptive QK21 or its rate cap."""
    res = CriterionResult("ergodic upper bound self-consistency", True)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    # panel [2k, 2k + 2] has half-width 1, so its nodes are 2k + 1 + x
    rates = [RateTarget(2.0 * k + 1.0 + x) for k in range(20) for x in nodes.tolist()]
    rule_weights = weights.tolist() * 20
    worst = 0.0
    for shapes in itertools.product(range(1, 5), repeat=4):
        sys = _table1(shapes=shapes)
        for c_x in (0.0, 0.5, 0.9):
            sig = SignalParams(1.0, c_x)
            ub = ergodic.r_e2e_ub(sys, sig).value
            ref = math.fsum(
                w * (1.0 - outage.p_e2e_lb(sys, sig, target).value)
                for w, target in zip(rule_weights, rates)
            )
            worst = max(worst, abs(ub - ref))
    res.add(worst <= 1e-6, f"worst |bound - quadrature| over 768 cases: {worst:.3e} <= 1e-6")
    return res


def criterion_5_ergodic_sandwich() -> CriterionResult:
    """Rayleigh lower bound <= Monte Carlo ergodic rate <= upper bound."""
    res = CriterionResult("ergodic-rate sandwich", True)
    sys = _table1()
    for c_x in (0.0, 0.3, 0.6, 0.9):
        sig = SignalParams(1.0, c_x)
        lb = ergodic.r_e2e_rayleigh_lb(sys, sig).value
        ub = ergodic.r_e2e_ub(sys, sig).value
        est = montecarlo.estimate_ergodic(sys, sig, McConfig(10**6, 15))
        lo, hi = est.mean - 3 * est.stderr, est.mean + 3 * est.stderr
        res.add(
            lb <= hi and lo <= ub,
            f"c_x={c_x}: {lb:.4f} <= MC {est.mean:.4f}+-{3 * est.stderr:.4f} <= {ub:.4f}",
        )
    return res


def criterion_6_proper_exactness() -> CriterionResult:
    """At c_x = 0 the outage lower bound and ergodic upper bound are exact."""
    res = CriterionResult("proper-signaling exactness of bounds", True)
    sys = _table1()
    sig = SignalParams(1.0, 0.0)
    d_out = abs(outage.p_e2e_lb(sys, sig, _TARGET).value - outage.p_e2e_exact(sys, sig, _TARGET).value)
    res.add(d_out <= 1e-8, f"outage bound vs quadrature: {d_out:.3e} <= 1e-8")
    d_erg = abs(ergodic.r_e2e_ub(sys, sig).value - ergodic.r_e2e_exact(sys, sig).value)
    res.add(d_erg <= 1e-8, f"ergodic bound vs quadrature: {d_erg:.3e} <= 1e-8")
    return res


def criterion_7_rsi_immunity() -> CriterionResult:
    """Maximally improper signaling saturates at the high-RSI constant while
    proper signaling drives the link into certain outage; off Rayleigh the
    constant bounds the exact outage from above and is its limit."""
    res = CriterionResult("asymptotic RSI immunity", True)
    sys = _table1(pi_rr=1e6)
    k = outage.asymptotic_k(sys, _TARGET)
    ub = outage.p_e2e_rayleigh_ub(sys, SignalParams(1.0, 1.0), _TARGET).value
    res.add(abs(ub - k) <= 1e-3, f"|bound(c_x=1) - K| = {abs(ub - k):.3e} <= 1e-3 (K={k:.6f})")
    sys_m = _table1(pi_rr=1e6, shapes=(2, 2, 3, 2))
    k_m = outage.asymptotic_k(sys_m, _TARGET)
    gap = (k_m - outage.p_e2e_exact(sys_m, SignalParams(1.0, 1.0), _TARGET).value) / k_m
    res.add(
        0.0 <= gap <= 1e-4,
        f"shapes (2,2,3,2): (K - exact(c_x=1)) / K = {gap:.3e} in [0, 1e-4] (K={k_m:.6g})",
    )
    pgs = outage.p_e2e_exact(sys, SignalParams(1.0, 0.0), _TARGET).value
    res.add(pgs >= 0.99, f"proper outage at 60 dB RSI: {pgs:.4f} >= 0.99")
    return res


def _sign_changes(values) -> int:
    signs = np.sign(values)
    signs = signs[signs != 0]
    return int(np.sum(np.diff(signs) != 0))


def criterion_8_unimodality() -> CriterionResult:
    """Analytic derivatives match finite differences and have at most one
    sign change per variable (quasi-convexity certificate)."""
    res = CriterionResult("derivative unimodality certificate", True)
    rng = np.random.default_rng(18)
    fd_fail = sc_fail = 0
    for _ in range(200):
        sys = _random_rayleigh(rng)
        target = RateTarget(rng.uniform(0.3, 2.0))
        p_r = rng.uniform(0.05, 1.0) * sys.p_max
        c_x = rng.uniform(0.02, 0.98)
        h = 1e-6
        d = optimize.ub_derivative_cx(sys, target, p_r, c_x)
        fd = -(
            outage.e2e_rayleigh_ub_value(sys, target, p_r, c_x + h)
            - outage.e2e_rayleigh_ub_value(sys, target, p_r, c_x - h)
        ) / (2 * h)
        if abs(d - fd) > abs(fd) * 1e-3 + 1e-10:
            fd_fail += 1
        hp = 1e-6 * max(1.0, p_r)
        d2 = optimize.ub_derivative_pr(sys, target, p_r, c_x)
        fd2 = (
            outage.e2e_rayleigh_ub_value(sys, target, p_r + hp, c_x)
            - outage.e2e_rayleigh_ub_value(sys, target, p_r - hp, c_x)
        ) / (2 * hp)
        if abs(d2 - fd2) > abs(fd2) * 1e-3 + 1e-10:
            fd_fail += 1
        c_grid = np.linspace(1e-7, 1 - 1e-7, 2001)
        if _sign_changes(optimize.ub_derivative_cx(sys, target, p_r, c_grid)) > 1:
            sc_fail += 1
        p_grid = np.linspace(1e-7 * sys.p_max, sys.p_max, 2001)
        if _sign_changes(optimize.ub_derivative_pr(sys, target, p_grid, c_x)) > 1:
            sc_fail += 1
    res.add(fd_fail == 0, f"finite-difference mismatches: {fd_fail} of 400")
    res.add(sc_fail == 0, f"grids with > 1 derivative sign change: {sc_fail} of 400")
    return res


def criterion_9_solver_agreement() -> CriterionResult:
    """Bisection and coordinate descent vs a fine grid-search oracle."""
    res = CriterionResult("solver vs grid-search agreement", True)
    rng = np.random.default_rng(19)
    grid_n = 1001
    worst = 0.0
    monotone = True
    for _ in range(25):
        sys = _random_rayleigh(rng)
        target = RateTarget(rng.uniform(0.3, 2.0))
        cd = optimize.coordinate_descent(sys, target)
        g2 = optimize.grid_search(sys, target, "outage-ub", grid_n)
        worst = max(worst, abs(cd.objective - g2.objective))
        monotone = monotone and all(np.diff(cd.trace) <= 1e-12)
        p_r = rng.uniform(0.05, 1.0) * sys.p_max
        bc = optimize.bisect_circularity(sys, target, p_r)
        g1 = optimize.grid_search(sys, target, "outage-ub", grid_n, p_r_fixed=p_r)
        worst = max(worst, abs(bc.objective - g1.objective))
        c_x = rng.uniform(0.0, 1.0)
        bp = optimize.bisect_power(sys, target, c_x, objective="ub")
        p_grid = sys.p_max * np.arange(1, grid_n + 1) / grid_n
        vals = outage.e2e_rayleigh_ub_value(sys, target, p_grid, np.full_like(p_grid, c_x))
        worst = max(worst, abs(bp.objective - float(np.min(vals))))
    res.add(worst <= 1e-4, f"worst |solver - grid| objective gap: {worst:.3e} <= 1e-4")
    res.add(monotone, "all coordinate-descent traces nonincreasing")
    return res


def criterion_10_trend_reproduction() -> CriterionResult:
    """Qualitative design trends: RSI immunity of optimized impropriety,
    the max-power breakeven, the throughput crossover regions, and the
    near-optimality of circularity-only optimization."""
    res = CriterionResult("design-trend reproduction", True)

    # (a) optimized impropriety is insensitive to strong RSI; the proper
    # baseline keeps degrading.
    igs_vals, pgs_vals = [], []
    for db in (25, 30, 35):
        sys = _table1(pi_rr=10 ** (db / 10))
        cd = optimize.coordinate_descent(sys, _TARGET)
        igs_vals.append(
            outage.p_e2e_exact(sys, SignalParams(cd.p_r_star, min(cd.c_x_star, 1.0)), _TARGET).value
        )
        pgs_vals.append(optimize.bisect_power(sys, _TARGET, 0.0).objective)
    rel_var = abs(igs_vals[-1] - igs_vals[0]) / igs_vals[0]
    res.add(rel_var < 0.05, f"(a) optimized-improper variation 25->35 dB RSI: {rel_var:.3%} < 5%")
    res.add(
        pgs_vals[0] < pgs_vals[1] < pgs_vals[2],
        f"(a) proper baseline strictly degrades: {pgs_vals[0]:.4f} < {pgs_vals[1]:.4f} < {pgs_vals[2]:.4f}",
    )

    # (b) max-power proper allocation has an interior breakeven; the jointly
    # optimized improper design never loses from extra headroom.  Link powers
    # chosen so the breakeven lies inside the sweep despite p_s <= p_max.
    p_maxes = np.linspace(1.0, 6.0, 21)
    mpa, igs2 = [], []
    for pm in p_maxes:
        sys = SystemParams(
            sr=LinkStat(1, 100.0), rd=LinkStat(1, 25.0), rr=LinkStat(1, 1.0),
            sd=LinkStat(1, 2.0), p_s=1.0, p_max=pm,
        )
        mpa.append(_pgs_closed_form(sys, _TARGET, sys.p_max))
        igs2.append(optimize.coordinate_descent(sys, _TARGET).objective)
    i_min = int(np.argmin(mpa))
    res.add(
        0 < i_min < len(p_maxes) - 1,
        f"(b) max-power proper outage has interior minimum at p_max={p_maxes[i_min]:.2f}",
    )
    res.add(
        bool(np.all(np.diff(igs2) <= 1e-9)),
        "(b) jointly optimized improper outage nonincreasing in p_max",
    )

    # (c) throughput regions: the rate axis splits into three intervals where
    # a different protocol is strictly best.  Under the half-duplex convention
    # pinned here (each hop supports rate 2r in its half slot) the combining
    # half-duplex scheme wins at low rates, the improper full-duplex design in
    # the middle, and the proper full-duplex design at very high rates.
    sys15 = _table1(pi_rr=10**1.5)

    def throughputs(r: float):
        target = RateTarget(r)
        pgs, igs = optimize.design_optima(sys15, target)
        return tuple(
            outage.throughput(target, p)
            for p in (pgs.objective, igs.objective, outage.p_hdr_mrc(sys15, target).value)
        )

    t_pgs, t_igs, t_hdr = throughputs(1.0)
    res.add(
        t_hdr > t_igs and t_hdr > t_pgs,
        f"(c) half-duplex region exists ({t_hdr:.5g} vs improper {t_igs:.5g}, proper {t_pgs:.5g})",
    )
    t_pgs, t_igs, t_hdr = throughputs(3.0)
    res.add(
        t_igs > t_pgs and t_igs > t_hdr,
        f"(c) improper region exists ({t_igs:.5g} vs proper {t_pgs:.5g}, half-duplex {t_hdr:.5g})",
    )
    t_pgs, t_igs, t_hdr = throughputs(4.5)
    res.add(
        t_pgs > t_igs and t_pgs > t_hdr,
        f"(c) proper region exists ({t_pgs:.5g} vs improper {t_igs:.5g}, half-duplex {t_hdr:.5g})",
    )

    # (d) circularity-only optimization at full power nearly matches the
    # joint search.
    worst_gap = 0.0
    for db in np.linspace(0.0, 15.0, 6):
        sys = _table1(pi_rr=10 ** (db / 10))
        one_d = optimize.bisect_circularity(sys, _TARGET, sys.p_max).objective
        two_d = optimize.coordinate_descent(sys, _TARGET).objective
        worst_gap = max(worst_gap, abs(one_d - two_d))
    res.add(worst_gap < 5e-3, f"(d) 1D-vs-2D optimization gap: {worst_gap:.3e} < 5e-3")
    return res


# log Gamma(a, x) for a = 1..4, computed with mpmath at 40 digits.
_LOG_UPPER_GAMMA = {
    0.0: (0.0, 0.0, 0.6931471805599453, 1.791759469228055),
    1e-3: (-0.001, -4.996669164668332e-07, 0.6931471803934036, 1.7917594692280134),
    1.0: (-1.0, -0.3068528194400547, 0.6094379124341004, 1.7725887222397811),
    30.0: (-30.0, -26.566012795514855, -23.130985549334294, -19.69485457769866),
    1e3: (-1000.0, -993.0912452206848, -986.1824894433671, -979.2737326660558),
    1e6: (-1000000.0, -999986.184488442, -999972.368976884, -999958.5534653261),
}


def criterion_11_special_functions() -> CriterionResult:
    """log Gamma(a, x), the special function behind every first-hop
    survival, against high-precision values."""
    res = CriterionResult("special-function suite", True)
    errs = [
        abs(specfun.log_upper_incomplete_gamma_int(a, x) - ref) / max(1.0, abs(ref))
        for x, refs in _LOG_UPPER_GAMMA.items()
        for a, ref in enumerate(refs, start=1)
    ]
    res.add(
        all(e <= 1e-13 for e in errs),
        f"worst |error| / max(1, |log Gamma(a, x)|) on {len(errs)} points: {max(errs):.3e} <= 1e-13",
    )
    tail = specfun.log_upper_incomplete_gamma_int(3, 1e6)
    res.add(math.isfinite(tail), f"log-domain tail finite at x=1e6: {tail:.6g}")
    return res


def convexity_witness(
    sys: SystemParams, sig: SignalParams, target: RateTarget, g_rr: float
) -> float:
    """Second derivative in g_rr of the first-hop exponent
    sqrt(A g^2 + B g + C) - (D g + F); <= 0 everywhere.  The linear part
    drops out, so only A, B and C are formed."""
    if g_rr < 0:
        raise ValueError("g_rr must be nonnegative")
    ps2 = (sys.p_s * sys.sr.pi) ** 2
    g1 = 1.0 + target.gamma
    a = sig.p_r**2 * (1.0 + target.gamma * (1.0 - sig.c_x**2)) / ps2
    b = 2.0 * g1 * sig.p_r / ps2
    c = g1 / ps2
    return (4.0 * a * c - b * b) / (4.0 * (c + g_rr * (b + a * g_rr)) ** 1.5)


def criterion_12_convexity() -> CriterionResult:
    """The first-hop decoding exponent is concave in the self-interference
    gain: its analytic second derivative stays nonpositive."""
    res = CriterionResult("decoding-exponent concavity witness", True)
    rng = np.random.default_rng(22)
    worst = -math.inf
    for _ in range(20):
        sys = _random_rayleigh(rng)
        target = RateTarget(rng.uniform(0.3, 2.0))
        p_r = rng.uniform(0.05, 1.0) * sys.p_max
        for c_x in np.linspace(0.0, 1.0, 100):
            sig = SignalParams(p_r, c_x)
            for g in np.linspace(0.0, 20.0, 100):
                worst = max(worst, convexity_witness(sys, sig, target, float(g)))
    res.add(worst <= 1e-9, f"max second derivative over grids: {worst:.3e} <= 1e-9")
    return res


CRITERIA: List[Callable[[], CriterionResult]] = [
    criterion_1_closed_form_anchor,
    criterion_2_oracle_agreement,
    criterion_3_bound_ordering,
    criterion_4_ergodic_ub_consistency,
    criterion_5_ergodic_sandwich,
    criterion_6_proper_exactness,
    criterion_7_rsi_immunity,
    criterion_8_unimodality,
    criterion_9_solver_agreement,
    criterion_10_trend_reproduction,
    criterion_11_special_functions,
    criterion_12_convexity,
]


def run_all(report: Optional[Callable[[str], None]] = None) -> List[CriterionResult]:
    """Run every criterion, optionally streaming a textual report."""
    results = []
    for fn in CRITERIA:
        result = fn()
        results.append(result)
        if report is not None:
            status = "PASS" if result.passed else "FAIL"
            report(f"[{status}] {result.name}")
            for line in result.details:
                report(f"    {line}")
    return results
