"""Input pools of the three workloads and the seeded draws from them.

Every pool is finite so that ``gen_refs.py`` can compute a reference for
each element once; a run's ``--seed`` only selects elements.  Draws use the
standard-library ``random.Random`` so the generator and the workload
process agree without depending on NumPy's stream layout.
"""

from __future__ import annotations

import itertools
import random

# Default scenario of the CLI: 20 dB relayed hops, 10 dB self-interference,
# 3 dB direct link, unit powers, p_r = 1, c_x = 0.9, r = 1.
BASE_DB = {"sr": 20.0, "rd": 20.0, "rr": 10.0, "sd": 3.0}
BASE = {"p_s": 1.0, "p_max": 1.0, "p_r": 1.0, "c_x": 0.9, "r": 1.0}
LINKS = ("sr", "rd", "rr", "sd")


def db(x: float) -> float:
    """The CLI's dB conversion, repeated so that reference inputs match bit for bit."""
    return 10.0 ** (x / 10.0)


def axis(start: float, stop: float, points: int, scale: str = "linear"):
    """The CLI's sweep axis formula."""
    values = [start + (stop - start) * i / (points - 1) for i in range(points)]
    return [db(v) for v in values] if scale == "db" else values


def scenario(shapes, pi_db=None, **over):
    """A plain-dict scenario: shapes, linear link powers and signal values."""
    pis = dict(BASE_DB, **(pi_db or {}))
    out = {"m": tuple(shapes), "pi": tuple(db(pis[l]) for l in LINKS)}
    out.update(BASE)
    out.update(over)
    return out


# ---------------------------------------------------------------- sweep
# Outage and throughput columns of `fdrigs sweep` along three axes.  Each
# axis is one figure sweep of 67 points, endpoints included, so a batch
# holds the 201 points of the ROADMAP's figure sweep.  The first-hop
# quadrature's work depends on (m_sr, m_rr) alone, so those are fixed per
# axis and every seed does the same amount of it; the seed draws m_rd and
# m_sd (None below).  The c_x axis is the Rayleigh figure, which also
# has the closed-form upper bound.
SWEEP_POINTS = 67
SWEEP_FREE = (1, 2, 4)
SWEEP_AXES = {
    "c_x": dict(var="c_x", start=0.0, stop=1.0, scale="linear", shapes=(1, 1, 1, 1)),
    "pi_rr": dict(var="pi_rr", start=0.0, stop=30.0, scale="db", shapes=(2, None, 4, None)),
    "p_r": dict(var="p_r", start=0.1, stop=1.0, scale="linear", shapes=(4, None, 2, None)),
}


def sweep_values(axis_name: str):
    ax = SWEEP_AXES[axis_name]
    return axis(ax["start"], ax["stop"], SWEEP_POINTS, ax["scale"])


def sweep_point(shapes, axis_name: str, value: float):
    sc = scenario(shapes)
    if axis_name == "pi_rr":
        sc["pi"] = sc["pi"][:2] + (value,) + sc["pi"][3:]
    else:
        sc[axis_name] = value
    return sc


def sweep_variants(axis_name: str):
    """Every shape quadruple a seed can draw for one axis."""
    fixed = SWEEP_AXES[axis_name]["shapes"]
    free = [SWEEP_FREE if m is None else (m,) for m in fixed]
    return list(itertools.product(*free))


def sweep_draw(seed: int):
    """{axis name: shape quadruple} of one batch."""
    rng = random.Random(f"sweep-{seed}")
    return {name: tuple(rng.choice(SWEEP_FREE) if m is None else m for m in ax["shapes"])
            for name, ax in SWEEP_AXES.items()}


# -------------------------------------------------------------- ergodic
ALL_SHAPES = list(itertools.product((1, 2, 3, 4), repeat=4))
ERGODIC_CX = (0.0, 0.5, 0.9, 1.0 - 1e-6, 1.0)
# Cases the ROADMAP reports as wrong at the seed commit; always in the batch.
ROADMAP_SHAPES = [(4, 4, 4, 4), (3, 3, 4, 4), (3, 4, 3, 1), (4, 4, 1, 1)]
EPS_LADDER = (0.0, 1e-8, 1e-6, 1e-4)
# one r_e2e_exact call, the cheapest (about 2 s), so that r_e2e_ub does most
# of the batch's work
EXACT_SHAPES = [(1, 1, 1, 1)]


# The (m_sr, m_rd) pairs and the (m_rr, m_sd) pairs, each in increasing
# order of the r_e2e_ub time they cost at the seed commit (summed over the
# pool, one process on the 2-core machine of NOTES.md).  The cost of a
# quadruple is roughly a product of the two pairs' costs.
SR_RD_BY_COST = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (1, 4), (2, 3),
                 (4, 1), (3, 2), (2, 4), (4, 2), (3, 3), (3, 4), (4, 3), (4, 4)]
RR_SD_BY_COST = [(2, 1), (3, 1), (2, 2), (4, 1), (3, 2), (1, 1), (2, 3), (1, 2),
                 (1, 3), (3, 3), (4, 2), (2, 4), (1, 4), (3, 4), (4, 3), (4, 4)]


def ergodic_draw(seed: int):
    """A seeded draw of 16 quadruples: every (m_sr, m_rd) pair once and
    every (m_rr, m_sd) pair once.  The k-th block of four in one cost order
    is paired with the k-th block in the other, in a seeded order, so that
    every seed's batch costs about the same: the estimated batch cost
    spreads 3% over 300 seeds (interquartile range over median), against
    6.5% for a free pairing."""
    rng = random.Random(f"ergodic-{seed}")
    out = []
    for k in range(0, 16, 4):
        partners = rng.sample(RR_SD_BY_COST[k:k + 4], 4)
        out += [a + b for a, b in zip(SR_RD_BY_COST[k:k + 4], partners)]
    return out


def eps_point(eps: float):
    """All shapes 2, c_x = 0.9 and pi_sr = pi_rr (1 - c_x)(1 + eps): an SR
    pole of the partial-fraction expansion meets the simple pole -(1 - c_x)."""
    sc = scenario((2, 2, 2, 2))
    pis = list(sc["pi"])
    pis[0] = pis[2] * (1.0 - sc["c_x"]) * (1.0 + eps)
    sc["pi"] = tuple(pis)
    return sc


def rayleigh_lb_degenerate():
    """Rayleigh point where r_e2e_rayleigh_lb's first partial-fraction
    denominator p_r pi_rd (1 - c_x^2) - p_s pi_sd (1 - a c_x) vanishes."""
    sc = scenario((1, 1, 1, 1))
    pi_sr, _, pi_rr, pi_sd = sc["pi"]
    p_r, c_x, p_s = sc["p_r"], sc["c_x"], sc["p_s"]
    a = p_r * pi_rr / (p_r * pi_rr + 1.0)
    pi_rd = p_s * pi_sd * (1.0 - a * c_x) / (p_r * (1.0 - c_x) * (1.0 + c_x))
    sc["pi"] = (pi_sr, pi_rd, pi_rr, pi_sd)
    return sc


def ergodic_cases(seed: int):
    """(key, function name, scenario) for every ergodic output of one batch."""
    cases = []
    for shapes in ROADMAP_SHAPES + ergodic_draw(seed):
        for c_x in ERGODIC_CX:
            key = "ub|%s|%r" % (",".join(map(str, shapes)), c_x)
            cases.append((key, "r_e2e_ub", scenario(shapes, c_x=c_x)))
    for eps in EPS_LADDER:
        cases.append(("ub-eps|%r" % eps, "r_e2e_ub", eps_point(eps)))
    for c_x in ERGODIC_CX:
        cases.append(("rlb|%r" % c_x, "r_e2e_rayleigh_lb", scenario((1, 1, 1, 1), c_x=c_x)))
    cases.append(("rlb-degenerate", "r_e2e_rayleigh_lb", rayleigh_lb_degenerate()))
    for shapes in EXACT_SHAPES:
        key = "exact|%s" % ",".join(map(str, shapes))
        cases.append((key, "r_e2e_exact", scenario(shapes)))
    return cases


def all_ergodic_cases():
    """Every ergodic case any seed can draw (for the reference generator)."""
    seen = {}
    for key, fn, sc in ergodic_cases(0):
        seen[key] = (fn, sc)
    for shapes in ALL_SHAPES:
        for c_x in ERGODIC_CX:
            key = "ub|%s|%r" % (",".join(map(str, shapes)), c_x)
            seen[key] = ("r_e2e_ub", scenario(shapes, c_x=c_x))
    return seen


# --------------------------------------------------------------- design
DESIGN_RAYLEIGH = [
    {"rr": rr, "sd": sd} for rr in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0) for sd in (0.0, 3.0, 6.0)
]
# Non-Rayleigh pool: (m_sr, m_rd) fixed at (2, 2) so the p_e2e_lb cost per
# grid point is the same for every draw, and m_rr + m_sd fixed at 5 so the
# Monte Carlo draws the same number of exponentials; the interferers vary.
DESIGN_OTHER = [
    ((2, 2, m_rr, 5 - m_rr), {"rr": rr}) for m_rr in (1, 2, 3, 4) for rr in (5.0, 10.0, 15.0)
]
DESIGN_RATES = dict(start=0.5, stop=2.5, points=3)


def design_draw(seed: int):
    rng = random.Random(f"design-{seed}")
    return rng.randrange(len(DESIGN_RAYLEIGH)), rng.randrange(len(DESIGN_OTHER))


def design_rayleigh(i: int):
    return scenario((1, 1, 1, 1), DESIGN_RAYLEIGH[i])


def design_other(i: int):
    shapes, pi_db = DESIGN_OTHER[i]
    return scenario(shapes, pi_db)


def rate_axis():
    return axis(DESIGN_RATES["start"], DESIGN_RATES["stop"], DESIGN_RATES["points"])
