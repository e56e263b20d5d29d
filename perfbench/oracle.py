"""Reference values from first principles, independent of fdrigs.

Everything here is derived from the rate definitions of the system model,
not from the library's code: a hop survives when its rate reaches the
target, which bounds a Gamma-distributed signal gain from below by an
affine function of a Gamma-distributed interferer gain.  Expectations are
taken either in closed form (sums of Gamma moments) or with mpmath
quadrature.  Nothing in this module imports fdrigs.

A scenario is the plain dict built by ``inputs.scenario``.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30


def _theta(sc, i):
    return mp.mpf(sc["pi"][i]) / sc["m"][i]


def q_reg(m: int, x):
    """Regularized upper incomplete gamma Q(m, x) for integer m."""
    term = mp.mpf(1)
    total = term
    for j in range(1, m):
        term *= x / j
        total += term
    return mp.exp(-x) * total


def gamma_pdf(m: int, theta, g):
    return g ** (m - 1) * mp.exp(-g / theta) / (mp.factorial(m - 1) * theta**m)


def affine_survival(m: int, u, beta, m_i: int, th_i):
    """E_g[Q(m, u (1 + beta g))] for g ~ Gamma(m_i, th_i), in closed form.

    Q(m, x) = e^-x sum_{j<m} x^j / j!; expanding (1 + beta g)^j binomially
    leaves Gamma moments E[g^k e^{-t g}] = Gamma(m_i + k) / (Gamma(m_i)
    th_i^m_i) (t + 1/th_i)^-(m_i + k) with t = u beta.
    """
    t = u * beta + 1 / th_i
    total = mp.mpf(0)
    for j in range(m):
        inner = mp.mpf(0)
        for k in range(j + 1):
            inner += mp.binomial(j, k) * beta**k * mp.gamma(m_i + k) / t ** (m_i + k)
        total += u**j / mp.factorial(j) * inner
    return mp.exp(-u) * total / (mp.gamma(m_i) * th_i**m_i)


def _gamma_r(r):
    return mp.mpf(2) ** (2 * mp.mpf(r)) - 1


def psi(gam, x):
    """sqrt(1 + gamma (1 - x^2)) - 1."""
    x = mp.mpf(x)
    return mp.sqrt(1 + gam * (1 - x * x)) - 1


def psi_ratio(gam, c):
    """psi / (1 - c^2), continued to gamma / 2 at c = 1."""
    c = mp.mpf(c)
    return gam / (1 + mp.sqrt(1 + gam * (1 - c * c)))


def rd_survival(sc, r):
    """Second hop: the R-D rate reaches r iff
    p_r g_rd >= (p_s g_sd + 1) psi_ratio(c_x)."""
    gam = _gamma_r(r)
    u = psi_ratio(gam, sc["c_x"]) / (sc["p_r"] * _theta(sc, 1))
    return affine_survival(sc["m"][1], u, sc["p_s"], sc["m"][3], _theta(sc, 3))


def sr_survival_lb(sc, r):
    """First hop with the interferer's improperness at its largest (c_x
    itself), which makes the threshold (p_r g_rr + 1) psi(c_x) smallest."""
    gam = _gamma_r(r)
    u = psi(gam, sc["c_x"]) / (sc["p_s"] * _theta(sc, 0))
    return affine_survival(sc["m"][0], u, sc["p_r"], sc["m"][2], _theta(sc, 2))


def sr_survival_exact(sc, r):
    """First hop: with L = p_r g_rr, the S-R rate reaches r iff
    p_s g_sr >= sqrt((1 + gamma)(L + 1)^2 - gamma L^2 c^2) - (L + 1)."""
    gam = _gamma_r(r)
    c = mp.mpf(sc["c_x"])
    m_sr, m_rr = sc["m"][0], sc["m"][2]
    th_sr, th_rr = _theta(sc, 0), _theta(sc, 2)
    p_r, p_s = mp.mpf(sc["p_r"]), mp.mpf(sc["p_s"])

    def f(g):
        load = p_r * g + 1
        y = p_r * g * c
        thr = mp.sqrt((1 + gam) * load * load - gam * y * y) - load
        return gamma_pdf(m_rr, th_rr, g) * q_reg(m_sr, thr / (p_s * th_sr))

    scale = m_rr * th_rr
    return mp.quad(f, [0, scale, 4 * scale, 16 * scale, mp.inf])


def outage_exact(sc):
    return 1 - sr_survival_exact(sc, sc["r"]) * rd_survival(sc, sc["r"])


def outage_lb(sc):
    return 1 - sr_survival_lb(sc, sc["r"]) * rd_survival(sc, sc["r"])


def outage_rayleigh_ub(sc):
    """Rayleigh bound: Jensen on the first-hop exponent at the mean loading
    a = p_r pi_rr / (p_r pi_rr + 1)."""
    gam = _gamma_r(sc["r"])
    pi_sr, _, pi_rr, _ = (mp.mpf(p) for p in sc["pi"])
    p_r = mp.mpf(sc["p_r"])
    a = p_r * pi_rr / (p_r * pi_rr + 1)
    expo = (p_r * pi_rr + 1) / (sc["p_s"] * pi_sr) * psi(gam, a * mp.mpf(sc["c_x"]))
    return 1 - mp.exp(-expo) * rd_survival(sc, sc["r"])


# Survivals fall like exp(-2^(2r) / SNR): with link powers of at most 20 dB
# nothing is left of them at r = 16 bits/s/Hz.
_RATE_BREAKS = [0, 3, 6, 9, 16]


def ergodic_ub(sc):
    """Integral over the target rate of the lower-bound survival."""
    with mp.workdps(18):
        return mp.quad(lambda r: sr_survival_lb(sc, r) * rd_survival(sc, r), _RATE_BREAKS)


def ergodic_exact(sc):
    """Integral over the target rate of the exact survival (nested quadrature)."""
    with mp.workdps(18):
        return mp.quad(lambda r: sr_survival_exact(sc, r) * rd_survival(sc, r), _RATE_BREAKS)


def _rayleigh_lb_formula(sc, pi_rd, c):
    """The closed form of the Rayleigh ergodic lower bound, term by term."""
    pi_sr, _, pi_rr, pi_sd = (mp.mpf(p) for p in sc["pi"])
    p_r, p_s = mp.mpf(sc["p_r"]), mp.mpf(sc["p_s"])
    a = p_r * pi_rr / (p_r * pi_rr + 1)
    prd = p_r * pi_rd * (1 - c * c)
    psd = p_s * pi_sd
    omega = (p_r * pi_rr + 1) / (p_s * pi_sr) + 1 / prd

    def xi1(z):
        return mp.exp(z) * mp.e1(z)

    total = mp.mpf(0)
    for sign in (-1, 1):
        kappa = psd / (2 * (prd - psd * (1 + sign * a * c)))
        total += kappa * xi1((1 + sign * a * c) * omega)
    kappa3 = psd * (psd - prd) / ((prd - psd * (1 - a * c)) * (prd - psd * (1 + a * c)))
    total += kappa3 * xi1(prd / psd * omega)
    return prd / (psd * mp.log(2)) * total


def rayleigh_lb(sc):
    """Rayleigh ergodic-rate lower bound in high precision.

    Where a partial-fraction denominator vanishes the closed form has a
    removable singularity: the value there is the mean of the two sides at
    a relative offset of 1e-25, evaluated with 60 digits.  At c_x = 1 the
    value is the limit c_x -> 1.
    """
    with mp.workdps(60):
        c = mp.mpf(sc["c_x"])
        if c == 1:
            c = 1 - mp.mpf(10) ** -30
        pi_rd = mp.mpf(sc["pi"][1])
        h = mp.mpf(10) ** -25
        lo = _rayleigh_lb_formula(sc, pi_rd * (1 - h), c)
        hi = _rayleigh_lb_formula(sc, pi_rd * (1 + h), c)
        return (lo + hi) / 2


# ---------------------------------------------------- design references
def rayleigh_ub_float(sc, p_r, c_x, r):
    """Float form of outage_rayleigh_ub over arrays of (p_r, c_x)."""
    import numpy as np

    gam = 2.0 ** (2.0 * r) - 1.0
    pi_sr, pi_rd, pi_rr, pi_sd = sc["pi"]
    p_r = np.asarray(p_r, dtype=float)
    c_x = np.asarray(c_x, dtype=float)
    ratio = gam / (1.0 + np.sqrt(1.0 + gam * (1.0 - c_x) * (1.0 + c_x)))
    phi = ratio / (p_r * pi_rd)
    a = p_r * pi_rr / (p_r * pi_rr + 1.0)
    y = a * c_x
    g = gam * (1.0 - y) * (1.0 + y)
    expo = (p_r * pi_rr + 1.0) / (sc["p_s"] * pi_sr) * g / (1.0 + np.sqrt(1.0 + g))
    return 1.0 - np.exp(-(phi + expo)) / (sc["p_s"] * pi_sd * phi + 1.0)


def at(sc, **over):
    out = dict(sc)
    out.update(over)
    return out


def min_rayleigh_ub(sc, r, p_r=None, c_x=None):
    """Global minimum of the Rayleigh outage bound over the design box, with
    either coordinate optionally fixed: a dense grid, then a bounded local
    refinement from its best point.  Returns (value, p_r, c_x)."""
    import numpy as np
    from scipy import optimize

    p_max = sc["p_max"]
    ps = np.array([p_r]) if p_r is not None else p_max * np.linspace(1e-7, 1.0, 801)
    cs = np.array([c_x]) if c_x is not None else np.linspace(0.0, 1.0, 801)
    grid = rayleigh_ub_float(sc, ps[:, None], cs[None, :], r)
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    x0, bounds, free = [], [], []
    if p_r is None:
        x0.append(ps[i]); bounds.append((1e-7 * p_max, p_max)); free.append("p")
    if c_x is None:
        x0.append(cs[j]); bounds.append((0.0, 1.0)); free.append("c")

    def unpack(x):
        vals = dict(zip(free, x))
        return vals.get("p", p_r), vals.get("c", c_x)

    res = optimize.minimize(
        lambda x: float(rayleigh_ub_float(sc, *unpack(x), r)),
        x0, method="L-BFGS-B", bounds=bounds, options={"ftol": 1e-16, "gtol": 1e-14},
    )
    best_p, best_c = unpack(res.x)
    value = outage_rayleigh_ub(at(sc, p_r=float(best_p), c_x=float(best_c), r=r))
    grid_best = outage_rayleigh_ub(at(sc, p_r=float(ps[i]), c_x=float(cs[j]), r=r))
    if grid_best < value:
        return grid_best, float(ps[i]), float(cs[j])
    return value, float(best_p), float(best_c)


def min_lb_on_grid(sc, r, n=101, c_fixed=None):
    """Minimum of the outage lower bound over the library's n x n design grid
    (p_r = p_max k / n, c_x = linspace(0, 1, n)); returns (value, p_r, c_x)."""
    import numpy as np

    ps = sc["p_max"] * np.arange(1, n + 1) / n
    cs = np.array([c_fixed]) if c_fixed is not None else np.linspace(0.0, 1.0, n)
    best = None
    with mp.workdps(17):
        for p in ps:
            for c in cs:
                v = outage_lb(at(sc, p_r=float(p), c_x=float(c), r=r))
                if best is None or v < best[0]:
                    best = (v, float(p), float(c))
    value = outage_lb(at(sc, p_r=best[1], c_x=best[2], r=r))
    return value, best[1], best[2]


def min_proper_rayleigh(sc, r):
    """Minimum over p_r of the exact proper-signal (c_x = 0) outage."""
    from scipy import optimize

    def f(p):
        return float(outage_lb(at(sc, p_r=p, c_x=0.0, r=r)))

    p_max = sc["p_max"]
    res = optimize.minimize_scalar(f, bounds=(1e-7 * p_max, p_max), method="bounded",
                                   options={"xatol": 1e-12})
    cands = [res.x, 1e-7 * p_max, p_max]
    vals = [outage_lb(at(sc, p_r=float(p), c_x=0.0, r=r)) for p in cands]
    return min(vals)


def hdr_outage(sc, r, mrc: bool):
    """Half-duplex DF baseline: each hop must carry 2r in half the block; the
    relay sends at p_max; with MRC the destination adds the direct copy."""
    t = mp.mpf(2) ** (2 * mp.mpf(r)) - 1
    m_sr, m_rd, _, m_sd = sc["m"]
    q1 = q_reg(m_sr, t / (sc["p_s"] * _theta(sc, 0)))
    th_x = sc["p_max"] * _theta(sc, 1)
    if not mrc:
        return 1 - q1 * q_reg(m_rd, t / th_x)
    th_y = sc["p_s"] * _theta(sc, 3)
    # P(X + Y >= t) = P(Y >= t) + int_0^t f_Y(y) P(X >= t - y) dy
    conv = mp.quad(lambda y: gamma_pdf(m_sd, th_y, y) * q_reg(m_rd, (t - y) / th_x), [0, t])
    return 1 - q1 * (q_reg(m_sd, t / th_y) + conv)
