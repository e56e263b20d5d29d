"""mpmath oracles shared by the test modules."""

import functools
import math

import mpmath as mp


@functools.lru_cache(maxsize=None)
def _hop_constants(m, m_i):
    """The exact integers of `mp_hop_survival` for one shape pair, as mpf:
    j!, C(j, k) and Gamma(m_i + k) for 0 <= k <= j < m."""
    fact = [mp.mpf(math.factorial(j)) for j in range(m)]
    binom = [[mp.mpf(math.comb(j, k)) for k in range(j + 1)] for j in range(m)]
    gam = [mp.mpf(math.factorial(m_i + k - 1)) for k in range(m)]
    return fact, binom, gam


def mp_hop_survival(m, u, beta, m_i, theta_i):
    """P(g >= u (1 + beta g_i)) for g ~ Gamma(m, 1) and g_i ~ Gamma(m_i, theta_i).

    Q(m, y) = e^-y sum_{j<m} y^j / j!, so each term is a Gamma moment
    E[g_i^k e^{-t g_i}] after a binomial expansion of (1 + beta g_i)^j.
    Float arguments are taken as exact binary values; the result carries the
    working precision of the caller's mpmath context.  The factorials,
    binomials and Gamma values are exact integers, tabulated once per shape
    pair, and each power is formed once per call.
    """
    u, beta, theta_i = mp.mpf(u), mp.mpf(beta), mp.mpf(theta_i)
    t = u * beta + 1 / theta_i
    fact, binom, gam = _hop_constants(m, m_i)
    beta_k = [beta**k for k in range(m)]
    t_k = [t ** (m_i + k) for k in range(m)]
    total = mp.mpf(0)
    for j in range(m):
        moments = sum(binom[j][k] * beta_k[k] * gam[k] / t_k[k] for k in range(j + 1))
        total += u**j / fact[j] * moments
    return mp.exp(-u) * total / (gam[0] * theta_i**m_i)


def mp_combined_survival(m_x, th_x, m_y, th_y, gamma):
    """P(X + Y >= gamma) for X ~ Gamma(m_x, th_x) and Y ~ Gamma(m_y, th_y):

        Q(m_y, gamma / th_y) + int_0^gamma f_Y(y) Q(m_x, (gamma - y) / th_x) dy,

    conditioned on Y where the library conditions on X.  The integral runs
    over all of [0, gamma], split at th_y 4^k and gamma - th_x 4^k, so that
    tanh-sinh finds a density or a survival edge confined to a sliver of it.
    """
    th_x, th_y, gamma = mp.mpf(th_x), mp.mpf(th_y), mp.mpf(gamma)
    norm = mp.factorial(m_y - 1) * th_y**m_y
    inv_fact = [1 / mp.factorial(j) for j in range(max(m_x, m_y))]

    def q(m, x):
        # Q(m, x) = e^-x sum_{j<m} x^j / j!
        return mp.exp(-x) * mp.fsum(x**j * inv_fact[j] for j in range(m))

    def integrand(y):
        z = (gamma - y) / th_x
        weight = mp.fsum(z**j * inv_fact[j] for j in range(m_x))
        return y ** (m_y - 1) * weight * mp.exp(-y / th_y - z) / norm

    scales = [mp.mpf(4) ** k for k in range(-1, 4)]
    cuts = {th_y * s for s in scales} | {gamma - th_x * s for s in scales}
    points = [mp.mpf(0)] + sorted(c for c in cuts if 0 < c < gamma) + [gamma]
    return q(m_y, gamma / th_y) + mp.quad(integrand, points)


def mp_sr_survival_exact(m_sr, th_sr, m_rr, th_rr, p_s, p_r, c_x, r):
    """The exact first-hop survival E_g[Q(m_sr, w(g))] for the RSI gain
    g ~ Gamma(m_rr, th_rr), with the decoding threshold

        w(g) = (p_r g + 1) / (p_s th_sr) psi(p_r g c_x / (p_r g + 1)),
        psi(x) = sqrt(1 + gamma (1 - x^2)) - 1,  gamma = 2^(2r) - 1.

    The integral runs over all of (0, inf), split at th_rr 2^k for
    k = -60..8, so that tanh-sinh finds mass confined to g << th_rr.
    """
    th_sr, th_rr, p_s, p_r, c_x = (mp.mpf(v) for v in (th_sr, th_rr, p_s, p_r, c_x))
    gamma = mp.expm1(2 * mp.mpf(r) * mp.log(2))
    norm = mp.factorial(m_rr - 1) * th_rr**m_rr
    inv_fact = [1 / mp.factorial(j) for j in range(m_sr)]

    def integrand(g):
        load = p_r * g
        x = load * c_x / (load + 1)
        h = gamma * (1 - x) * (1 + x)
        w = (load + 1) / (p_s * th_sr) * h / (1 + mp.sqrt(1 + h))
        q = mp.exp(-w) * mp.fsum(w**j * inv_fact[j] for j in range(m_sr))
        return g ** (m_rr - 1) * mp.exp(-g / th_rr) / norm * q

    points = [mp.mpf(0)] + [th_rr * mp.mpf(2) ** k for k in range(-60, 9)] + [mp.inf]
    return mp.quad(integrand, points)
