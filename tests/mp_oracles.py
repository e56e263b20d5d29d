"""mpmath oracles shared by the test modules."""

import mpmath as mp


def mp_hop_survival(m, u, beta, m_i, theta_i):
    """P(g >= u (1 + beta g_i)) for g ~ Gamma(m, 1) and g_i ~ Gamma(m_i, theta_i).

    Q(m, y) = e^-y sum_{j<m} y^j / j!, so each term is a Gamma moment
    E[g_i^k e^{-t g_i}] after a binomial expansion of (1 + beta g_i)^j.
    Float arguments are taken as exact binary values; the result carries the
    working precision of the caller's mpmath context.
    """
    u, beta, theta_i = mp.mpf(u), mp.mpf(beta), mp.mpf(theta_i)
    t = u * beta + 1 / theta_i
    total = mp.mpf(0)
    for j in range(m):
        moments = sum(
            mp.binomial(j, k) * beta**k * mp.gamma(m_i + k) / t ** (m_i + k) for k in range(j + 1)
        )
        total += u**j / mp.factorial(j) * moments
    return mp.exp(-u) * total / (mp.gamma(m_i) * theta_i**m_i)
