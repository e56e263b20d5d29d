"""The audit domain D: seed 7, shapes 1..4 on each link (every third draw
all-Rayleigh), link powers 10^U(-1, 5), p_max = 10^U(0, 1),
p_s = U(0.1, 1) p_max, p_r = U(0.01, 1) p_max, c_x drawn from
{U(0, 1), 1 - 10^U(-12, -2), 1, 0} and r = 10^U(-1, 0.8), drawn last.

Draw k of D is the k-th item of `d_draws(n)`, counting from 0.  A test that
needs only the design or only the rate skips the other's draws, which keeps
the streams those tests were written against.
"""

import numpy as np

from fdrigs.model import LinkStat, RateTarget, SignalParams, SystemParams


def d_draws(n, seed=7, signal=True, rate=True):
    """(system, signal, rate) of the first n draws of D; the signal is None
    without `signal`, and the rate None without `rate`."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        shapes = (1, 1, 1, 1) if i % 3 == 0 else tuple(int(m) for m in rng.integers(1, 5, size=4))
        pis = 10.0 ** rng.uniform(-1.0, 5.0, size=4)
        p_max = float(10.0 ** rng.uniform(0.0, 1.0))
        p_s = float(rng.uniform(0.1, 1.0)) * p_max
        sig = target = None
        if signal:
            p_r = float(rng.uniform(0.01, 1.0)) * p_max
            kind = int(rng.integers(4))
            c_x = (float(rng.uniform(0.0, 1.0)), 1.0 - float(10.0 ** rng.uniform(-12.0, -2.0)), 1.0, 0.0)[kind]
            sig = SignalParams(p_r, c_x)
        if rate:
            target = RateTarget(float(10.0 ** rng.uniform(-1.0, 0.8)))
        links = (LinkStat(m, float(pi)) for m, pi in zip(shapes, pis))
        yield SystemParams(*links, p_s=p_s, p_max=p_max), sig, target
