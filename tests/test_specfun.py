"""Special-function layer: log Gamma(a, x) against frozen high-precision
values and quadrature, and its stability at extreme arguments."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from fdrigs.specfun import log_upper_incomplete_gamma_int

# 30-digit reference value (mpmath)
GAMMA_4_1P5 = 5.606145273729299


def upper_gamma(a, x):
    return math.exp(log_upper_incomplete_gamma_int(a, x))


def test_gamma_int_values():
    # Gamma(a, 0) = Gamma(a) = (a-1)!
    for a in (1, 5, 10):
        assert upper_gamma(a, 0.0) == pytest.approx(math.factorial(a - 1), rel=1e-14)


def test_upper_incomplete_gamma_frozen():
    assert upper_gamma(4, 1.5) == pytest.approx(GAMMA_4_1P5, rel=1e-13)
    # Gamma(a, 0) = (a-1)!
    assert upper_gamma(3, 0.0) == pytest.approx(2.0, rel=1e-14)
    # Gamma(1, x) = e^-x
    assert upper_gamma(1, 2.5) == pytest.approx(math.exp(-2.5), rel=1e-14)


def test_upper_incomplete_gamma_vs_quadrature():
    for a, x in [(2, 0.3), (3, 4.0), (4, 12.0)]:
        ref, err = integrate.quad(lambda t: t ** (a - 1) * math.exp(-t), x, np.inf)
        assert upper_gamma(a, x) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_log_upper_incomplete_gamma_vs_mpmath(a):
    # every decade of x from 1e-8 to 1e6, and x = 0, where Gamma(a, 0) = Gamma(a)
    with mp.workdps(40):
        for x in [0.0] + [10.0**k for k in range(-8, 7)]:
            ref = float(mp.log(mp.gammainc(a, x)))
            err = abs(log_upper_incomplete_gamma_int(a, x) - ref) / max(1.0, abs(ref))
            assert err <= 1e-15, (a, x, err)


def test_log_upper_incomplete_gamma_tail():
    # direct value underflows to 0 near x ~ 1e6; the log form stays finite
    val = log_upper_incomplete_gamma_int(3, 1e6)
    assert np.isfinite(val)
    # log Gamma(3, x) = -x + log(x^2 + 2x + 2)
    assert val == pytest.approx(-1e6 + math.log(1e12 + 2e6 + 2.0), rel=1e-12)


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        log_upper_incomplete_gamma_int(0, 1.0)
    with pytest.raises(ValueError):
        log_upper_incomplete_gamma_int(1.5, 1.0)
    with pytest.raises(ValueError):
        log_upper_incomplete_gamma_int(2, -1.0)
