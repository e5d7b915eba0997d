"""Closed-form checks for the unit-sphere area helpers, and the log Gamma
ratio against mpmath."""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blowlab.errors import DomainError
from blowlab.specfun import _log_gamma_ratio, log_sphere_area, sphere_area

# surface measure of the unit sphere in R^d
SPHERE_AREAS = {
    1: 2.0,
    2: 2.0 * math.pi,
    3: 4.0 * math.pi,
    4: 2.0 * math.pi ** 2,
    5: 8.0 * math.pi ** 2 / 3.0,
    6: math.pi ** 3,
}


@pytest.mark.parametrize("d,expected", sorted(SPHERE_AREAS.items()))
def test_sphere_area_closed_values(d, expected):
    assert_allclose(sphere_area(d), expected, rtol=1e-13)
    assert_allclose(log_sphere_area(d), math.log(expected), rtol=1e-13)


def test_sphere_area_rejects_bad_dimension():
    with pytest.raises(DomainError):
        sphere_area(0)


@pytest.mark.parametrize("d", [439, 456, 500])
def test_sphere_area_below_the_normal_doubles_is_a_domain_error(d):
    """sigma_d is a subnormal from d = 439 (3.8e-309) and 0 from d = 456,
    which sphere_area returned; its log still serves."""
    assert sphere_area(438) >= sys.float_info.min
    with pytest.raises(DomainError, match=f"^sigma_d at d = {d} lies below the smallest normal"):
        sphere_area(d)
    assert log_sphere_area(d) == pytest.approx(math.log(2.0) + 0.5 * d * math.log(math.pi)
                                               - math.lgamma(0.5 * d), rel=1e-15)


@pytest.mark.parametrize("m", [0.005, 0.05, 0.5, 0.75, 1.0, 2.5, 100.0])
def test_log_gamma_ratio_against_mpmath(m):
    """x from 1 to 1e15, Stirling's form from x = 10 and the shifted one
    below. Between 1 and 2 the ratio crosses zero, so there the bound is
    also absolute: s and K take the exponential of the ratio, and an
    absolute error in it is the relative error they carry."""
    mp = pytest.importorskip("mpmath")
    xs = np.concatenate([np.linspace(1.0, 2.0, 201), np.geomspace(2.0, 1e15, 141)])
    with mp.workdps(40):
        for x in map(float, xs):
            ref = float(mp.loggamma(mp.mpf(x) + mp.mpf(m)) - mp.loggamma(x))
            assert_allclose(_log_gamma_ratio(x, m), ref, rtol=1e-14,
                            atol=4e-16 if x < 2.0 else 0.0)


def test_log_gamma_ratio_edges():
    assert _log_gamma_ratio(3.7, 0.0) == 0.0
    # m/x overflows: the log Gamma difference serves
    x = 5e-324
    assert _log_gamma_ratio(x, 0.5) == math.lgamma(x + 0.5) - math.lgamma(x)
