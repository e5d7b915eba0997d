"""Closed-form checks for the unit-sphere area helpers."""

import math

import pytest
from numpy.testing import assert_allclose

from blowlab.errors import DomainError
from blowlab.specfun import log_sphere_area, sphere_area

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
