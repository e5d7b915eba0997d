"""Explicit singular steady states and their defining identities."""

import math

import pytest
from numpy.testing import assert_allclose

from blowlab import stationary
from blowlab.errors import DomainError, ResolutionError
from blowlab.specfun import sphere_area
from blowlab.stationary import (SingularSolution, log_singular_constant,
                                singular_constant, singular_morrey_norm,
                                singular_profile, stationary_residual)


def test_laplacian_case_closed_amplitude():
    # gamma = 2/(p-1) = 1, amplitude sqrt(gamma (d - 2 - gamma)) = sqrt(2)
    assert_allclose(singular_constant(2.0, 5.0, 3.0), math.sqrt(2.0),
                    rtol=1e-12)
    assert_allclose(log_singular_constant(2.0, 5.0, 3.0),
                    0.5 * math.log(2.0), rtol=1e-12)


def test_solution_fields_and_evaluation():
    sol = SingularSolution(2.0, 5, 3.0)
    assert sol.decay_exponent == 1.0
    assert_allclose(sol(2.0), sol.s_value / 2.0, rtol=1e-14)
    with pytest.raises(DomainError):
        sol(0.0)


def test_existence_region():
    with pytest.raises(DomainError):
        SingularSolution(2.0, 3, 1.5)   # p <= 1 + alpha/(d - alpha)


def test_residual_vanishes_symbolically_for_laplacian():
    assert stationary_residual(SingularSolution(2.0, 5, 3.0), 1.0) < 1e-10


def test_residual_small_and_probe_independent_for_half_laplacian():
    sol = SingularSolution(1.0, 3, 3.0)
    r_half = stationary_residual(sol, 0.5)
    r_two = stationary_residual(sol, 2.0)
    assert r_half < 1e-4
    assert r_two < 1e-4
    # the relative defect of an exact scale-invariant state cannot depend
    # on the probe radius
    assert abs(r_half - r_two) < 1e-8


def test_morrey_norm_closed_forms():
    sol = SingularSolution(2.0, 5, 3.0)
    assert_allclose(singular_morrey_norm(sol),
                    sphere_area(5) / 4.0 * sol.s_value, rtol=1e-12)
    assert_allclose(singular_morrey_norm(sol, q=2.0),
                    math.sqrt(sphere_area(5) / 3.0) * sol.s_value, rtol=1e-12)


def test_morrey_norm_integrability_window():
    sol = SingularSolution(2.0, 5, 3.0)
    with pytest.raises(DomainError):
        singular_morrey_norm(sol, q=0.5)
    with pytest.raises(DomainError):
        singular_morrey_norm(sol, q=5.0)   # q gamma >= d


def test_profile_sampling_matches_solution():
    sol = SingularSolution(2.0, 5, 3.0)
    prof = singular_profile(sol)
    assert prof.d == 5
    assert_allclose(prof.u[0], sol(prof.r[0]), rtol=1e-12)


def test_dimension_growth_check():
    # s(alpha, d, p) grows like d^(alpha/(2(p-1))): the ratio settles
    e = 0.5   # alpha/(2(p-1)) at alpha = 2, p = 3
    ratios = [math.exp(log_singular_constant(2.0, d, 3.0) - e * math.log(d))
              for d in (50.0, 100.0, 200.0, 400.0)]
    assert abs(ratios[-1] / ratios[-2] - 1.0) < 0.02


def test_angular_kernel_error_over_tolerance_raises(monkeypatch):
    monkeypatch.setattr(stationary, "quad", lambda f, a, b, **kw: (1.0, 1e-10, {}))
    with pytest.raises(ResolutionError, match="angular kernel"):
        stationary._angular_kernel(1.0, 2.0, 0.05, 4, 1.0)
    # d = 3 takes the closed form and no quadrature
    assert stationary._angular_kernel(1.0, 2.0, 0.05, 3, 1.0) > 0
