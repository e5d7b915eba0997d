"""Explicit singular steady states and their defining identities."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

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
    # |r - rho| < delta: the cap's polar-angle quadrature runs and is checked
    with pytest.raises(ResolutionError, match="angular kernel"):
        stationary._angular_kernel(1.0, 1.02, 0.05, 4, 1.0)
    # d = 3 takes the closed form and no quadrature
    assert stationary._angular_kernel(1.0, 2.0, 0.05, 3, 1.0) > 0


def test_angular_kernel_outside_the_cap_makes_no_quad_call(monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("quad called outside the cap")

    monkeypatch.setattr(stationary, "quad", no_quad)
    for rho in (1e-3, 0.5, 0.95, 1.05, 2.0, 1e3):
        assert stationary._angular_kernel(1.0, rho, 0.05, 4, 1.0) > 0


def polar_angle_kernel(r, rho, delta, d, alpha):
    """The angular kernel as a polar-angle quadrature over the admissible
    cap [theta_star, pi], in every dimension."""
    m_star = (r * r + rho * rho - delta * delta) / (2.0 * r * rho)
    theta_star = math.acos(min(1.0, max(-1.0, m_star))) if m_star < 1.0 else 0.0
    ex = (d + alpha) / 2.0

    def integrand(theta):
        q = r * r + rho * rho - 2.0 * r * rho * math.cos(theta)
        return math.sin(theta) ** (d - 2) * q ** -ex

    val, err = quad(integrand, theta_star, math.pi, epsabs=0.0, epsrel=1e-11, limit=200)
    assert err <= 1e-11 * abs(val)
    return sphere_area(d - 1) * val


# the 2F1 form's domain: d != 3, |r - rho| >= delta (r = 1, delta = 0.05),
# rho/r from 1e-3 to 1e3 and just outside the cap; alpha = 1 makes
# c - a - b = -1 - alpha an integer
KERNEL_DIMS = (2, 4, 5, 6, 8, 12)
KERNEL_ALPHAS = (0.1, 0.5, 1.0, 1.5, 1.99)
KERNEL_RHOS = [float(q) for q in np.geomspace(1e-3, 1e3, 25) if abs(q - 1.0) >= 0.05] \
    + [0.95 - 1e-9, 0.95, 1.05, 1.05 + 1e-9]


@pytest.mark.parametrize("d", KERNEL_DIMS)
def test_angular_kernel_closed_form_matches_mpmath(d):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for alpha in KERNEL_ALPHAS:
            s, nu = mp.mpf(d + alpha) / 2, mp.mpf(d - 2) / 2
            sigma = 2 * mp.pi ** ((d - 1) / mp.mpf(2)) / mp.gamma((d - 1) / mp.mpf(2))
            for rho in KERNEL_RHOS:
                big, small = mp.mpf(max(1.0, rho)), mp.mpf(min(1.0, rho))
                ref = sigma * mp.beta(nu + mp.mpf(1) / 2, mp.mpf(1) / 2) * big ** (-2 * s) \
                    * mp.hyp2f1(s, s - nu, nu + 1, (small / big) ** 2)
                assert_allclose(stationary._angular_kernel(1.0, rho, 0.05, d, alpha),
                                float(ref), rtol=1e-14)


@pytest.mark.parametrize("d", KERNEL_DIMS)
def test_angular_kernel_closed_form_matches_the_polar_angle_quadrature(d):
    for alpha in KERNEL_ALPHAS:
        for rho in KERNEL_RHOS:
            assert_allclose(stationary._angular_kernel(1.0, rho, 0.05, d, alpha),
                            polar_angle_kernel(1.0, rho, 0.05, d, alpha), rtol=2e-13)


@pytest.mark.parametrize("alpha, d", [(1.0, 2), (1.2, 4), (0.807, 5), (1.7, 6)])
def test_residual_small_and_probe_independent_in_general_dimension(alpha, d):
    sol = SingularSolution(alpha, d, 3.0)
    r_half = stationary_residual(sol, 0.5)
    r_two = stationary_residual(sol, 2.0)
    assert r_half < 1e-4
    assert r_two < 1e-4
    assert abs(r_half - r_two) < 1e-8


def test_residual_is_the_same_at_every_probe_radius():
    """The profile is homogeneous, so the defect does not depend on the
    probe radius: each positive finite radius returns the unit-radius value
    bit for bit, far from 1 as well, where the scheme run at the radius
    itself raised, returned 1.438 or overflowed."""
    sol = SingularSolution(1.0, 4, 3.0)
    at_one = stationary_residual(sol, 1.0)
    assert at_one < 1e-6
    for radius in (1e-100, 1e-30, 1e-8, 1e-3, 0.5, 2.0, 1e8, 1e20, 1e60, 1e100, 1e300):
        assert stationary_residual(sol, radius) == at_one


@pytest.mark.parametrize("alpha, d", [(1.2, 4), (0.807, 5)])
def test_residual_makes_few_quad_calls(monkeypatch, alpha, d):
    # outside the cap the kernel is closed form; the middle piece, smooth in
    # psi, needs the cap quadrature at a few panels' nodes only
    calls = []

    def counting_quad(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(stationary, "quad", counting_quad)
    assert stationary_residual(SingularSolution(alpha, d, 3.0), 1.0) < 1e-4
    assert len(calls) <= 100


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_residual_rejects_bad_probe_radius(radius):
    with pytest.raises(DomainError, match="probe radius"):
        stationary_residual(SingularSolution(1.0, 3, 3.0), radius)


@pytest.mark.parametrize("radius", [math.nan, math.inf, [1.0, math.nan]])
def test_solution_rejects_radii_that_are_not_finite(radius):
    with pytest.raises(DomainError):
        SingularSolution(1.0, 3, 3.0)(radius)
