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


def test_the_fractional_residual_needs_two_dimensions():
    with pytest.raises(DomainError, match="the spherical-mean scheme needs d >= 2"):
        stationary_residual(SingularSolution(0.5, 1, 3.0), 1.0)


@pytest.mark.parametrize("call, d", [
    (lambda: singular_morrey_norm(SingularSolution(2.0, 445, 3.0)), 445),
    (lambda: stationary_residual(SingularSolution(1.0, 460, 3.0), 1.0), 460),
], ids=["morrey-norm", "residual"])
def test_a_sphere_area_below_the_normal_doubles_is_a_domain_error(call, d):
    """The Morrey norm read 5.2e-316 at d = 445, and the residual at d = 460
    ended in a bare OverflowError; both read sigma_d, which raises there."""
    with pytest.raises(DomainError, match=f"^sigma_d at d = {d} lies below the smallest normal"):
        call()


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


def spherical_mean(s, g, d):
    """M(s) at every s > 0 from the library's function of z = s^2 < 1,
    by M(s) = s^(-g) M(1/s) past s = 1."""
    big = max(1.0, s)
    return big ** -g * stationary._spherical_mean(g, d)((min(1.0, s) / big) ** 2)


def polar_angle_mean(s, g, d):
    """M(s) as a polar-angle quadrature in every dimension:
    sigma_(d-1) int_0^pi sin(theta)^(d-2) |e1 - s w|^(-g) dtheta, with
    |e1 - s w|^2 = (1 - s)^2 + 4 s sin(theta/2)^2 and breakpoints at
    multiples of |1 - s|, the width of its peak near s = 1."""
    width = abs(1.0 - s)
    points = [x for x in (width, 10.0 * width, 100.0 * width, 1e-3, 1e-2, 0.1, 1.0)
              if x < math.pi]

    def integrand(theta):
        q = (1.0 - s) ** 2 + 4.0 * s * math.sin(0.5 * theta) ** 2
        return math.sin(theta) ** (d - 2) * q ** (-0.5 * g)

    val, err = quad(integrand, 0.0, math.pi, points=points, epsabs=0.0, epsrel=1e-12,
                    limit=400)
    assert err <= 1e-12 * abs(val)
    return sphere_area(d - 1) * val


# radii from 1e-3 to 1e3 and next to the unit sphere, where 2F1 meets z = 1;
# g up to d - 1/2: g = 1 makes c - a - b = d - 2 an integer (a log at z = 1
# in d = 2), g = d - 1 makes it 0, and g > d - 1 makes M infinite at s = 1
MEAN_DIMS = (2, 3, 4, 5, 6, 8, 12)
MEAN_RADII = [float(q) for q in np.geomspace(1e-3, 1e3, 24)] + [1.0 - 1e-9, 1.0 + 1e-9]


def mean_exponents(d):
    return sorted({0.15, 0.5, 1.0, 1.7, d - 1.0, d - 0.5})


@pytest.mark.parametrize("d", MEAN_DIMS)
def test_spherical_mean_matches_mpmath(d):
    """The library's 2F1 at the z it is given, against mpmath at 30 digits.
    Next to z = 1 scipy's hyp2f1 holds 1.5e-13."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        nu = mp.mpf(d - 2) / 2
        front = 2 * mp.pi ** ((d - 1) / mp.mpf(2)) / mp.gamma((d - 1) / mp.mpf(2)) \
            * mp.beta(nu + mp.mpf(1) / 2, mp.mpf(1) / 2)
        for g in mean_exponents(d):
            h = mp.mpf(g) / 2
            for s in MEAN_RADII:
                big = max(1.0, s)
                z = (min(1.0, s) / big) ** 2
                ref = front * mp.mpf(big) ** (-2 * h) * mp.hyp2f1(h, h - nu, nu + 1, mp.mpf(z))
                rtol = 5e-13 if abs(s - 1.0) < 1e-6 else 1e-13
                assert_allclose(spherical_mean(s, g, d), float(ref), rtol=rtol)


@pytest.mark.parametrize("d", MEAN_DIMS)
def test_spherical_mean_matches_the_polar_angle_quadrature(d):
    """At s = 1 +- 1e-9 rounding z = s^2 moves 1 - z by up to 1e-7 of
    itself, and M responds in proportion to |d - 1 - g|, or to 1/log for
    g = d - 1: there the closed form holds 2e-9."""
    for g in mean_exponents(d):
        for s in MEAN_RADII:
            rtol = 2e-9 if abs(s - 1.0) < 1e-6 else 1e-13
            assert_allclose(spherical_mean(s, g, d), polar_angle_mean(s, g, d), rtol=rtol)


def elementary_mean_3d(s, g):
    """d = 3: M(s) = 2 pi ((1 + s)^(2-g) - |1 - s|^(2-g)) / ((2 - g) s), for
    g != 2; the difference is taken by expm1 below s = 1, and M(s) =
    s^(-g) M(1/s) above."""
    if s > 1.0:
        return s ** -g * elementary_mean_3d(1.0 / s, g)
    e = 2.0 - g
    return 2.0 * math.pi * (1.0 - s) ** e * math.expm1(e * (math.log1p(s) - math.log1p(-s))) \
        / (e * s)


def test_spherical_mean_in_three_dimensions_is_elementary():
    for g in (0.15, 0.5, 1.0, 1.7, 2.5):
        for s in MEAN_RADII:
            rtol = 2e-9 if abs(s - 1.0) < 1e-6 else 1e-13
            assert_allclose(spherical_mean(s, g, 3), elementary_mean_3d(s, g), rtol=rtol)


def angular_kernel(rho, d, alpha):
    """The angular kernel of the fractional Laplacian at |x| = 1: the mean
    of |x - y|^(-d-alpha) over the sphere |y| = rho, which is the spherical
    mean at the hypersingular exponent g = d + alpha."""
    return spherical_mean(rho, d + alpha, d)


def polar_angle_kernel(rho, d, alpha):
    """The angular kernel as a polar-angle quadrature over the whole sphere,
    in every dimension; rho stays delta = 0.05 away from 1."""
    ex = (d + alpha) / 2.0

    def integrand(theta):
        q = 1.0 + rho * rho - 2.0 * rho * math.cos(theta)
        return math.sin(theta) ** (d - 2) * q ** -ex

    val, err = quad(integrand, 0.0, math.pi, epsabs=0.0, epsrel=1e-11, limit=200)
    assert err <= 1e-11 * abs(val)
    return sphere_area(d - 1) * val


# g = d + alpha > d - 1: the kernel is infinite at rho = 1, so rho/r runs from
# 1e-3 to 1e3 at least delta = 0.05 from it; alpha = 1 makes c - a - b =
# -1 - alpha an integer
KERNEL_DIMS = (2, 4, 5, 6, 8, 12)
KERNEL_ALPHAS = (0.1, 0.5, 1.0, 1.5, 1.99)
KERNEL_RHOS = [float(q) for q in np.geomspace(1e-3, 1e3, 25) if abs(q - 1.0) >= 0.05] \
    + [0.95 - 1e-9, 0.95, 1.05, 1.05 + 1e-9]


def test_angular_kernel_outside_the_cap_makes_no_quad_call(monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("quad called for a closed-form kernel")

    monkeypatch.setattr(stationary, "quad", no_quad)
    for rho in (1e-3, 0.5, 0.95, 1.05, 2.0, 1e3):
        assert angular_kernel(rho, 4, 1.0) > 0


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
                assert_allclose(angular_kernel(rho, d, alpha), float(ref), rtol=1e-14)


@pytest.mark.parametrize("d", KERNEL_DIMS)
def test_angular_kernel_closed_form_matches_the_polar_angle_quadrature(d):
    for alpha in KERNEL_ALPHAS:
        for rho in KERNEL_RHOS:
            assert_allclose(angular_kernel(rho, d, alpha), polar_angle_kernel(rho, d, alpha),
                            rtol=2e-13)


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
    """Two quads over the sphere radius, and none from inside an integrand:
    each spherical mean is closed form."""
    calls, inside = [], []

    def counting_quad(f, *args, **kwargs):
        assert not inside, "quad called from inside an integrand"
        calls.append(args)

        def watched(x):
            inside.append(x)
            try:
                return f(x)
            finally:
                inside.pop()

        return quad(watched, *args, **kwargs)

    monkeypatch.setattr(stationary, "quad", counting_quad)
    assert stationary_residual(SingularSolution(alpha, d, 3.0), 1.0) < 1e-4
    assert len(calls) == 2


# the parent route's values: the spherical means move them by quadrature
# error only; (0.8, 2, 1.8) and (1.2, 4, 2.2) have g = 1
PINNED_RESIDUALS = [
    ((1.0, 2, 3.0), 4.456152920900993e-06),
    ((1.0, 3, 3.0), 8.293986825114177e-07),
    ((1.2, 4, 3.0), 1.2579129677356576e-06),
    ((0.807, 5, 3.0), 2.220759046449567e-07),
    ((1.7, 6, 3.0), 1.0374728631182265e-05),
    ((0.3, 8, 3.0), 4.0570923395746014e-08),
    ((0.8, 2, 1.8), 1.2817011839737211e-05),
    ((1.2, 4, 2.2), 2.207509878890566e-06),
]


@pytest.mark.parametrize("params, value", PINNED_RESIDUALS,
                         ids=["-".join(map(str, params)) for params, _ in PINNED_RESIDUALS])
def test_residual_is_pinned(params, value):
    assert abs(stationary_residual(SingularSolution(*params), 1.0) - value) <= 2e-12


def test_residual_error_estimate_over_its_share_raises(monkeypatch):
    """At (0.3, 8, 3) the defect is 4.1e-8. An error estimate of 1e-7 on
    each quad would make up a share of it far above 1e-9 and raises."""
    def inflated(*args, **kwargs):
        out = quad(*args, **kwargs)
        return (out[0], 1e-7) + tuple(out[2:])

    monkeypatch.setattr(stationary, "quad", inflated)
    with pytest.raises(ResolutionError):
        stationary_residual(SingularSolution(0.3, 8, 3.0), 1.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_residual_rejects_bad_probe_radius(radius):
    with pytest.raises(DomainError, match="probe radius"):
        stationary_residual(SingularSolution(1.0, 3, 3.0), radius)


@pytest.mark.parametrize("radius", [math.nan, math.inf, [1.0, math.nan]])
def test_solution_rejects_radii_that_are_not_finite(radius):
    with pytest.raises(DomainError):
        SingularSolution(1.0, 3, 3.0)(radius)
