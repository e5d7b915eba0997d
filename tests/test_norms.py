"""The concentration functional: radial and grid routes, profile CSVs."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blowlab import norms
from blowlab.blowup import moment_at_zero
from blowlab.errors import DomainError
from blowlab.kernels import Grid, GridFunction, KernelSpec
from blowlab.norms import (RadialProfile, concentration_values,
                           morrey_norm_grid, radial_concentration,
                           read_profile_csv)
from blowlab.reporting import write_csv
from blowlab.numutil import log_grid
from blowlab.specfun import sphere_area
from blowlab.stationary import (SingularSolution, singular_morrey_norm,
                                singular_profile)
from blowlab.asymptotics import K_fractional


def gaussian_profile(d=1, amp=1.0, r_max=30.0):
    return RadialProfile.from_function(d, lambda r: amp * np.exp(-r * r),
                                       r_min=1e-4, r_max=r_max)


def test_head_exponent_fit():
    pr = RadialProfile.from_function(1, lambda r: r ** -0.6,
                                     r_min=1e-3, r_max=10.0)
    assert_allclose(pr.fitted_head_exponent(), 0.6, atol=1e-6)


def test_concentration_is_dilation_invariant():
    """The functional is built to be constant along the scaling family
    u_mu(r) = mu^(-alpha/(p-1)) u(r/mu)."""
    d, p, alpha, mu = 1, 3.0, 1.3, 2.7
    g = alpha / (p - 1.0)
    base = radial_concentration(gaussian_profile(d), p, alpha)
    dilated = RadialProfile.from_function(
        d, lambda r: mu ** -g * np.exp(-(r / mu) ** 2),
        r_min=1e-4, r_max=30.0 * mu)
    moved = radial_concentration(dilated, p, alpha)
    assert abs(moved.value / base.value - 1.0) < 1e-6
    assert base.argmax_radius > 0
    assert not base.divergent


def test_point_mass_concentration_rows():
    u = gaussian_profile()
    with pytest.raises(DomainError):
        concentration_values(u, 1.0, 1.0, [1.0])
    with pytest.raises(DomainError):
        concentration_values(u, 3.0, 0.0, [1.0])


def test_singular_profile_concentration_closed_form():
    sol = SingularSolution(2.0, 5, 3.0)
    u = singular_profile(sol)
    res = radial_concentration(u, 3.0, 2.0)
    closed = sphere_area(5) * sol.s_value / 4.0   # sigma_d s / (d - gamma)
    assert abs(res.value / closed - 1.0) < 1e-5
    rows = concentration_values(u, 3.0, 2.0, log_grid(0.1, 10.0, 9))
    vals = [v for _, v in rows]
    assert (max(vals) - min(vals)) / max(vals) < 1e-6   # scale invariance
    # the L^q members at the critical order s = d(p-1)/alpha = 5: the q = 1
    # functional of u^q at exponent q (d/s - d/q) = q - 5, to the power 1/q
    for q in (1.5, 2.0):
        uq = RadialProfile(5, u.r, u.u ** q, head_exponent=q * sol.decay_exponent)
        value = radial_concentration(uq, 2.0, q).value ** (1.0 / q)
        assert_allclose(value, singular_morrey_norm(sol, q), rtol=1e-5)


def test_radial_grid_values_are_the_ball_rule_table(monkeypatch):
    """On C9's sampled steady state radial_concentration reads its grid
    values off the ball rule's table, sigma_d r^e cum; at every sample they
    equal the objective that the Brent refinement and concentration_values
    evaluate, to 1e-14 relative."""
    u = singular_profile(SingularSolution(2.0, 5, 3.0))
    seen = {}

    def capture(f, xs, vals):
        seen.update(xs=xs, vals=vals)
        return float(xs[0]), float(vals[0])

    monkeypatch.setattr(norms, "refine_max_on_grid", capture)
    radial_concentration(u, 3.0, 2.0)
    assert seen["xs"] is u.r
    objective = np.array([v for _, v in concentration_values(u, 3.0, 2.0, u.r)])
    assert_allclose(seen["vals"], objective, rtol=1e-14, atol=0.0)


def test_morrey_norm_validation():
    u = gaussian_profile()
    with pytest.raises(DomainError):
        radial_concentration(u, 0.9, 1.0)


@pytest.mark.parametrize("r, u, match", [
    ([0.1, 0.2, 0.3], [1.0, 0.5, 0.2], "need at least 4 radial samples"),
    ([0.1, 0.2, 0.3, 0.4], [1.0, 0.5, 0.2], "value array must match the radial grid"),
    ([0.1, 0.3, 0.2, 0.4], [1.0, 0.5, 0.2, 0.1], "radial grid must be strictly increasing"),
], ids=["three-samples", "shapes", "not-increasing"])
def test_radial_profiles_check_their_samples(r, u, match):
    with pytest.raises(DomainError, match=match):
        RadialProfile(1, r, u)


def test_a_profile_csv_with_a_header_and_no_rows_is_a_domain_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("r,value\n# no samples\n")
    with pytest.raises(DomainError, match=r"empty\.csv: no data rows$"):
        norms.read_profile_csv(path, 1)


def test_grid_morrey_matches_radial_route():
    g = Grid(1, 32.0, 1024)
    u = GridFunction.gaussian(g, mass=1.0, sigma=1.0)
    grid_res = morrey_norm_grid(u, s_order=1.5)
    radial = RadialProfile.from_function(
        1, lambda r: np.exp(-r * r / 2.0) / math.sqrt(2.0 * math.pi),
        r_min=1e-4, r_max=20.0)
    rad_res = radial_concentration(radial, 4.0, 2.0)   # s = d(p-1)/alpha = 1.5
    assert rad_res.s_order == grid_res.s_order
    assert abs(grid_res.value / rad_res.value - 1.0) < 1e-2


def test_grid_morrey_is_homogeneous_at_the_critical_order():
    """At s = d(p-1)/alpha = 1.5 (d = 1, p = 4, alpha = 2) the grid
    concentration is 1-homogeneous in the data and not flagged divergent."""
    g = Grid(1, 32.0, 512)
    u = GridFunction.gaussian(g, mass=1.0, sigma=1.0)
    c1 = morrey_norm_grid(u, 1.5)
    c2 = morrey_norm_grid(u.scaled(2.0), 1.5)
    assert_allclose(c2.value, 2.0 * c1.value, rtol=1e-12)
    assert c1.s_order == 1.5
    assert not c1.divergent and not c2.divergent


def morrey_grid_oracle(u, s_order):
    """The grid Morrey functional written out with numpy's transforms: each
    ball indicator is rolled to index 0 on its own and transformed anew."""
    g = u.grid
    axes = tuple(range(g.d))
    w_hat = np.fft.rfftn(u.values)
    radii = np.geomspace(2.0 * g.spacing, g.L / 3.0, 25)
    dist = g.radius()
    best_v, best_r = 0.0, float(radii[0])
    for R in radii:
        ball = np.fft.ifftshift((dist <= R).astype(float))
        sums = np.fft.irfftn(w_hat * np.fft.rfftn(ball), s=g.shape, axes=axes) \
            * g.cell_volume
        v = float(R) ** (g.d / s_order - g.d) * float(np.max(sums))
        if v > best_v:
            best_v, best_r = v, float(R)
    return best_v, best_r


@pytest.mark.parametrize("d", [1, 2])
def test_grid_morrey_equals_the_per_ball_oracle_bit_for_bit(d):
    g = Grid(d, 8.0, 64)
    u = GridFunction.from_function(
        g, lambda *xs: np.exp(-sum((x - 0.3 * k) ** 2 for k, x in enumerate(xs))))
    res = morrey_norm_grid(u, s_order=1.5)
    assert (res.value, res.argmax_radius) == morrey_grid_oracle(u, 1.5)


def test_heat_characterization_of_steady_state():
    """On the exact steady profile the scaled semigroup moment
    t^(1/(p-1)) (P_t * u)(0) is constant in t and equals the stationary
    constant of the matching power law, a closed gamma-function value."""
    u = singular_profile(SingularSolution(2.0, 5, 3.0))
    K = K_fractional(2.0, 5.0, 3.0)
    for t in (0.01, 0.3, 1.0, 10.0, 100.0):
        value = math.sqrt(t) * moment_at_zero(u, KernelSpec.fractional(2.0), t)
        assert abs(value / K - 1.0) < 1e-5


def test_profile_csv_round_trip(tmp_path):
    u = gaussian_profile()
    path = tmp_path / "profile.csv"
    write_csv(path, ("r", "value"), zip(u.r, u.u))
    back = read_profile_csv(path, d=1)
    assert_allclose(back.r, u.r, rtol=1e-12)
    assert_allclose(back.u, u.u, rtol=1e-12)
