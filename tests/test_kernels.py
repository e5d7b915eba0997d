"""Lattice semigroup kernels, stable profiles, and the subordination oracle.

The oracle for the generic-order profile routes lives here: Bochner's
integral of the Gaussian over the one-sided stable density, by Kanter's form
of the Zolotarev integral. Only tests call it, so it is not in the package.
"""

import math
import sys
import tracemalloc
import warnings
from typing import NamedTuple, Optional

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gammaln

from blowlab.errors import DomainError, ResolutionError
from blowlab import kernels
from blowlab.kernels import (Grid, GridFunction, KernelSpec, _far_series, _mellin,
                             _near_series, _series_switches, semigroup_kernel,
                             stable_profile)
from blowlab.numutil import loglog_slope, refine_max_on_grid


# ---------------------------------------------------------------------------
# grids and sampled fields
# ---------------------------------------------------------------------------

def test_grid_geometry():
    g = Grid(1, 8.0, 64)
    assert g.spacing == 0.25
    assert g.cell_volume == 0.25
    assert g.shape == (64,)
    ax = g.axis()
    assert ax[0] == -8.0
    assert ax[g.n // 2] == 0.0     # origin sits at index n//2
    g2 = Grid(2, 4.0, 32)
    assert g2.cell_volume == g2.spacing ** 2
    assert g2.radius().shape == (32, 32)


@pytest.mark.parametrize("args", [(3, 8.0, 64), (1, 8.0, 100), (1, -1.0, 64),
                                  (1, 8.0, 2)])
def test_grid_validation(args):
    with pytest.raises(DomainError):
        Grid(*args)


def test_gaussian_field_mass_and_scaling():
    g = Grid(1, 32.0, 1024)
    u = GridFunction.gaussian(g, mass=4.0, sigma=1.0)
    assert_allclose(u.mass(), 4.0, rtol=1e-9)
    assert u.sup() > 0
    assert_allclose(u.scaled(2.0).mass(), 8.0, rtol=1e-9)


@pytest.mark.parametrize("d", [1, 2])
def test_rfft_into_a_buffer_equals_numpy_bit_for_bit(d):
    """rfft(values, out=buf) writes numpy's half spectrum into buf and
    returns buf; without out it returns the same bits, and irfft leaves its
    argument as it was."""
    g = Grid(d, 8.0, 64)
    values = np.random.default_rng(5).standard_normal(g.shape)
    expected = np.fft.rfft(values) if d == 1 else np.fft.rfftn(values)
    buf = np.empty_like(expected)
    assert g.rfft(values, out=buf) is buf
    assert np.array_equal(buf, expected)
    assert np.array_equal(g.rfft(values), expected)
    g.irfft(buf)
    assert np.array_equal(buf, expected)


@pytest.mark.parametrize("d", [1, 2])
def test_irfft_in_place_equals_out_of_place_bit_for_bit(d):
    """irfft(spectrum, overwrite=True) returns the bits of irfft(spectrum)
    and of numpy's irfftn; it spends spectrum in d = 2 only, where its
    complex pass runs in place."""
    g = Grid(d, 8.0, 64)
    spectrum = g.rfft(np.random.default_rng(6).standard_normal(g.shape))
    spectrum *= np.exp(-0.3 * g.freq_radius())
    kept = spectrum.copy()
    expected = g.irfft(spectrum)
    assert np.array_equal(spectrum, kept)
    assert np.array_equal(expected, np.fft.irfftn(kept, s=g.shape, axes=range(d)))
    assert np.array_equal(g.irfft(spectrum, overwrite=True), expected)
    assert np.array_equal(spectrum, kept) == (d == 1)


def test_a_grid_whose_spacing_leaves_the_doubles_is_a_domain_error():
    """2L/n and (2L/n)^d must be doubles: L = 1e308 makes the spacing inf
    in d = 1, L = 1e160 the cell volume in d = 2. Each raises naming L,
    without a warning; the largest half-width that passes keeps both
    finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d, L in ((1, 1e308), (2, 1e160)):
            with pytest.raises(DomainError, match="half-width L must be positive and below"):
                Grid(d, L, 64)
        for d, L in ((1, 8.98e307), (2, 4.29e155)):
            g = Grid(d, L, 64)
            assert math.isfinite(g.spacing) and math.isfinite(g.cell_volume)


def test_a_gaussian_narrower_than_the_doubles_is_a_domain_error():
    """sigma = 1e-300 made 2 sigma^2 zero and warned "divide by zero"; it
    raises naming sigma. Just above the bound the exponent leaves the
    doubles away from the center, and the field is 0 there, without a
    warning."""
    g = Grid(1, 8.0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^sigma must be at least"):
            GridFunction.gaussian(g, sigma=1e-300)
        u = GridFunction.gaussian(g, mass=1e-150, sigma=1.1e-154)
    assert np.count_nonzero(u.values) == 1 and math.isfinite(u.sup())


def test_a_gaussian_wider_than_the_doubles_is_a_domain_error():
    """sigma = 1e300 in d = 2 raised a bare OverflowError from the
    normalization (sigma sqrt(2 pi))^d; it raises naming sigma. On a box of
    half-width 1e200 the squares (x - center)^2 warned "overflow"; they are
    inf there, and the field 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^sigma must be at least .* and below"):
            GridFunction.gaussian(Grid(2, 8.0, 64), sigma=1e300)
        u = GridFunction.gaussian(Grid(1, 1e200, 64))
    assert np.count_nonzero(u.values) == 1 and u.sup() == 1 / math.sqrt(2 * math.pi)


@pytest.mark.parametrize("n", [64, 256])
def test_grid_geometry_equals_the_per_axis_forms_bit_for_bit(n):
    """The coordinate meshes serve every dimension; in d = 1 and d = 2 they
    give the arrays of the written-out forms, bit for bit."""
    g1, g2 = Grid(1, 8.0, n), Grid(2, 8.0, n)
    x = g1.axis()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    assert np.array_equal(g1.radius(), np.abs(x))
    assert np.array_equal(g2.radius(), np.hypot(xx, yy))
    half = 2.0 * math.pi * np.fft.rfftfreq(n, d=g1.spacing)
    xi = 2.0 * math.pi * np.fft.fftfreq(n, d=g1.spacing)
    kx, ky = np.meshgrid(xi, half, indexing="ij")
    assert np.array_equal(g1.freq_radius(), half)
    assert np.array_equal(g2.freq_radius(), np.hypot(kx, ky))
    norm1, norm2 = (3.0 / (1.2 * math.sqrt(2.0 * math.pi)) ** d for d in (1, 2))
    assert np.array_equal(GridFunction.gaussian(g1, 3.0, 1.2, center=0.5).values,
                          norm1 * np.exp(-(x - 0.5) ** 2 / (2 * 1.2 ** 2)))
    assert np.array_equal(
        GridFunction.gaussian(g2, 3.0, 1.2, center=0.5).values,
        norm2 * np.exp(-((xx - 0.5) ** 2 + (yy - 0.5) ** 2) / (2 * 1.2 ** 2)))
    assert np.array_equal(GridFunction.from_function(g2, lambda a, b: a * a + 2 * b * b).values,
                          xx * xx + 2 * yy * yy)
    for g, outer in ((g1, np.abs(x) > 6.0),
                     (g2, np.maximum(np.abs(xx), np.abs(yy)) > 6.0)):
        kern = kernels.SemigroupKernel(g, np.ones(g.shape))
        assert kern.boundary_mass() == float(outer.sum()) * g.cell_volume


def test_from_function_samples_on_axis():
    g = Grid(1, 8.0, 64)
    u = GridFunction.from_function(g, lambda x: np.exp(-x * x))
    assert_allclose(u.values[g.n // 2], 1.0, rtol=1e-14)


def test_fields_must_be_nonnegative():
    g = Grid(1, 8.0, 64)
    with pytest.raises(DomainError):
        GridFunction.from_function(g, lambda x: np.cos(x))


@pytest.mark.parametrize("values, match", [
    (np.ones(63), r"values shape \(63,\) does not match grid \(64,\)"),
    (np.full(64, math.nan), "values must be finite"),
], ids=["shape", "non-finite"])
def test_fields_must_match_their_grid_and_be_finite(values, match):
    with pytest.raises(DomainError, match=match):
        GridFunction(Grid(1, 8.0, 64), values)


# ---------------------------------------------------------------------------
# kernel specs
# ---------------------------------------------------------------------------

def test_effective_orders():
    assert KernelSpec.gaussian().alpha_effective(1) == 2.0
    assert KernelSpec.bump().alpha_effective(1) == 2.0
    assert KernelSpec.heavy_tail(2.5).alpha_effective(1) == 1.5
    assert KernelSpec.fractional(1.3).alpha_effective(1) == 1.3


def test_heavy_tail_order_window():
    # finite mass needs n > d, an order below two needs n < d + 2
    with pytest.raises(DomainError):
        KernelSpec.heavy_tail(3.5).alpha_effective(1)


def test_heavy_tail_symbol_is_realized_in_one_dimension_only():
    with pytest.raises(DomainError, match="heavy-tail kernels are realized in d = 1 only"):
        kernels.generator_symbol_grid(KernelSpec.heavy_tail(2.5), Grid(2, 8.0, 16))


def test_fractional_strength_is_the_diffusivity():
    g = Grid(1, 8.0, 64)
    sym = kernels.generator_symbol_grid(KernelSpec.fractional(2.0, strength=0.7), g)
    assert np.array_equal(sym, -0.7 * g.freq_radius() ** 2.0)


# the grids of C3 and C4, and the 2-D grids of the lattice benchmark
_SAMPLED_SYMBOL_CASES = [(KernelSpec.bump(), Grid(1, 48.0, 1024)),
                         (KernelSpec.bump(), Grid(1, 48.0, 2048)),
                         (KernelSpec.bump(), Grid(2, 24.0, 128)),
                         (KernelSpec.bump(), Grid(2, 48.0, 256)),
                         (KernelSpec.heavy_tail(2.5), Grid(1, 48.0, 1024)),
                         (KernelSpec.heavy_tail(2.5), Grid(1, 48.0, 2048))]


@pytest.mark.parametrize("spec, grid", _SAMPLED_SYMBOL_CASES,
                         ids=[f"{s.kind}-d{g.d}-L{g.L:g}-n{g.n}"
                              for s, g in _SAMPLED_SYMBOL_CASES])
def test_sampled_symbols_vanish_at_zero_frequency(spec, grid):
    """The sampled kinds are normalized to unit mass on the lattice, so
    Jhat(0) = 1 and the generator's symbol is 0 at xi = 0: on these grids
    to the last bit (elsewhere the sum may round by an ulp)."""
    sym = kernels.generator_symbol_grid(spec, grid)
    assert sym.flat[0] == 0.0
    assert np.all(sym <= 4 * np.finfo(float).eps)


def test_gaussian_symbol_has_unit_diffusivity():
    """C4 compares the lattice kernel with the heat kernel of diffusivity
    A = 1: on its grid (1 - Jhat(xi)) / |xi|^2 = (1 - e^(-|xi|^2)) / |xi|^2
    lies within |xi|^2 / 2 of 1 at the smallest frequencies."""
    g = Grid(1, 48.0, 2048)
    xi = g.freq_radius()[1:5]
    ratio = -kernels.generator_symbol_grid(KernelSpec.gaussian(), g)[1:5] / xi ** 2
    assert np.all(np.abs(ratio - 1.0) <= 0.5 * xi ** 2)
    assert np.all(np.diff(ratio) < 0)      # it climbs to 1 as xi falls


# ---------------------------------------------------------------------------
# lattice semigroup kernels
# ---------------------------------------------------------------------------

def test_kernel_mass_is_a_lattice_identity():
    g = Grid(1, 48.0, 1024)
    for spec in (KernelSpec.gaussian(), KernelSpec.bump(),
                 KernelSpec.fractional(1.2)):
        k = semigroup_kernel(spec, 0.8, g, boundary_tol=1.0)
        assert abs(k.mass() - 1.0) < 1e-12
        assert k.min_value() > -1e-9


def test_kernel_composition_law():
    g = Grid(1, 48.0, 1024)
    spec = KernelSpec.bump()
    k1 = semigroup_kernel(spec, 0.7, g, boundary_tol=1.0)
    k2 = semigroup_kernel(spec, 0.3, g, boundary_tol=1.0)
    k3 = semigroup_kernel(spec, 1.0, g, boundary_tol=1.0)
    conv = np.fft.fftshift(np.fft.ifftn(
        np.fft.fftn(np.fft.ifftshift(k1.values))
        * np.fft.fftn(np.fft.ifftshift(k2.values))).real) * g.cell_volume
    assert float(np.max(np.abs(conv - k3.values))) < 1e-10


@pytest.mark.parametrize("spec", [KernelSpec.gaussian(), KernelSpec.bump(),
                                  KernelSpec.fractional(1.2)],
                         ids=["gaussian_like", "compact_bump", "fractional"])
def test_kernel_composition_law_2d(spec):
    """k_0.7 * k_1.3 = k_2 in d = 2: the physical-space convolution, by full
    complex transforms of the origin-anchored kernels, against the kernel
    built from the multiplier at t = 2."""
    g = Grid(2, 24.0, 256)
    k1, k2, k3 = (semigroup_kernel(spec, t, g, boundary_tol=1.0).values
                  for t in (0.7, 1.3, 2.0))
    conv = np.fft.fftshift(np.fft.ifftn(
        np.fft.fftn(np.fft.ifftshift(k1))
        * np.fft.fftn(np.fft.ifftshift(k2))).real) * g.cell_volume
    assert float(np.max(np.abs(conv - k3))) < 1e-12


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8])
def test_boundary_tol_must_be_finite_and_nonnegative(tol):
    with pytest.raises(DomainError, match="boundary_tol"):
        semigroup_kernel(KernelSpec.gaussian(), 1.0, Grid(1, 8.0, 256),
                         boundary_tol=tol)
    # a nan tolerance used to pass every boundary audit: this kernel's
    # boundary mass is 0.23
    with pytest.raises(DomainError, match="boundary_tol"):
        kernels._audit_failure(KernelSpec.gaussian(), 25.0, Grid(1, 8.0, 256), tol)


def test_boundary_audit_rejects_small_boxes():
    with pytest.raises(ResolutionError):
        semigroup_kernel(KernelSpec.gaussian(), 25.0, Grid(1, 8.0, 256))


# ---------------------------------------------------------------------------
# one-sided stable subordinator, and the subordination oracle
# ---------------------------------------------------------------------------

def _kanter_log_a(phi: np.ndarray, beta: float) -> np.ndarray:
    b1 = 1.0 - beta
    with np.errstate(divide="ignore"):
        return (beta / b1) * np.log(np.sin(beta * phi)) \
            + np.log(np.sin(b1 * phi)) - (1.0 / b1) * np.log(np.sin(phi))


def _levy_density(x: float) -> float:
    """Density at x of the positive 1/2-stable law with Laplace transform
    exp(-s^(1/2)), Levy's closed form (4 pi)^(-1/2) x^(-3/2) e^(-1/(4x))."""
    if x <= 0.0:
        return 0.0
    return x ** -1.5 * math.exp(-0.25 / x) / (2.0 * math.sqrt(math.pi))


def _stable_density(beta: float, x: float) -> float:
    """Density at x > 0 of the positive stable law with Laplace transform
    exp(-s^beta), via Kanter's form of the Zolotarev integral."""
    if not (0.0 < beta < 1.0):
        raise DomainError("stable index beta must lie in (0, 1)")
    if x <= 0.0:
        return 0.0
    if beta == 0.5:
        return _levy_density(x)
    b1 = 1.0 - beta
    scale = x ** (-beta / b1)
    # smallest value of a(phi); if even that is crushed by the exponent the
    # density underflows to zero
    log_a_min = (beta / b1) * math.log(beta) + math.log(b1)
    if scale * math.exp(log_a_min) > 745.0:
        return 0.0

    def integrand(phi: float) -> float:
        la = float(_kanter_log_a(np.asarray(phi), beta))
        arg = scale * math.exp(la)
        if arg > 745.0:
            return 0.0
        return math.exp(la - arg)

    # deep in the left tail the integrand survives only on a sliver of the
    # phi interval and QUADPACK complains about roundoff; the value is then
    # orders of magnitude below anything downstream consumers compare against
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, 0.0, math.pi, epsabs=1e-14, epsrel=1e-11, limit=300)
    return (beta / b1) * x ** (-1.0 / b1) * val / math.pi


def subordinated_profile(alpha: float, d: int, rho: float):
    """(R(rho), error estimate) of the order-alpha profile by Bochner's
    integral over the one-sided alpha/2-stable density. The estimate covers
    the outer quadrature only, not the inner Kanter densities."""
    beta = 0.5 * alpha
    if rho <= 1.0:
        # lam-form: the Gaussian factor is tame here
        def integrand(lam: float) -> float:
            g = _stable_density(beta, lam)
            if g == 0.0:
                return 0.0
            return g * (4.0 * math.pi * lam) ** (-d / 2.0) * math.exp(-rho ** 2 / (4.0 * lam))

        return quad(integrand, 0.0, np.inf, epsabs=1e-14,
                    epsrel=kernels._QUAD_TOL, limit=300)
    # tau-form, lam = rho^2/(4 tau): stabilizes the small-lam boundary
    # layer that carries the tail mass

    def integrand(tau: float) -> float:
        g = _stable_density(beta, rho ** 2 / (4.0 * tau))
        if g == 0.0:
            return 0.0
        return g * tau ** (d / 2.0 - 2.0) * math.exp(-tau)

    val, err = quad(integrand, 0.0, np.inf, epsabs=1e-14,
                    epsrel=kernels._QUAD_TOL, limit=300)
    front = math.pi ** (-d / 2.0) * rho ** (-d) * (rho ** 2 / 4.0)
    return front * val, front * err


def test_subordinator_density_levy_closed_form():
    # beta = 1/2 is the Levy density (4 pi)^(-1/2) s^(-3/2) e^(-1/(4s))
    for s in (0.3, 0.8, 2.0):
        closed = (4.0 * math.pi) ** -0.5 * s ** -1.5 * math.exp(-1.0 / (4.0 * s))
        assert_allclose(_levy_density(s), closed, rtol=1e-12)


def test_subordinator_negative_moment_identity():
    """int s^(-q) eta_beta(s) ds = Gamma(q/beta) / (beta Gamma(q)), checked
    for beta = 0.6 by direct quadrature against the gamma-function value."""
    q, beta = 0.7, 0.6
    lhs, _ = quad(lambda s: _stable_density(beta, s) * s ** (-q),
                  0.0, 2000.0, limit=150, points=[0.5, 2.0, 20.0, 200.0])
    rhs = math.gamma(q / beta) / (beta * math.gamma(q))
    assert abs(lhs / rhs - 1.0) < 1e-4


# ---------------------------------------------------------------------------
# stable profiles
# ---------------------------------------------------------------------------

def test_profile_gaussian_endpoint():
    prof = stable_profile(2.0, 1)
    for rho in (0.0, 0.5, 2.0):
        closed = (4.0 * math.pi) ** -0.5 * math.exp(-rho * rho / 4.0)
        assert_allclose(float(prof(rho)), closed, rtol=1e-10)


def test_profile_center_value_identity():
    # R(0) = (4 pi)^(-d/2) (2/alpha) Gamma(d/alpha) / Gamma(d/2)
    alpha, d = 1.4, 2
    prof = stable_profile(alpha, d)
    closed = (4.0 * math.pi) ** (-d / 2.0) * (2.0 / alpha) \
        * math.gamma(d / alpha) / math.gamma(d / 2.0)
    assert_allclose(float(prof(0.0)), closed, rtol=1e-10)


def test_profile_closed_and_subordination_routes_agree():
    rho = np.linspace(0.0, 8.0, 33)
    closed = stable_profile(1.0, 3)
    assert set(closed.evaluate(rho).route) == {"closed"}
    sub = stable_profile(1.0, 3, method="subordination")
    assert float(np.max(np.abs(closed(rho) - sub(rho)))) < 1e-7


def test_subordination_estimates_are_held_to_the_profile_tolerance():
    """The subordination trapezoid's estimate is relative, so a small value
    far out is held to 1e-11 of itself like every other route."""
    res = stable_profile(1.0, 2, method="subordination").evaluate(100.0)
    assert res.error[0] <= 1e-11 * res.value[0]


def _poisson_mp(mp, d: int, rho: float):
    k = mp.mpf(d + 1) / 2
    return mp.gamma(k) * mp.pi ** -k * (1 + mp.mpf(rho) ** 2) ** -k


@pytest.mark.parametrize("d", [1, 2, 3, 5, 50, 600])
def test_subordination_matches_the_poisson_closed_form(d):
    """The subordination trapezoid against mpmath's Gamma(k) pi^(-k)
    (1 + rho^2)^(-k), k = (d + 1)/2, to 1e-13, each estimate at most 1e-11
    of R and at least its true error. At d = 600 R is a normal double for
    rho in [1.53, 19.1] only: above it R reads 0 with an infinite estimate,
    below it 0 with estimate 0."""
    mp = pytest.importorskip("mpmath")
    rho = [0.0, 0.1, 1.0, 10.0, 100.0, 1e6, *np.linspace(0.05, 2.0, 40)]
    if d == 600:
        rho += [2.0, *np.geomspace(1.53, 19.1, 40)]
    res = stable_profile(1.0, d, method="subordination").evaluate(np.array(rho))
    with mp.workdps(30):
        for r, value, error in zip(rho, res.value, res.error):
            ref = _poisson_mp(mp, d, r)
            if ref > sys.float_info.max:
                assert (value, error) == (0.0, math.inf), r
            elif ref < sys.float_info.min:
                assert (value, error) == (0.0, 0.0), r
            else:
                true = float(abs(value - ref))
                assert true <= 1e-13 * float(ref), r
                assert true <= error <= 1e-11 * value, r


@pytest.mark.parametrize("d", [1, 4, 600])
def test_subordination_array_call_equals_scalar_calls(d):
    """Rows are summed alike in every chunk of 32 radii, so an array call
    returns the scalar calls' values and estimates bit for bit."""
    rho = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 70)])
    prof = stable_profile(1.0, d, method="subordination")
    res = prof.evaluate(rho)
    for r, value, error in zip(rho, res.value, res.error):
        one = prof.evaluate(r)
        assert (one.value[0], one.error[0]) == (value, error), r


def test_subordination_tables_stay_bounded():
    """10^5 radii in d = 1 (the most nodes, 362 a radius) take the node
    tables 32 rows at a time: the whole table would hold 290 MB."""
    rho = np.geomspace(1e-3, 1e3, 100_000)
    prof = stable_profile(1.0, 1, method="subordination")
    tracemalloc.start()
    try:
        value = prof(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value.shape == rho.shape
    assert peak < 16e6


def test_subordination_raises_no_floating_point_warning():
    rho = np.array([0.0, 5e-324, 1e-300, 1e-8, 1.0, 1e154, 1e200, sys.float_info.max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (1, 2, 600, 20000):
            res = stable_profile(1.0, d, method="subordination").evaluate(rho)
            assert np.all(res.value >= 0.0) and not np.isnan(res.error).any()


def test_subordination_makes_no_quad_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the subordination route called quad")

    monkeypatch.setattr(kernels, "quad", refuse)
    stable_profile(1.0, 3, method="subordination")(np.linspace(0.0, 10.0, 201))


def test_profile_self_similar_kernel():
    prof = stable_profile(1.4, 2)
    t, r = 3.0, 1.7
    manual = t ** (-2.0 / 1.4) * float(prof(r * t ** (-1.0 / 1.4)))
    assert_allclose(prof.kernel_radial(t, r), manual, rtol=1e-12)


def test_profile_method_validation():
    with pytest.raises(DomainError):
        stable_profile(1.0, 3, method="bogus")
    # the subordination route serves alpha = 1 only; other orders take the
    # test-side oracle
    for alpha in (0.7, 1.4, 2.0):
        with pytest.raises(DomainError, match="alpha = 1 only"):
            stable_profile(alpha, 3, method="subordination")


class KernelBoundReport(NamedTuple):
    decay_constant: float               # sup (1+rho)^d R(rho), refined
    gradient_constant: Optional[float]  # sup (1+rho)^(d+1) |R'(rho)|, alpha in {1, 2}
    min_value: float
    empirical_tail_exponent: float      # fitted decay order over the last decade


def profile_derivative(profile, rho):
    """dR/drho in closed form, alpha in {1, 2} only."""
    if profile.alpha == 2.0:
        return -(rho / 2.0) * profile(rho)
    return -(profile.d + 1) * rho / (1.0 + rho ** 2) * profile(rho)


def verify_kernel_bounds(profile, rho_grid) -> KernelBoundReport:
    """Audit of positivity and the (1+rho)^(-d) decay bound on a grid. The
    fitted tail order (close to d + alpha for alpha < 2) is reported, never
    asserted here."""
    rho = np.asarray(rho_grid, dtype=float)
    if rho.ndim != 1 or rho.size < 8 or np.any(np.diff(rho) <= 0):
        raise DomainError("rho_grid must be an increasing 1-d grid with >= 8 points")
    R = profile(rho)
    _, C = refine_max_on_grid(lambda x: (1.0 + x) ** profile.d * float(profile(x)),
                              rho, (1.0 + rho) ** profile.d * R)
    grad_C = None
    if profile.alpha in (1.0, 2.0):
        grad_C = float(np.max((1.0 + rho) ** (profile.d + 1)
                              * np.abs(profile_derivative(profile, rho))))
    last_decade = rho >= rho[-1] / 10.0
    tail = -loglog_slope(rho[last_decade], np.maximum(R[last_decade], 1e-300))
    return KernelBoundReport(C, grad_C, float(R.min()), float(tail))


def test_kernel_bound_report():
    rep = verify_kernel_bounds(stable_profile(1.0, 3), np.geomspace(0.1, 30.0, 40))
    assert rep.min_value > 0
    assert rep.decay_constant > 0
    assert rep.gradient_constant is not None        # alpha = 1 has a derivative
    assert 3.5 < rep.empirical_tail_exponent < 4.5  # close to d + alpha


def test_kernel_bound_report_without_closed_derivative():
    rep = verify_kernel_bounds(stable_profile(1.4, 2), np.geomspace(0.1, 20.0, 24))
    assert rep.gradient_constant is None


def test_kernel_bound_grid_validation():
    with pytest.raises(DomainError):
        verify_kernel_bounds(stable_profile(1.0, 3), [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# stable-profile routes
# ---------------------------------------------------------------------------

# (alpha, d, rho, route auto takes): every route, d in {1, 2, 3, 5}, alpha
# on both sides of 1, at points where subordination costs under a second
ROUTE_POINTS = [
    (0.8, 1, 0.3, "mellin"),
    (1.3, 1, 2.5, "mellin"),
    (1.4, 2, 3.0, "mellin"),
    (0.7, 3, 0.4, "mellin"),
    (1.2, 5, 2.0, "mellin"),
    (1.5, 5, 0.5, "series-near"),
    (0.8, 5, 3.0, "series-far"),
]


@pytest.mark.parametrize("alpha,d,rho,route", ROUTE_POINTS)
def test_profile_routes_match_subordination(alpha, d, rho, route):
    fast = stable_profile(alpha, d).evaluate(rho)
    value, error = subordinated_profile(alpha, d, rho)
    assert fast.route[0] == route
    assert fast.error[0] <= 1e-11 * fast.value[0]
    # the oracle's estimate covers its outer quadrature only, not the inner
    # Kanter densities; 1e-9 is what it holds at these points (it misses by
    # 2e-11 at (1.6, 2, 0.5) while estimating 1.6e-12)
    assert error <= 1e-11 * value
    assert_allclose(fast.value[0], value, rtol=1e-9)


@pytest.mark.parametrize("alpha,d", [(1.4, 2), (1.2, 1), (1.8, 5), (1.05, 3),
                                     (0.7, 3), (0.9, 1), (0.6, 2), (1.9, 200)])
def test_profile_routes_agree_at_their_switches(alpha, d):
    rho_near, rho_far = _series_switches(alpha, d)

    def mellin(r):
        return _mellin(alpha, d, r)[0]

    def series(fn, r):
        return float(fn(alpha, d, np.array([r]))[0][0])

    # rho = 0: the closed form against the route serving the smallest radii
    first = series(_near_series, 1e-9) if alpha > 1 else mellin(1e-9)
    assert_allclose(first, stable_profile(alpha, d)(0.0), rtol=1e-10)
    if alpha > 1:
        assert rho_near > 0
        assert_allclose(series(_near_series, rho_near), mellin(rho_near), rtol=1e-10)
    assert math.isfinite(rho_far)
    assert_allclose(mellin(rho_far), series(_far_series, rho_far), rtol=1e-10)


@pytest.mark.parametrize("alpha,d,rho", [(1.5, 1, 250.0), (1.7, 1, 200.0),
                                         (1.2, 2, 400.0)])
def test_profile_far_field_constant(alpha, d, rho):
    """rho^(d+alpha) R(rho) -> c (Blumenthal-Getoor), on the far series at a
    radius where the next term of the tail is below 1e-3."""
    c = alpha * 2.0 ** (alpha - 1.0) * math.pi ** (-d / 2.0 - 1.0) \
        * math.gamma((d + alpha) / 2.0) * math.gamma(alpha / 2.0) \
        * math.sin(math.pi * alpha / 2.0)
    next_term = abs(math.gamma((d + 2 * alpha) / 2.0) * math.gamma(1.0 + alpha)
                    * math.sin(math.pi * alpha)
                    / (2.0 * math.gamma((d + alpha) / 2.0) * math.gamma(1.0 + alpha / 2.0)
                       * math.sin(math.pi * alpha / 2.0))) * (2.0 / rho) ** alpha
    assert next_term < 1e-3
    res = stable_profile(alpha, d).evaluate(rho)
    assert res.route[0] == "series-far"
    assert res.error[0] < 1e-11 * res.value[0]
    assert abs(rho ** (d + alpha) * res.value[0] / c - 1.0) < 1e-3


def near_series_derivative(alpha, d, rho):
    """dR_d/drho from the termwise derivative of the near series
    R_d = 2/(alpha (4 pi)^(d/2)) sum_k (-1)^k Gamma((2k+d)/alpha) / (k! Gamma(k+d/2)) (rho/2)^(2k)
    (alpha > 1, where it converges for every rho), with a bound on its
    rounding error: 16 eps times the sum of the terms' magnitudes."""
    terms = []
    for k in range(1, 400):
        log_mag = (math.lgamma((2 * k + d) / alpha) - math.lgamma(k + 1.0)
                   - math.lgamma(k + d / 2.0) + (2 * k - 1) * math.log(rho / 2.0))
        terms.append((-1) ** k * k * math.exp(log_mag))
        if k > 10 and abs(terms[-1]) < 1e-17 * abs(math.fsum(terms)):
            break
    front = 2.0 / (alpha * (4.0 * math.pi) ** (d / 2.0))
    return front * math.fsum(terms), front * 16.0 * np.finfo(float).eps * sum(map(abs, terms))


@pytest.mark.parametrize("alpha", [1.3, 1.7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_contour_obeys_the_dimension_recurrence(alpha, d):
    """R_(d+2)(rho) = -R_d'(rho)/(2 pi rho) (DLMF 10.6.6), with R_(d+2) on
    the Mellin-Barnes contour and R_d' from the near series of the lower
    dimension, just past the switch where the derivative series still
    cancels mildly."""
    prof = stable_profile(alpha, d + 2)
    rho_near, _ = _series_switches(alpha, d + 2)
    rho = rho_near * np.array([1.02, 1.1, 1.25])
    res = prof.evaluate(rho)
    assert list(res.route) == ["mellin"] * rho.size
    for r, value in zip(rho, res.value):
        slope, rounding = near_series_derivative(alpha, d, r)
        assert abs(value + slope / (2.0 * math.pi * r)) \
            <= kernels._QUAD_TOL * value + rounding / (2.0 * math.pi * r)


def test_profile_far_corner_matches_high_precision_hankel():
    """At (1.4, 2, 10) subordination is off by 1.3e-8; the profile agrees
    with the Hankel integral taken by mpmath at 20 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        ref = mp.quadosc(lambda k: mp.exp(-k ** mp.mpf("1.4")) * k * mp.besselj(0, 10 * k),
                         [0, mp.inf], omega=10) / (2 * mp.pi)
    assert_allclose(stable_profile(1.4, 2)(10.0), float(ref), rtol=1e-12)


def test_profile_array_call_equals_scalar_calls():
    rho = np.concatenate([[0.0], np.geomspace(0.05, 30.0, 25)])
    for alpha, d in ((1.4, 2), (0.7, 3)):
        prof = stable_profile(alpha, d)
        assert len(set(prof.evaluate(rho).route)) >= 3
        assert np.array_equal(prof(rho), [prof(float(r)) for r in rho])


def test_profile_leaks_no_integration_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        assert stable_profile(1.2, 1)(10.0) > 0


def test_profile_error_over_tolerance_raises(monkeypatch):
    # a small order in high dimension, where the Hankel integral along the
    # real axis cancels below double precision: the Mellin-Barnes line
    # serves it (its value is pinned against mpmath below)
    assert stable_profile(0.3, 8)(0.05) > 0
    # the line reaches 1e-13 there, and QUADPACK refuses a relative target
    # under 50 eps, so a lower tolerance cannot show a miss: the estimate
    # QUADPACK returns is inflated instead, which the route must pass on
    def coarse_quad(*args, **kwargs):
        out = quad(*args, **kwargs)
        return (out[0], 1e4 * out[1]) + out[2:]

    monkeypatch.setattr(kernels, "quad", coarse_quad)
    res = stable_profile(0.3, 8).evaluate(0.05)
    assert res.error[0] > kernels._QUAD_TOL * res.value[0]
    with pytest.raises(ResolutionError, match="profile route mellin"):
        stable_profile(0.3, 8)(0.05)


def _mp_series(terms, dps=30):
    """Partial sums of a series at dps digits until its terms fall below
    10^-dps of the sum."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        total = mp.mpf(0)
        for n, term in enumerate(terms(mp)):
            total += term
            if n > 20 and abs(term) < mp.mpf(10) ** -dps * abs(total):
                return total


@pytest.mark.parametrize("alpha,d,rho,series,dps", [
    (0.3, 8, 0.05, "far", 30),
    (1.95, 3, 7.0, "near", 30),
    # the far series cancels by 3e19 here
    (0.32, 7, 2.1544346900318845e-4, "far", 50),
])
def test_contour_matches_high_precision_series(alpha, d, rho, series, dps):
    """The Mellin-Barnes contour against the series at high precision, where
    double precision serves neither: the far series converges for
    alpha < 1 and the near one for alpha > 1. At (0.3, 8, 0.05) the Hankel
    integral by mpmath's quadosc gives 26625649.937826782."""
    def far(mp):
        a, r = mp.mpf(alpha), mp.mpf(rho)
        for n in range(1, 2000):
            yield (mp.pi ** (-mp.mpf(d) / 2 - 1) * r ** -d * (-1) ** (n + 1) / mp.factorial(n)
                   * mp.gamma((n * a + d) / 2) * mp.gamma(1 + n * a / 2)
                   * mp.sinpi(n * a / 2) * (2 / r) ** (n * a))

    def near(mp):
        a, r = mp.mpf(alpha), mp.mpf(rho)
        for k in range(2000):
            yield (2 / (a * (4 * mp.pi) ** (mp.mpf(d) / 2)) * (-1) ** k
                   * mp.gamma((2 * k + d) / a) / (mp.factorial(k) * mp.gamma(k + mp.mpf(d) / 2))
                   * (r / 2) ** (2 * k))

    ref = float(_mp_series(far if series == "far" else near, dps))
    res = stable_profile(alpha, d).evaluate(rho)
    assert res.route[0] == "mellin"
    assert_allclose(res.value[0], ref, rtol=2e-12)


def _quadosc_profile(mp, alpha, d, rho):
    """R at d = 1 (cosine) or d = 3 (sine transform) by mpmath's quadosc,
    at the working precision in force."""
    a, r = mp.mpf(alpha), mp.mpf(rho)
    if d == 1:
        return mp.quadosc(lambda k: mp.exp(-k ** a) * mp.cos(k * r), [0, mp.inf], omega=r) / mp.pi
    return mp.quadosc(lambda k: mp.exp(-k ** a) * k * mp.sin(k * r),
                      [0, mp.inf], omega=r) / (2 * mp.pi ** 2 * r)


def _between_the_series(alpha, d, points):
    """R at ``points`` radii strictly between the switches, each on the
    Mellin-Barnes route within the profile tolerance."""
    rho_near, rho_far = _series_switches(alpha, d)
    rho = np.linspace(rho_near, rho_far, points + 2)[1:-1]
    res = stable_profile(alpha, d).evaluate(rho)
    assert list(res.route) == ["mellin"] * rho.size
    assert np.all(res.error <= kernels._QUAD_TOL * res.value), (alpha, d)
    return rho, res.value


@pytest.mark.parametrize("d", [1, 3])
def test_contour_serves_orders_just_above_one(d):
    """At alpha = 1.002 the near and far series both converge slowly and
    leave a wide range to the Mellin-Barnes contour. Against the cosine
    (d = 1) and sine (d = 3) transforms by mpmath at 20 digits."""
    mp = pytest.importorskip("mpmath")
    rho, values = _between_the_series(1.002, d, 2)
    with mp.workdps(20):
        for r, value in zip(rho, values):
            assert_allclose(value, float(_quadosc_profile(mp, 1.002, d, r)),
                            rtol=kernels._QUAD_TOL)


def test_contour_serves_every_radius_between_the_series():
    """384 points: twelve orders from 0.3 to 1.99 (not 1), d = 1-8 and four radii
    strictly between the switches, each served within the profile tolerance."""
    for alpha in np.linspace(0.3, 1.99, 12):
        for d in range(1, 9):
            _between_the_series(float(alpha), d, 4)


@pytest.mark.parametrize("d", [1, 3])
def test_mellin_line_passes_the_poles_near_alpha_two(d, monkeypatch):
    """At alpha = 1.9995 and large rho the pole of Gamma(1 - q/alpha) at
    q = alpha pins the saddle; the line moves past the poles and adds their
    residues, the far series' first terms. Against mpmath's quadosc at 25
    digits; the line left at the saddle misses the profile tolerance there."""
    mp = pytest.importorskip("mpmath")
    rho, values = _between_the_series(1.9995, d, 4)
    with mp.workdps(25):
        for r, value in zip(rho, values):
            assert_allclose(value, float(_quadosc_profile(mp, 1.9995, d, r)), rtol=1e-12)
    monkeypatch.setattr(kernels, "_POLE_GAP", 0.0)

    def misses(r):
        try:
            value, error = _mellin(1.9995, d, float(r))
        except ResolutionError:
            return True
        return error > kernels._QUAD_TOL * value

    assert any(misses(r) for r in rho)


@pytest.mark.parametrize("d", [1, 2, 3, 10, 40, 100])
def test_mellin_line_matches_the_poisson_closed_form(d):
    """At alpha = 1, where auto takes the closed form, the private route
    against (Gamma((d+1)/2)/pi^((d+1)/2)) (1 + rho^2)^(-(d+1)/2), from
    rho = 1e-3 to 1e3, in dimensions where the Hankel path failed."""
    closed = stable_profile(1.0, d)
    for r in np.geomspace(1e-3, 1e3, 7):
        value, error = _mellin(1.0, d, float(r))
        assert error <= kernels._QUAD_TOL * value
        assert_allclose(value, closed(r), rtol=1e-12)


def test_mellin_line_outside_the_double_range_yields_to_the_far_series():
    """At d = 400, R(33) lies below the smallest double: the line returns 0
    with an infinite error, as the series do. The far series serves that
    radius and R reads 0, which it is in doubles."""
    assert _mellin(1.5, 400, 33.0) == (0.0, math.inf)
    res = stable_profile(1.5, 400).evaluate(33.0)
    assert (res.value[0], res.error[0], res.route[0]) == (0.0, 0.0, "series-far")


@pytest.mark.parametrize("alpha,d,rho", [
    (1.0, 1000, 1.0),    # R itself lies above the largest double
    (0.5, 300, 0.0),     # the center's Gamma(d/alpha) does
])
def test_closed_form_outside_the_double_range_raises(alpha, d, rho):
    """Where the closed form's arithmetic overflows, it returns 0 with an
    infinite error, as the series and the Mellin line do, and a call
    raises ResolutionError naming the route."""
    prof = stable_profile(alpha, d)
    res = prof.evaluate(rho)
    assert (res.value[0], res.error[0], res.route[0]) == (0.0, math.inf, "closed")
    with pytest.raises(ResolutionError, match="profile route closed"):
        prof(rho)


def test_routes_hand_evaluate_what_they_summed():
    """The routes return the value and estimate they formed, overflowed or
    not, and evaluate alone applies the range rule to them: a closed form
    past the largest double reads inf from its route and 0 with an infinite
    estimate from evaluate."""
    value, error = kernels._closed(np.array([800.0]), np.array([800.0]))
    assert (value[0], error[0]) == (math.inf, math.inf)
    value, error = _near_series(1.5, 3, np.array([1e4]))
    assert not (math.isfinite(value[0]) and math.isfinite(error[0]))
    res = stable_profile(1.0, 1000).evaluate(1.0)
    assert (res.value[0], res.error[0]) == (0.0, math.inf)


def test_switch_radii_refuse_raw_sums_that_are_not_finite(monkeypatch):
    """A raw series sum passes the switch test only where it is finite:
    inf <= target * inf holds, so series that read inf with an infinite
    estimate at every radius would otherwise serve them all."""
    def infinite(alpha, d, rho):
        return np.full(rho.size, math.inf), np.full(rho.size, math.inf)

    monkeypatch.setattr(kernels, "_near_series", infinite)
    monkeypatch.setattr(kernels, "_far_series", infinite)
    assert kernels._series_switches.__wrapped__(1.5, 3) == (0.0, math.inf)


@pytest.mark.parametrize("d", [450, 600])
def test_poisson_closed_form_serves_dimensions_where_its_constant_overflows(d):
    """Gamma(h) pi^(-h), h = (d+1)/2, leaves the doubles from d = 438; the
    closed form sums it in logs with the power, so R is served wherever it
    is a normal double: on rho in [1.6, 19] against mpmath at 40 digits,
    where every radius raised. Further out R is below the normal doubles
    and reads 0."""
    mp = pytest.importorskip("mpmath")
    h = (d + 1) / 2.0
    assert math.lgamma(h) - h * math.log(math.pi) > math.log(np.finfo(float).max)
    rho = np.geomspace(1.6, 19.0, 25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = stable_profile(1.0, d)
        values = prof(rho)
        assert prof(50.0) == 0.0
    with mp.workdps(40):
        hm = mp.mpf(d + 1) / 2
        for r, value in zip(rho, values):
            ref = mp.gamma(hm) * mp.pi ** -hm * (1 + mp.mpf(float(r)) ** 2) ** -hm
            assert abs(mp.mpf(float(value)) - ref) <= 1e-12 * ref


def test_near_series_keeps_its_front_in_logs_at_dimension_thousand():
    """(4 pi)^(d/2) overflows from d = 562; the near series sums its front
    in logs, so at d = 1000 it still reads R(0.05), against the near series
    summed by mpmath at 40 digits. Its rounding estimate there misses the
    switch target, so the route switch never picks it, and the Mellin line
    serves R(0.05) to the same oracle."""
    mp = pytest.importorskip("mpmath")
    assert _series_switches(1.5, 1000)[0] == 0.0
    with mp.workdps(40):
        a, d, rho = mp.mpf(1.5), 1000, mp.mpf(0.05)
        ref = 2 / (a * (4 * mp.pi) ** (d / 2)) * mp.nsum(
            lambda k: (-1) ** k * mp.gamma((2 * k + d) / a)
            / (mp.factorial(k) * mp.gamma(k + mp.mpf(d) / 2)) * (rho / 2) ** (2 * k),
            [0, mp.inf])
    assert_allclose(_near_series(1.5, 1000, np.array([0.05]))[0][0], float(ref), rtol=1e-11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = stable_profile(1.5, 1000)
        assert prof.evaluate(0.05).route[0] == "mellin"
        assert_allclose(prof(0.05), float(ref), rtol=1e-11)


@pytest.mark.parametrize("alpha,d", [(1.0, 150), (1.0, 200), (1.0, 300),
                                     (2.0, 1), (2.0, 3)])
def test_closed_forms_keep_their_digits_and_bound_their_error(alpha, d):
    """Against mpmath at 40 digits on rho log-spaced to 1e3: each value is
    within 1e-11 of R, or reads 0 where R lies below the normal doubles,
    and each estimate covers the value's true error. At alpha = 1 the power
    (1 + rho^2)^(-h) leaves the normal doubles long before R does when d is
    large, so the log terms are summed before the one exp."""
    mp = pytest.importorskip("mpmath")
    rho = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 121)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = stable_profile(alpha, d).evaluate(rho)
    tiny = np.finfo(float).tiny
    with mp.workdps(40):
        for r, value, error in zip(rho, res.value, res.error):
            x = mp.mpf(float(r))
            if alpha == 1.0:
                h = mp.mpf(d + 1) / 2
                ref = mp.gamma(h) * mp.pi ** -h * (1 + x * x) ** -h
            else:
                ref = (4 * mp.pi) ** (-mp.mpf(d) / 2) * mp.exp(-x * x / 4)
            if ref < tiny:
                assert (value, error) == (0.0, 0.0)
                continue
            true_error = abs(mp.mpf(float(value)) - ref)
            assert true_error <= 1e-11 * ref
            assert error >= true_error


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_closed_form_is_zero_without_a_warning_at_huge_radii(alpha):
    """rho^2 overflows at rho = 1e200; R there is 0 in doubles, and that
    is no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stable_profile(alpha, 3)(1e200) == 0.0


def test_mellin_line_matches_the_near_series_at_dimension_twenty():
    """alpha = 1.5, d = 20 between the switches, against the near series
    summed by mpmath at 50 digits (it converges for alpha > 1)."""
    rho, values = _between_the_series(1.5, 20, 4)

    def near(r):
        def terms(mp):
            a, x = mp.mpf("1.5"), mp.mpf(r)
            for k in range(2000):
                yield (2 / (a * (4 * mp.pi) ** 10) * (-1) ** k * mp.gamma((2 * k + 20) / a)
                       / (mp.factorial(k) * mp.gamma(k + 10)) * (x / 2) ** (2 * k))
        return float(_mp_series(terms, 50))

    for r, value in zip(rho, values):
        assert_allclose(value, near(r), rtol=1e-12)


def test_far_series_keeps_its_digits_near_alpha_two():
    """At alpha = 1 - 1e-6 below 2 the weights sin(pi n alpha/2) are near
    n pi and lose six digits if taken from alpha; from 2 - alpha they keep
    them. Against the far series summed by mpmath at 30 digits."""
    alpha, d, rho = 1.999999, 3, 20.0

    def terms(mp):
        a, r = mp.mpf(alpha), mp.mpf(rho)
        for n in range(1, 60):
            yield (mp.pi ** -2.5 * r ** -d * (-1) ** (n + 1) / mp.factorial(n)
                   * mp.gamma((n * a + d) / 2) * mp.gamma(1 + n * a / 2)
                   * mp.sinpi(n * a / 2) * (2 / r) ** (n * a))

    value, error = _far_series(alpha, d, np.array([rho]))
    assert error[0] <= kernels._QUAD_TOL * value[0]
    assert_allclose(value[0], float(_mp_series(terms)), rtol=1e-13)


def _mp_far_series(mp, alpha, d, rho, terms=400):
    """The far series summed by mpmath, stopped before its smallest term by
    magnitude, which must lie below 1e-13 of the sum. The sine weight is
    left out of that choice: at alpha = 1.5 every fourth weight is 0."""
    a, r = mp.mpf(alpha), mp.mpf(rho)
    mags = [mp.gamma((n * a + d) / 2) * mp.gamma(1 + n * a / 2) / mp.factorial(n)
            * (2 / r) ** (n * a) for n in range(1, terms + 1)]
    stop = mags.index(min(mags))
    total = mp.fsum((-1) ** (n + 1) * mp.sinpi(n * a / 2) * m
                    for n, m in enumerate(mags[:stop], start=1))
    assert mags[stop] < 1e-13 * abs(total)
    return mp.pi ** (-mp.mpf(d) / 2 - 1) * r ** -d * total


def _mp_mellin_line(mp, alpha, d, rho):
    """R(rho) from the Mellin-Barnes line by mpmath's quad:
    R = int_0^inf Re[2^q Gamma((d+q)/2) Gamma(1-q/alpha) / Gamma(1-q/2)
    rho^(-q-1)] dt / (2 pi^(d/2+1) rho^(d-1)), q = c - 1 + i t, with c
    near the real-axis minimum of the integrand."""
    q = np.linspace(1.0 - d, alpha, 4001)[1:-1]
    c = 1.0 + q[np.argmin(gammaln(0.5 * (d + q)) + gammaln(1.0 - q / alpha)
                          - gammaln(1.0 - 0.5 * q) + q * math.log(2.0 / rho))]
    a, r, h = mp.mpf(alpha), mp.mpf(rho), mp.mpf(d) / 2

    def f(t):
        q = mp.mpc(c - 1.0, t)
        return mp.re(2 ** q * mp.gamma(h + q / 2) * mp.gamma(1 - q / a)
                     / mp.gamma(1 - q / 2) * r ** -(q + 1))
    return mp.quad(f, [0, mp.inf]) / (2 * mp.pi ** (h + 1) * r ** (d - 1))


# indices 40 and 41 of np.geomspace(1e-2, 1e3, 61): at d = 200 the far
# series' front pi^(-d/2-1) rho^(-d) is subnormal at the first and below
# the doubles at the second, where R is about 1e-178
_RHO_40, _RHO_41 = np.geomspace(1e-2, 1e3, 61)[40:42]


@pytest.mark.parametrize("alpha,d,rho,oracle", [
    (1.5, 213, 20.0, "far"),
    (0.5, 200, _RHO_40, "far"), (0.5, 200, _RHO_41, "far"),
    (1.5, 200, _RHO_40, "far"), (1.5, 200, _RHO_41, "far"),
    # inside rho_far the far series stops 3e-4 short of R: the line serves
    (1.9, 200, _RHO_40, "mellin"), (1.9, 200, _RHO_41, "far"),
])
def test_far_series_keeps_its_front_in_logs(alpha, d, rho, oracle):
    """Where the far series' front leaves the normal doubles, the series
    sums it in logs: R(20) at (1.5, 213) is 4.6e-162, not 0. Against the
    far series or the Mellin line taken by mpmath at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = stable_profile(alpha, d)(rho)
    with mp.workdps(30):
        ref = (_mp_far_series if oracle == "far" else _mp_mellin_line)(mp, alpha, d, rho)
    assert_allclose(value, float(ref), rtol=1e-11)


@pytest.mark.parametrize("alpha", [0.5, 1.5, 1.9])
@pytest.mark.parametrize("d", [50, 200, 400])
def test_profile_values_below_the_normal_doubles_read_zero(alpha, d):
    """No route returns a value between 0 and the smallest normal double.
    A 0 is R in doubles (error 0, where the far series' leading term lies
    below that double) or an unresolved route (error inf, where R lies
    above the largest double at alpha = 0.5), which the call refuses."""
    rho = np.geomspace(1e-2, 1e3, 61)
    res = stable_profile(alpha, d).evaluate(rho)
    tiny = np.finfo(float).tiny
    assert not np.any((res.value != 0.0) & (np.abs(res.value) < tiny))
    zero = res.value == 0.0
    assert np.all((res.error[zero] == 0.0) | (res.error[zero] == math.inf))
    flushed = zero & (res.error == 0.0)
    assert np.all(kernels._far_terms(alpha, d, rho[flushed], 1)[0][:, 0] < math.log(tiny))


def test_gaussian_profile_below_the_normal_doubles_reads_zero():
    """R(54) at alpha = 2, d = 1 is the subnormal 7.07e-318 in doubles: it
    reads 0 with error 0."""
    res = stable_profile(2.0, 1).evaluate(54.0)
    assert (res.value[0], res.error[0]) == (0.0, 0.0)
    assert stable_profile(2.0, 1)(54.0) == 0.0


@pytest.mark.parametrize("alpha,d", [(1.5, 300), (1.5, 500), (0.7, 100)])
def test_center_estimate_covers_its_error(alpha, d):
    """R(0) sums three log terms of size up to d; its error estimate counts
    them, and covers R(0) against mpmath at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a = mp.mpf(alpha)
        ref = 2 / (a * (4 * mp.pi) ** (mp.mpf(d) / 2)) * mp.gamma(d / a) / mp.gamma(mp.mpf(d) / 2)
        res = stable_profile(alpha, d).evaluate(0.0)
        assert res.error[0] >= abs(mp.mpf(res.value[0]) / ref - 1) * res.value[0]
    assert res.error[0] <= kernels._QUAD_TOL * res.value[0]
