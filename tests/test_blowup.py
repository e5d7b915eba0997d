"""Moment criterion: smoothed moments, threshold crossing, classification."""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blowlab import norms
from blowlab.blowup import (CriterionInput, _grid_moments, _peak_index,
                            _radial_pairing, _smoother, default_horizon_grid,
                            evaluate_criterion, moment_at_zero)
from blowlab.errors import DomainError, ResolutionError
from blowlab.kernels import (_BOUNDARY_TOL, Grid, GridFunction, KernelSpec,
                             _audit_failure, generator_symbol_grid,
                             semigroup_kernel, stable_profile)
from blowlab.nonlinearity import Nonlinearity
from blowlab.norms import RadialProfile
from blowlab.numutil import log_grid, loglog_slope
from blowlab.specfun import sphere_area


def plain_smoothed(u_hat, sym, T, grid):
    """e^{T A} u0 from fresh arrays, the bits the criterion's buffers keep."""
    return grid.irfft(np.exp(T * sym) * u_hat)


def moment_field(u0, kernel, T, boundary_tol=_BOUNDARY_TOL):
    """e^{T A} u0 on the torus as a full field, the oracle the criterion's
    lattice maxima are read from; boundary_tol=None skips the kernel-leak
    audit, which otherwise raises the memoized verdict."""
    if boundary_tol is not None:
        failure = _audit_failure(kernel, float(T), u0.grid, float(boundary_tol))
        if failure is not None:
            raise ResolutionError(failure)
    grid = u0.grid
    sym = generator_symbol_grid(kernel, grid)
    return GridFunction(grid, plain_smoothed(grid.rfft(u0.values), sym, T, grid))


def test_moment_field_matches_closed_gaussian():
    """A Gaussian smoothed by the order-two semigroup stays Gaussian with
    variance sigma^2 + 2 A T; checked pointwise across the whole box."""
    A, T, sigma, mass = 0.7, 0.9, 1.2, 3.0
    g = Grid(1, 48.0, 1024)
    u = GridFunction.gaussian(g, mass=mass, sigma=sigma)
    field = moment_field(u, KernelSpec.fractional(2.0, strength=A), T)
    var = sigma ** 2 + 2.0 * A * T
    x = g.axis()
    closed = mass / math.sqrt(2.0 * math.pi * var) * np.exp(-x * x / (2.0 * var))
    assert float(np.max(np.abs(field.values - closed))) < 1e-12


@pytest.mark.parametrize("kernel", [KernelSpec.fractional(1.5), KernelSpec.bump()],
                         ids=["fractional-1.5", "bump"])
def test_grid_moments_are_the_clipped_field_maximum(kernel):
    """The smoothed field is not clipped at 0, since W_T and the center
    read only its maximum and argmax; on nonnegative data, whose smoothed
    field has a positive maximum, both are those of the clipped field, bit
    for bit, though the field rings below 0."""
    g = Grid(2, 24.0, 64)
    u0 = GridFunction(g, np.where(np.abs(g.axis()) < 3.0, 1.0, 0.0)[:, None]
                      * np.exp(-g.axis() ** 2)[None, :])
    moment, centers = _grid_moments(u0, kernel)
    sym, u_hat = generator_symbol_grid(kernel, g), g.rfft(u0.values)
    rings = False
    for T in (0.05, 0.5, 2.0):
        field = plain_smoothed(u_hat, sym, T, g)
        rings |= bool(np.min(field) < 0.0)
        clipped = np.maximum(field, 0.0)
        W, _ = moment(T)
        assert centers[T] == _peak_index(clipped)
        assert W == float(np.max(clipped))
    assert rings


@pytest.mark.parametrize("kernel", [KernelSpec.fractional(1.5), KernelSpec.bump(),
                                    KernelSpec.gaussian()],
                         ids=["fractional-1.5", "bump", "gaussian"])
def test_smoother_reuses_its_buffers_with_the_bits_of_fresh_arrays(kernel):
    g = Grid(2, 24.0, 64)
    u0 = GridFunction.gaussian(g, mass=2.0, sigma=1.3)
    sym, u_hat = generator_symbol_grid(kernel, g), g.rfft(u0.values)
    smoothed = _smoother(u_hat, sym, g)
    for T in (*default_horizon_grid()[::7], 0.05):
        assert np.array_equal(smoothed(T), plain_smoothed(u_hat, sym, T, g))
    assert np.array_equal(u_hat, g.rfft(u0.values))


def test_grid_moments_of_all_zero_data_read_0():
    g = Grid(1, 8.0, 64)
    moment, centers = _grid_moments(GridFunction(g, np.zeros(g.shape)),
                                    KernelSpec.fractional(1.5))
    W, _ = moment(1.0)
    assert W == 0.0 and math.copysign(1.0, W) == 1.0
    assert centers[1.0] == (0,)


def test_criterion_2d_gaussian_closed_form():
    """In d = 2 the order-two semigroup keeps a Gaussian Gaussian: W_T is
    m / (2 pi (sigma^2 + 2T)) at the data's own lattice center."""
    g = Grid(2, 24.0, 128)
    mass, sigma, c = 3.0, 1.1, 3 * g.spacing
    u0 = GridFunction.gaussian(g, mass=mass, sigma=sigma, center=c)
    verdict = evaluate_criterion(CriterionInput(
        u0=u0, kernel=KernelSpec.fractional(2.0),
        nonlinearity=Nonlinearity.power_law(1.0, 3.0),
        T_grid=tuple(np.geomspace(0.3, 4.0, 9))))
    assert verdict.center == (g.n // 2 + 3,) * 2
    for pt in verdict.curve:
        assert pt.reliable
        exact = mass / (2.0 * math.pi * (sigma ** 2 + 2.0 * pt.T))
        assert abs(pt.moment / exact - 1.0) < 1e-12


def test_moment_at_zero_radial_route():
    A, T, sigma, mass = 1.0, 0.5, 1.0, 2.0
    u = RadialProfile.from_function(
        1, lambda r: mass * np.exp(-r * r / (2.0 * sigma ** 2))
        / math.sqrt(2.0 * math.pi * sigma ** 2),
        r_min=1e-4, r_max=30.0)
    W = moment_at_zero(u, KernelSpec.fractional(2.0, strength=A), T)
    closed = mass / math.sqrt(2.0 * math.pi * (sigma ** 2 + 2.0 * A * T))
    assert abs(W / closed - 1.0) < 1e-4


def test_moment_at_zero_rejects_a_non_integrable_head():
    """u = r^-a e^-r in d = 1 on [1e-3, 50]: a head exponent a >= d is not
    integrable at the origin. Read as a flat head, a = 1 and a = 1.5 gave
    4.09 and 52.4, below and far above the 5.37 of a = 0.9."""
    spec = KernelSpec.fractional(1.5)
    for a in (1.0, 1.5):
        u = RadialProfile.from_function(1, lambda r: r ** -a * np.exp(-r), 1e-3, 50.0)
        with pytest.raises(DomainError, match="head exponent"):
            moment_at_zero(u, spec, 1.0)
    u = RadialProfile.from_function(1, lambda r: r ** -0.9 * np.exp(-r), 1e-3, 50.0)
    assert 5.0 < moment_at_zero(u, spec, 1.0) < 6.0


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_moment_field_2d_matches_radial_pairing(alpha):
    """2-D Gaussian data: the lattice semigroup at the center against the
    radial pairing of the stable profile with the same data sampled on
    r in [1e-4, 30]; the gap is the radial trapezoid rule's (about 5e-6)."""
    mass, sigma, T = 2.0, 1.0, 0.5
    g = Grid(2, 48.0, 256)
    u0 = GridFunction.gaussian(g, mass=mass, sigma=sigma)
    field = moment_field(u0, KernelSpec.fractional(alpha), T, boundary_tol=None)
    grid_value = float(field.values[g.n // 2, g.n // 2])
    u = RadialProfile.from_function(
        2, lambda r: mass * np.exp(-r * r / (2.0 * sigma ** 2)) / (2.0 * math.pi * sigma ** 2),
        r_min=1e-4, r_max=30.0)
    radial_value = _radial_pairing(stable_profile(alpha, 2), T, u)
    assert abs(radial_value / grid_value - 1.0) < 1e-5


@pytest.mark.parametrize("d, alpha, f", [
    (1, 1.5, lambda r: np.exp(-r * r)),
    (3, 2.0, lambda r: r ** -0.6 * np.exp(-r)),
    (2, 1.0, lambda r: np.where(r < 1.0, 0.0, np.exp(-r))),
], ids=["flat-head", "power-head", "zero-head"])
def test_radial_pairing_is_the_ball_rule_of_norms(d, alpha, f):
    """The pairing at the origin is sigma_d times the last cumulative value
    of norms' ball rule on the weight P_t u, whose head below the first
    sample weighs u's power-law head by the flat kernel P_t(0): bit for
    bit, so the criterion integrates radial samples by that rule alone."""
    u = RadialProfile.from_function(d, f, r_min=1e-3, r_max=40.0)
    prof, t = stable_profile(alpha, d), 0.7
    curve = norms._BallIntegralCurve(
        u.r, prof.kernel_radial(t, u.r) * u.u, d, u.fitted_head_exponent(),
        float(prof.kernel_radial(t, 0.0)) * u.u[0])
    assert _radial_pairing(prof, t, u) == sphere_area(d) * float(curve.cum[-1])


def test_moment_at_zero_points_grid_data_to_evaluate_criterion():
    u0 = GridFunction.gaussian(Grid(1, 16.0, 128), mass=1.0, sigma=1.0)
    with pytest.raises(DomainError, match="evaluate_criterion"):
        moment_at_zero(u0, KernelSpec.fractional(2.0), 1.0)


def test_radial_moments_need_fractional_kernels():
    u = RadialProfile.from_function(1, lambda r: np.exp(-r * r),
                                    r_min=1e-3, r_max=20.0)
    with pytest.raises(DomainError):
        moment_at_zero(u, KernelSpec.gaussian(), 1.0)


@pytest.mark.parametrize("T_grid", [[], [1.0, 1.0, 2.0], [2.0, 1.0]],
                         ids=["empty", "repeated", "decreasing"])
def test_a_horizon_grid_that_does_not_increase_is_a_domain_error(T_grid):
    u0 = GridFunction.gaussian(Grid(1, 16.0, 128), mass=1.0, sigma=1.0)
    with pytest.raises(DomainError, match="horizon grid must be nonempty and increasing"):
        CriterionInput(u0, KernelSpec.gaussian(), Nonlinearity.power_law(1.0, 2.0),
                       T_grid=T_grid)


def test_default_horizon_grid_shape():
    T = default_horizon_grid()
    assert T[0] > 0 and T[-1] > T[0]
    assert np.all(np.diff(np.log(T)) > 0)


def test_constant_data_gives_exact_ratio_but_no_verdict():
    """Spatially constant data reduces the moment to the plain ODE, so the
    ratio is exactly c*T; its support also fills the torus, which the audit
    must flag, and unreliable points never count toward the verdict."""
    g = Grid(1, 8.0, 64)
    c = 2.0
    u0 = GridFunction(g, c * np.ones(g.shape))
    verdict = evaluate_criterion(CriterionInput(
        u0=u0, kernel=KernelSpec.gaussian(),
        nonlinearity=Nonlinearity.power_law(1.0, 2.0),
        T_grid=tuple(np.geomspace(0.1, 10.0, 7))))
    for pt in verdict.curve:
        assert abs(pt.ratio - c * pt.T) < 1e-12
        assert not pt.reliable
    assert verdict.classification == "not_met_on_grid"
    assert verdict.T_star is None


def test_criterion_met_with_grid_extension():
    # the crossing sits above the supplied grid; the sweep must extend
    # while the reliable ratio keeps climbing and find it
    g = Grid(1, 48.0, 1024)
    u0 = GridFunction.gaussian(g, mass=4.0, sigma=1.0)
    verdict = evaluate_criterion(CriterionInput(
        u0=u0, kernel=KernelSpec.gaussian(),
        nonlinearity=Nonlinearity.power_law(1.0, 2.0),
        T_grid=tuple(np.geomspace(0.01, 0.1, 5))))
    assert verdict.classification == "criterion_met"
    assert verdict.T_star is not None and verdict.T_star > 0.1
    assert len(verdict.curve) > 5
    assert verdict.center is not None


def test_threshold_override_delays_crossing():
    g = Grid(1, 48.0, 1024)
    u0 = GridFunction.gaussian(g, mass=4.0, sigma=1.0)
    base = evaluate_criterion(CriterionInput(
        u0=u0, kernel=KernelSpec.gaussian(),
        nonlinearity=Nonlinearity.power_law(1.0, 2.0)))
    strict = evaluate_criterion(CriterionInput(
        u0=u0, kernel=KernelSpec.gaussian(),
        nonlinearity=Nonlinearity.power_law(1.0, 2.0), threshold=3.0))
    assert base.classification == "criterion_met"
    assert strict.T_star is None or strict.T_star >= base.T_star


def test_supercritical_small_data_classification():
    g = Grid(1, 256.0, 2048)
    u0 = GridFunction.gaussian(g, mass=0.3, sigma=1.0)
    verdict = evaluate_criterion(CriterionInput(
        u0=u0, kernel=KernelSpec.gaussian(),
        nonlinearity=Nonlinearity.power_law(1.0, 4.0)))
    assert verdict.classification == "fujita_supercritical_small_data"
    assert verdict.T_star is None
    assert verdict.hypothesis_note == "bounded integrable data (torus truncation)"


def test_subcritical_moment_growth_exponent():
    # below the critical power the scaled moment T^(2/3) W grows like T^(1/6)
    u = RadialProfile.from_function(1, lambda r: 2.0 * np.exp(-r * r),
                                    r_min=1e-3, r_max=50.0)
    spec = KernelSpec.fractional(2.0)
    T = log_grid(10.0, 1e4, 25)
    scaled = np.array([t ** (2.0 / 3.0) * moment_at_zero(u, spec, float(t))
                       for t in T])
    assert abs(loglog_slope(T, scaled) - 1.0 / 6.0) < 0.01


def test_criterion_on_supercritical_2d_data_calls_no_concentration_route(
        monkeypatch):
    """The verdict is the criterion alone: on data the supercritical branch
    classifies, neither concentration route runs, under any name bound to
    it in any blowlab module."""
    calls = []
    modules = [m for n, m in sys.modules.items() if n.startswith("blowlab")]
    for name in ("morrey_norm_grid", "radial_concentration"):
        original = getattr(norms, name)

        def counted(*args, _f=original, _name=name, **kw):
            calls.append(_name)
            return _f(*args, **kw)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    u0 = GridFunction.gaussian(Grid(2, 48.0, 128), mass=4.0)
    verdict = evaluate_criterion(CriterionInput(
        u0=u0, kernel=KernelSpec.fractional(1.5),
        nonlinearity=Nonlinearity.power_law(1.0, 3.0),    # above 1 + 1.5/2
        T_grid=tuple(np.geomspace(0.1, 10.0, 5))))
    assert verdict.classification == "fujita_supercritical_small_data"
    assert calls == []


# ---------------------------------------------------------------------------
# memoized kernel audits
# ---------------------------------------------------------------------------

AUDIT_GRID = Grid(2, 24.0, 64)
AUDIT_HORIZONS = np.geomspace(0.01, 100.0, 9)


def kernel_verdict(spec, T, grid, boundary_tol=1e-8):
    """The ResolutionError message of a freshly built kernel, or None."""
    try:
        semigroup_kernel(spec, T, grid, boundary_tol=boundary_tol)
    except ResolutionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("spec, kinds", [
    # passing, then boundary-failing horizons
    (KernelSpec.gaussian(), ["ok"] * 5 + ["boundary"] * 4),
    # negativity-failing, then boundary-failing horizons
    (KernelSpec.fractional(1.5), ["negativity"] * 4 + ["boundary"] * 5),
], ids=["gaussian", "fractional-1.5"])
def test_memoized_audit_matches_semigroup_kernel(spec, kinds):
    verdicts = [kernel_verdict(spec, T, AUDIT_GRID) for T in AUDIT_HORIZONS]
    assert [next((k for k in ("negativity", "boundary") if k in (v or "")), "ok")
            for v in verdicts] == kinds
    inp = CriterionInput(u0=GridFunction.gaussian(AUDIT_GRID, mass=1.0, sigma=1.0),
                         kernel=spec, nonlinearity=Nonlinearity.power_law(1.0, 3.0),
                         T_grid=AUDIT_HORIZONS)
    _audit_failure.cache_clear()
    first = evaluate_criterion(inp)
    misses = _audit_failure.cache_info().misses
    assert misses == len(AUDIT_HORIZONS)
    again = evaluate_criterion(inp)
    info = _audit_failure.cache_info()
    assert info.misses == misses and info.hits == len(AUDIT_HORIZONS)
    for verdict in (first, again):
        assert [pt.T for pt in verdict.curve] == list(AUDIT_HORIZONS)
        assert [pt.reliable for pt in verdict.curve] == [v is None for v in verdicts]
    assert first == again


def test_the_audit_memo_is_the_kernel_verdict_on_miss_and_hit():
    spec, T = KernelSpec.gaussian(), float(AUDIT_HORIZONS[5])
    expected = kernel_verdict(spec, T, AUDIT_GRID)
    assert expected.startswith("boundary mass")
    _audit_failure.cache_clear()
    for _ in range(2):            # computed, then read from the memo
        assert _audit_failure(spec, T, AUDIT_GRID, 1e-8) == expected
    assert _audit_failure.cache_info().hits == 1
    # a looser tolerance is a verdict of its own, and its kernel passes
    assert kernel_verdict(spec, T, AUDIT_GRID, boundary_tol=1e-6) is None
    assert _audit_failure(spec, T, AUDIT_GRID, 1e-6) is None
    assert _audit_failure(spec, T, AUDIT_GRID, 1e-8) == expected
    assert _audit_failure.cache_info().misses == 2
