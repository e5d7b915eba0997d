import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from blowlab.asymptotics import K_fractional, L_fractional, window_eta_from_beta
from blowlab.errors import DomainError, ResolutionError
from blowlab.kernels import Grid, GridFunction, KernelSpec, StableProfile, stable_profile
from blowlab.nonlinearity import Nonlinearity, OsgoodTransform, fujita_exponent
from blowlab.norms import (RadialProfile, concentration_values, morrey_norm_grid,
                           radial_concentration)
from blowlab.numutil import (_check_dimension, _check_order, _check_power,
                             _check_range, _quad_result, log_grid, loglog_slope,
                             refine_max_on_grid)
from blowlab.specfun import log_sphere_area
from blowlab.stationary import singular_constant


def test_refine_max_on_grid_beats_grid_argmax():
    f = lambda t: math.sin(t)
    xs = np.linspace(0.0, math.pi, 7)   # pi/2 is not a grid point
    x, v = refine_max_on_grid(f, xs)
    assert abs(x - math.pi / 2.0) < 1e-6
    assert v >= max(f(t) for t in xs)

    # an argmax on the last grid point is refined inside the end bracket
    xs = np.linspace(0.0, 1.9, 6)       # grid argmax at 1.9, true max at 1.85
    g = lambda t: -(t - 1.85) ** 2
    x, v = refine_max_on_grid(g, xs)
    assert xs[-2] < x < xs[-1] and abs(x - 1.85) < 1e-6
    assert v >= g(xs[-1])

    # grid values passed in are used as given: f is not called again for
    # the grid
    xs = np.linspace(0.0, math.pi, 7)
    calls = []

    def counted(t):
        calls.append(t)
        return f(t)

    assert refine_max_on_grid(counted, xs, [f(t) for t in xs]) \
        == refine_max_on_grid(f, xs)
    n_given = len(calls)
    calls.clear()
    refine_max_on_grid(counted, xs)
    assert len(calls) == n_given + len(xs)


@pytest.mark.parametrize("f,xs", [
    (math.sin, np.linspace(0.0, math.pi, 7)),
    (lambda t: -(t - 1.85) ** 2, np.linspace(0.0, 1.9, 6)),
], ids=["sine", "parabola-at-the-edge"])
def test_refine_max_on_grid_is_cheap_beyond_the_grid(f, xs):
    """Bounded Brent search reaches 1e-10 in a few evaluations past the
    grid on the two cases above (golden section took 50-52)."""
    calls = []

    def counted(t):
        calls.append(t)
        return f(t)

    refine_max_on_grid(counted, xs, [f(t) for t in xs])
    assert len(calls) <= 20


@pytest.mark.parametrize("beyond", [-math.inf, math.nan])
def test_refine_max_on_grid_raises_on_a_bracket_end_that_is_not_a_number(beyond):
    """f is -inf (or NaN) past 1.05, as log R is where R underflows. The
    grid argmax 1 has the bracket [0, 2], whose end 2 reads -inf; handed to
    Brent, the search warned (invalid value in a scalar multiply) and went
    on. It raises naming the point, and f is not called past the grid."""
    calls = []

    def f(t):
        calls.append(t)
        return -(t - 1.0) ** 2 if t <= 1.05 else beyond

    with pytest.raises(ResolutionError, match=r"f\(2\.0\) = (-inf|nan)"):
        refine_max_on_grid(f, [0.0, 1.0, 2.0])
    assert calls == [0.0, 1.0, 2.0]


def test_log_grid_endpoints_and_validation():
    g = log_grid(1e-3, 1e3, 25)
    assert g.size == 25
    assert_allclose(g[0], 1e-3, rtol=1e-14)
    assert_allclose(g[-1], 1e3, rtol=1e-14)
    assert np.all(np.diff(np.log(g)) > 0)
    with pytest.raises(ValueError):
        log_grid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        log_grid(1.0, 10.0, 1)


def test_loglog_slope_recovers_power():
    x = np.geomspace(0.1, 100.0, 40)
    assert_allclose(loglog_slope(x, 3.0 * x ** 2.5), 2.5, rtol=1e-12)


def test_quad_result_checks_message_and_tolerance():
    clean = quad(lambda x: x * x, 0.0, 1.0, full_output=1)
    assert _quad_result(clean, "x^2") == clean[:2]
    assert _quad_result(clean, "x^2", rtol=1e-13) == clean[:2]
    # one subdivision cannot resolve 160 periods: QUADPACK's message
    failed = quad(lambda x: math.sin(50.0 * x) ** 2, 0.0, 10.0, limit=1,
                  full_output=1)
    assert len(failed) == 4
    with pytest.raises(ResolutionError,
                       match=r"^sin\^2: The maximum number of subdivisions \(1\)"):
        _quad_result(failed, "sin^2")
    with pytest.raises(ResolutionError, match="^f: quadrature error 1.00e-09 on 1$"):
        _quad_result((1.0, 1e-9, {}), "f", rtol=1e-10)
    assert _quad_result((1.0, 1e-10, {}), "f", rtol=1e-10) == (1.0, 1e-10)


def test_dimension_check():
    """A dimension is a positive integer; an integer-valued float passes as
    an int, since the sweeps pass dimensions such as 10.0."""
    assert _check_dimension(10.0) == 10 and type(_check_dimension(10.0)) is int
    assert _check_dimension(np.int64(3)) == 3
    for d in (math.nan, 2.5, 0, -1, 0.0, math.inf, "3", None):
        with pytest.raises(DomainError, match="dimension"):
            _check_dimension(d)


def test_power_check():
    _check_power(1.5)
    for p in (1.0, 0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="p must be finite and exceed 1"):
            _check_power(p)


@pytest.mark.parametrize("call, name", [
    (lambda: Nonlinearity.power_sum(p1=0.5), "p1"),
    (lambda: Nonlinearity.power_sum(p2=math.nan), "p2"),
], ids=["p1-0.5", "p2-nan"])
def test_power_sum_names_its_exponent(call, name):
    with pytest.raises(DomainError, match=rf"^{name} must be finite and exceed 1, got "):
        call()


def test_order_check():
    _check_order(1.5)
    _check_order(2.0)
    for alpha in (math.nan, 0.0, -1.0, 2.5, math.inf):
        with pytest.raises(DomainError, match=r"order alpha must lie in \(0, 2\]"):
            _check_order(alpha)


def test_range_check():
    """A number passes when it is finite and above its bound, or at it
    where the bound passes; an array passes element by element, and the
    message names the argument and quotes the first element that fails."""
    _check_range("x", 1e-300)
    _check_range("x", 0.0, closed=True)
    _check_range("x", 1.0, 1.0, closed=True)
    _check_range("x", [0.0, 1e308], closed=True)
    _check_range("x", [])
    for bound, closed, kind, below in [(0.0, False, "positive", [0.0, -1.0]),
                                       (0.0, True, "nonnegative", [-1e-300]),
                                       (1.0, True, "at least 1", [0.5, 0.0]),
                                       (1.0, False, "above 1", [1.0])]:
        for x in [math.nan, math.inf, -math.inf] + below:
            with pytest.raises(DomainError,
                               match=rf"^x must be {kind} and finite, got {x!r}$"):
                _check_range("x", x, bound, closed)
    with pytest.raises(DomainError, match=r"^r must be positive and finite, got nan$"):
        _check_range("r", np.array([[1.0, 2.0], [math.nan, -1.0]]))


def test_range_check_with_an_upper_bound():
    """An upper bound is excluded, and the message states it."""
    _check_range("x", 1.0, upper=2.0)
    for x in (2.0, 3.0, math.inf, math.nan):
        with pytest.raises(DomainError,
                           match=rf"^x must be positive and below 2 and finite, got {x!r}$"):
            _check_range("x", x, upper=2.0)


def _radial(d):
    return RadialProfile(d, np.geomspace(1e-3, 10.0, 50), np.exp(-np.geomspace(1e-3, 10.0, 50)))


@pytest.mark.parametrize("call", [
    # built d = 2 through int(d)
    lambda: stable_profile(1.5, 2.5),
    # kept d = 2.5 and evaluated it
    lambda: StableProfile(1.5, 2.5),
    lambda: _radial(2.5),
    # paired the d = 10 profile with the exponent at d = 10.5 (0.0267)
    lambda: L_fractional(1.5, 10.5, 3.0),
    lambda: fujita_exponent(1.0, 2.5),
    lambda: log_sphere_area(2.5),
    # returned a NaN value
    lambda: radial_concentration(_radial(2), math.nan, 2.0),
    # orders outside (0, 2], one check for every entry point
    lambda: KernelSpec.fractional(math.nan),
    lambda: StableProfile(2.5, 1),
    lambda: fujita_exponent(0.0, 1),
    lambda: singular_constant(math.inf, 5, 3.0),
    # raised a DomainError worded apart from the order check's
    lambda: L_fractional(3.0, 10.0, 3.0),
    lambda: L_fractional(math.nan, 10.0, 3.0),
])
def test_bad_dimensions_and_powers_raise(call):
    with pytest.raises(DomainError, match="dimension|p must be|order alpha"):
        call()


def test_integer_valued_dimensions_pass():
    assert StableProfile(1.5, 10.0).d == 10 and _radial(3.0).d == 3
    assert fujita_exponent(1.0, 4.0) == 1.25
    assert L_fractional(1.5, 10.0, 3.0) == L_fractional(1.5, 10, 3.0)


_GAUSS = GridFunction.gaussian(Grid(1, 16.0, 64))
_POWER = OsgoodTransform(Nonlinearity.power_law(1.0, 3.0))


@pytest.mark.parametrize("call, name", [
    # warned (divide by zero in log), then a ResolutionError of series-far
    (lambda: stable_profile(1.5, 3)(math.inf), "profile argument rho"),
    # ResolutionErrors of the routes mellin and closed
    (lambda: stable_profile(1.5, 3)(math.nan), "profile argument rho"),
    (lambda: stable_profile(1.0, 3)([1.0, math.nan]), "profile argument rho"),
    # ZeroDivisionError; then values for -1 and inf, and 0.0 for nan
    (lambda: morrey_norm_grid(_GAUSS, 0), "s_order"),
    (lambda: morrey_norm_grid(_GAUSS, -1.0), "s_order"),
    (lambda: morrey_norm_grid(_GAUSS, math.inf), "s_order"),
    (lambda: morrey_norm_grid(_GAUSS, math.nan), "s_order"),
    # ZeroDivisionError; then rows for -1 and nan
    (lambda: concentration_values(_radial(3), 3.0, 2.0, [0.0]), "radius"),
    (lambda: concentration_values(_radial(3), 3.0, 2.0, [1.0, -1.0]), "radius"),
    (lambda: concentration_values(_radial(3), 3.0, 2.0, [math.nan]), "radius"),
    # warned (invalid value in a scalar subtract)
    (lambda: radial_concentration(_radial(3), 3.0, math.inf), "alpha"),
    # NaN
    (lambda: window_eta_from_beta(math.inf), "beta"),
    # 0.0
    (lambda: stable_profile(1.5, 3).kernel_radial(math.inf, 1.0), "time t"),
    (lambda: _POWER.h(math.inf), "w"),
    (lambda: _POWER.h_inverse(math.inf), "T"),
    # NaN values and a NaN log L
    (lambda: singular_constant(1.5, math.inf, 3.0), "dimension"),
    (lambda: K_fractional(1.5, math.inf, 3.0), "dimension"),
    (lambda: L_fractional(2.0, math.inf, 3.0), "dimension"),
], ids=["rho-inf", "rho-nan-mellin", "rho-nan-closed", "s_order-0", "s_order--1",
        "s_order-inf", "s_order-nan", "radius-0", "radius--1", "radius-nan",
        "alpha-inf", "beta-inf", "t-inf", "w-inf", "T-inf", "s-d-inf", "K-d-inf",
        "L-d-inf"])
def test_numbers_out_of_range_stop_where_they_enter(call, name):
    """Each call raises a DomainError that names its argument, with no
    warning; the comments say how each ended before it was checked."""
    kinds = "(positive|nonnegative|at least 1)"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match=rf"^{name} must be {kinds} and finite, got "):
            call()
    assert caught == []


@pytest.mark.parametrize("call, message", [
    # OverflowError: R^(d/s - d) at s = 1e-300
    (lambda: morrey_norm_grid(_GAUSS, 1e-300), "s_order = 1e-300"),
    # OverflowError: the front t^(-d/alpha) at t = 1e-300
    (lambda: stable_profile(1.5, 3).kernel_radial(1e-300, 1.0), "time t = 1e-300"),
    # warned (overflow encountered in scalar power): r^(alpha/(p-1) - d)
    (lambda: radial_concentration(_radial(1), 1 + 1e-15, 2.0),
     "p = 1.000000000000001"),
], ids=["s_order-1e-300", "t-1e-300", "p-1+1e-15"])
def test_finite_arguments_whose_arithmetic_overflows_raise(call, message):
    """A finite argument whose arithmetic leaves the doubles raises a
    DomainError that names it, with no warning; the comments say how each
    ended before."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError,
                           match=rf"^{re.escape(message)}\b.* leaves the doubles"):
            call()
    assert caught == []
