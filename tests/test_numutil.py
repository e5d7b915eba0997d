import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from blowlab.errors import ResolutionError
from blowlab.numutil import (_quad_result, golden_max, log_grid, loglog_slope,
                             refine_max_on_grid)


def test_golden_max_interior_parabola():
    # near a smooth extremum the argument is only sqrt(eps)-determined
    x, v = golden_max(lambda t: -(t - 2.0) ** 2, 0.0, 5.0)
    assert abs(x - 2.0) < 1e-6
    assert abs(v) < 1e-12


def test_golden_max_monotone_resolves_to_endpoint():
    x, v = golden_max(lambda t: t, 0.0, 1.0)
    assert x == 1.0 and v == 1.0


def test_golden_max_rejects_empty_bracket():
    with pytest.raises(ValueError):
        golden_max(lambda t: t, 1.0, 1.0)


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
