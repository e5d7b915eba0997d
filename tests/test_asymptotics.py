"""High-dimension constants: closed forms against brute-force suprema."""

import math
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar
from scipy.special import poch

from blowlab.asymptotics import (K_fractional, K_fractional_at_time, _L_result,
                                 L_fractional, sweep_K, sweep_L,
                                 window_eta_from_beta, window_lower_bound)
from blowlab.errors import DomainError, ResolutionError
from blowlab.kernels import stable_profile
from blowlab.specfun import _log_gamma_ratio
from blowlab.stationary import log_singular_constant


def log_K_gaussian(d, p):
    """The Gaussian form of log K: s * 2^(-g) * Gamma((d-g)/2) / Gamma(d/2),
    g = 2/(p-1), summed in the order K_fractional sums its first terms."""
    g = 2.0 / (p - 1.0)
    return log_singular_constant(2.0, d, p) - g * math.log(2.0) \
        - _log_gamma_ratio((d - g) / 2.0, g / 2.0)


def test_gaussian_discrepancy_constant_closed_form():
    # gamma = 1 at (d, p) = (5, 3): s * 2^(-1) * Gamma(2) / Gamma(5/2)
    expected = math.sqrt(2.0) * 0.5 * math.gamma(2.0) / math.gamma(2.5)
    assert_allclose(K_fractional(2.0, 5.0, 3.0), expected, rtol=1e-12)


def test_gaussian_discrepancy_domain():
    with pytest.raises(DomainError):
        K_fractional(2.0, 1.5, 2.0)    # d <= 2/(p-1)


def test_fractional_discrepancy_exact_point():
    # alpha = 1, d = 3, p = 3 integrates to exactly one half
    assert_allclose(K_fractional(1.0, 3.0, 3.0), 0.5, rtol=1e-10)


def test_fractional_discrepancy_dual_routes():
    closed = K_fractional(1.0, 3.0, 3.0)
    for t in (0.3, 7.0):
        # the finite-time route must reproduce the scale-invariant value
        assert_allclose(K_fractional_at_time(1.0, 3.0, 3.0, t), closed,
                        rtol=1e-10)


@pytest.mark.parametrize("alpha, d, p", [(0.8, 3, 3.0), (1.3, 2, 3.0),
                                         (1.5, 5, 3.0)])
def test_fractional_discrepancy_generic_order(alpha, d, p):
    # closed-form subordinator moment against radial quadrature of the
    # stable profile
    assert_allclose(K_fractional(alpha, d, p),
                    K_fractional_at_time(alpha, d, p, 1.0), rtol=1e-12)


def test_fractional_discrepancy_domain():
    # alpha = 2: the subordinator-moment term is exactly 0, so K is the
    # Gaussian form bit for bit, also in the dimension sweep
    for d, p in ((5.0, 3.0), (3.0, 7.0), (59.0, 1.5), (400.0, 3.0), (5000.0, 2.0)):
        assert K_fractional(2.0, d, p) == math.exp(log_K_gaussian(d, p))
        assert sweep_K(2.0, p, [d, 2 * d]).log_values[0] == log_K_gaussian(d, p)
    with pytest.raises(DomainError):
        K_fractional(2.5, 5.0, 3.0)
    with pytest.raises(DomainError):
        K_fractional(0.0, 5.0, 3.0)


def mp_log_s_and_K(mp, alpha, d, p):
    """(log s, log K) at mpmath's working precision, from the Gamma closed
    forms s^(p-1) = 2^alpha G(d/2-h) G(p h) / (G(h) G(d/2-p h)) and
    K = s 2^(-g) G((d-g)/2) G(1+g/alpha) / (G(d/2) G(1+g/2)), g = 2h =
    alpha/(p-1)."""
    a, d, p = mp.mpf(alpha), mp.mpf(d), mp.mpf(p)
    h = a / (2 * (p - 1))
    log_s = (a * mp.log(2) + mp.loggamma(d / 2 - h) + mp.loggamma(p * h)
             - mp.loggamma(h) - mp.loggamma(d / 2 - p * h)) / (p - 1)
    log_K = (log_s - 2 * h * mp.log(2) + mp.loggamma(d / 2 - h) - mp.loggamma(d / 2)
             + mp.loggamma(1 + 2 * h / a) - mp.loggamma(1 + h))
    return log_s, log_K


@pytest.mark.parametrize("alpha, p", [(2.0, 3.0), (1.0, 3.0), (1.5, 2.5)])
def test_s_and_K_keep_their_digits_at_large_dimension(alpha, p):
    """Against mpmath at a precision sized to d. The d-dependent Gammas
    enter as one ratio from Stirling's formula, which holds 6.4e-15 here;
    scipy's poch held only 2.2e-11 up to d = 1e5 (worst near 1.5e4), and
    the difference of two math.lgamma values lost 2e-9 by d = 1e6 and
    every digit by 1e15."""
    mp = pytest.importorskip("mpmath")
    for d in (5.0, 50.0, 800.0, 1e4, 1.5e4, 1e6, 1e8, 1e10, 1e13, 1e15):
        with mp.workdps(30 + int(math.log10(d))):
            log_s, log_K = mp_log_s_and_K(mp, alpha, d, p)
            s_ref, K_ref = float(mp.exp(log_s)), float(mp.exp(log_K))
        assert_allclose(math.exp(log_singular_constant(alpha, d, p)), s_ref, rtol=2e-14)
        assert_allclose(K_fractional(alpha, d, p), K_ref, rtol=2e-14)


def test_K_near_p_one_where_poch_overflows():
    """At p = 1.01 the ratio Gamma(d/2)/Gamma((d-g)/2), g = 200, overflows
    poch; its log from Stirling's formula stays finite."""
    mp = pytest.importorskip("mpmath")
    alpha, d, p = 2.0, 1e4, 1.01
    g = alpha / (p - 1.0)
    assert math.isinf(poch((d - g) / 2.0, g / 2.0))
    with mp.workdps(35):
        K_ref = float(mp.exp(mp_log_s_and_K(mp, alpha, d, p)[1]))
    assert_allclose(K_fractional(alpha, d, p), K_ref, rtol=5e-11)


def test_K_at_the_largest_dimensions():
    """K(2, d, 3) -> 2^(-1/2) as d grows; at d = 1e308 its Gamma ratios
    are finite (math.lgamma alone overflows there)."""
    assert_allclose(K_fractional(2.0, 1e308, 3.0), 2.0 ** -0.5, rtol=1e-13)
    assert sweep_K(2.0, 3.0, [400.0, 1e308]).values[1] == K_fractional(2.0, 1e308, 3.0)


def sup_objective_gaussian(d, p, t_center):
    def log_obj(lt):
        t = math.exp(lt)
        return (lt / (p - 1.0) - (d / 2.0) * math.log(4.0 * math.pi * t)
                - 0.25 / t)
    res = minimize_scalar(lambda lt: -log_obj(lt), method="bounded",
                          bounds=(math.log(t_center) - 2.0, math.log(t_center) + 2.0),
                          options={"xatol": 1e-10})
    return math.exp(res.x), math.exp(-res.fun)


@pytest.mark.parametrize("d,p", [(6.0, 2.0), (11.0, 3.0)])
def test_gaussian_envelope_matches_brute_supremum(d, p):
    """At alpha = 2 the sup over x is the sup over t = 1/x^2, taken by
    brute force; the argmax is the radius rho0 = 1/sqrt(t0)."""
    res = L_fractional(2.0, d, p)
    t_brute, v_brute = sup_objective_gaussian(d, p, res.argmax ** -2)
    assert_allclose(res.value, v_brute, rtol=1e-10)
    assert abs(t_brute ** -0.5 / res.argmax - 1.0) < 1e-6


def test_gaussian_envelope_overflow_keeps_logs():
    res = L_fractional(2.0, 3000.0, 2.0)
    assert math.isinf(res.value)
    assert math.isfinite(res.log_value)
    b = 1500.0 - 1.0
    assert_allclose(res.argmax, 2.0 * math.sqrt(b), rtol=1e-12)
    # a non-integer dimension is a real d in the closed form
    assert L_fractional(2.0, 10.5, 3.0).argmax == 2.0 * math.sqrt(4.75)


def test_gaussian_envelope_degenerate_domain():
    # the sup runs away when d/2 <= 1/(p-1)
    with pytest.raises(DomainError, match=r"need d/2 > 1/\(p-1\)"):
        L_fractional(2.0, 1.0, 2.0)


def test_fractional_envelope_closed_case_matches_brute():
    d, p = 4.0, 3.0
    res = L_fractional(1.0, d, p)
    # independent route: supremum over the subordination-built profile
    prof = stable_profile(1.0, 4, method="subordination")
    e = d - 1.0 / (p - 1.0)
    rhos = np.geomspace(0.3, 10.0, 150)
    vals = rhos ** e * prof(rhos)
    i = int(np.argmax(vals))
    best = minimize_scalar(lambda lr: -e * lr - math.log(float(prof(math.exp(lr)))),
                           bounds=(math.log(rhos[i - 1]), math.log(rhos[i + 1])),
                           method="bounded", options={"xatol": 1e-10})
    assert_allclose(res.value, math.exp(-best.fun), rtol=1e-8)


def test_fractional_envelope_generic_order():
    res = L_fractional(1.5, 5.0, 3.0)
    prof = stable_profile(1.5, 5)
    rhos = np.geomspace(0.2, 20.0, 120)
    grid_sup = float(np.max(rhos ** (5.0 - 0.75) * prof(rhos)))
    assert res.value >= grid_sup * (1.0 - 1e-12)   # refinement only raises it
    assert abs(res.value / grid_sup - 1.0) < 1e-3


def test_high_dimension_envelope_is_finite_without_a_warning():
    """At d = 50 the far series' factor rho^(-d) overflows at the switch
    grid's small radii; that is an infinite error estimate, not a
    RuntimeWarning. The Mellin-Barnes line serves the radii between the
    series in every dimension, so L is finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = L_fractional(1.5, 50, 3.0)
    assert math.isfinite(res.value) and res.value > 0


def mp_log_L_far(mp, alpha, d, p, lo, hi, terms=300):
    """max of (d - g) log rho + log R(rho) over [lo, hi] by golden section
    in log rho, with R the far series summed by mpmath, stopped before its
    smallest term by magnitude (which must lie below 1e-20 of the sum)."""
    a, g = mp.mpf(alpha), mp.mpf(alpha) / (p - 1)

    def f(lr):
        r = mp.exp(lr)
        mags = [mp.gamma((n * a + d) / 2) * mp.gamma(1 + n * a / 2) / mp.factorial(n)
                * (2 / r) ** (n * a) for n in range(1, terms + 1)]
        stop = mags.index(min(mags))
        total = mp.fsum((-1) ** (n + 1) * mp.sinpi(n * a / 2) * m
                        for n, m in enumerate(mags[:stop], start=1))
        assert mags[stop] < 1e-20 * abs(total)
        return (d - g) * lr + mp.log(mp.pi ** (-mp.mpf(d) / 2 - 1) * r ** -d * total)

    left, right, shrink = mp.log(lo), mp.log(hi), (mp.sqrt(5) - 1) / 2
    x1, x2 = right - shrink * (right - left), left + shrink * (right - left)
    f1, f2 = f(x1), f(x2)
    while right - left > 1e-8:
        if f1 < f2:
            left, x1, f1 = x1, x2, f2
            x2 = left + shrink * (right - left)
            f2 = f(x2)
        else:
            right, x2, f2 = x2, x1, f1
            x1 = right - shrink * (right - left)
            f1 = f(x1)
    return max(f1, f2)


@pytest.mark.parametrize("d", [230, 300])
def test_fractional_envelope_in_high_dimension(d):
    """Past d = 213 the far series' front leaves the normal doubles on L's
    grid; summed in logs it still serves, and log L matches the far series
    maximized by mpmath at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = L_fractional(1.5, d, 3.0)
    with mp.workdps(30):
        ref = mp_log_L_far(mp, 1.5, d, 3.0, 0.8 * math.sqrt(d), 1.4 * math.sqrt(d))
    assert abs(res.log_value - float(ref)) <= 1e-10


def test_fractional_envelope_refuses_a_zero_at_its_bracket():
    """At d = 450, R(24.7) on the Mellin line is 7.7e-309, below the normal
    doubles, so it reads 0; that radius ends the bracket around the grid
    argmax, and the refinement refuses it. Serving it needs log R."""
    with pytest.raises(ResolutionError, match="refine_max_on_grid"):
        L_fractional(1.5, 450, 3.0)


def test_window_factor_values():
    assert_allclose(window_eta_from_beta(1.0),
                    math.exp(-math.sqrt(2.0)) * (1.0 + math.sqrt(2.0)),
                    rtol=1e-12)
    # decreasing toward the flat-window limit 1/e
    assert window_eta_from_beta(10.0) > window_eta_from_beta(100.0) > 1.0 / math.e
    assert abs(window_eta_from_beta(1e8) - 1.0 / math.e) < 1e-4
    with pytest.raises(DomainError):
        window_eta_from_beta(0.0)


def test_window_factor_holds_its_digits_up_to_the_largest_double():
    """The exponent -h + beta log1p(h/beta) is near -1 while its terms are
    of size h = sqrt(2 beta); against mpmath at log10(beta) + 40 digits."""
    mp = pytest.importorskip("mpmath")
    betas = [*np.logspace(-3, 308, 63), 1e3, 1001.0, 8e307, sys.float_info.max]
    for beta in map(float, betas):
        with mp.workdps(max(0, int(math.log10(beta))) + 40):
            b = mp.mpf(beta)
            h = mp.sqrt(2 * b)
            exact = mp.exp(-h + b * mp.log1p(h / b))
            assert abs(window_eta_from_beta(beta) - exact) <= 1e-14 * exact, beta


def test_window_lower_bound_stays_positive():
    for d in (10.0, 1000.0):
        assert window_lower_bound(1.0, d, 3.0) >= 0.05


@pytest.mark.parametrize("bound", [L_fractional, window_lower_bound])
def test_envelope_and_window_share_their_exponent_check(bound):
    """beta = d/2 - alpha/(2(p-1)) - 1 must be positive for both: at
    (1.5, 4, 1.5) it is -0.5, at (1.5, 4, 3) it is 0.625."""
    with pytest.raises(DomainError, match=r"need d/2 - alpha/\(2\(p-1\)\) > 1"):
        bound(1.5, 4.0, 1.5)
    bound(1.5, 4.0, 3.0)


def test_sweep_reports():
    rk = sweep_K(2.0, 3.0, [400.0, 800.0])
    assert rk.quantity == "K"
    assert rk.normalized == rk.values          # boundedness is the prediction
    assert abs(rk.verdict["last_pair_ratio"]) < 0.02
    rl = sweep_L(2.0, 2.0, [400.0, 800.0])
    assert rl.quantity == "L"
    assert len(rl.aux) == 2
    assert abs(rl.normalized[1] / rl.normalized[0] - 1.0) < 0.02


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_gaussian_sweep_reads_L_fractional_row_for_row(p):
    """At alpha = 2 the sweep's values, logs and argmax radii are
    L_fractional's, bit for bit."""
    ds = [6.0, 11.0, 400.0, 3000.0]
    rep = sweep_L(2.0, p, ds)
    rows = [L_fractional(2.0, d, p) for d in ds]
    assert rep.values == [r.value for r in rows]
    assert rep.log_values == [r.log_value for r in rows]
    assert rep.aux == [r.argmax for r in rows]


def test_L_result_keeps_every_value_the_doubles_hold():
    """L is inf only where exp(log L) leaves the doubles, which reach
    exp(709.78); the cut sat at log L = 709."""
    assert _L_result(709.5, 1.0).value == math.exp(709.5)
    assert _L_result(709.5, 1.0).log_value == 709.5
    assert _L_result(710.0, 1.0).value == math.inf
