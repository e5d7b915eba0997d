"""Dimension asymptotics of the two discrepancy constants.

K compares the singular steady state against the scale-invariant semigroup
functional sup_t t^(1/(p-1)) (P_t * u)(0); L does the same for the
normalized surface measure of the unit sphere. Both collapse to single
radial quantities:

    K(d) = s * sigma_d * int_0^inf R(x) x^(d-1-g) dx,       g = alpha/(p-1),
    L(d) = sup_x x^(d-g) R(x),

with R the self-similar kernel profile, for every order alpha in (0, 2].
K stays of order one as d grows; L carries the 1/sigma_d volume collapse
with a d^(-g/2) correction (alpha = 2: d^(1/2 - 1/(p-1))). Everything here
is evaluated in log space so that dimensions in the thousands neither
overflow nor lose the leading digits, and every closed form has an
independent quadrature or maximization oracle in the test suite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, ResolutionError
from .kernels import stable_profile
from .numutil import _check_order, _check_power, _check_range, _quad_result, loglog_slope, \
    refine_max_on_grid
from .specfun import _log_gamma_ratio, log_sphere_area, sphere_area
from .stationary import log_singular_constant

__all__ = [
    "K_fractional",
    "K_fractional_at_time",
    "L_fractional",
    "LResult",
    "window_lower_bound",
    "window_eta_from_beta",
    "sweep_K",
    "sweep_L",
    "AsymptoticReport",
]


# ---------------------------------------------------------------------------
# K: the steady-state discrepancy constant
# ---------------------------------------------------------------------------

def _log_K(alpha: float, d: float, p: float) -> float:
    """log K(alpha, d, p), the one form behind K_fractional and sweep_K.
    log_singular_constant checks (alpha, d, p); its existence region
    d > p*g implies the d > g that Gamma((d-g)/2) needs."""
    log_s = log_singular_constant(alpha, d, p)
    g = alpha / (p - 1.0)
    return log_s - g * math.log(2.0) - _log_gamma_ratio((d - g) / 2.0, g / 2.0) \
        + (math.lgamma(1.0 + g / alpha) - math.lgamma(1.0 + g / 2.0))


def K_fractional(alpha: float, d: float, p: float) -> float:
    """s(alpha,d,p) * sigma_d * int R(x) x^(d-1-g) dx for alpha in (0, 2],
    g = alpha/(p-1).

    Bochner subordination writes the order-alpha kernel as a Gaussian
    mixture over the one-sided beta-stable subordinator S, beta = alpha/2,
    with E exp(-lam S) = exp(-lam^beta). Each Gaussian slice integrates
    against |x|^(-g) in closed form, 2^(-g) S^(-g/2) Gamma((d-g)/2)/Gamma(d/2),
    and the subordinator moment is E S^(-g/2) = Gamma(1+g/alpha)/Gamma(1+g/2).
    At alpha = 2 the moment term is exactly 0, which leaves the Gaussian
    form. Everything is summed in log space, so any d is fine.
    """
    return math.exp(_log_K(alpha, d, p))


def K_fractional_at_time(alpha: float, d: float, p: float, t: float) -> float:
    """The pre-sup quantity t^(1/(p-1)) * s * (P_t * |x|^(-g))(0) by direct
    radial quadrature of the kernel profile (relative target 1e-10);
    t-independent up to quadrature noise, which is exactly what the
    scale-invariance test checks."""
    _check_range("t", t)
    s = math.exp(log_singular_constant(alpha, d, p))
    g = alpha / (p - 1.0)
    prof = stable_profile(alpha, d)

    def integrand(rho: float) -> float:
        return float(prof.kernel_radial(t, rho)) * rho ** (d - 1.0 - g)

    scale = t ** (1.0 / (p - 1.0))
    cut = 20.0 * max(t ** (1.0 / alpha), 1.0)
    v1, e1 = _quad_result(quad(integrand, 0.0, cut, epsabs=0.0, epsrel=1e-10, limit=400,
                               points=[t ** (1.0 / alpha)], full_output=1),
                          f"K profile integral on [0, {cut:.6g}]")
    v2, e2 = _quad_result(quad(integrand, cut, np.inf, epsabs=1e-14 * abs(v1), epsrel=1e-10,
                               limit=200, full_output=1),
                          f"K profile integral on [{cut:.6g}, inf]")
    val, err = v1 + v2, e1 + e2
    if err > 1e-7 * val:
        raise ResolutionError(
            f"profile quadrature achieved relative error {err / max(val, 1e-300):.2e}")
    return scale * s * sphere_area(d) * val


# ---------------------------------------------------------------------------
# L: the sphere-measure discrepancy constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LResult:
    """L = exp(log_value), attained at the radius ``argmax`` = rho0.
    ``value`` is inf where L leaves the double range; ``log_value`` stays
    finite."""
    value: float
    log_value: float
    argmax: float


def _L_result(log_value: float, argmax: float) -> LResult:
    return LResult(math.exp(log_value) if log_value <= math.log(sys.float_info.max)
                   else math.inf, log_value, argmax)


def _window_beta(alpha: float, d: float, p: float) -> float:
    """beta = d/2 - alpha/(2(p-1)) - 1, the exponent of the window bound;
    the fractional envelope needs it positive too."""
    _check_power(p)
    beta = d / 2.0 - alpha / (2.0 * (p - 1.0)) - 1.0
    if not beta > 0.0:
        raise DomainError("need d/2 - alpha/(2(p-1)) > 1 (p > 1 + alpha/(d-2))")
    return beta


def L_fractional(alpha: float, d: float, p: float) -> LResult:
    """sup_x x^(d-g) R(x) for alpha in (0, 2], attained at x = rho0.

    Closed forms at alpha = 2 and alpha = 1. At alpha = 2, t = 1/x^2 turns
    the sup into sup_t t^(1/(p-1)) (4 pi t)^(-d/2) e^(-1/(4t)), which
    equals 4^(-1/(p-1)) pi^(-d/2) (b/e)^b at rho0 = 2 sqrt(b), with
    b = d/2 - 1/(p-1) > 0 (boundary rejected) and any real d >= 1.
    Other orders take the realized sup of the profile expression (a
    certified point value): the largest of 50 log-spaced radii in
    [0.05, 50], refined by bounded Brent search (``refine_max_on_grid``).
    """
    _check_order(alpha)
    if alpha == 2.0:
        _check_range("dimension", d, 1.0, closed=True)
        _check_power(p)
        b = d / 2.0 - 1.0 / (p - 1.0)
        if not b > 0.0:
            raise DomainError("need d/2 > 1/(p-1); the exponent degenerates otherwise")
        log_value = -math.log(4.0) / (p - 1.0) - (d / 2.0) * math.log(math.pi) \
            + b * (math.log(b) - 1.0)
        return _L_result(log_value, 2.0 * math.sqrt(b))
    _window_beta(alpha, d, p)
    g = alpha / (p - 1.0)
    if alpha == 1.0:
        rho_sq = (d - g) / (1.0 + g)
        log_c = math.lgamma((d + 1.0) / 2.0) - ((d + 1.0) / 2.0) * math.log(math.pi)
        log_value = log_c + ((d - g) / 2.0) * math.log(rho_sq) \
            - ((d + 1.0) / 2.0) * math.log1p(rho_sq)
        return _L_result(log_value, math.sqrt(rho_sq))
    prof = stable_profile(alpha, d)

    def log_f(lr: float) -> float:
        rho = math.exp(lr)
        val = float(prof(rho))
        return -math.inf if val <= 0.0 else (d - g) * lr + math.log(val)

    lr0, log_value = refine_max_on_grid(log_f, np.log(np.geomspace(0.05, 50.0, 50)))
    return _L_result(log_value, math.exp(lr0))


# ---------------------------------------------------------------------------
# uniform window bound
# ---------------------------------------------------------------------------

def window_eta_from_beta(beta: float) -> float:
    """min over [tau0, tau0 + sqrt(2 beta)] of e^-tau tau^beta, normalized by
    the peak value m = e^-beta beta^beta; equals e^-h (1 + h/beta)^beta with
    h = sqrt(2 beta), which tends to 1/e as beta grows."""
    _check_range("beta", beta)
    if beta <= 1e3:
        h = math.sqrt(2.0 * beta)
        return math.exp(-h + beta * math.log1p(h / beta))
    # with x = h / beta, beta x^2 = 2 and the exponent is -2 (x - log1p(x)) / x^2,
    # whose two terms of size h cancel: sum its series 1/2 - x/3 + x^2/4 - ...
    x = math.sqrt(2.0 / beta)
    s = 0.0
    for k in range(17, 1, -1):
        s = 1.0 / k - x * s
    return math.exp(-2.0 * s)


def window_lower_bound(alpha: float, d: float, p: float) -> float:
    return window_eta_from_beta(_window_beta(alpha, d, p))


# ---------------------------------------------------------------------------
# dimension sweeps
# ---------------------------------------------------------------------------

@dataclass
class AsymptoticReport:
    quantity: str             # "K" or "L"
    alpha: float
    p: float
    d_values: list
    values: list              # may overflow to inf at extreme d; logs are kept
    log_values: list
    normalized: list          # values scaled by the predicted d-power and sigma_d
    verdict: dict
    aux: list = field(default_factory=list)   # L only: the argmax rho0


def _sweep_dimensions(d_values: Sequence[float]) -> list:
    """The dimensions as floats, in their order: each finite and >= 1, and
    at least two distinct ones, so that a last pair and a slope exist."""
    ds = [float(d) for d in d_values]
    _check_range("dimension", ds, 1.0, closed=True)
    if len(set(ds)) < 2:
        raise DomainError(f"a sweep needs at least two distinct dimensions, got {ds}")
    return ds


def sweep_K(alpha: float, p: float, d_values: Sequence[float]) -> AsymptoticReport:
    """K over a dimension sweep; the prediction is plain boundedness, so the
    normalized column repeats the values."""
    ds = _sweep_dimensions(d_values)
    logs = [_log_K(alpha, d, p) for d in ds]
    values = [math.exp(lv) for lv in logs]
    verdict = {"last_pair_ratio": values[-1] / values[-2] - 1.0}
    return AsymptoticReport("K", alpha, p, ds, values, logs, list(values), verdict)


def sweep_L(alpha: float, p: float, d_values: Sequence[float]) -> AsymptoticReport:
    """L over a dimension sweep with the paper-predicted normalization
    L * sigma_d * d^(1/(p-1) - 1/2) (alpha = 2) or L * sigma_d * d^(g/2)."""
    ds = _sweep_dimensions(d_values)
    # the first L call checks alpha and p, before power divides by p - 1
    results = [L_fractional(alpha, d, p) for d in ds]
    power = 1.0 / (p - 1.0) - 0.5 if alpha == 2.0 else alpha / (2.0 * (p - 1.0))
    logs = [r.log_value for r in results]
    log_norm = [lv + log_sphere_area(d) + power * math.log(d)
                for lv, d in zip(logs, ds)]
    normalized = [math.exp(ln) for ln in log_norm]
    # slope of log(L sigma_d) against log d; the prediction is -power
    slope = loglog_slope(np.asarray(ds),
                         np.exp(np.asarray(log_norm) - power * np.log(ds)))
    verdict = {
        "slope": float(slope),
        "predicted_slope": -power,
        "normalized_last_pair_ratio": normalized[-1] / normalized[-2] - 1.0,
        "normalized_band_lo": min(normalized),
        "normalized_band_hi": max(normalized),
    }
    return AsymptoticReport("L", alpha, p, ds, [r.value for r in results], logs,
                            normalized, verdict, [r.argmax for r in results])
