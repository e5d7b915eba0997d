"""The homogeneous singular steady state of the fractional reaction problem.

For exponents p above the existence threshold 1 + alpha/(d - alpha), the
profile u(x) = s |x|^(-alpha/(p-1)) solves the stationary equation
(-Delta)^(alpha/2) u = u^p with a coefficient s = s(alpha, d, p) given in
closed form by a ratio of gamma functions. This module evaluates s in log
space, its Morrey norm, and a quadrature residual check
that the profile really annihilates the stationary equation: the fractional
Laplacian of |x|^(-g) is evaluated as a principal-value hypersingular
integral in radial coordinates and compared against s^(p-1). The angular
integral at each radius is a Gauss hypergeometric function outside the
excised ball (Gradshteyn and Ryzhik 3.665, DLMF 15.2), so only the radii
that meet the ball run an inner quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import beta, hyp2f1

from .errors import DomainError, ResolutionError
from .norms import RadialProfile
from .numutil import _check_power, _quad_result
from .specfun import _log_gamma_ratio, sphere_area

__all__ = [
    "SingularSolution",
    "singular_constant",
    "log_singular_constant",
    "singular_morrey_norm",
    "singular_profile",
    "stationary_residual",
]

# excised ball radius of the principal-value scheme, relative to the probe
_DELTA_RATIO = 0.05
# relative and absolute target of its quad, at unit radius
_RESIDUAL_QUAD_TOL = 1e-10


def _gamma_arguments(alpha: float, d: float, p: float) -> dict:
    g = alpha / (2.0 * (p - 1.0))
    return {
        "alpha/(2(p-1))": g,
        "d/2 - alpha/(2(p-1))": d / 2.0 - g,
        "p*alpha/(2(p-1))": p * g,
        "d/2 - p*alpha/(2(p-1))": d / 2.0 - p * g,
    }


def _check_region(alpha: float, d: float, p: float) -> dict:
    if not (0.0 < alpha <= 2.0):
        raise DomainError("alpha must lie in (0, 2]")
    _check_power(p)
    args = _gamma_arguments(alpha, d, p)
    for name, val in args.items():
        if not val > 0.0:
            raise DomainError(
                f"outside the existence region p > 1 + alpha/(d-alpha): "
                f"gamma argument {name} = {val:g} is not positive")
    return args


def log_singular_constant(alpha: float, d: float, p: float) -> float:
    """log s(alpha, d, p); stable at dimensions far beyond float overflow.
    The two d-dependent Gammas, whose arguments differ by alpha/2, enter
    as one ratio."""
    a = _check_region(alpha, d, p)
    return (alpha * math.log(2.0)
            + _log_gamma_ratio(a["d/2 - p*alpha/(2(p-1))"], 0.5 * alpha)
            + math.lgamma(a["p*alpha/(2(p-1))"]) - math.lgamma(a["alpha/(2(p-1))"])) \
        / (p - 1.0)


def singular_constant(alpha: float, d: float, p: float) -> float:
    return math.exp(log_singular_constant(alpha, d, p))


@dataclass(frozen=True)
class SingularSolution:
    """u(x) = s_value * |x|^(-alpha/(p-1)) with s_value fixed by (alpha, d, p)."""

    alpha: float
    d: int
    p: float
    s_value: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "s_value",
                           singular_constant(self.alpha, self.d, self.p))

    @property
    def decay_exponent(self) -> float:
        return self.alpha / (self.p - 1.0)

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if not np.all((0.0 < r) & (r < math.inf)):
            raise DomainError("r must be positive and finite; "
                              "the profile is singular at the origin")
        return self.s_value * r ** (-self.decay_exponent)


def singular_profile(sol: SingularSolution) -> RadialProfile:
    """Sampled copy of the steady state on [1e-3, 1e3], 800 radii per
    decade, with its head exponent attached."""
    return RadialProfile.from_function(sol.d, sol, 1e-3, 1e3, 800,
                                       head_exponent=sol.decay_exponent)


def singular_morrey_norm(sol: SingularSolution, q: float = 1.0) -> float:
    """Closed-form centered Morrey norm of the steady state at the critical
    order d(p-1)/alpha: (sigma_d / (d - q*alpha/(p-1)))^(1/q) * s.

    The ball integral of u^q converges only while q*alpha/(p-1) < d.
    """
    if not 1.0 <= q < math.inf:
        raise DomainError(f"q must be finite and at least 1, got {q!r}")
    g = sol.decay_exponent
    if q * g >= sol.d:
        raise DomainError(
            f"q = {q} breaks local q-integrability: q*alpha/(p-1) = {q * g:g} >= d = {sol.d}")
    return (sphere_area(sol.d) / (sol.d - q * g)) ** (1.0 / q) * sol.s_value


# ---------------------------------------------------------------------------
# stationary residual via principal-value quadrature
# ---------------------------------------------------------------------------

def _log_pv_normalization(alpha: float, d: int) -> float:
    # constant in (-Delta)^(alpha/2)u(x) = c * pv-int (u(x)-u(y))/|x-y|^(d+alpha) dy
    return math.log(alpha) + (alpha - 1.0) * math.log(2.0) \
        + math.lgamma((d + alpha) / 2.0) - (d / 2.0) * math.log(math.pi) \
        - math.lgamma(1.0 - alpha / 2.0)


def _angular_kernel(r: float, rho: float, delta: float, d: int, alpha: float) -> float:
    """Integral over unit directions w of |r e1 - rho w|^(-d-alpha),
    restricted to |r e1 - rho w| > delta (the cap matters only when
    |r - rho| < delta).

    d = 3 integrates in closed form, cap included. For |r - rho| >= delta
    the polar-angle integral is a Gegenbauer generating-function integral
    (Gradshteyn and Ryzhik 3.665; DLMF 15.2):
    sigma_(d-1) B((d-1)/2, 1/2) M^(-2s) 2F1(s, s - nu; nu + 1; (m/M)^2)
    with s = (d+alpha)/2, nu = (d-2)/2, M = max(r, rho), m = min(r, rho).
    For |r - rho| < delta it is a polar-angle quadrature over the admissible
    cap [theta_star, pi]; a QUADPACK message, or an error estimate above its
    epsrel (1e-11) relative to the value, raises ResolutionError."""
    if d == 3:
        q_plus = (r + rho) ** 2
        q_star = max(delta ** 2, (r - rho) ** 2)
        ex = (1.0 + alpha) / 2.0
        return 2.0 * math.pi / ((1.0 + alpha) * r * rho) \
            * (q_star ** -ex - q_plus ** -ex)
    ex = (d + alpha) / 2.0
    if abs(r - rho) >= delta:
        nu = (d - 2) / 2.0
        big, small = max(r, rho), min(r, rho)
        return sphere_area(d - 1) * beta((d - 1) / 2.0, 0.5) * big ** (-2.0 * ex) \
            * hyp2f1(ex, ex - nu, nu + 1.0, (small / big) ** 2)
    m_star = (r * r + rho * rho - delta * delta) / (2.0 * r * rho)
    theta_star = math.acos(min(1.0, max(-1.0, m_star)))

    def integrand(theta: float) -> float:
        q = r * r + rho * rho - 2.0 * r * rho * math.cos(theta)
        return math.sin(theta) ** (d - 2) * q ** -ex

    val, _ = _quad_result(quad(integrand, theta_star, math.pi, epsabs=0.0, epsrel=1e-11,
                               limit=200, full_output=1),
                          f"angular kernel at r = {r:.6g}, rho = {rho:.6g}", 1e-11)
    return sphere_area(d - 1) * val


def stationary_residual(sol: SingularSolution, probe_radius: float) -> float:
    """Relative defect of the steady state in the stationary equation.

    For alpha = 2 the Laplacian of r^(-g) is symbolic and the residual is
    pure arithmetic. For alpha in (0, 2) the hypersingular integral is
    evaluated with the ball |y - x| < delta excised and replaced by its
    second-order Taylor correction, delta = 0.05 |x|. The profile is
    homogeneous and the scheme scale covariant, so the defect does not
    depend on the probe radius (positive and finite): the scheme runs at
    |x| = 1, since QUADPACK's unit-scale map of [|x| + delta, inf) loses the
    outer piece at |x| far from 1.

    The radial integral runs in three pieces. Off [1 - delta, 1 + delta] the
    angular kernel is closed form. On it, where the ball cuts a cap out of
    each sphere, the integrand carries (delta - |1 - rho|)^((d-1)/2) at both
    ends, not smooth for even d; in rho = 1 + delta cos(psi), psi in
    [0, pi], that term is psi^(d-1), and QUADPACK resolves the piece in a
    few panels instead of hundreds of cap quadratures.
    """
    if not 0.0 < float(probe_radius) < math.inf:
        raise DomainError(f"probe radius must be positive and finite, got {probe_radius!r}")
    g = sol.decay_exponent
    target = sol.s_value ** (sol.p - 1.0)
    if sol.alpha == 2.0:
        # -Lap r^(-g) = g (d - 2 - g) r^(-g-2)
        ell = g * (sol.d - 2.0 - g)
        return abs(ell - target) / target
    if sol.d < 2:
        raise DomainError("the radial principal-value scheme needs d >= 2")
    d, alpha, delta = sol.d, sol.alpha, _DELTA_RATIO

    def outer(rho: float) -> float:
        return rho ** (d - 1) * (1.0 - rho ** -g) * _angular_kernel(1.0, rho, delta, d, alpha)

    def middle(psi: float) -> float:
        # outer on [1 - delta, 1 + delta] with rho = 1 + delta cos(psi)
        return delta * math.sin(psi) * outer(1.0 + delta * math.cos(psi))

    pieces = [_quad_result(quad(f, a, b, epsabs=_RESIDUAL_QUAD_TOL, epsrel=_RESIDUAL_QUAD_TOL,
                                limit=400, full_output=1),
                           f"residual piece on [{lo:.6g}, {hi:.6g}]")
              for f, a, b, lo, hi in ((outer, 0.0, 1.0 - delta, 0.0, 1.0 - delta),
                                      (middle, 0.0, math.pi, 1.0 - delta, 1.0 + delta),
                                      (outer, 1.0 + delta, np.inf, 1.0 + delta, np.inf))]
    # excised ball: pv of the gradient term vanishes by symmetry, the Hessian
    # term integrates to -(Lap u / 2d) * sigma_d * delta^(2-alpha)/(2-alpha)
    lap_u = g * (g + 2.0 - d)
    inner = -(lap_u / (2.0 * d)) * sphere_area(d) * delta ** (2.0 - alpha) / (2.0 - alpha)
    total_err = sum(err for _, err in pieces)
    if total_err > 1e-6:
        raise ResolutionError(f"hypersingular quadrature achieved only {total_err:.2e} "
                              f"absolute error at unit radius")
    c = math.exp(_log_pv_normalization(alpha, d))
    ell_num = c * (sum(val for val, _ in pieces) + inner)
    return abs(ell_num - target) / target
