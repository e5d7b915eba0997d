"""The homogeneous singular steady state of the fractional reaction problem.

For exponents p above the existence threshold 1 + alpha/(d - alpha), the
profile u(x) = s |x|^(-alpha/(p-1)) solves the stationary equation
(-Delta)^(alpha/2) u = u^p with a coefficient s = s(alpha, d, p) given in
closed form by a ratio of gamma functions. This module evaluates s in log
space, its Morrey norm, and a quadrature residual check that the profile
really annihilates the stationary equation: the fractional Laplacian of
|x|^(-g) is evaluated as a principal-value hypersingular integral in
spherical means about the probe point and compared against s^(p-1). Each
spherical mean of |x|^(-g) is a Gauss hypergeometric function (Gradshteyn
and Ryzhik 3.665, DLMF 15.2), so the integral is one-dimensional: two
quads over the sphere radius, neither nested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import beta, hyp2f1

from .errors import DomainError, ResolutionError
from .norms import RadialProfile
from .numutil import _check_order, _check_power, _check_range, _quad_result
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
# target of each of its two quads, relative to the piece or to the defect's scale
_RESIDUAL_QUAD_TOL = 1e-11
# largest share of s^(p-1) the quads' summed error estimates may make up
_RESIDUAL_ERROR_SHARE = 1e-9


def _gamma_arguments(alpha: float, d: float, p: float) -> dict:
    g = alpha / (2.0 * (p - 1.0))
    return {
        "alpha/(2(p-1))": g,
        "d/2 - alpha/(2(p-1))": d / 2.0 - g,
        "p*alpha/(2(p-1))": p * g,
        "d/2 - p*alpha/(2(p-1))": d / 2.0 - p * g,
    }


def _check_region(alpha: float, d: float, p: float) -> dict:
    _check_order(alpha)
    _check_range("dimension", d, 1.0, closed=True)
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
        _check_range("r", r)
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
    _check_range("q", q, 1.0, closed=True)
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


def _spherical_mean(g: float, d: int):
    """The integral M(s) of |e1 + s w|^(-g) over unit directions w, as a
    function of z = s^2 in [0, 1): a Gegenbauer generating-function
    integral (Gradshteyn and Ryzhik 3.665; DLMF 15.2),
    z -> sigma_(d-1) B((d-1)/2, 1/2) 2F1(g/2, g/2 - nu; nu + 1; z),
    nu = (d-2)/2. Past s = 1, M(s) = s^(-g) M(1/s), since |e1 + s w| =
    |s e1 + w|. M(1) is finite for g < d - 1 only, but integrable in s for
    every g < d."""
    nu = (d - 2) / 2.0
    front = sphere_area(d - 1) * beta((d - 1) / 2.0, 0.5)
    a, b, c = 0.5 * g, 0.5 * g - nu, nu + 1.0
    return lambda z: front * hyp2f1(a, b, c, z)


def stationary_residual(sol: SingularSolution, probe_radius: float) -> float:
    """Relative defect of the steady state in the stationary equation.

    For alpha = 2 the Laplacian of r^(-g) is symbolic and the residual is
    pure arithmetic. For alpha in (0, 2) the hypersingular integral is
    evaluated with the ball |y - x| < delta excised and replaced by its
    second-order Taylor correction, delta = 0.05 |x|. The profile is
    homogeneous and the scheme scale covariant, so the defect does not
    depend on the probe radius (positive and finite): the scheme runs at
    x = e1.

    In spherical means about the probe (Kwasnicki 2017), y = e1 + s w, the
    excised integral is int_delta^inf s^(-1-alpha) (sigma_d - M(s)) ds, M
    the closed-form integral of |y|^(-g) over each sphere
    (``_spherical_mean``). Two quads compute it, neither nested: one over
    s in [delta, 1], and one over t = 1/s in (0, 1], where the piece is
    sigma_d/alpha minus the integral of t^(alpha-1) M(1/t) =
    t^(alpha+g-1) M(t). A QUADPACK message raises ResolutionError, and so
    do error estimates that could move the defect by more than 1e-9.
    """
    _check_range("probe radius", probe_radius)
    g = sol.decay_exponent
    target = sol.s_value ** (sol.p - 1.0)
    if sol.alpha == 2.0:
        # -Lap r^(-g) = g (d - 2 - g) r^(-g-2)
        ell = g * (sol.d - 2.0 - g)
        return abs(ell - target) / target
    if sol.d < 2:
        raise DomainError("the spherical-mean scheme needs d >= 2")
    d, alpha, delta = sol.d, sol.alpha, _DELTA_RATIO
    sigma, mean = sphere_area(d), _spherical_mean(g, d)

    def near(s: float) -> float:
        return s ** (-1.0 - alpha) * (sigma - mean(s * s))

    def far(t: float) -> float:
        # t^(alpha-1) M(1/t)
        return t ** (alpha + g - 1.0) * mean(t * t)

    # each piece to _RESIDUAL_QUAD_TOL relative to itself or to s^(p-1)/c,
    # its scale in the defect
    c = math.exp(_log_pv_normalization(alpha, d))
    (v_near, e_near), (v_far, e_far) = (
        _quad_result(quad(f, a, 1.0, epsabs=_RESIDUAL_QUAD_TOL * target / c,
                          epsrel=_RESIDUAL_QUAD_TOL, limit=400, full_output=1),
                     f"residual piece {what} at unit radius")
        for f, a, what in ((near, delta, "delta <= s <= 1"), (far, 0.0, "s >= 1")))
    # excised ball: pv of the gradient term vanishes by symmetry, the Hessian
    # term integrates to -(Lap u / 2d) * sigma_d * delta^(2-alpha)/(2-alpha)
    lap_u = g * (g + 2.0 - d)
    inner = -(lap_u / (2.0 * d)) * sigma * delta ** (2.0 - alpha) / (2.0 - alpha)
    share = c * (e_near + e_far) / target
    if share > _RESIDUAL_ERROR_SHARE:
        raise ResolutionError(f"hypersingular quadrature error estimate {share:.2e} "
                              f"relative to s^(p-1), over {_RESIDUAL_ERROR_SHARE:.0e}")
    ell_num = c * (v_near + sigma / alpha - v_far + inner)
    return abs(ell_num - target) / target
