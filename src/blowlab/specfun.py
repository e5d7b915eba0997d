"""The unit sphere's surface area, on the log scale so that large
dimensions neither overflow nor lose digits. Scalar log Gamma throughout
the package is math.lgamma; the vectorized series use scipy's gammaln.
"""

from __future__ import annotations

import math

from .errors import DomainError


def log_sphere_area(d: int) -> float:
    """ln of the surface area of the unit sphere in R^d."""
    if int(d) != d or d < 1:
        raise DomainError(f"dimension must be a positive integer, got {d!r}")
    d = int(d)
    return math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)


def sphere_area(d: int) -> float:
    """Surface area sigma_d of the unit sphere in R^d (2, 2*pi, 4*pi, ...)."""
    return math.exp(log_sphere_area(d))
