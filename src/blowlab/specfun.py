"""The unit sphere's surface area, on the log scale so that large
dimensions neither overflow nor lose digits, and the log of a ratio of
Gammas whose arguments differ by a fixed shift. Scalar log Gamma throughout
the package is math.lgamma; the vectorized series use scipy's gammaln.
"""

from __future__ import annotations

import math

from scipy.special import poch

from .numutil import _check_dimension


def _log_gamma_ratio(x: float, m: float) -> float:
    """ln Gamma(x+m)/Gamma(x) for x > 0, m >= 0.

    The difference of two log Gammas of size x ln x cancels at large x
    (for K(2, d, 3) it loses 3.5e-2 relative at d = 1e13), so the ratio
    comes from scipy's poch where that is finite and positive; where it is
    not (large m, as for p near 1) from that difference.
    """
    ratio = float(poch(x, m))
    if 0.0 < ratio < math.inf:
        return math.log(ratio)
    return math.lgamma(x + m) - math.lgamma(x)


def log_sphere_area(d: int) -> float:
    """ln of the surface area of the unit sphere in R^d."""
    d = _check_dimension(d)
    return math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)


def sphere_area(d: int) -> float:
    """Surface area sigma_d of the unit sphere in R^d (2, 2*pi, 4*pi, ...)."""
    return math.exp(log_sphere_area(d))
