"""The unit sphere's surface area, on the log scale so that large
dimensions neither overflow nor lose digits, and the log of a ratio of
Gammas whose arguments differ by a fixed shift, from Stirling's formula.
Scalar log Gamma throughout the package is math.lgamma; the vectorized
series use scipy's gammaln.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError
from .numutil import _check_dimension

# B_2k / (2k (2k-1)), k = 1..7: the Stirling series of ln Gamma(z); its
# first omitted term is 3e-17 at z = 10
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0)
_STIRLING_FROM = 10.0


def _stirling_series(z: float) -> float:
    zi2 = 1.0 / (z * z)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * zi2 + c
    return acc / z


def _log_gamma_ratio(x: float, m: float) -> float:
    """ln Gamma(x+m)/Gamma(x) for x > 0, m >= 0.

    The difference of two log Gammas of size x ln x cancels at large x
    (for K(2, d, 3) it loses 3.5e-2 relative at d = 1e13), and scipy's poch
    holds only 2e-12 on the log near x = 1e4. From x = 10 on, Stirling's
    formula for both Gammas leaves
    (x - 1/2) log1p(m/x) + m log(x+m) - m + S(x+m) - S(x),
    with S the series above; below, the recurrence Gamma(x+1) = x Gamma(x)
    shifts x up and subtracts log1p(m/(x+k)). All terms are summed by fsum.
    Against mpmath this holds 2e-15 relative from x = 2 on; between 1 and 2,
    where the ratio crosses zero, 4e-16 absolute. Where m/x overflows the
    log Gamma difference serves.
    """
    if not m / x < math.inf:
        return math.lgamma(x + m) - math.lgamma(x)
    terms = []
    while x < _STIRLING_FROM:
        terms.append(-math.log1p(m / x))
        x += 1.0
    terms += [(x - 0.5) * math.log1p(m / x) - m, m * math.log(x + m),
              _stirling_series(x + m), -_stirling_series(x)]
    return math.fsum(terms)


def log_sphere_area(d: int) -> float:
    """ln of the surface area of the unit sphere in R^d."""
    d = _check_dimension(d)
    return math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)


def sphere_area(d: int) -> float:
    """Surface area sigma_d of the unit sphere in R^d (2, 2*pi, 4*pi, ...).
    From d = 439 on sigma_d lies below the smallest normal double, and a
    DomainError names d; ``log_sphere_area`` serves every d."""
    area = math.exp(log_sphere_area(d))
    if area < sys.float_info.min:
        raise DomainError(f"sigma_d at d = {d} lies below the smallest normal double")
    return area
