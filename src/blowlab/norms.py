"""The concentration functional on radial profiles and grid fields.

One functional: the q = 1 Morrey functional at the scale-critical order
s = d(p-1)/alpha, sup over R of R^(alpha/(p-1) - d) times the mass of the
data in a ball of radius R. The ``criterion`` command evaluates it beside
the blowup verdict, above the Fujita exponent, by one of two routes:

* ``radial_concentration`` -- radial profiles, with the ball centered at the
  origin (exact for radial nonincreasing data, by rearrangement);
* ``morrey_norm_grid`` -- sampled fields in d <= 2, with the sup also taken
  over every grid center.

``concentration_values`` tabulates the radial route's objective at chosen
radii. Radial samples, here and in the criterion's pairing at the origin,
integrate by one rule: trapezoids plus a fitted power-law head below the
first sample. The sup over r is refined by bounded Brent search around the
discrete argmax. Divergence (sup growing without bound at either end of the
grid) is flagged on the result; a weight R^e past the doubles is a
DomainError naming the argument that set e.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import DomainError
from .kernels import GridFunction
from .numutil import (_check_dimension, _check_power, _check_range, _pow,
                      loglog_slope, refine_max_on_grid)
from .specfun import sphere_area

__all__ = [
    "RadialProfile",
    "MorreyResult",
    "radial_concentration",
    "morrey_norm_grid",
    "concentration_values",
    "read_profile_csv",
]

_DIVERGENCE_RATIO = 1.05  # growth per decade that flags an unbounded sup


@dataclass
class RadialProfile:
    """Nonnegative radial function sampled on an increasing grid r > 0.

    ``head_exponent`` is an optional power-law hint for the head
    (u ~ c r^-a near 0); when absent it is fitted from the first samples.
    """

    d: int
    r: np.ndarray
    u: np.ndarray
    head_exponent: Optional[float] = None

    def __post_init__(self):
        self.d = _check_dimension(self.d)
        self.r = np.asarray(self.r, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.r.ndim != 1 or self.r.size < 4:
            raise DomainError("need at least 4 radial samples")
        if self.u.shape != self.r.shape:
            raise DomainError("value array must match the radial grid")
        _check_range("radius", self.r)
        _check_range("profile value", self.u, closed=True)
        if np.any(np.diff(self.r) <= 0):
            raise DomainError("radial grid must be strictly increasing")

    @classmethod
    def from_function(cls, d: int, f, r_min: float = 1e-3, r_max: float = 1e3,
                      per_decade: int = 400, **hints) -> "RadialProfile":
        n = max(8, int(round(per_decade * math.log10(r_max / r_min))) + 1)
        r = np.geomspace(r_min, r_max, n)
        return cls(d, r, np.asarray(f(r), dtype=float), **hints)

    def fitted_head_exponent(self) -> Optional[float]:
        """-d(log u)/d(log r) near the first sample, fitted once; hint takes precedence."""
        return self._head_fit if self.head_exponent is None else self.head_exponent

    @functools.cached_property
    def _head_fit(self) -> Optional[float]:
        k = min(6, self.r.size)
        rr, uu = self.r[:k], self.u[:k]
        pos = uu > 0
        if pos.sum() < 3 or not pos[0]:
            return None
        return -loglog_slope(rr[pos], uu[pos])


@dataclass
class MorreyResult:
    s_order: float
    value: float
    argmax_radius: float
    divergent: bool = False


# ---------------------------------------------------------------------------
# radial quadrature machinery
# ---------------------------------------------------------------------------

class _BallIntegralCurve:
    """integral_0^r w(rho) rho^(d-1) drho of a sampled radial weight w, for
    every r and in the table ``cum`` at the samples; below the first sample
    w is head_weight (rho/r[0])^-a, a = head_exp or 0, infinite for a >= d."""

    def __init__(self, r: np.ndarray, w: np.ndarray, d: int,
                 head_exp: Optional[float], head_weight: float):
        self.r, self.w, self.d = r, w, d
        a = 0.0 if head_exp is None else head_exp
        self._head_pow = d - a
        if head_weight == 0.0:
            self.head = 0.0
        elif a < d:
            self.head = head_weight * r[0] ** d / (d - a)
        else:
            self.head = math.inf  # non-integrable head
        integrand = w * r ** (d - 1)
        self.cum = self.head + np.concatenate(
            [[0.0], cumulative_trapezoid(integrand, r)])

    def __call__(self, rho: float) -> float:
        r, d = self.r, self.d
        if rho <= r[0]:
            if self.head == 0.0 or not math.isfinite(self.head):
                return self.head if rho > 0 else 0.0
            return self.head * (rho / r[0]) ** self._head_pow
        i = int(np.searchsorted(r, rho)) - 1
        if i >= r.size - 1:
            return float(self.cum[-1])
        # partial trapezoid with linearly interpolated weight
        t = (rho - r[i]) / (r[i + 1] - r[i])
        w_rho = self.w[i] + t * (self.w[i + 1] - self.w[i])
        seg = 0.5 * (self.w[i] * r[i] ** (d - 1) + w_rho * rho ** (d - 1)) * (rho - r[i])
        return float(self.cum[i] + seg)


def _detect_divergence(r_grid: np.ndarray, vals: np.ndarray) -> bool:
    """Growth of the functional through the last two decades of r."""
    r_hi = r_grid[-1]
    checks = []
    for lo, hi in ((r_hi / 10.0, r_hi), (r_hi / 100.0, r_hi / 10.0)):
        m_lo = np.argmin(np.abs(r_grid - lo))
        m_hi = np.argmin(np.abs(r_grid - hi))
        if m_hi <= m_lo or vals[m_lo] <= 0:
            return False
        checks.append(vals[m_hi] / vals[m_lo] > _DIVERGENCE_RATIO)
    return all(checks)


# ---------------------------------------------------------------------------
# the functional
# ---------------------------------------------------------------------------

def _centered_objective(u: RadialProfile, p: float, alpha: float):
    """r -> r^e * sigma_d * int_{B_r} u with e = alpha/(p-1) - d, the
    centered functional at radius r, with e, its ball-integral curve and
    the head exponent of u it assumes below the first sample."""
    _check_power(p)
    _check_range("alpha", alpha)
    e = alpha / (p - 1) - u.d
    head_a = u.fitted_head_exponent()
    curve = _BallIntegralCurve(u.r, u.u, u.d, head_a, u.u[0])
    sigma = sphere_area(u.d)

    def f(rr: float) -> float:
        return _pow(rr, e, "p", p) * sigma * curve(rr)

    return f, e, curve, head_a


def radial_concentration(u: RadialProfile, p: float, alpha: float) -> MorreyResult:
    """sup_r r^(alpha/(p-1) - d) * (mass of u in the centered ball B_r),
    at the order s = d(p-1)/alpha, over the sample grid and refined by
    bounded Brent search. A sup that keeps growing through the outer
    decades of the grid, or a non-integrable or too steep head, marks the
    result divergent instead of raising."""
    f, e, curve, head_a = _centered_objective(u, p, alpha)
    s_order = u.d * (p - 1) / alpha
    if not math.isfinite(curve.head):
        return MorreyResult(s_order, math.inf, float(u.r[0]), divergent=True)
    vals = np.array([_pow(rr, e, "p", p) for rr in u.r]) * sphere_area(u.d) * curve.cum
    best_r, best_v = refine_max_on_grid(f, u.r, vals)
    # a head steeper than the functional exponent means the true sup blows
    # up as r -> 0 even though every grid value is finite
    divergent = _detect_divergence(u.r, vals) or (
        head_a is not None and head_a > e + u.d + 1e-9)
    return MorreyResult(s_order, best_v, best_r, divergent=divergent)


def morrey_norm_grid(u: GridFunction, s_order: float) -> MorreyResult:
    """sup over R and over all grid centers (d <= 2) of R^(d/s - d) times
    the mass of a sampled field in the ball of radius R, balls realized as
    lattice indicator convolutions.

    The radii are 25 log-spaced from two cells to a third of the box
    half-width; circular wrap-around makes larger radii unreliable.
    """
    _check_range("s_order", s_order)
    g = u.grid
    radii = np.geomspace(2.0 * g.spacing, g.L / 3.0, 25)
    d = g.d
    e = d / s_order - d
    w_hat = g.rfft(u.values)
    # the balls are origin-anchored: the distance mesh is rolled to index 0
    # once, and each ball's spectrum takes the product in place
    dist = np.fft.ifftshift(g.radius())
    best_v, best_r = 0.0, float(radii[0])
    for R in radii:
        ball_hat = g.rfft((dist <= R).astype(float))
        np.multiply(w_hat, ball_hat, out=ball_hat)
        sums = g.irfft(ball_hat) * g.cell_volume
        v = _pow(float(R), e, "s_order", s_order) * float(np.max(sums))
        if v > best_v:
            best_v, best_r = v, float(R)
    return MorreyResult(s_order, best_v, best_r)


def concentration_values(u: RadialProfile, p: float, alpha: float,
                         r_values: Sequence[float]) -> list:
    """Rows (r, functional value) of the concentration at chosen radii."""
    f = _centered_objective(u, p, alpha)[0]
    _check_range("radius", r_values)
    return [(float(rr), float(f(rr))) for rr in r_values]


# ---------------------------------------------------------------------------
# CSV ingestion of profiles
# ---------------------------------------------------------------------------

def read_profile_csv(path, d: int) -> RadialProfile:
    """Profile from a two-column (r, value) CSV with one header line;
    `#`-prefixed lines are skipped. A file that cannot be read or decoded,
    or is malformed, is a DomainError that names the file (and the line)."""
    try:
        with open(path, newline="") as fh:
            numbered = [(n, line) for n, line in enumerate(fh, 1)
                        if not line.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"{path}: cannot read the profile: {exc}") from exc
    records = zip((n for n, _ in numbered),
                  csv.reader(line for _, line in numbered))
    _, header = next(records, (0, []))
    if len(header) < 2:
        raise DomainError(f"{path}: expected two columns (r, value)")
    rows = []
    for n, rec in records:
        if not rec:
            continue
        try:
            rows.append((float(rec[0]), float(rec[1])))
        except (ValueError, IndexError):
            raise DomainError(f"{path}, line {n}: expected two numbers "
                              f"(r, value), got {','.join(rec)!r}") from None
    if not rows:
        raise DomainError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return RadialProfile(d, arr[:, 0], arr[:, 1])
