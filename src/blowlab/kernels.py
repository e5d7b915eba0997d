"""Dispersal kernels, their Fourier symbols, semigroup kernels on periodic
grids, and self-similar stable heat-kernel profiles.

The generator throughout is A u = J * u - u for a symmetric probability
density J (kinds: gaussian_like, compact_bump, heavy_tail), or the pure
fractional generator -(-Delta)^(alpha/2) handled directly through its
frequency multiplier. The compact bump and the heavy tail are sampled on
the grid and normalized to unit mass there, by the lattice sum alone. On a
periodic grid the semigroup kernel is the inverse FFT of exp(t*(Jhat - 1)),
which is exactly the periodized continuum kernel for resolved grids; a
boundary-mass audit reports when the box is too small.

Self-similar profiles R with P_t(x) = t^(-d/alpha) R(|x| t^(-1/alpha)) use
the Gaussian closed form at alpha = 2 and the Poisson closed form at
alpha = 1. Other orders take a convergent or asymptotic series at small and
large rho and, between them, in every dimension, one Mellin-Barnes integral
of the closed-form radial moments on a line through the saddle of its
integrand (Zolotarev 1986; Paris and Kaminski 2001); the series and the
closed forms carry their constant fronts in logs. At alpha = 1 the profile also has a
second route, Bochner subordination of the Gaussian over Levy's one-sided
1/2-stable density, by one trapezoid rule in log lambda for all radii at
once; the generic-order subordination oracle lives in the test suite.
Every quadrature result goes through ``numutil._quad_result``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, loggamma

from .errors import DomainError, ResolutionError
from .numutil import _check_dimension, _check_order, _check_range, _pow, _quad_result

__all__ = [
    "Grid",
    "GridFunction",
    "KernelSpec",
    "SemigroupKernel",
    "StableProfile",
    "ProfileValues",
    "generator_symbol_grid",
    "semigroup_kernel",
    "stable_profile",
]

_NEGATIVITY_FLOOR = -1e-9
_CLIP_FLOOR = -1e-12
# audit verdicts kept by _audit_failure, one short string (or None) each
_AUDIT_MEMO_SIZE = 4096
# the torus audits read the band beyond this share of the half-width L
_BOUNDARY_FRACTION = 0.75
# the largest kernel mass the boundary-mass audit lets into that band
_BOUNDARY_TOL = 1e-8
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
_DOUBLE_MAX = float(np.finfo(float).max)
# the narrowest gaussian whose 2 sigma^2 is a normal double
_SIGMA_MIN = math.sqrt(0.5 * _TINY)


# ---------------------------------------------------------------------------
# grids and grid functions
# ---------------------------------------------------------------------------

def _length(meshes: list) -> np.ndarray:
    """|x| from coordinate meshes in one buffer: hypot(|a|, b) = hypot(a, b)."""
    out = np.abs(meshes[0])
    for c in meshes[1:]:
        np.hypot(out, c, out=out)
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^d with n points per axis.

    n must be a power of two; d is 1 or 2. Point i on an axis sits at
    x_i = -L + i*h with h = 2L/n, so the origin is the index n//2: the
    natural layout, in which every field is stored.

    Layout contract of the spectral paths: a field is transformed as it
    lies (``rfft``/``irfft``). A Fourier multiplier is a circulant operator
    and commutes with the half-box roll, so applying one to a natural-layout
    field needs no shift. Only arrays whose origin must sit at index 0 are
    rolled there (``np.fft.ifftshift``) before a transform and back after:
    the sampled dispersal density behind the symbol, the distance mesh of
    the grid Morrey functional's balls and the stored
    ``SemigroupKernel.values``.

    Buffer contract: ``rfft(values, out=buf)`` writes the half spectrum
    into buf (complex, shape (n,)*(d-1) + (n//2 + 1,), not overlapping
    values) and returns buf; without out it returns a fresh array, one for
    all axis passes. ``irfft`` returns a fresh real field; with
    ``overwrite=True`` it spends its input instead of a complex temporary.
    """

    d: int
    L: float
    n: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise DomainError("grids support d in {1, 2}")
        # the spacing 2L/n and the cell volume (2L/n)^d must be doubles
        _check_range("half-width L", self.L, upper=min(
            0.5 * _DOUBLE_MAX, 0.5 * self.n * _DOUBLE_MAX ** (1.0 / self.d)))
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise DomainError("n must be a power of two >= 4")

    @property
    def spacing(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.d

    def axis(self) -> np.ndarray:
        return -self.L + self.spacing * np.arange(self.n)

    def meshes(self) -> list:
        """The d coordinate meshes x_1, ..., x_d in the natural layout."""
        return np.meshgrid(*[self.axis()] * self.d, indexing="ij")

    def radius(self) -> np.ndarray:
        """|x| mesh in the natural layout."""
        return _length(self.meshes())

    def freq_radius(self) -> np.ndarray:
        """|xi| mesh on the real-FFT half lattice: every frequency on the
        leading axes, the n//2 + 1 nonnegative ones on the last."""
        xi = 2.0 * math.pi * np.fft.fftfreq(self.n, d=self.spacing)
        half = 2.0 * math.pi * np.fft.rfftfreq(self.n, d=self.spacing)
        return _length(np.meshgrid(*[xi] * (self.d - 1), half, indexing="ij"))

    @functools.lru_cache(maxsize=64)
    def edge(self) -> np.ndarray:
        """The band where some |x_i| > 0.75 L, as a read-only mask in the natural
        layout, built once per grid: the boundary margin of the torus audits."""
        line = np.abs(self.axis()) > _BOUNDARY_FRACTION * self.L
        out = functools.reduce(np.logical_or.outer, [line] * self.d)
        out.setflags(write=False)
        return out

    def rfft(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Half spectrum of a real field on this grid (out: see above).

        The passes of ``np.fft.rfftn``, bit for bit: a real transform along
        the last axis, then complex ones in place along the others. Called
        directly they skip its argument handling, which over a step's five
        transforms costs about a sixth of a 1-D step at n = 1024."""
        out = np.fft.rfft(values, out=out)
        for axis in range(self.d - 1):
            np.fft.fft(out, axis=axis, out=out)
        return out

    def irfft(self, spectrum: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Real field with the given half spectrum (inverse of ``rfft``), by
        the passes of ``np.fft.irfftn``. With overwrite the complex passes
        run in place in spectrum, which is spent, with the same bits."""
        for axis in range(self.d - 1):
            spectrum = np.fft.ifft(spectrum, axis=axis,
                                   out=spectrum if overwrite else None)
        return np.fft.irfft(spectrum, n=self.n)


@dataclass
class GridFunction:
    """Nonnegative sampled field on a periodic grid.

    Values in [-1e-12, 0) are clipped to 0 at construction; anything more
    negative is rejected, a sign the producer under-resolved something, and
    so is a value that is not finite.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise DomainError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise DomainError("values must be finite")
        worst = float(v.min()) if v.size else 0.0
        if worst < _CLIP_FLOOR:
            raise DomainError(f"values have negative entries below the clip floor ({worst:.3e})")
        self.values = np.maximum(v, 0.0)

    @classmethod
    def from_function(cls, grid: Grid, f: Callable) -> "GridFunction":
        """Samples of f(x_1, ..., x_d) on the grid's coordinate meshes."""
        return cls(grid, np.asarray(f(*grid.meshes()), dtype=float))

    @classmethod
    def gaussian(cls, grid: Grid, mass: float = 1.0, sigma: float = 1.0,
                 center: float = 0.0) -> "GridFunction":
        """mass * (unit-mass isotropic Gaussian of width sigma)."""
        # 2 sigma^2 must be a normal double, or the exponent divides by 0,
        # and a finite one, as must the normalization (sigma sqrt(2 pi))^d
        _check_range("sigma", sigma, _SIGMA_MIN, closed=True, upper=min(
            math.sqrt(0.5 * _DOUBLE_MAX),
            _DOUBLE_MAX ** (1.0 / grid.d) / math.sqrt(2.0 * math.pi)))
        _check_range("mass", mass, closed=True)
        norm = mass / (sigma * math.sqrt(2.0 * math.pi)) ** grid.d

        def density(*xs):
            # a square or an exponent past the doubles is inf or -inf, and
            # its exp the 0 it rounds to
            with np.errstate(over="ignore"):
                square = sum(((x - center) ** 2 for x in xs[1:]), (xs[0] - center) ** 2)
                return norm * np.exp(-square / (2 * sigma ** 2))
        return cls.from_function(grid, density)

    def sup(self) -> float:
        return float(self.values.max())

    def mass(self) -> float:
        return float(self.values.sum()) * self.grid.cell_volume

    def scaled(self, factor: float) -> "GridFunction":
        return GridFunction(self.grid, factor * self.values)


# ---------------------------------------------------------------------------
# kernel specifications and symbols
# ---------------------------------------------------------------------------

def _bump_profile(r: np.ndarray) -> np.ndarray:
    """Unnormalized smooth mollifier exp(-1/(1-r^2)) on r < 1."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = r < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of the dispersal mechanism.

    kinds: ``gaussian_like`` (symbol exp(-|xi|^2)), ``compact_bump`` (smooth
    mollifier on the unit ball), ``heavy_tail`` (J proportional to
    (1+|x|)^{-n} in d = 1, effective order n - 1), ``pure_fractional`` (no
    kernel; the propagator multiplier is exp(-t*A*|xi|^alpha) directly).
    The bump and the heavy tail are normalized on the lattice they are
    sampled on (``generator_symbol_grid``).
    """

    kind: str
    alpha: Optional[float] = None       # pure_fractional order
    tail_order: Optional[float] = None  # heavy_tail n
    strength: float = 1.0               # pure_fractional diffusivity A

    @classmethod
    def gaussian(cls) -> "KernelSpec":
        return cls(kind="gaussian_like")

    @classmethod
    def bump(cls) -> "KernelSpec":
        return cls(kind="compact_bump")

    @classmethod
    def heavy_tail(cls, n: float) -> "KernelSpec":
        # d = 1 realization; n in (1, 3) gives effective order n - 1 in (0, 2)
        if not (1.0 < n < 3.0):
            raise DomainError("heavy tail order n must lie in (d, d+2) = (1, 3) for d = 1")
        return cls(kind="heavy_tail", tail_order=float(n))

    @classmethod
    def fractional(cls, alpha: float, strength: float = 1.0) -> "KernelSpec":
        _check_order(alpha)
        _check_range("strength", strength)
        return cls(kind="pure_fractional", alpha=float(alpha), strength=float(strength))

    def alpha_effective(self, d: int) -> float:
        """Order of the small-frequency symbol expansion 1 - A|xi|^alpha."""
        if self.kind in ("gaussian_like", "compact_bump"):
            return 2.0
        if self.kind == "heavy_tail":
            if d != 1:
                raise DomainError("heavy-tail kernels are realized in d = 1 only")
            return self.tail_order - 1.0
        return self.alpha


# ---------------------------------------------------------------------------
# semigroup kernels on grids
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def generator_symbol_grid(spec: KernelSpec, grid: Grid) -> np.ndarray:
    """Generator multiplier Lhat on the grid's real-FFT half lattice.

    Lhat = Jhat - 1 for dispersal kinds and -A|xi|^alpha for
    pure_fractional; the semigroup multiplier at time t is exp(t*Lhat).
    Lhat is real and even, so its half lattice (``Grid.freq_radius``)
    determines it and multiplies ``Grid.rfft`` spectra exactly. The last
    64 symbols are cached, read-only.
    """
    if spec.kind == "pure_fractional":
        out = -spec.strength * grid.freq_radius() ** spec.alpha
    elif spec.kind == "gaussian_like":
        out = np.exp(-grid.freq_radius() ** 2) - 1.0
    else:
        # sample J, normalize it to unit mass on the grid (periodization),
        # discrete transform with the origin rolled to index 0
        if spec.kind == "compact_bump":
            J = _bump_profile(grid.radius())
        else:
            spec.alpha_effective(grid.d)    # heavy tails are realized in d = 1 only
            J = (1.0 + grid.radius()) ** (-spec.tail_order)
        J = J / (J.sum() * grid.cell_volume)
        Jhat = grid.rfft(np.fft.ifftshift(J)).real * grid.cell_volume
        out = Jhat - 1.0
    out.setflags(write=False)
    return out


def _propagator(sym: np.ndarray, t: float, out: Optional[np.ndarray] = None,
                u_hat: Optional[np.ndarray] = None,
                product: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(t*sym), the semigroup's multiplier at time t on the half lattice
    of the generator symbol sym, into out if given and a fresh array
    otherwise; with u_hat it returns exp(t*sym) u_hat, into product if
    given. The one place a symbol is exponentiated."""
    out = np.multiply(sym, t, out=out)
    np.exp(out, out=out)
    if u_hat is None:
        return out
    return np.multiply(out, u_hat, out=product)


@dataclass
class SemigroupKernel:
    """Kernel k_t of exp(t*(J*. - .)) realized on a periodic grid.

    ``values`` uses the natural layout (origin at index n//2 per axis).
    """

    grid: Grid
    values: np.ndarray

    def mass(self) -> float:
        return float(self.values.sum()) * self.grid.cell_volume

    def boundary_mass(self) -> float:
        """|k| mass in the band max_i |x_i| > 0.75 L (``Grid.edge``)."""
        return float(np.abs(self.values[self.grid.edge()]).sum()) * self.grid.cell_volume

    def min_value(self) -> float:
        return float(self.values.min())


def semigroup_kernel(spec: KernelSpec, t: float, grid: Grid,
                     boundary_tol: float = _BOUNDARY_TOL) -> SemigroupKernel:
    """Construct k_t on a grid from the exact frequency multiplier.

    Raises ResolutionError when the kernel's mass within a quarter
    half-width of the boundary exceeds ``boundary_tol`` (the box is too
    small; the message suggests doubling L) or when negative excursions
    exceed the -1e-9 floor (the grid is too coarse).
    """
    _check_range("semigroup time t", t)
    _check_range("boundary_tol", boundary_tol, closed=True)
    mult = _propagator(generator_symbol_grid(spec, grid), t)
    vals = np.fft.fftshift(grid.irfft(mult)) / grid.cell_volume
    kern = SemigroupKernel(grid, vals)
    worst = kern.min_value()
    scale = float(np.abs(vals).max())
    if worst < _NEGATIVITY_FLOOR * max(1.0, scale):
        raise ResolutionError(
            f"kernel negativity {worst:.3e} below floor; refine the grid "
            f"(n = {2 * grid.n}) or enlarge the box")
    bmass = kern.boundary_mass()
    if bmass > boundary_tol:
        raise ResolutionError(
            f"boundary mass {bmass:.3e} exceeds {boundary_tol:.1e}; "
            f"enlarge the box (L = {2 * grid.L:g}, n = {2 * grid.n})")
    return kern


@functools.lru_cache(maxsize=_AUDIT_MEMO_SIZE)
def _audit_failure(spec: KernelSpec, t: float, grid: Grid,
                   boundary_tol: float) -> Optional[str]:
    """The verdict of ``semigroup_kernel``'s audits at (spec, t, grid,
    boundary_tol): its ResolutionError message, or None when the kernel
    passes. Only the verdict is kept, never the kernel; pass every argument
    positionally so that equal calls share one entry."""
    try:
        semigroup_kernel(spec, t, grid, boundary_tol=boundary_tol)
    except ResolutionError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# self-similar stable profiles
# ---------------------------------------------------------------------------

class ProfileValues(NamedTuple):
    """Profile values with the error estimate and the route of each point.

    Routes: ``closed`` (alpha in {1, 2}, and rho = 0 at any order),
    ``series-near`` and ``series-far`` (the small- and large-rho series),
    ``mellin`` (the Mellin-Barnes inversion of the radial moments, between
    the two series) and ``subordination`` (alpha = 1 only, Bochner's
    integral over Levy's density).
    """

    value: np.ndarray
    error: np.ndarray
    route: np.ndarray


# every profile value carries an error estimate within this share of itself
_QUAD_TOL = 1e-11
_SERIES_TERMS = 400
_LOG2, _LOG_PI = math.log(2.0), math.log(math.pi)
# the Mellin-Barnes line moves past the poles at q = alpha, 2 alpha, ...
# when its saddle lies within this distance of the first
_POLE_GAP = 0.3
# each route switch sits where its series' estimated error falls to this
# share of _QUAD_TOL, on a grid of 20 radii per decade
_SWITCH_MARGIN = 0.25
_SWITCH_GRID = np.geomspace(1e-6, 1e4, 201)
# the subordination trapezoid keeps the nodes where its integrand lies
# within e^40 of its peak
_SUB_DROP = 40.0
# log(4 pi) and log 2 as hi + lo, with hi parts of 24 and 21 bits whose
# products with k = (d + 1)/2 and with k n (|n| < 1100) are exact for every
# d below 10^6
_LOG_4PI_HI, _LOG_4PI_LO = 42463540 / 2 ** 24, 2.936369997266539e-08
_LN2_HI, _LN2_LO = 11629080 / 2 ** 24, -1.904654299957768e-09


def _sum_series(log_mag, weight, scale, asymptotic):
    """Sum series terms exp(log_mag) * weight along axis 1, one row per point
    (rows are summed alike whatever their number, so an array call returns
    the scalar calls' values bit for bit).

    ``scale`` bounds the magnitudes of the log parts summed into each log_mag,
    so each term carries a relative rounding error of about eps * scale.
    A convergent series adds a geometric bound on its tail and reports an
    infinite error while its terms still grow; an asymptotic one stops
    before its smallest term, which is then its truncation error.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mag = np.exp(log_mag)
        terms = mag * weight
        if asymptotic:
            stop = np.argmin(log_mag, axis=1)
            keep = np.arange(log_mag.shape[1]) < stop[:, None]
            tail = mag[np.arange(mag.shape[0]), stop]
        else:
            keep = np.ones(mag.shape, dtype=bool)
            last, ratio = mag[:, -1], mag[:, -1] / mag[:, -2]
            tail = np.where(last == 0.0, 0.0,
                            np.where(ratio < 1.0, last * ratio / (1.0 - ratio), np.inf))
        kept = np.where(keep, terms, 0.0)
        rounding = 4.0 * _EPS * (np.abs(kept) * (scale + 1.0)).sum(axis=1)
        return kept.sum(axis=1), rounding + tail


def _near_series(alpha: float, d: int, rho: np.ndarray):
    """2/(alpha (4 pi)^(d/2)) sum_k (-1)^k Gamma((2k+d)/alpha) / (k! Gamma(k+d/2)) (rho/2)^(2k),
    convergent for alpha > 1 and rho > 0 (asymptotic for alpha < 1)."""
    k = np.arange(_SERIES_TERMS, dtype=float)
    parts = (gammaln((2.0 * k + d) / alpha), gammaln(k + 1.0), gammaln(k + d / 2.0),
             2.0 * k * np.log(rho / 2.0)[:, None],
             -math.log(0.5 * alpha) - 0.5 * d * math.log(4.0 * math.pi))
    log_mag = parts[0] - parts[1] - parts[2] + parts[3] + parts[4]
    scale = sum(np.abs(p) for p in parts)
    weight = np.where(k % 2 == 0.0, 1.0, -1.0)
    return _sum_series(log_mag, weight, scale, asymptotic=alpha < 1.0)


def _far_terms(alpha: float, d: int, rho: np.ndarray, terms: int):
    """Log magnitudes, weights and log scales of the far series' first terms, one
    row per rho, its factor pi^(-d/2-1) rho^(-d) included. The weight (-1)^(n+1)
    sin(pi n alpha/2) is taken as sin(pi n (2 - alpha)/2), accurate at alpha near 2."""
    n = np.arange(1, terms + 1, dtype=float)
    parts = (gammaln((n * alpha + d) / 2.0), gammaln(1.0 + n * alpha / 2.0),
             gammaln(n + 1.0), n * alpha * np.log(2.0 / rho)[:, None],
             -(0.5 * d + 1.0) * _LOG_PI - d * np.log(rho)[:, None])
    log_mag = parts[0] + parts[1] - parts[2] + parts[3] + parts[4]
    return log_mag, np.sin(0.5 * math.pi * (2.0 - alpha) * n), sum(np.abs(p) for p in parts)


def _far_series(alpha: float, d: int, rho: np.ndarray):
    """pi^(-d/2-1) rho^(-d) sum_n (-1)^(n+1)/n! Gamma((n alpha+d)/2) Gamma(1+n alpha/2)
    sin(pi n alpha/2) (2/rho)^(n alpha), convergent for alpha < 1 and
    asymptotic for alpha > 1; its first term is the far-field tail
    c rho^(-d-alpha)."""
    log_mag, weight, scale = _far_terms(alpha, d, rho, _SERIES_TERMS)
    return _sum_series(log_mag, weight, scale, asymptotic=alpha > 1.0)


def _chunked(route, alpha: float, d: int, x: np.ndarray):
    """A vectorized route over x (rho, or rho^2) in chunks of 32 points, which
    bounds its tables at 32 rows (of _SERIES_TERMS terms, or of nodes)."""
    chunks = [route(alpha, d, c) for c in np.array_split(x, max(1, -(-x.size // 32)))]
    return np.concatenate([v for v, _ in chunks]), np.concatenate([e for _, e in chunks])


@functools.lru_cache(maxsize=128)
def _series_switches(alpha: float, d: int):
    """(rho_near, rho_far) for a generic order.

    The near series serves 0 < rho <= rho_near (rho_near = 0 for alpha < 1),
    the far series rho >= rho_far (inf if it never passes), and the
    Mellin-Barnes integral the radii between. A raw series sum passes where
    it is finite and its estimate within _SWITCH_MARGIN _QUAD_TOL of it.
    """
    grid, target = _SWITCH_GRID, _SWITCH_MARGIN * _QUAD_TOL
    rho_near = 0.0
    if alpha > 1.0:
        value, error = _chunked(_near_series, alpha, d, grid)
        fails = np.flatnonzero(~(np.isfinite(value) & (error <= target * np.abs(value))))
        if fails.size == 0:
            rho_near = float(grid[-1])
        elif fails[0] > 0:
            rho_near = float(grid[fails[0] - 1])
    value, error = _chunked(_far_series, alpha, d, grid)
    fails = np.flatnonzero(~(np.isfinite(value) & (error <= target * np.abs(value))))
    if fails.size and fails[-1] == grid.size - 1:
        return rho_near, math.inf
    return rho_near, float(grid[fails[-1] + 1 if fails.size else 0])


def _mellin(alpha: float, d: int, rho: float):
    """R(rho) by Mellin-Barnes inversion of the radial moments
    E|X|^q = 2^q Gamma((d+q)/2) Gamma(1-q/alpha) / (Gamma(d/2) Gamma(1-q/2)),
    -d < q < alpha (Zolotarev 1986; Paris and Kaminski 2001):
    sigma_d rho^(d-1) R(rho) = (1/pi) int_0^inf Re[E|X|^(s-1) rho^(-s)] dt
    on s = c + i t. c is the real-axis minimum of the integrand, a saddle:
    E|X|^q is the Mellin transform of a positive law, so the integrand over
    its value at t = 0 is at most 1 in modulus, and its phase is stationary
    there. One quad, in logs, holds the line to a quarter of _QUAD_TOL.

    Within _POLE_GAP of the pole at q = alpha (alpha near 2, large rho) the
    pole pins the saddle and the line cancels. The line then moves past
    the poles at q = alpha, ..., n alpha to c - 1 = (n + 1/2) alpha, where
    its scale is least (or first falls to eps of its scale at n = 1), adds
    their residues, the far series' first n terms, and is held to the same
    share of their size: its own relative target meets QUADPACK's roundoff.
    Where the line's front leaves the doubles R is 0 with an infinite error.
    """
    lr = math.log(rho)
    lo, hi = 1.0 - d, 1.0 + alpha

    def log_moment(q):
        # log(Gamma(d/2) E|X|^q); complex loggamma takes the negative reals past the poles
        return (q * _LOG2 + loggamma(0.5 * (d + q)) + loggamma(1.0 - q / alpha)
                - loggamma(1.0 - 0.5 * q))

    def log_scale(c):
        return log_moment(complex(c - 1.0)).real - c * lr

    c = minimize_scalar(log_scale, bounds=(lo, hi), method="bounded",
                        options={"xatol": 1e-6 * (hi - lo)}).x
    tol = 0.25 * _QUAD_TOL
    residues = rounding = 0.0
    if hi - c < _POLE_GAP:
        q = (np.arange(1, _SERIES_TERMS + 1) + 0.5) * alpha
        line = log_moment(q + 0j).real - q * lr
        n = int(np.argmin(np.maximum(line, line[0] + math.log(_EPS)))) + 1
        c = 1.0 + (n + 0.5) * alpha
        log_mag, weight, scale = _far_terms(alpha, d, np.array([rho]), n)
        terms = np.exp(log_mag[0]) * weight
        residues = math.fsum(terms)
        rounding = 4.0 * _EPS * float((np.abs(terms) * (scale[0] + 1.0)).sum())
    base = log_scale(c)
    with np.errstate(over="ignore"):
        front = float(np.exp(base - (d - 1) * lr - math.log(2.0 * math.pi) - 0.5 * d * _LOG_PI))
    if not 0.0 < front < math.inf:
        return 0.0, math.inf

    def f(t: float) -> float:
        z = log_moment(complex(c - 1.0, t)) - 1j * t * lr - c * lr - base
        return math.exp(z.real) * math.cos(z.imag)

    value, error = _quad_result(quad(f, 0.0, math.inf, epsabs=tol * abs(residues) / front,
                                     epsrel=tol, limit=200, full_output=1),
                                f"Mellin-Barnes line at rho = {rho:.6g}")
    return residues + front * value, front * error + rounding


def _closed(log_value, scale):
    """(value, error) of a closed form exp(log_value), held to 4 eps
    (1 + scale), where scale bounds the log terms summed into log_value, as
    in _sum_series."""
    with np.errstate(over="ignore"):
        value = np.exp(log_value)
    return value, 4.0 * _EPS * value * (1.0 + scale)


def _poisson(d: int, sq: np.ndarray):
    """(value, error) of R at alpha = 1, Gamma(h) pi^(-h) (1 + rho^2)^(-h)
    with h = (d + 1)/2, from sq = rho^2, its log terms summed before one exp."""
    h = (d + 1) / 2.0
    log_base = np.log1p(sq)
    # the base rounds by eps/2, which the power multiplies by h
    return _closed(math.lgamma(h) - h * _LOG_PI - h * log_base,
                   abs(math.lgamma(h)) + h * _LOG_PI + h * log_base + h)


@functools.lru_cache(maxsize=128)
def _subordination_nodes(d: int):
    """(h, left, first, size, u, em1) of the subordination trapezoid in
    dimension d.

    With k = (d + 1)/2 and w = v - v* the log integrand is its peak minus
    k (w + e^-w - 1), whose width is about 1/sqrt(k). The spacing h is the
    largest power of two at most 1/8 and 1/(3 sqrt(k)), so i h and k i h
    are exact; the window [v* - left, v* + right] is where
    k (w + e^-w - 1) <= _SUB_DROP, its ends found by Newton's method from
    outside, where the convex function's iterates fall monotonically onto
    them. A window takes the ``size`` nodes from the last even one at or
    below its start, which reach past its end; its even columns are then
    the nodes of spacing 2h. Its centre lies within log(2)/2 of the
    reference node, so every window lies among the nodes i h from
    i = ``first``, whose u = i h and em1 = e^-u - 1 are tabulated here."""
    k = 0.5 * (d + 1)
    h = 2.0 ** -max(3, math.ceil(math.log2(3.0 * math.sqrt(k))))
    y = _SUB_DROP / k
    left, right = 1.0 + math.log1p(y), 1.0 + y
    for _ in range(60):
        left -= (math.expm1(left) - left - y) / math.expm1(left)
        right -= (right + math.expm1(-right) - y) / -math.expm1(-right)
    size = math.ceil((left + right) / h) + 3
    first = 2 * math.floor((-0.35 - left) / (2.0 * h))
    u = np.arange(first, math.floor((0.35 - left) / h) + size) * h
    return h, left, first, size, u, np.expm1(-u)


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _subordinated(alpha: float, d: int, sq: np.ndarray):
    """(value, error) of R at alpha = 1 from sq = rho^2 by Bochner's subordination,
    R(rho) = int_0^inf eta(lam) G_lam(rho) dlam, with Levy's 1/2-stable
    density eta(lam) = (4 pi)^(-1/2) lam^(-3/2) e^(-1/(4 lam)) and the
    Gaussian G_lam(rho) = (4 pi lam)^(-d/2) e^(-rho^2/(4 lam)).

    In v = log lam the integrand is e^L with L = -k log(4 pi) - k v - a e^-v
    (k = (d + 1)/2, a = (1 + rho^2)/4), concave with its peak at
    v* = log(a/k). It decays double-exponentially below v* and
    exponentially above, so the trapezoid rule converges geometrically
    (Trefethen and Weideman 2014). The nodes are v = n log 2 + i h about
    the power of two lam = 2^n nearest a/k, so e^-v = 2^-n e^-u with
    b = a 2^-n exact, and L = -k log(4 pi) - k n log 2 - b + psi(u), with
    psi(u) = -k u - b (e^-u - 1) of modest size on the window of
    ``_subordination_nodes``. The large constant terms are summed with
    their rounding errors carried (log(4 pi) and log 2 split as in Cody and
    Waite, so their products with k and k n are exact) before one exp.
    The estimate is |T_h - T_2h|, plus the two tails past the end nodes,
    each below e^L/|L'| there since L is concave, plus 4 eps (1 + k + the
    integrand's mean of k |u| + b |e^-u - 1|) for the rounding, k eps of it
    from a's. Each row is summed alike whatever the number of rows, so an
    array call returns the scalar calls' values bit for bit."""
    k = 0.5 * (d + 1)
    h, left, first, size, nodes, em1s = _subordination_nodes(d)
    a = 0.25 * (1.0 + sq)
    n = np.rint(np.log2(a / k))
    b = np.ldexp(a, -n.astype(int))
    start = 2.0 * np.floor((np.log(b / k) - left) / (2.0 * h))
    cols = (start - first).astype(int)[:, None] + np.arange(size)
    u, em1 = nodes[cols], em1s[cols]
    psi = -k * u - b[:, None] * em1
    peak = psi.max(axis=1)
    f = np.exp(psi - peak[:, None])
    fine = h * f.sum(axis=1)
    coarse = 2.0 * h * f[:, ::2].sum(axis=1)
    slope = b[:, None] * (1.0 + em1[:, [0, -1]]) - k
    tails = f[:, 0] / np.abs(slope[:, 0]) + f[:, -1] / np.abs(slope[:, 1])
    mass = h * (f * (k * np.abs(u) + b[:, None] * np.abs(em1))).sum(axis=1)
    rounding = 4.0 * _EPS * ((1.0 + k) * fine + mass)
    s, e = -k * _LOG_4PI_HI, 0.0
    lo = -k * (_LOG_4PI_LO + n * _LN2_LO)
    for term in (-k * n * _LN2_HI, -b, peak, np.log(fine), lo):
        s, r = _two_sum(s, term)
        e = e + r
    with np.errstate(over="ignore"):
        value = np.exp(s) * (1.0 + e)
    return value, value * ((np.abs(fine - coarse) + tails + rounding) / fine)


@dataclass
class StableProfile:
    """Radial profile R with P_t(x) = t^(-d/alpha) R(|x| t^(-1/alpha)).

    ``auto`` evaluates alpha = 2 and alpha = 1 in closed form; other orders
    take the route their (alpha, d, rho) selects: the closed form at
    rho = 0, the near series for alpha > 1 at small rho, the far series at
    large rho, and the Mellin-Barnes integral between, in every dimension.
    Every value must carry an error estimate within 1e-11 (``_QUAD_TOL``)
    relative to itself, or the call raises ResolutionError. ``evaluate``
    applies one range rule after every route: a value or estimate that is
    not finite reads 0 with an infinite estimate, and where both lie below
    the smallest normal double, R reads 0 with estimate 0.
    ``subordination`` (alpha = 1 only) computes the Bochner integral of the
    Gaussian over Levy's density, a second route to the Poisson closed form,
    by a trapezoid rule in log lambda over all radii at once
    (``_subordinated``), whose estimate meets 1e-11 up to about d = 17000.
    """

    alpha: float
    d: int
    method: str = "auto"

    def __post_init__(self):
        _check_order(self.alpha)
        self.d = _check_dimension(self.d)
        if self.method not in ("auto", "subordination"):
            raise DomainError("method must be auto or subordination")
        if self.method == "subordination" and self.alpha != 1.0:
            raise DomainError(f"subordination serves alpha = 1 only, got alpha = {self.alpha:g}")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, rho) -> np.ndarray:
        res = self.evaluate(rho)
        over = np.flatnonzero(~(res.error <= _QUAD_TOL * np.abs(res.value)))
        if over.size:
            i = over[0]
            raise ResolutionError(
                f"profile route {res.route.flat[i]} at rho = {np.ravel(rho)[i]:.6g} "
                f"(alpha = {self.alpha:g}, d = {self.d}) estimates its error at "
                f"{res.error.flat[i]:.2e}, over {_QUAD_TOL:.1e} "
                f"relative to R = {res.value.flat[i]:.6e}")
        return float(res.value[0]) if np.ndim(rho) == 0 else res.value

    def evaluate(self, rho) -> ProfileValues:
        """R at each rho with its error estimate and route, unchecked."""
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        _check_range("profile argument rho", rho_arr, closed=True)
        flat = rho_arr.ravel()
        value = np.empty(flat.shape)
        error = np.empty(flat.shape)
        route = np.empty(flat.shape, dtype=object)
        # R is 0 in doubles from rho = 1e154 on, where rho^2 would overflow
        sq = np.minimum(flat, 1e154) ** 2
        if self.method == "subordination":
            value[:], error[:] = _chunked(_subordinated, 1.0, self.d, sq)
            route[:] = "subordination"
        elif self.alpha in (1.0, 2.0):
            value[:], error[:] = _poisson(self.d, sq) if self.alpha == 1.0 else _closed(
                -0.5 * self.d * math.log(4.0 * math.pi) - sq / 4.0,
                0.5 * self.d * math.log(4.0 * math.pi) + sq / 4.0)
            route[:] = "closed"
        else:
            self._generic(flat, value, error, route)
        # the one range rule of every route (class docstring)
        unresolved = ~(np.isfinite(value) & np.isfinite(error))
        value[unresolved], error[unresolved] = 0.0, math.inf
        under = (np.abs(value) < _TINY) & (error < _TINY)
        value[under] = error[under] = 0.0
        shape = rho_arr.shape
        return ProfileValues(value.reshape(shape), error.reshape(shape), route.reshape(shape))

    def _generic(self, rho, value, error, route):
        alpha, d = self.alpha, self.d
        rho_near, rho_far = _series_switches(alpha, d)
        center = rho == 0.0
        near = ~center & (rho <= rho_near)
        far = ~center & ~near & (rho >= rho_far)
        if center.any():
            # the near series' first term: its front and Gamma(d/alpha)/Gamma(d/2)
            parts = (math.lgamma(d / alpha), -math.lgamma(d / 2.0),
                     -math.log(0.5 * alpha) - 0.5 * d * math.log(4.0 * math.pi))
            value[center], error[center] = _closed(sum(parts), sum(map(abs, parts)))
            route[center] = "closed"
        for mask, series, name in ((near, _near_series, "series-near"),
                                   (far, _far_series, "series-far")):
            if mask.any():
                value[mask], error[mask] = _chunked(series, alpha, d, rho[mask])
                route[mask] = name
        for i in np.flatnonzero(~(center | near | far)):
            value[i], error[i] = _mellin(alpha, d, float(rho[i]))
            route[i] = "mellin"

    def kernel_radial(self, t: float, r) -> np.ndarray:
        """P_t at radius r: t^(-d/alpha) R(r t^(-1/alpha))."""
        _check_range("time t", t)
        front = _pow(t, -self.d / self.alpha, "time t", float(t))
        r_arr = np.asarray(r, dtype=float)
        return front * self(r_arr * t ** (-1.0 / self.alpha))


def stable_profile(alpha: float, d: int, method: str = "auto") -> StableProfile:
    return StableProfile(alpha=float(alpha), d=d, method=method)
