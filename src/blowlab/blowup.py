"""Sufficient blow-up tests for nonnegative initial data.

The central quantity is the smoothed moment W_T = (k_T * u0)(x*): the
semigroup applied to the data for the full horizon T, read off at the most
concentrated point x*. Comparing W_T with the level h_inv(T) that makes the
space-free comparison ODE w' = F(w) explode exactly at time T gives a
verdict: W_T > h_inv(T) rules out continuation of the solution past T.

Two input shapes are supported, one moment route each. Grid data evaluates
the semigroup spectrally on the torus (inside ``evaluate_criterion``, with
a boundary-leak audit per horizon, since large T on a fixed box wraps
around); radial profiles pair directly against the whole-space stable
kernel (``moment_at_zero``) and have no box artifacts, which is what the
long-horizon growth studies use.

The verdict is the criterion's alone: the data's concentration at the
scale-critical order is a separate functional (``norms``), which the
``criterion`` command computes beside it.

Grid data follows the layout contract of ``Grid``: u0 is transformed as it
lies, with one real half spectrum per criterion call, and each horizon
costs one inverse transform whose maximum is W_T and whose argmax is the
center. A horizon's kernel audit is a memoized verdict of
``semigroup_kernel`` (``kernels._audit_failure``), so repeated sweeps over
one (kernel, grid, T) build that kernel once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError
from .kernels import (_BOUNDARY_TOL, GridFunction, KernelSpec, StableProfile,
                      _audit_failure, _propagator, generator_symbol_grid,
                      stable_profile)
from .nonlinearity import Nonlinearity, OsgoodTransform, fujita_exponent
from .norms import RadialProfile, _BallIntegralCurve
from .numutil import _check_range
from .specfun import sphere_area

__all__ = [
    "CriterionInput",
    "CurvePoint",
    "BlowupVerdict",
    "default_horizon_grid",
    "moment_at_zero",
    "evaluate_criterion",
]

InitialData = Union[GridFunction, RadialProfile]


def default_horizon_grid() -> np.ndarray:
    """40 horizons log-spaced over [1e-3, 1e3]."""
    return np.geomspace(1e-3, 1e3, 40)


@dataclass(frozen=True)
class CriterionInput:
    u0: InitialData
    kernel: KernelSpec
    nonlinearity: Nonlinearity
    T_grid: Optional[np.ndarray] = None
    threshold: float = 1.0

    def __post_init__(self):
        _check_range("threshold", self.threshold)
        if self.T_grid is not None:
            grid = np.asarray(self.T_grid, dtype=float)
            _check_range("horizon", grid)
            if grid.size == 0 or np.any(np.diff(grid) <= 0):
                raise DomainError("horizon grid must be nonempty and increasing")
            object.__setattr__(self, "T_grid", grid)

    @property
    def dimension(self) -> int:
        if isinstance(self.u0, GridFunction):
            return self.u0.grid.d
        return self.u0.d


@dataclass(frozen=True)
class CurvePoint:
    T: float
    moment: float          # W_T at the best center
    horizon_level: float   # h_inv(T), the ODE level that detonates at T
    ratio: float
    reliable: bool = True  # False when the torus boundary audit failed at this T


@dataclass(frozen=True)
class BlowupVerdict:
    curve: List[CurvePoint]
    T_star: Optional[float]
    classification: str    # criterion_met | not_met_on_grid | fujita_supercritical_small_data
    threshold: float
    center: Optional[Tuple[int, ...]] = None
    hypothesis_note: str = ""


# ---------------------------------------------------------------------------
# the moment functional
# ---------------------------------------------------------------------------

def _smoother(u_hat: np.ndarray, sym: np.ndarray, grid):
    """T -> e^{T A} u0 from the half spectrum of u0, negative ringing and
    all: its readers take only its maximum and argmax, which a clip at zero
    leaves as they are wherever the maximum is positive. Each call forms
    e^{T sym} u_hat in the same two buffers, with the bits of fresh arrays
    but not their allocation, and inverts it in place."""
    decay = np.empty(sym.shape)
    product = np.empty(u_hat.shape, dtype=complex)

    def smoothed(T: float) -> np.ndarray:
        return grid.irfft(_propagator(sym, T, decay, u_hat, product),
                          overwrite=True)

    return smoothed


def _radial_pairing(profile: StableProfile, t: float, u: RadialProfile) -> float:
    """(P_t * u)(0) for radial u: sigma_d * int P_t(rho) u(rho) rho^(d-1) drho
    by the ball rule of ``norms``. Below the first sample P_t is flat at P_t(0)
    and u is c r^-a with u's head exponent a; a >= d is not integrable at the
    origin and raises DomainError."""
    a = u.fitted_head_exponent()
    curve = _BallIntegralCurve(u.r, profile.kernel_radial(t, u.r) * u.u, u.d, a,
                               float(profile.kernel_radial(t, 0.0)) * u.u[0])
    if not np.isfinite(curve.head):
        raise DomainError(f"the profile's head exponent {a:.6g} is not below "
                          f"d = {u.d}: u ~ r^-a is not integrable at the origin")
    return sphere_area(u.d) * float(curve.cum[-1])


def moment_at_zero(u0: RadialProfile, kernel: KernelSpec, T: float) -> float:
    """W_T of a radial profile: its pairing at the origin with the
    whole-space stable kernel at horizon T. ``evaluate_criterion`` takes
    W_T of grid data as the lattice maximum of the smoothed data."""
    if isinstance(u0, GridFunction):
        raise DomainError("moment_at_zero pairs radial profiles; grid data "
                          "takes its moments through evaluate_criterion")
    if kernel.kind != "pure_fractional":
        raise DomainError(
            "radial-profile moments need a pure_fractional kernel; "
            "grid data supports every kernel kind")
    prof = stable_profile(kernel.alpha, u0.d)
    # strength A rescales time: the multiplier e^{-T A |xi|^alpha} is the
    # unit-strength kernel at time A*T
    return _radial_pairing(prof, kernel.strength * T, u0)


# ---------------------------------------------------------------------------
# criterion evaluation
# ---------------------------------------------------------------------------

def _peak_index(values: np.ndarray) -> Tuple[int, ...]:
    """Lattice index of the largest entry of a field."""
    return tuple(int(i) for i in
                 np.unravel_index(int(np.argmax(values)), values.shape))


def _grid_moments(u0: GridFunction, kernel: KernelSpec):
    """T -> (W_T, reliable) for grid data, and the dict of centers it fills.
    One half spectrum of u0 serves every horizon; each horizon reads the
    memoized kernel audit and runs one inverse transform, whose maximum,
    or 0 for all-zero data, is W_T and whose argmax the center."""
    grid = u0.grid
    smoothed = _smoother(grid.rfft(u0.values), generator_symbol_grid(kernel, grid), grid)
    centers: dict = {}

    def moment(T: float):
        reliable = _audit_failure(kernel, float(T), grid, _BOUNDARY_TOL) is None
        fld = smoothed(T)
        centers[float(T)] = _peak_index(fld)
        return float(np.maximum(fld[centers[float(T)]], 0.0)), reliable

    return moment, centers


def _extend_rows(rows: List[CurvePoint], moment, horizons: Sequence[float],
                 transform: OsgoodTransform) -> Optional[str]:
    """Append one curve point per horizon. A horizon whose level h_inv(T)
    leaves the double range ends the sweep at the previous horizon, and the
    returned note says where; with no previous horizon the DomainError
    propagates."""
    for T in horizons:
        try:
            level = transform.h_inverse(T)
        except DomainError as exc:
            if not rows:
                raise
            return f"sweep cut at T={float(T):g}: {exc}"
        W, reliable = moment(T)
        ratio = W / level
        rows.append(CurvePoint(T=float(T), moment=W, horizon_level=float(level),
                               ratio=float(ratio), reliable=reliable))
    return None


def _is_rising(rows: List[CurvePoint]) -> bool:
    usable = [r for r in rows if r.reliable]
    return len(usable) >= 2 and usable[-1].ratio > usable[-2].ratio


def evaluate_criterion(inp: CriterionInput) -> BlowupVerdict:
    """Sweep the horizon grid, locate the least horizon whose smoothed
    moment beats the ODE detonation level, and classify the outcome.

    The grid extends itself by up to three extra decades while the ratio is
    still climbing at the right edge and the kernel audit still passes
    there; a climb cut off by box wrap-around stops the extension instead
    of fabricating ever larger (and wrapped) moments. A horizon whose
    detonation level leaves the double range ends the sweep, and the
    verdict's note records the cut.
    """
    F = inp.nonlinearity
    transform = OsgoodTransform(F)   # checks that the comparison ODE detonates

    horizons = (np.asarray(inp.T_grid, dtype=float) if inp.T_grid is not None
                else default_horizon_grid())
    if isinstance(inp.u0, GridFunction):
        moment, centers = _grid_moments(inp.u0, inp.kernel)
    else:
        def moment(T: float):
            return moment_at_zero(inp.u0, inp.kernel, T), True
        centers = {}
    rows: List[CurvePoint] = []
    cut = _extend_rows(rows, moment, horizons, transform)

    extra_decades = 0
    while (cut is None and extra_decades < 3 and _is_rising(rows)
           and rows[-1].reliable
           and not any(r.reliable and r.ratio > inp.threshold for r in rows)):
        lo = rows[-1].T
        ext = np.geomspace(lo, lo * 10.0, 8)[1:]
        cut = _extend_rows(rows, moment, ext, transform)
        extra_decades += 1

    met = [r for r in rows if r.reliable and r.ratio > inp.threshold]
    d = inp.dimension
    supercritical = (F.kind == "power"
                     and F.power > fujita_exponent(inp.kernel.alpha_effective(d), d))

    probe = next((r for r in rows if r.reliable), rows[0] if rows else None)
    center = centers.get(probe.T) if probe else None

    if isinstance(inp.u0, GridFunction):
        note = "bounded integrable data (torus truncation)"
    elif inp.u0.head_exponent:
        note = "scale-singular radial data; Fourier integrability not checked"
    else:
        note = "bounded radial data; Fourier integrability not checked"
    if cut is not None:
        note = f"{note}; {cut}"

    if met:
        T_star = min(r.T for r in met)
        classification = "criterion_met"
    else:
        T_star = None
        if supercritical and not _is_rising(rows):
            classification = "fujita_supercritical_small_data"
        else:
            classification = "not_met_on_grid"

    return BlowupVerdict(curve=rows, T_star=T_star,
                         classification=classification, threshold=inp.threshold,
                         center=center, hypothesis_note=note)

