"""Time integration of u_t = J*u - u + F(u) on periodic grids.

The linear part is a bounded Fourier multiplier, so each step applies it
exactly and only the pointwise source is treated explicitly (an
integrating-factor midpoint rule, second order in dt). ``run`` is a step
controller and two audits on one lattice, which a box doubling rebuilds as
one unit. The audits run because the torus is standing in for the whole
space and the scheme must not quietly paper over that:

* mass: the discrete update satisfies M_{n+1} = M_n + dt * int F(mid)
  identically, so any post-clip deviation measures lost resolution;
* support: the data must keep a quarter box of clearance from the
  boundary, with automatic box doubling (twice) before giving up. The
  audit runs on u0 before the first step, so data that start in the
  boundary band never run on the small box; it is then due after
  _AUDIT_STRIDE steps, once _AUDIT_STRIDE * dt_init of time has passed
  since the last one, and at t_end, so long steps cannot skip it.

The step rule, kept by ``_Controller``. Steps are sized by accuracy, but
only ever lengthened. No step exceeds the stability cap 0.5/F'(sup), half
the local linearization time. The floor is min(dt_init, cap), the step a
run without an error estimate would take; a floor below dt_min ends the
run (``dt_underflow``). Each step returns an embedded local error estimate
of its own order: the midpoint update minus the integrating-factor
trapezoid u^T = E(dt)(u_hat + (dt/2) F^(u_n)) + (dt/2) F^(u_(n+1)), in the
L2 norm relative to u_n's. Both updates are second order, so their
difference is the midpoint step's O(dt^3) local error up to a small factor
(1.6 to 4 times it on the states the tests probe); the trapezoid reuses
the transform of F(u_(n+1)), which the new state carries anyway (Lawson,
SIAM J. Numer. Anal. 4, 1967; Bogacki and Shampine, Appl. Math. Lett. 2,
1989; Hairer, Norsett and Wanner, Solving ODEs I, II.4). After each trial,
accepted or rejected, the controller proposes dt_ctl = dt * min(5, 0.9
(_STEP_TOL/est)^(1/3)), and the next trial is min(cap, max(floor,
dt_ctl)). A trial that the controller lengthened past the floor (before it
lands, below) is rejected where its estimate exceeds _STEP_TOL, and
retried shorter; a trial at the floor never is. A non- finite estimate
sends the next trial to the floor, and a NaN one is accepted. A step that
would leave less than _T_END_RTOL * t_end before t_end lands on t_end.

_STEP_TOL = 3e-9 is set by C8's accuracy: its final state must stay within
3.3e-6 (max relative) of a reference at dt_init/16. At 3e-9 C8 takes 141
steps and errs by 3.27e-6; at 1e-8 it takes 104 and errs by 3.34e-6.

Blow-up is detected by threshold crossing, never by waiting for overflow;
the moment W_T(t) = (k_{T-t} * u)(x*) is tracked at a fixed center per
horizon so the recorded series can be compared directly against the
comparison ODE it is supposed to dominate. Fields and their buffers follow
the contract written at ``_State``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ResolutionError
from .kernels import (Grid, GridFunction, KernelSpec, _propagator,
                      generator_symbol_grid)
from .nonlinearity import Nonlinearity, OsgoodTransform, fujita_exponent
from .blowup import CriterionInput, _peak_index, _smoother, evaluate_criterion
from .numutil import _check_range

__all__ = [
    "SimConfig",
    "MomentSeries",
    "Trajectory",
    "BlowupSignal",
    "run",
    "jensen_report",
    "JensenReport",
    "dichotomy_experiment",
    "DichotomySummary",
]

_SUPPORT_FLOOR = 1e-12       # values above this count as support
_MASS_DEFECT_TOL = 1e-4      # relative mass defect per unit time
_AUDIT_STRIDE = 16           # steps between support audits
_SPIKE_GROWTH = 4.0          # sup ramp factor that ends the mass audit
_JENSEN_SLACK = 1e-4         # relative slack of the integrated Jensen check
_STEP_TOL = 3e-9             # relative local error a lengthened step may make
_MAX_GROWTH = 5.0            # largest ratio of a step to the one before
_T_END_RTOL = 1e-9           # a step leaving less than this * t_end lands on t_end


class BlowupSignal(RuntimeError):
    """Raised by a single step when the update leaves the finite range."""


@dataclass(frozen=True)
class SimConfig:
    """A run's kernel, source and time controls; the step rule that reads
    dt_init and dt_min is in the module docstring."""

    kernel: KernelSpec
    nonlinearity: Nonlinearity
    dt_init: float
    dt_min: float
    t_end: float
    u_max: float = 1e8
    moment_targets: Tuple[float, ...] = ()

    def __post_init__(self):
        _check_range("dt_min", self.dt_min)
        _check_range("dt_init", self.dt_init)
        if not self.dt_min < self.dt_init:
            raise DomainError("need dt_min < dt_init")
        _check_range("t_end", self.t_end)
        _check_range("u_max", self.u_max)
        _check_range("moment target", self.moment_targets)
        object.__setattr__(self, "moment_targets",
                           tuple(float(T) for T in self.moment_targets))


@dataclass
class MomentSeries:
    target: float
    center: Tuple[int, ...]
    t: List[float] = field(default_factory=list)
    W: List[float] = field(default_factory=list)

    def finite_differences(self) -> np.ndarray:
        """Forward differences dW/dt aligned with all but the last sample."""
        t = np.asarray(self.t)
        W = np.asarray(self.W)
        if t.size < 2:
            return np.empty(0)
        return np.diff(W) / np.diff(t)


@dataclass
class Trajectory:
    t: List[float]
    sup: List[float]
    mass: List[float]
    dt: List[float]
    source_integral: List[float]          # int F(u(t)) at each recorded state
    moments: Dict[float, MomentSeries]
    outcome: str                          # blew_up | reached_horizon | dt_underflow
    t_obs: Optional[float]
    final_state: GridFunction
    reliable: bool = True
    notes: List[str] = field(default_factory=list)
    rejected_steps: int = 0               # trial steps the error estimate rejected
    step_error: float = 0.0               # sum of the accepted steps' estimates

    @property
    def grid(self) -> Grid:
        return self.final_state.grid


# ---------------------------------------------------------------------------
# the step and its controller
# ---------------------------------------------------------------------------

class _State(NamedTuple):
    """An accepted state: its values, the half spectra of its values and of
    its source values F(values), and the sums of values and of F(values);
    the values of F(values) are not kept.

    The buffer contract. Fields are transformed as they lie (the layout
    contract of ``Grid``). Every state, u0's, a step's, a doubled box's and
    a rejected step's, is built by ``_state``, or by a step from the same
    parts: ``_source`` and a transform of the values. The moment probes and
    the records only read a state. A step spends it, whether it succeeds or
    not: the midpoint update runs in the source spectrum's buffer, and
    F(mid) is transformed into a fresh array x, the final update, which is
    inverted in place. The spectrum's buffer takes e_half u_hat, then the
    estimate's difference x - e_half mid; the source spectrum of the new
    values goes into the midpoint's. An accepted step transforms its values
    into the spectrum's buffer and hands both to the state it returns; a
    rejected one rebuilds in them the state it started from, bit for bit.
    One overflow rule holds throughout: a state whose sums or transforms
    leave the doubles is a blowup.
    """

    values: np.ndarray
    spectrum: np.ndarray
    source_spectrum: np.ndarray
    total: float
    source_total: float


def _source(values: np.ndarray, grid: Grid, source_fn,
            out: Optional[np.ndarray] = None) -> Tuple[np.ndarray, float, float]:
    """The half spectrum of F(values), into out if given and into a fresh
    array otherwise, and the sums of values and of F(values). It runs under
    its caller's np.errstate(over="raise", invalid="raise"), so an overflow
    raises FloatingPointError; a sum that is not finite is a BlowupSignal.
    source_fn is the checked ``Nonlinearity.__call__`` where values enter
    from outside and ``Nonlinearity.fn`` on the step's own clipped update."""
    source = source_fn(values)
    # the mass audit and the records need both sums; a float sum is finite
    # only if every entry is, so they are the finiteness checks
    total = float(np.add.reduce(values, axis=None))
    source_total = float(np.add.reduce(source, axis=None))
    if not (math.isfinite(total) and math.isfinite(source_total)):
        raise BlowupSignal("the values or their source left the finite range")
    return grid.rfft(source, out=out), total, source_total


def _state(values: np.ndarray, grid: Grid, source_fn,
           spectrum: Optional[np.ndarray] = None,
           source_spectrum: Optional[np.ndarray] = None) -> _State:
    """The state of values: F(values) and values transformed (``_source``),
    into spectrum and source_spectrum if given (a step hands on the ones it
    spent) and into fresh arrays otherwise. An overflow is a BlowupSignal."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            source_spectrum, total, source_total = _source(values, grid, source_fn,
                                                           source_spectrum)
            spectrum = grid.rfft(values, out=spectrum)
        except FloatingPointError as exc:
            raise BlowupSignal(str(exc)) from exc
    return _State(values, spectrum, source_spectrum, total, source_total)


def _clipped(values: np.ndarray) -> np.ndarray:
    """values with negative ringing clipped to 0, in place."""
    return np.maximum(values, 0.0, out=values)


def _sum_sq(a: np.ndarray) -> np.float64:
    # by einsum, which unlike a BLAS dot starts no threads; a is contiguous,
    # so its reshape is a view
    flat = a.reshape(-1)
    return np.einsum("i,i->", flat, flat)


def _half_sq_norm(z: np.ndarray) -> np.float64:
    """Squared L2 norm of the real field whose half spectrum is z, up to the
    factor n**d: Parseval weight 2 on the interior modes of the last axis
    and 1 on its modes 0 and n/2 (as in ``_MomentProbe``)."""
    pairs = z.view(np.float64)             # (real, imag) along the last axis
    return 2.0 * _sum_sq(pairs) - _sum_sq(pairs[..., [0, 1, -2, -1]])


def _error_estimate(values: np.ndarray, diff: np.ndarray,
                    source_spectrum: np.ndarray, dt: float) -> float:
    """The step's embedded local error estimate (module docstring), from
    diff = x - e_half mid, with x the midpoint update, and source_spectrum
    = F^(u_(n+1)). diff is overwritten with the difference, through one
    temporary. Any overflow is ignored: a non-finite estimate is returned
    as such."""
    with np.errstate(all="ignore"):
        # dt multiplies, never divides: it reaches 1e-308 before a blowup
        diff -= (0.5 * dt) * source_spectrum
        # by Parseval, u_hat's norm is size * sum(u^2); a norm that
        # overflows must not read as a zero estimate
        u_sq = values.size * _sum_sq(values)
        if not np.isfinite(u_sq):
            return math.nan
        return float(np.sqrt(_half_sq_norm(diff) / u_sq))


def _step_ratio(est: float) -> float:
    """The next step over this one for an estimate est of a local error of
    order dt^3: 0.9 (tol/est)^(1/3), at most _MAX_GROWTH, and 0 for a
    non-finite est."""
    if not math.isfinite(est):
        return 0.0
    if est <= _STEP_TOL * (0.9 / _MAX_GROWTH) ** 3:
        return _MAX_GROWTH
    return 0.9 * (_STEP_TOL / est) ** (1.0 / 3.0)


def _advance(state: _State, e_half: np.ndarray, grid: Grid, fn, dt: float,
             tol: float = math.inf) -> Tuple[_State, Optional[float], float]:
    """One integrating-factor midpoint step on natural-layout values, with
    e_half = exp((dt/2) sym) (``_Lattice.e_half``) and fn = Nonlinearity.fn.

    Returns the new state, int F(mid) per unit volume factor (the exact
    discrete mass production of this step is dt * that integral) and the
    step's embedded error estimate (``_error_estimate``). The step spends
    state (``_State``). It evaluates F itself only at the midpoint; ``_source`` evaluates it on the values it
    returns, whose transform the estimate reads. An overflow is a
    BlowupSignal, in a trial that tol would reject too.

    A step whose estimate exceeds tol is rejected: it returns the state it
    started from, rebuilt in its own two buffers, None for the integral,
    and the estimate.
    """
    spec, mid = state.spectrum, state.source_spectrum
    with np.errstate(over="raise", invalid="raise"):
        try:
            # buffers as in _State. An overflow in a transform, a product or
            # the sum of F(mid) raises; a NaN or inf in F(mid) is caught
            # here because the clip would turn a -inf update to 0
            mid *= 0.5 * dt
            mid += spec
            mid *= e_half
            f_mid = fn(_clipped(grid.irfft(mid)))
            f_mid_sum = float(np.add.reduce(f_mid, axis=None))
            if not math.isfinite(f_mid_sum):
                raise BlowupSignal("midpoint source left the finite range")
            x = grid.rfft(f_mid)
            del f_mid
            x *= dt
            spec *= e_half
            x += spec
            x *= e_half
            np.multiply(e_half, mid, out=spec)
            np.subtract(x, spec, out=spec)
            values = _clipped(grid.irfft(x, overwrite=True))
            del x
            _, total, source_total = _source(values, grid, fn, out=mid)
            est = _error_estimate(state.values, spec, mid, dt)
            rejected = est > tol
            if not rejected:
                grid.rfft(values, out=spec)
        except FloatingPointError as exc:
            raise BlowupSignal(str(exc)) from exc
    if rejected:
        del values
        return _state(state.values, grid, fn, spec, mid), None, est
    return _State(values, spec, mid, total, source_total), f_mid_sum, est


class _Trial(NamedTuple):
    dt: float       # the step
    tol: float      # the estimate above which _advance rejects it
    end: float      # the time it reaches: t + dt, or t_end where it lands


class _Controller:
    """The step rule of the module docstring: ``propose`` gives the trial
    from t at F'(sup), or None where the floor falls below dt_min;
    ``verdict`` takes the trial's estimate, accepted or rejected, and sets
    the next proposal."""

    def __init__(self, cfg: SimConfig):
        self.cfg, self.dt_ctl = cfg, 0.0    # dt_ctl 0: the floor

    def propose(self, t: float, dprime: float) -> Optional[_Trial]:
        cfg = self.cfg
        cap = math.inf if dprime <= 0 else 0.5 / dprime
        floor = min(cfg.dt_init, cap)
        if floor < cfg.dt_min:
            return None
        dt = min(cap, max(floor, self.dt_ctl))
        tol = _STEP_TOL if dt > floor else math.inf
        if cfg.t_end - (t + dt) <= _T_END_RTOL * cfg.t_end:
            return _Trial(cfg.t_end - t, tol, cfg.t_end)
        return _Trial(dt, tol, t + dt)

    def verdict(self, trial: _Trial, est: float) -> None:
        self.dt_ctl = trial.dt * _step_ratio(est)


# ---------------------------------------------------------------------------
# the lattice: grid, symbol, moment probes and half-step propagator
# ---------------------------------------------------------------------------

class _MomentProbe:
    """Evaluates (k_{T-t} * u)(x*) without forming the full field: the half
    spectrum of each state is shared across horizons, and each probe is a
    multiplier-weighted sum at one lattice phase. The field is real, so the
    half lattice carries weight 2 on the interior modes of the last axis and
    weight 1 on its modes 0 and n/2. The probe keeps one phase vector per
    axis; a call multiplies the weighted spectrum by the last axis's vector
    and sums that axis, then does the same with the axis before it."""

    def __init__(self, grid: Grid, sym: np.ndarray, center: Tuple[int, ...]):
        self.sym = sym
        self.center = center
        n = grid.n
        phases = [np.exp(2j * np.pi * np.arange(n) * c / n) for c in center]
        phases[-1] = phases[-1][: n // 2 + 1]
        weight = np.full(n // 2 + 1, 2.0)
        weight[0] = weight[-1] = 1.0
        phases[-1] = phases[-1] * weight / float(n) ** grid.d
        self.phases = phases

    def __call__(self, u_hat: np.ndarray, remaining: float) -> float:
        # exp(remaining * sym) * u_hat in one complex temporary, then
        # contracted one axis at a time
        prod = _propagator(self.sym, remaining, u_hat=u_hat)
        for pv in reversed(self.phases):
            prod *= pv
            prod = prod.sum(axis=-1)
        return float(np.real(prod))


class _Lattice:
    """The grid a run steps on and what is built on it: the generator
    symbol, the cell volume, a moment probe for each horizon still ahead,
    and the half-step propagator of the last trial dt."""

    def __init__(self, grid: Grid, kernel: KernelSpec,
                 centers: Dict[float, Tuple[int, ...]]):
        self.grid, self.kernel, self.cell = grid, kernel, grid.cell_volume
        self.sym = generator_symbol_grid(kernel, grid)
        self.probes = {T: _MomentProbe(grid, self.sym, c) for T, c in centers.items()}
        self._dt, self._e_half = None, None

    def doubled(self) -> "_Lattice":
        """The lattice of twice the half-width at the same spacing, with the
        probes of the horizons still ahead; their centers move with the
        data (``_embed_double``)."""
        grid = Grid(d=self.grid.d, L=2.0 * self.grid.L, n=2 * self.grid.n)
        shift = grid.n // 4
        return _Lattice(grid, self.kernel, {T: tuple(i + shift for i in p.center)
                                            for T, p in self.probes.items()})

    def e_half(self, dt: float) -> np.ndarray:
        """exp((dt/2) sym), the linear flow over half a step, formed again in
        its own buffer only when dt differs from the last call's."""
        if dt != self._dt:
            self._dt = dt
            self._e_half = _propagator(self.sym, 0.5 * dt, out=self._e_half)
        return self._e_half


def _record(traj: Trajectory, lattice: _Lattice, state: _State, t: float,
            dt: float) -> None:
    """Append the state at t, reached by a step dt (0 for u0), and the
    moment of each horizon still ahead; a passed horizon's probe is
    dropped, so no later doubling rebuilds it."""
    traj.t.append(t)
    traj.sup.append(float(state.values.max()))
    traj.mass.append(state.total * lattice.cell)
    traj.dt.append(dt)
    traj.source_integral.append(state.source_total * lattice.cell)
    for T in list(lattice.probes):
        remaining = T - t
        if remaining <= 0:
            del lattice.probes[T]
            continue
        W = max(lattice.probes[T](state.spectrum, remaining), 0.0)
        traj.moments[T].t.append(t)
        traj.moments[T].W.append(W)


# ---------------------------------------------------------------------------
# the audits and the run
# ---------------------------------------------------------------------------

@dataclass
class _AuditState:                  # what the audits carry from step to step
    sup_init: float                 # the mass audit's scale of the sup
    streak: int = 0                 # its steps in a row above tolerance
    detecting: bool = False         # in the terminal window: audits stand down
    t_last: Optional[float] = None  # the support audit's last time; None: due
    steps: int = 0                  # accepted steps since then
    doublings: int = 0


def _mass_audit(audits: _AuditState, traj: Trajectory, lattice: _Lattice,
                state: _State, dt: float, f_mid_sum: float) -> None:
    """The mass audit of an accepted step of dt from the last recorded state
    to state: the defect measures spatial resolution, not step size. While
    the sup stays near its initial scale a persistent defect is a genuine
    failure; once the reaction has ramped the sup well past it, the terminal
    peak is narrower than any fixed lattice and the audit only annotates."""
    if audits.detecting:
        return
    mass_old, mass_new = traj.mass[-1], state.total * lattice.cell
    produced = dt * f_mid_sum * lattice.cell
    defect = abs(mass_new - (mass_old + produced))
    tol = _MASS_DEFECT_TOL * dt * max(mass_new, 1.0) \
        + 1e-12 * (mass_old + mass_new + abs(produced))
    if not defect > tol:
        audits.streak = 0
    elif traj.sup[-1] >= _SPIKE_GROWTH * audits.sup_init:
        # the terminal window: from here on the run only detects the crossing
        audits.detecting = True
        traj.notes.append(f"audits suspended at t={traj.t[-1]:g}: terminal "
                          "peak narrower than the lattice")
    else:
        audits.streak += 1
        if audits.streak >= 25:
            raise ResolutionError(
                "persistent relative mass defect above "
                f"{_MASS_DEFECT_TOL:g} outside the growth window")


def _support_ok(values: np.ndarray, grid: Grid) -> bool:
    """No support in the grid's boundary band (``Grid.edge``)."""
    # floor is relative to the sup once it exceeds one: a detonating peak
    # rings at ~1e-9 of its height across the whole box, and that ringing
    # is not support
    floor = _SUPPORT_FLOOR * max(1.0, float(values.max()))
    return not np.any(values[grid.edge()] > floor)


def _embed_double(values: np.ndarray) -> np.ndarray:
    """Zero-extend values onto a box of twice the half-width at the same
    spacing, keeping the origin at the middle index."""
    n = values.shape[0]
    out = np.zeros(tuple(2 * k for k in values.shape))
    out[(slice(n // 2, n // 2 + n),) * values.ndim] = values
    return out


def _support_audit(audits: _AuditState, traj: Trajectory, lattice: _Lattice,
                   state: _State, cfg: SimConfig) -> Tuple[_Lattice, _State]:
    """The support audit of the last recorded state, where it is due (module
    docstring): the lattice and the state to go on with, both doubled where
    the support reaches the boundary band, up to twice; after that the run
    is unreliable."""
    t = traj.t[-1]
    audits.steps += 1
    due = (audits.t_last is None or t == cfg.t_end
           or audits.steps >= _AUDIT_STRIDE
           or t - audits.t_last >= _AUDIT_STRIDE * cfg.dt_init)
    if audits.detecting or not due:
        return lattice, state
    audits.steps, audits.t_last = 0, t
    if _support_ok(state.values, lattice.grid):
        return lattice, state
    if audits.doublings < 2:
        audits.doublings += 1
        lattice = lattice.doubled()
        state = _state(_embed_double(state.values), lattice.grid,
                       cfg.nonlinearity.fn)
        traj.notes.append(f"box doubled to half-width {lattice.grid.L:g} at t={t:g}")
    elif traj.reliable:
        traj.reliable = False
        traj.notes.append(f"support reached the boundary margin at t={t:g}")
    return lattice, state


def run(u0: GridFunction, cfg: SimConfig) -> Trajectory:
    """Integrate to cfg.t_end under the step rule and the audits of the
    module docstring. Outcomes: ``blew_up`` when sup u crosses u_max (or a
    step leaves the finite range), ``dt_underflow`` when the stability cap
    pushes the floor below dt_min, ``reached_horizon`` otherwise. t_obs is
    the last accepted time for the first two. The trajectory counts the
    rejected trials and sums the accepted steps' estimates."""
    F = cfg.nonlinearity
    if float(u0.values.max()) >= cfg.u_max:
        raise DomainError("u_max must exceed the initial sup")
    try:
        # u0 enters through F's negativity scan; the step's own clipped
        # values go to F.fn directly
        state = _state(u0.values.copy(), u0.grid, F)
    except BlowupSignal as exc:
        raise DomainError(f"u0 or F(u0) leaves the double range: {exc}") from exc
    # each horizon's center is the lattice peak of its smoothed data
    smoothed = _smoother(state.spectrum, generator_symbol_grid(cfg.kernel, u0.grid),
                         u0.grid)
    lattice = _Lattice(u0.grid, cfg.kernel,
                       {T: _peak_index(smoothed(T)) for T in cfg.moment_targets})
    traj = Trajectory(t=[], sup=[], mass=[], dt=[], source_integral=[],
                      moments={T: MomentSeries(target=T, center=probe.center)
                               for T, probe in lattice.probes.items()},
                      outcome="reached_horizon", t_obs=None, final_state=u0)
    _record(traj, lattice, state, 0.0, 0.0)
    audits = _AuditState(sup_init=max(float(u0.values.max()), _SUPPORT_FLOOR))
    lattice, state = _support_audit(audits, traj, lattice, state, cfg)
    control = _Controller(cfg)
    while traj.sup[-1] < cfg.u_max and traj.t[-1] < cfg.t_end:
        t = traj.t[-1]
        trial = control.propose(t, float(F.dfn(max(traj.sup[-1], 0.0))))
        if trial is None:
            traj.outcome, traj.t_obs = "dt_underflow", t
            break
        try:
            # the step spends the state; a rejected step rebuilds it
            state, f_mid_sum, est = _advance(state, lattice.e_half(trial.dt),
                                             lattice.grid, F.fn, trial.dt,
                                             tol=trial.tol)
        except BlowupSignal:
            traj.outcome, traj.t_obs = "blew_up", t
            break
        control.verdict(trial, est)
        if f_mid_sum is None:
            traj.rejected_steps += 1
            continue
        traj.step_error += est
        _mass_audit(audits, traj, lattice, state, trial.dt, f_mid_sum)
        _record(traj, lattice, state, trial.end, trial.dt)
        lattice, state = _support_audit(audits, traj, lattice, state, cfg)
    if traj.sup[-1] >= cfg.u_max:
        traj.outcome, traj.t_obs = "blew_up", traj.t[-1]
    traj.final_state = GridFunction(lattice.grid, state.values)
    return traj


# ---------------------------------------------------------------------------
# Jensen monitor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JensenReport:
    target: float
    steps: int
    fraction_ok: float       # share of steps with dW/dt >= F(W) - tol
    min_margin: float        # most negative dW/dt - F(W) + tol seen
    integrated_lhs: float    # h(W(0)) - h(W(t_last))
    elapsed: float           # t_last - t_0
    integrated_ok: bool


def jensen_report(traj: Trajectory, nonlinearity: Nonlinearity,
                  target: float) -> JensenReport:
    """Check the recorded moment series against its differential inequality:
    the smoothed moment must grow at least as fast as the comparison ODE,
    stepwise (up to 1e-6 relative tolerance) and in integrated form (up to
    1e-4 relative slack)."""
    if target not in traj.moments:
        raise DomainError(f"no recorded moment series for horizon {target!r}")
    ms = traj.moments[target]
    if len(ms.t) < 2:
        raise DomainError("moment series too short for a derivative check")
    dW = ms.finite_differences()
    FW = np.array([float(nonlinearity.fn(W)) for W in ms.W[:-1]])
    tol = 1e-6 * (1.0 + FW)
    margins = dW - FW + tol
    ok = margins >= 0.0
    lhs = OsgoodTransform(nonlinearity).h_difference(ms.W[0], ms.W[-1])
    elapsed = ms.t[-1] - ms.t[0]
    return JensenReport(
        target=target, steps=int(ok.size),
        fraction_ok=float(np.mean(ok)) if ok.size else math.nan,
        min_margin=float(np.min(margins)) if margins.size else math.nan,
        integrated_lhs=float(lhs), elapsed=float(elapsed),
        integrated_ok=bool(lhs >= elapsed * (1.0 - _JENSEN_SLACK)))


# ---------------------------------------------------------------------------
# scaling dichotomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DichotomyRow:
    scale: float
    outcome: str              # blowup | global_decay | censored
    raw_outcome: str
    t_obs: Optional[float]
    decay_sup: float          # sup_t t^(1/(p-1)) ||u(t)||_inf over the run
    predicted_T_star: Optional[float]
    reliable: bool            # the run's Trajectory.reliable


@dataclass(frozen=True)
class DichotomySummary:
    rows: List[DichotomyRow]
    lambda_lo: Optional[float]    # largest global_decay scale
    lambda_hi: Optional[float]    # smallest blowup scale
    monotone: bool                # lambda_lo < lambda_hi, or an end is missing
    bisection_steps: int          # midpoints run; a censored one is the last


def _classify_run(traj: Trajectory, p: float, t_end: float) -> Tuple[str, float]:
    """A run's row outcome and its decay statistic. An unreliable run, whose
    support reached the boundary margin of its last box, is censored
    whatever its outcome: the torus no longer stands in for the space."""
    t = np.asarray(traj.t)
    sup = np.asarray(traj.sup)
    stat = np.where(t > 0, t ** (1.0 / (p - 1.0)) * sup, 0.0)
    decay_sup = float(stat.max()) if stat.size else math.nan
    if not traj.reliable:
        return "censored", decay_sup
    if traj.outcome == "blew_up":
        return "blowup", decay_sup
    if traj.outcome == "dt_underflow":
        return "censored", decay_sup
    window = t >= 0.75 * t_end
    if np.sum(window) >= 2:
        w = stat[window]
        if w[-1] <= 1.02 * w[0]:
            return "global_decay", decay_sup
    return "censored", decay_sup


def dichotomy_experiment(scale_list: Sequence[float], base_profile: GridFunction,
                         cfg: SimConfig, bisection_steps: int = 6) -> DichotomySummary:
    """Run scaled copies of one profile, classify each as blowup / global
    decay / censored, and bisect the empirical threshold geometrically
    between the largest global_decay and the smallest blowup scale. Each
    distinct scale runs once.

    The bracket ends are rows of those two outcomes only. A censored
    midpoint is recorded and moves neither end, so it ends the bisection:
    the next midpoint would be the same scale.
    """
    scales = sorted({float(lam) for lam in scale_list})
    if not scales:
        raise DomainError("the dichotomy needs at least one scale")
    _check_range("scale", scales)
    if bisection_steps < 0:
        raise DomainError(f"bisection_steps must be >= 0, got {bisection_steps}")
    F = cfg.nonlinearity
    if F.kind != "power":
        raise DomainError("the dichotomy study is formulated for power sources")
    p = F.power
    d = base_profile.grid.d
    alpha_eff = cfg.kernel.alpha_effective(d)
    if p <= fujita_exponent(alpha_eff, d):
        raise DomainError("the decay branch needs p > 1 + alpha/d")

    def run_one(lam: float) -> DichotomyRow:
        u0 = base_profile.scaled(lam)
        try:
            predicted = evaluate_criterion(CriterionInput(
                u0=u0, kernel=cfg.kernel, nonlinearity=F)).T_star
        except (DomainError, ResolutionError):
            predicted = None
        traj = run(u0, cfg)
        outcome, decay_sup = _classify_run(traj, p, cfg.t_end)
        return DichotomyRow(scale=float(lam), outcome=outcome,
                            raw_outcome=traj.outcome, t_obs=traj.t_obs,
                            decay_sup=decay_sup, predicted_T_star=predicted,
                            reliable=traj.reliable)

    def ends():
        return (max((r.scale for r in rows if r.outcome == "global_decay"), default=None),
                min((r.scale for r in rows if r.outcome == "blowup"), default=None))

    rows = [run_one(lam) for lam in scales]
    lo, hi = ends()
    done = 0
    while done < bisection_steps and lo is not None and hi is not None and lo < hi:
        rows.append(run_one(math.sqrt(lo * hi)))
        done += 1
        if rows[-1].outcome == "censored":
            break
        lo, hi = ends()
    rows.sort(key=lambda r: r.scale)
    return DichotomySummary(rows=rows, lambda_lo=lo, lambda_hi=hi,
                            monotone=lo is None or hi is None or lo < hi,
                            bisection_steps=done)
