"""Time integration of u_t = J*u - u + F(u) on periodic grids.

The linear part is a bounded Fourier multiplier, so each step applies it
exactly and only the pointwise source is treated explicitly (an
integrating-factor midpoint rule, second order in dt). Three audits run
alongside the integration, because the torus is standing in for the whole
space and the scheme must not quietly paper over that:

* mass: the discrete update satisfies M_{n+1} = M_n + dt * int F(mid)
  identically, so any post-clip deviation measures lost resolution;
* support: the data must keep a quarter box of clearance from the
  boundary, with automatic box doubling (twice) before giving up. The
  audit runs on u0 before the first step, so data that start in the
  boundary band never run on the small box; it is then due after
  _AUDIT_STRIDE steps, once _AUDIT_STRIDE * dt_init of time has passed
  since the last one, and at t_end, so long steps cannot skip it;
* stability: dt never exceeds half the local linearization time 1/F'(sup).

Steps are sized by accuracy, but only ever lengthened. The floor is
min(dt_init, 0.5/F'(sup)), the step a run without an error estimate would
take. Each step also returns an embedded local error estimate of its own
order: the midpoint update minus the integrating-factor trapezoid
u^T = E(dt)(u_hat + (dt/2) F^(u_n)) + (dt/2) F^(u_(n+1)), in the L2 norm
relative to u_n's. Both updates are second order, so their difference is
the midpoint step's O(dt^3) local error up to a small factor (1.6 to 4
times it on the states the tests probe). The trapezoid reuses the
transform of F(u_(n+1)), which the new state carries anyway, so the
estimate costs no transform (Lawson, SIAM J. Numer. Anal. 4, 1967;
Bogacki and Shampine, Appl. Math. Lett. 2, 1989; Hairer, Norsett and
Wanner, Solving ODEs I, II.4). The controller proposes dt_ctl = dt *
min(5, 0.9 (_STEP_TOL/est)^(1/3)) after each accepted step, and the next
trial is min(0.5/F'(sup), max(floor, dt_ctl)). A trial longer than the
floor whose estimate exceeds _STEP_TOL is rejected and retried shorter; a
trial at the floor is never rejected, and a non-finite estimate only
forbids lengthening. A run whose estimates never allow a longer step
takes the floor's steps, as before the estimate. A step that would leave
less than _T_END_RTOL * t_end before t_end lands on t_end.

_STEP_TOL = 3e-9 is set by C8's accuracy: its final state must stay within
3.3e-6 (max relative) of a reference at dt_init/16, as close as with the
Euler-difference estimate this one replaced. At 3e-9 C8 takes 141 steps
and errs by 3.27e-6; at 1e-8 it takes 104 and errs by 3.34e-6.
Trajectory.step_error sums the accepted steps' estimates, so it reads far
below the Euler differences it used to sum: 27 to 62 times on runs that
stay at the floor without blowing up, 2 to 3 times on blowup runs, whose
last estimates approach 1 either way.

Blow-up is detected by threshold crossing, never by waiting for overflow;
the moment W_T(t) = (k_{T-t} * u)(x*) is tracked at a fixed center per
horizon so the recorded series can be compared directly against the
comparison ODE it is supposed to dominate.

Fields follow the layout contract of ``Grid``: they are transformed as they
lie, with real FFTs, and nothing in a step is shifted. Every state, u0's,
a step's, a doubled box's and a rejected step's, is built from ``_source``
and a transform of its values: its values, the half spectra of u and of F(u), and the
sums of u and F(u); the values of F(u) are not kept. The moment probes
read the spectrum of u; the next step reads both spectra and takes them
over as its own buffers, into which it transforms the state it returns,
or, when it is rejected, the state it started from, bit for bit. F(mid)
is transformed into a fresh array, which becomes the final update and is
inverted in place. One overflow rule holds throughout: a state whose sums
or transforms leave the doubles is a blowup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ResolutionError
from .kernels import Grid, GridFunction, KernelSpec, generator_symbol_grid
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
    """A run's kernel, source and time controls. dt_init is the shortest
    step unless the stability cap 0.5/F'(sup) is lower; the error estimate
    may lengthen steps past it. dt_min ends a run whose cap falls below it."""

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
# single step
# ---------------------------------------------------------------------------

class _State(NamedTuple):
    """An accepted state: its values, the half spectra of its values and of
    its source values F(values), and the sums of values and of F(values).

    Every state is built by ``_state``, or by a step from the same parts:
    ``_source`` and a transform of the values. The moment probes and the
    records only read a state. A step spends it: it works in both spectra in place
    and hands them to the state it returns, so after ``_advance`` only
    ``values`` and the sums still hold. A rejected step rebuilds the state
    in its own two buffers, bit for bit.
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


def _half_propagator(sym: np.ndarray, dt: float) -> np.ndarray:
    """exp((dt/2) sym), the linear flow over half a step."""
    return np.exp((0.5 * dt) * sym)


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
    """The step's embedded local error estimate: the midpoint update minus
    the integrating-factor trapezoid e_half mid + (dt/2) F^(u_(n+1)), in
    the L2 norm relative to that of the values u_n. Here diff = x - e_half
    mid, with x the midpoint update, and source_spectrum = F^(u_(n+1)).

    diff is overwritten with the difference, through one temporary. Any
    overflow is ignored: a non-finite estimate is returned as such.
    """
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
    order dt^3 (Hairer, Norsett and Wanner, Solving ODEs I, II.4): 0.9
    (tol/est)^(1/3), at most _MAX_GROWTH. A non-finite estimate gives 0,
    which forbids lengthening."""
    if not math.isfinite(est):
        return 0.0
    if est <= _STEP_TOL * (0.9 / _MAX_GROWTH) ** 3:
        return _MAX_GROWTH
    return 0.9 * (_STEP_TOL / est) ** (1.0 / 3.0)


def _advance(state: _State, e_half: np.ndarray, grid: Grid, fn, dt: float,
             tol: float = math.inf) -> Tuple[_State, Optional[float], float]:
    """One integrating-factor midpoint step on natural-layout values, with
    e_half = _half_propagator(sym, dt) and fn = Nonlinearity.fn.

    Returns the new state, int F(mid) per unit volume factor (the exact
    discrete mass production of this step is dt * that integral) and the
    step's embedded error estimate (``_error_estimate``). The step spends
    state (see ``_State``), whether it succeeds or not. It evaluates F
    itself only at the midpoint; ``_source`` evaluates it on the values it
    returns, whose transform the estimate reads. An overflow is a
    BlowupSignal, in a trial that tol would reject too.

    A step whose estimate exceeds tol is rejected: it rebuilds state in its
    own two buffers, bit for bit the state it started from, and returns
    that state, None for the integral, and the estimate.
    """
    spec, mid = state.spectrum, state.source_spectrum
    with np.errstate(over="raise", invalid="raise"):
        try:
            # the midpoint update runs in the source spectrum's buffer, and
            # F(mid) is transformed into a fresh array x, which becomes the
            # final update. The spectrum's buffer takes e_half u_hat, then
            # the estimate's difference x - e_half mid; the source spectrum
            # of the new values goes into the midpoint's. An overflow in a
            # transform, a product or the sum of F(mid) raises; a NaN or
            # inf in F(mid) is caught here because the clip would turn a
            # -inf update to 0
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
        # the rejected step's own values and their F are transformed into
        # the two buffers
        del values
        return _state(state.values, grid, fn, spec, mid), None, est
    return _State(values, spec, mid, total, source_total), f_mid_sum, est


# ---------------------------------------------------------------------------
# moment probes (single-point inverse transforms at a fixed center)
# ---------------------------------------------------------------------------

class _MomentProbe:
    """Evaluates (k_{T-t} * u)(x*) without forming the full field: the half
    spectrum of each state is shared across horizons, and each probe is a
    multiplier-weighted sum at one lattice phase.

    The field is real, so the full-lattice sum pairs each mode with its
    conjugate: the half lattice carries weight 2 on the interior modes of
    the last axis and weight 1 on its modes 0 and n/2.

    The probe keeps one phase vector per axis. A call multiplies the
    weighted spectrum by the last axis's vector and sums that axis, then
    does the same with the axis before it.
    """

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
        # exp(remaining * sym) * u_hat with one complex temporary, then
        # contracted one axis at a time
        mult = np.multiply(remaining, self.sym)
        prod = np.exp(mult, out=mult) * u_hat
        del mult
        for pv in reversed(self.phases):
            prod *= pv
            prod = prod.sum(axis=-1)
        return float(np.real(prod))


# ---------------------------------------------------------------------------
# support audit and box enlargement
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

def run(u0: GridFunction, cfg: SimConfig) -> Trajectory:
    """Integrate to cfg.t_end with error-controlled dt and the three audits.

    Each trial step is min(0.5/F'(sup), max(floor, dt_ctl)), with floor =
    min(dt_init, 0.5/F'(sup)) and dt_ctl the controller's proposal from the
    last step's error estimate (see the module docstring); a trial longer
    than the floor whose estimate exceeds _STEP_TOL is rejected and
    retried shorter. The support audit runs on u0 before the first step,
    then after _AUDIT_STRIDE steps or _AUDIT_STRIDE * dt_init of time since
    the last one, and at t_end.

    Outcomes: ``blew_up`` when sup u crosses u_max (or a step leaves the
    finite range), ``dt_underflow`` when the stability bound pushes dt
    below dt_min, ``reached_horizon`` otherwise. t_obs is the last
    accepted time for the first two. The trajectory counts the rejected
    trials and sums the accepted steps' estimates.
    """
    F = cfg.nonlinearity
    if float(u0.values.max()) >= cfg.u_max:
        raise DomainError("u_max must exceed the initial sup")

    grid = u0.grid
    # u0 enters through F's negativity scan; the step's own clipped values
    # go to F.fn directly, and dt control evaluates F' on Python floats
    fn = F.fn
    try:
        state = _state(u0.values.copy(), grid, F)
    except BlowupSignal as exc:
        raise DomainError(f"u0 or F(u0) leaves the double range: {exc}") from exc

    sym, cell = generator_symbol_grid(cfg.kernel, grid), grid.cell_volume
    # each horizon's center is the lattice peak of its smoothed data; it
    # moves with the data when the box doubles, while the horizon is ahead
    smoothed = _smoother(state.spectrum, sym, grid)
    probes = {T: _MomentProbe(grid, sym, _peak_index(smoothed(T)))
              for T in cfg.moment_targets}
    traj = Trajectory(t=[], sup=[], mass=[], dt=[], source_integral=[],
                      moments={T: MomentSeries(target=T, center=probe.center)
                               for T, probe in probes.items()},
                      outcome="reached_horizon", t_obs=None, final_state=u0)

    def record(t: float, dt_used: float, mass: float):
        traj.t.append(t)
        traj.sup.append(float(state.values.max()))
        traj.mass.append(mass)
        traj.dt.append(dt_used)
        traj.source_integral.append(state.source_total * cell)
        for T in list(probes):
            remaining = T - t
            if remaining <= 0:
                # a passed horizon is dropped: no probe to rebuild
                del probes[T]
                continue
            W = max(probes[T](state.spectrum, remaining), 0.0)
            ms = traj.moments[T]
            ms.t.append(t)
            ms.W.append(W)

    t = 0.0
    record(t, 0.0, state.total * cell)
    enlargements = 0
    defect_streak = 0
    sup_init = max(float(u0.values.max()), _SUPPORT_FLOOR)
    detection_mode = False
    # the controller's next step; until an estimate allows more, the floor
    dt_ctl = 0.0
    # the half-step propagator of the last trial dt, rebuilt only when dt
    # or the box changes
    e_dt: Optional[float] = None
    e_half: Optional[np.ndarray] = None
    audit_due = True

    while True:
        # the support audit: on u0, then as due after an accepted step
        if audit_due and not detection_mode:
            steps_since_audit, t_audit = 0, t
            if not _support_ok(state.values, grid):
                if enlargements < 2:
                    # the zero-extended values live in the new state only
                    grid = Grid(d=grid.d, L=2.0 * grid.L, n=2 * grid.n)
                    state = _state(_embed_double(state.values), grid, fn)
                    enlargements += 1
                    sym, cell = generator_symbol_grid(cfg.kernel, grid), grid.cell_volume
                    shift = grid.n // 4
                    probes = {T: _MomentProbe(grid, sym, tuple(i + shift for i in p.center))
                              for T, p in probes.items()}
                    e_dt = None
                    traj.notes.append(f"box doubled to half-width {grid.L:g} at t={t:g}")
                elif traj.reliable:
                    traj.reliable = False
                    traj.notes.append(f"support reached the boundary margin at t={t:g}")
        audit_due = False
        sup = traj.sup[-1]
        if sup >= cfg.u_max:
            traj.outcome, traj.t_obs = "blew_up", t
            break
        if t >= cfg.t_end:
            break

        dprime = float(F.dfn(max(sup, 0.0)))
        cap = math.inf if dprime <= 0 else 0.5 / dprime
        floor = min(cfg.dt_init, cap)
        if floor < cfg.dt_min:
            traj.outcome, traj.t_obs = "dt_underflow", t
            break
        trial = min(cap, max(floor, dt_ctl))
        # only a trial the controller lengthened past the floor may be
        # rejected: each rejection shortens the next one, down to the floor
        step_tol = _STEP_TOL if trial > floor else math.inf
        # a step that would leave a sliver before t_end lands on it
        landing = cfg.t_end - (t + trial) <= _T_END_RTOL * cfg.t_end
        if landing:
            trial = cfg.t_end - t

        if trial != e_dt:
            e_dt, e_half = trial, _half_propagator(sym, trial)
        try:
            # the step spends the state; only its values stay, for a final
            # state if the step fails, and a rejected step rebuilds it
            state, f_mid_sum, est = _advance(state, e_half, grid, fn, trial,
                                             tol=step_tol)
        except BlowupSignal:
            traj.outcome, traj.t_obs = "blew_up", t
            break
        dt_ctl = trial * _step_ratio(est)
        if f_mid_sum is None:
            traj.rejected_steps += 1
            continue
        traj.step_error += est

        # mass audit: the update satisfies M' = M + dt*int F(mid) exactly up
        # to clipped ringing, so the defect measures spatial resolution, not
        # step size. While the sup stays near its initial scale a persistent
        # defect is a genuine failure; once the reaction has ramped the sup
        # well past it, the terminal peak is narrower than any fixed lattice
        # and the audit can only annotate.
        mass_new = state.total * cell
        mass_old = traj.mass[-1]
        produced = trial * f_mid_sum * cell
        defect = abs(mass_new - (mass_old + produced))
        tol = _MASS_DEFECT_TOL * trial * max(mass_new, 1.0) \
            + 1e-12 * (mass_old + mass_new + abs(produced))
        if defect > tol and not detection_mode:
            if sup >= _SPIKE_GROWTH * sup_init:
                # entering the terminal window: from here on the run only
                # detects the threshold crossing, accuracy audits annotate
                detection_mode = True
                traj.notes.append(
                    f"audits suspended at t={t:g}: terminal peak narrower "
                    "than the lattice")
            else:
                defect_streak += 1
                if defect_streak >= 25:
                    raise ResolutionError(
                        "persistent relative mass defect above "
                        f"{_MASS_DEFECT_TOL:g} outside the growth window")
        elif not detection_mode:
            defect_streak = 0

        t = cfg.t_end if landing else t + trial
        record(t, trial, mass_new)
        steps_since_audit += 1
        # the support audit is due after every _AUDIT_STRIDE steps, once
        # _AUDIT_STRIDE * dt_init of time has passed since the last one, and
        # at t_end
        audit_due = (landing or steps_since_audit >= _AUDIT_STRIDE
                     or t - t_audit >= _AUDIT_STRIDE * cfg.dt_init)

    traj.final_state = GridFunction(grid, state.values)
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
