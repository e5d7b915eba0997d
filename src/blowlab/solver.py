"""Time integration of u_t = J*u - u + F(u) on periodic grids.

The linear part is a bounded Fourier multiplier, so each step applies it
exactly and only the pointwise source is treated explicitly (an
integrating-factor midpoint rule, second order in dt). Three audits run
alongside the integration, because the torus is standing in for the whole
space and the scheme must not quietly paper over that:

* mass: the discrete update satisfies M_{n+1} = M_n + dt * int F(mid)
  identically, so any post-clip deviation measures lost resolution;
* support: the data must keep a quarter box of clearance from the
  boundary, with automatic box doubling (twice) before giving up;
* stability: dt never exceeds half the local linearization time 1/F'(sup).

Blow-up is detected by threshold crossing, never by waiting for overflow;
the moment W_T(t) = (k_{T-t} * u)(x*) is tracked at a fixed center per
horizon so the recorded series can be compared directly against the
comparison ODE it is supposed to dominate.

Fields follow the layout contract of ``Grid``: they are transformed as they
lie, with real FFTs, and nothing in a step is shifted. Each accepted state
carries its values, the half spectra of u and of F(u), and the sums of u
and F(u); the values of F(u) are not kept. The moment probes read the
spectrum of u; the next step reads both spectra and takes them over as its
own buffers, into which it transforms the state it returns. The states run
builds itself (u0 and a doubled box) and those the support audit may
replace, the final state among them, carry no F(u) spectrum: the step from
them evaluates F(u) again and transforms it, so a run transforms the F(u)
of a state that no step reads at most once. The sums, which the mass audit
and the records need anyway, double as the finiteness checks of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ResolutionError
from .kernels import _BOUNDARY_FRACTION, Grid, GridFunction, KernelSpec, \
    generator_symbol_grid
from .nonlinearity import Nonlinearity, OsgoodTransform, fujita_exponent
from .blowup import CriterionInput, _peak_index, evaluate_criterion, moment_field

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
_PHASE_BLOCK = 1 << 15       # lattice phase entries a moment probe forms at once


class BlowupSignal(RuntimeError):
    """Raised by a single step when the update leaves the finite range."""


@dataclass(frozen=True)
class SimConfig:
    kernel: KernelSpec
    nonlinearity: Nonlinearity
    dt_init: float
    dt_min: float
    t_end: float
    u_max: float = 1e8
    moment_targets: Tuple[float, ...] = ()

    def __post_init__(self):
        if not (0 < self.dt_min < self.dt_init < math.inf):
            raise DomainError("need 0 < dt_min < dt_init < inf")
        if not (0 < self.t_end < math.inf and self.u_max > 0):
            raise DomainError("t_end must be positive and finite, u_max positive")
        if not all(0 < T < math.inf for T in self.moment_targets):
            raise DomainError("moment targets must be positive finite horizons")
        object.__setattr__(self, "moment_targets",
                           tuple(float(T) for T in self.moment_targets))


@dataclass
class MomentSeries:
    target: float
    center: Tuple[int, ...]
    t: List[float] = field(default_factory=list)
    W: List[float] = field(default_factory=list)
    F_of_W: List[float] = field(default_factory=list)

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

    @property
    def grid(self) -> Grid:
        return self.final_state.grid


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------

class _State(NamedTuple):
    """An accepted state: its values, the half spectra of its values and of
    its source values F(values), and the sums of values and of F(values).

    The moment probes and the records only read a state. A step spends it:
    it works in both spectra in place and hands them to the state it
    returns, so after ``_advance`` only ``values`` and the sums still hold.
    source_spectrum is None when F(values) was not transformed with the
    state: for u0, after a box doubling, on a state the support audit may
    replace, and when the transform overflowed. The step from it then
    evaluates F(values) again, bit for bit the same, and transforms it, so
    an overflow there ends that step and never rejects this state.
    """

    values: np.ndarray
    spectrum: np.ndarray
    source_spectrum: Optional[np.ndarray]
    total: float
    source_total: float


def _check_finite(a: np.ndarray, total: float, what: str) -> None:
    """Raise BlowupSignal when an entry of a is not finite, given its sum.

    A float sum is finite only if every entry is, so a finite total settles
    the check; only a total that is not finite is followed by the
    elementwise scan, which tells an overflowing sum of finite entries from
    a bad entry.
    """
    if not math.isfinite(total) and not np.all(np.isfinite(a)):
        raise BlowupSignal(f"{what} left the finite range")


def _state(values: np.ndarray, grid: Grid, source_fn,
           spectrum: Optional[np.ndarray] = None,
           source_spectrum: Optional[np.ndarray] = None) -> _State:
    """Evaluate the source on clipped values and transform the values, into
    spectrum if given. F(values) is transformed only into a given
    source_spectrum buffer (a step hands on the ones it spent); without
    one it is left to the next step. An overflow, a value or a source value
    that is not finite is a BlowupSignal. source_fn is the checked
    ``Nonlinearity.__call__`` where values enter from outside and
    ``Nonlinearity.fn`` on the step's own clipped update."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            source = source_fn(values)
            spectrum = grid.rfft(values, out=spectrum)
        except FloatingPointError as exc:
            raise BlowupSignal(str(exc)) from exc
    # the mass audit and the records need both sums; they double as the
    # finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.add.reduce(values, axis=None))
        source_total = float(np.add.reduce(source, axis=None))
    _check_finite(values, total, "values")
    _check_finite(source, source_total, "source values")
    if source_spectrum is not None:
        # only the next step reads F(values), and only as a spectrum: an
        # overflow in its transform is left to that step (see _State)
        with np.errstate(over="raise", invalid="raise"):
            try:
                grid.rfft(source, out=source_spectrum)
            except FloatingPointError:
                source_spectrum = None
    return _State(values, spectrum, source_spectrum, total, source_total)


def _clipped(values: np.ndarray) -> np.ndarray:
    """values with negative ringing clipped to 0, in place."""
    return np.maximum(values, 0.0, out=values)


def _half_propagator(sym: np.ndarray, dt: float) -> np.ndarray:
    """exp((dt/2) sym), the linear flow over half a step."""
    return np.exp((0.5 * dt) * sym)


def _advance(state: _State, e_half: np.ndarray, grid: Grid, fn, dt: float,
             transform_source: bool = True) -> Tuple[_State, float]:
    """One integrating-factor midpoint step on natural-layout values, with
    e_half = _half_propagator(sym, dt) and fn = Nonlinearity.fn.

    Returns the new state and int F(mid) per unit volume factor (the exact
    discrete mass production of this step is dt * that integral). The step
    spends state (see ``_State``), whether it succeeds or not. With
    transform_source False the new state leaves F(values) to the next step.
    """
    with np.errstate(over="raise", invalid="raise"):
        try:
            # the source spectrum is the step's spectrum buffer: the
            # midpoint update runs in it and F(mid) is transformed into it.
            # An overflow in a transform, a product or the sum of F(mid)
            # raises; a NaN or inf in F(mid) is caught here because the
            # clip would turn a -inf update to 0
            spec = state.source_spectrum
            if spec is None:
                spec = grid.rfft(fn(state.values))
            spec *= 0.5 * dt
            spec += state.spectrum
            spec *= e_half
            f_mid = fn(_clipped(grid.irfft(spec)))
            f_mid_sum = float(np.add.reduce(f_mid, axis=None))
            if not math.isfinite(f_mid_sum):
                raise BlowupSignal("midpoint source left the finite range")
            grid.rfft(f_mid, out=spec)
            del f_mid
            spec *= dt
            np.multiply(e_half, state.spectrum, out=state.spectrum)
            spec += state.spectrum
            spec *= e_half
            out = grid.irfft(spec)
        except FloatingPointError as exc:
            raise BlowupSignal(str(exc)) from exc
    # the new values and F(new values) are transformed into the two buffers
    return _state(_clipped(out), grid, fn, state.spectrum,
                  spec if transform_source else None), f_mid_sum


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

    The probe keeps one phase vector per axis. A call forms the lattice
    phase a block of leading-axis rows at a time (``np.multiply.outer``),
    each entry the single product of one entry per axis.
    """

    def __init__(self, grid: Grid, sym: np.ndarray, center: Tuple[int, ...]):
        self.sym = sym
        n = grid.n
        phases = [np.exp(2j * np.pi * np.arange(n) * c / n) for c in center]
        phases[-1] = phases[-1][: n // 2 + 1]
        weight = np.full(n // 2 + 1, 2.0)
        weight[0] = weight[-1] = 1.0
        phases[-1] = phases[-1] * weight / float(n) ** grid.d
        self.phases = phases
        self.rows = max(1, _PHASE_BLOCK // math.prod(len(pv) for pv in phases[1:]))

    def __call__(self, u_hat: np.ndarray, remaining: float) -> float:
        # exp(remaining * sym) * u_hat * phase with one complex temporary
        # beside one block of the phase
        mult = np.multiply(remaining, self.sym)
        prod = np.exp(mult, out=mult) * u_hat
        del mult
        lead, *rest = self.phases
        for a in range(0, len(lead), self.rows):
            block = lead[a:a + self.rows]
            for pv in rest:
                block = np.multiply.outer(block, pv)
            prod[a:a + self.rows] *= block
        return float(np.real(np.sum(prod)))


# ---------------------------------------------------------------------------
# support audit and box enlargement
# ---------------------------------------------------------------------------

def _support_ok(values: np.ndarray, grid: Grid) -> bool:
    # floor is relative to the sup once it exceeds one: a detonating peak
    # rings at ~1e-9 of its height across the whole box, and that ringing
    # is not support
    mask = values > _SUPPORT_FLOOR * max(1.0, float(values.max()))
    if not np.any(mask):
        return True
    for ax in range(grid.d):
        other = tuple(a for a in range(grid.d) if a != ax)
        line = mask.any(axis=other) if other else mask
        idx = np.nonzero(line)[0]
        x = (idx - grid.n // 2) * grid.spacing
        if np.max(np.abs(x)) > _BOUNDARY_FRACTION * grid.L:
            return False
    return True


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
    """Integrate to cfg.t_end with adaptive dt and the three audits.

    Outcomes: ``blew_up`` when sup u crosses u_max (or a step leaves the
    finite range), ``dt_underflow`` when the stability bound pushes dt
    below dt_min, ``reached_horizon`` otherwise. t_obs is the last
    accepted time for the first two.
    """
    F = cfg.nonlinearity
    if float(u0.values.max()) >= cfg.u_max:
        raise DomainError("u_max must exceed the initial sup")

    grid = u0.grid
    # u0 enters through F's negativity scan; the step's own clipped values
    # go to F.fn directly, and dt control and the moment series evaluate F
    # and F' on Python floats
    fn = F.fn
    dfn_scalar = F._for_floats(F.dfn)
    fn_scalar = F._for_floats(fn)
    try:
        state = _state(u0.values.copy(), grid, F)
    except BlowupSignal as exc:
        raise DomainError(f"u0 or F(u0) is not finite: {exc}") from exc

    def box(grid: Grid, centers: Dict[float, Tuple[int, ...]]):
        """The generator symbol, cell volume and moment probes of a box."""
        sym = generator_symbol_grid(cfg.kernel, grid)
        return sym, grid.cell_volume, {T: _MomentProbe(grid, sym, c)
                                       for T, c in centers.items()}

    # each horizon's center is the lattice peak of its smoothed data; it
    # moves with the data when the box doubles, while the horizon is ahead
    centers = {T: _peak_index(moment_field(u0, cfg.kernel, T, boundary_tol=None).values)
               for T in cfg.moment_targets}
    sym, cell, probes = box(grid, centers)
    moments = {T: MomentSeries(target=T, center=centers[T])
               for T in cfg.moment_targets}

    def record(t: float, dt_used: float, mass: float):
        traj_t.append(t)
        traj_sup.append(float(state.values.max()))
        traj_mass.append(mass)
        traj_dt.append(dt_used)
        traj_src.append(state.source_total * cell)
        for T in list(probes):
            remaining = T - t
            if remaining <= 0:
                # a passed horizon is dropped: no probe, no center to move
                del probes[T], centers[T]
                continue
            W = max(probes[T](state.spectrum, remaining), 0.0)
            ms = moments[T]
            ms.t.append(t)
            ms.W.append(W)
            ms.F_of_W.append(float(fn_scalar(W)))

    traj_t: List[float] = []
    traj_sup: List[float] = []
    traj_mass: List[float] = []
    traj_dt: List[float] = []
    traj_src: List[float] = []
    notes: List[str] = []

    t = 0.0
    record(t, 0.0, state.total * cell)
    outcome = "reached_horizon"
    t_obs: Optional[float] = None
    reliable = True
    enlargements = 0
    defect_streak = 0
    steps_since_audit = 0
    sup_init = max(float(u0.values.max()), _SUPPORT_FLOOR)
    detection_mode = False
    # the half-step propagator of the last trial dt; dt stays put for long
    # stretches, so it is rebuilt only when dt or the box changes
    e_dt: Optional[float] = None
    e_half: Optional[np.ndarray] = None

    while t < cfg.t_end - 1e-15 * cfg.t_end:
        sup = traj_sup[-1]
        dprime = float(dfn_scalar(max(sup, 0.0)))
        dt = cfg.dt_init if dprime <= 0 else min(cfg.dt_init, 0.5 / dprime)
        if dt < cfg.dt_min:
            outcome, t_obs = "dt_underflow", t
            break
        trial = min(dt, cfg.t_end - t)

        if trial != e_dt:
            e_dt, e_half = trial, _half_propagator(sym, trial)
        # the support audit is due after every _AUDIT_STRIDE steps and at
        # t_end; a state it may replace, the final one among them, leaves
        # the transform of its F(u) to a step that may never come
        audit_due = (steps_since_audit + 1 >= _AUDIT_STRIDE
                     or t + trial >= cfg.t_end - 1e-15)
        try:
            # the step spends the state; only its values stay, for a final
            # state if the step fails
            state, f_mid_sum = _advance(
                state, e_half, grid, fn, trial,
                transform_source=detection_mode or not audit_due)
        except BlowupSignal:
            outcome, t_obs = "blew_up", t
            break

        # mass audit: the update satisfies M' = M + dt*int F(mid) exactly up
        # to clipped ringing, so the defect measures spatial resolution, not
        # step size. While the sup stays near its initial scale a persistent
        # defect is a genuine failure; once the reaction has ramped the sup
        # well past it, the terminal peak is narrower than any fixed lattice
        # and the audit can only annotate.
        mass_new = state.total * cell
        mass_old = traj_mass[-1]
        produced = trial * f_mid_sum * cell
        defect = abs(mass_new - (mass_old + produced))
        tol = _MASS_DEFECT_TOL * trial * max(mass_new, 1.0) \
            + 1e-12 * (mass_old + mass_new + abs(produced))
        if defect > tol and not detection_mode:
            if sup >= _SPIKE_GROWTH * sup_init:
                # entering the terminal window: from here on the run only
                # detects the threshold crossing, accuracy audits annotate
                detection_mode = True
                notes.append(
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

        t += trial
        record(t, trial, mass_new)

        steps_since_audit += 1
        if audit_due and not detection_mode:
            steps_since_audit = 0
            if not _support_ok(state.values, grid):
                if enlargements < 2:
                    # the zero-extended values live in the new state only
                    grid = Grid(d=grid.d, L=2.0 * grid.L, n=2 * grid.n)
                    state = _state(_embed_double(state.values), grid, fn)
                    enlargements += 1
                    shift = grid.n // 4
                    centers = {T: tuple(i + shift for i in c)
                               for T, c in centers.items()}
                    sym, cell, probes = box(grid, centers)
                    e_dt = None
                    notes.append(f"box doubled to half-width {grid.L:g} at t={t:g}")
                elif reliable:
                    reliable = False
                    notes.append(f"support reached the boundary margin at t={t:g}")

        if traj_sup[-1] >= cfg.u_max:
            outcome, t_obs = "blew_up", t
            break

    return Trajectory(t=traj_t, sup=traj_sup, mass=traj_mass, dt=traj_dt,
                      source_integral=traj_src, moments=moments,
                      outcome=outcome, t_obs=t_obs,
                      final_state=GridFunction(grid, state.values),
                      reliable=reliable, notes=notes)


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
    FW = np.asarray(ms.F_of_W[:-1])
    tol = 1e-6 * (1.0 + FW)
    margins = dW - FW + tol
    ok = margins >= 0.0
    h = OsgoodTransform(nonlinearity).h
    lhs = h(ms.W[0]) - h(ms.W[-1])
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


@dataclass(frozen=True)
class DichotomySummary:
    rows: List[DichotomyRow]
    lambda_lo: Optional[float]    # largest global_decay scale
    lambda_hi: Optional[float]    # smallest blowup scale
    monotone: bool                # lambda_lo < lambda_hi, or an end is missing
    bisection_steps: int          # midpoints run; a censored one is the last


def _classify_run(traj: Trajectory, p: float, t_end: float) -> Tuple[str, float]:
    t = np.asarray(traj.t)
    sup = np.asarray(traj.sup)
    stat = np.where(t > 0, t ** (1.0 / (p - 1.0)) * sup, 0.0)
    decay_sup = float(stat.max()) if stat.size else math.nan
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
    if not scales or not all(0 < lam < math.inf for lam in scales):
        raise DomainError("the dichotomy needs at least one scale, each "
                          f"positive and finite, got {scales}")
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
                            decay_sup=decay_sup, predicted_T_star=predicted)

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
