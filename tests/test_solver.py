"""Integrating-factor stepper: ODE fidelity, structure laws, audits."""

import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blowlab import solver
from blowlab.errors import DomainError
from blowlab.kernels import (Grid, GridFunction, KernelSpec,
                             generator_symbol_grid, semigroup_kernel)
from blowlab.nonlinearity import Nonlinearity
from blowlab.solver import (BlowupSignal, SimConfig, _MomentProbe, _advance,
                            _half_propagator, _state, dichotomy_experiment,
                            jensen_report, run)


def step(u, cfg, dt):
    """One step of run's update (the integrating-factor midpoint rule) from
    u, with no dt control and no audits."""
    grid = u.grid
    e_half = _half_propagator(generator_symbol_grid(cfg.kernel, grid), dt)
    F = cfg.nonlinearity
    new, _ = _advance(_state(u.values, grid, F), e_half, grid, F.fn, dt)
    return GridFunction(grid, new.values)


def make_cfg(**kw):
    base = dict(kernel=KernelSpec.gaussian(),
                nonlinearity=Nonlinearity.power_law(1.0, 2.0),
                dt_init=1e-3, dt_min=1e-12, t_end=0.5)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(DomainError):
        make_cfg(dt_min=1e-2)           # dt_min >= dt_init
    with pytest.raises(DomainError):
        make_cfg(t_end=0.0)
    with pytest.raises(DomainError):
        make_cfg(moment_targets=(0.5, -1.0))


def test_run_equals_a_loop_of_steps_bit_for_bit():
    """run keeps one half-step propagator per trial dt; landing on t_end
    shortens the last step, so dt changes value and the propagator is
    rebuilt. In d = 1 and d = 2, with no box doubling (in d = 2 under the
    compact bump, since the gaussian kernel's tail reaches the support
    margin of this box by t = 0.16)."""
    for g, kernel in ((Grid(1, 32.0, 256), KernelSpec.gaussian()),
                      (Grid(2, 16.0, 64), KernelSpec.bump())):
        cfg = make_cfg(kernel=kernel, dt_init=0.01, t_end=0.205)
        u0 = GridFunction.gaussian(g, mass=1.0, sigma=1.0)
        traj = run(u0, cfg)
        assert traj.outcome == "reached_horizon" and not traj.notes
        assert len(set(traj.dt[1:])) >= 2
        u = u0
        for dt in traj.dt[1:]:
            u = step(u, cfg, dt)
        assert np.array_equal(u.values, traj.final_state.values)


def half_spectra(grid, nbytes):
    """nbytes in units of the grid's half spectrum, n*(n/2 + 1) complex."""
    return nbytes / (grid.n * (grid.n // 2 + 1) * 16)


def traced_peak(fn, *args):
    """fn(*args) and its tracemalloc peak in bytes above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - base


def test_advance_in_2d_holds_at_most_two_half_spectra():
    """Working-set guard: one 2-D step at n = 256 allocates at most two
    half spectra above its input state at its peak. It works in the input
    state's spectra and transforms the new state into them, so the new
    values and one source-values temporary are all it adds. A step spends
    its state, so each step here starts from a fresh one."""
    g = Grid(2, 16.0, 256)
    cfg = make_cfg(kernel=KernelSpec.fractional(1.5),
                   nonlinearity=Nonlinearity.power_law(1.0, 3.0))
    F = cfg.nonlinearity
    u0 = GridFunction.gaussian(g, mass=4.0, sigma=1.0).values
    e_half = _half_propagator(generator_symbol_grid(cfg.kernel, g), 0.01)

    def fresh():
        """A state with both spectra, as a step returns it."""
        return _advance(_state(u0.copy(), g, F), e_half, g, F.fn, 0.01)[0]

    _advance(fresh(), e_half, g, F.fn, 0.01)    # first calls allocate caches
    state = fresh()
    (new, _), peak = traced_peak(_advance, state, e_half, g, F.fn, 0.01)
    assert half_spectra(g, peak) <= 2.0
    assert new.spectrum is state.spectrum
    assert new.source_spectrum is state.source_spectrum


def test_run_in_2d_through_two_doublings_holds_at_most_six_half_spectra():
    """Working-set guard of a whole run: CI's 2-D simulate (n = 128 to 512,
    the horizon T = 2 still ahead at the end) peaks at most six half
    spectra of its final grid above its start, once the generator symbols
    are cached: the state (values and two spectra), a step's two arrays
    and the half-step propagator."""
    u0 = GridFunction.gaussian(Grid(2, 24.0, 128), mass=1.0, sigma=1.0)
    cfg = make_cfg(kernel=KernelSpec.fractional(1.5),
                   nonlinearity=Nonlinearity.power_law(1.0, 3.0),
                   dt_init=0.05, t_end=1.7, moment_targets=(1.0, 2.0))
    run(u0, cfg)                                # caches the three symbols
    traj, peak = traced_peak(run, u0, cfg)
    assert traj.grid == Grid(2, 96.0, 512)
    assert half_spectra(traj.grid, peak) <= 6.0


def test_a_doubled_array_dies_with_the_state_that_holds_it(monkeypatch):
    """run zero-extends the values when the box doubles; that array is the
    values of one state only, so it is gone once a step has moved on from
    that state."""
    embedded, live = [], []
    embed, advance = solver._embed_double, solver._advance

    def tracked_embed(*args):
        out = embed(*args)
        embedded.append(weakref.ref(out))
        return out

    def checked_advance(state, *args, **kw):
        live.append(sum(ref() is not None and ref() is not state.values
                        for ref in embedded))
        return advance(state, *args, **kw)

    monkeypatch.setattr(solver, "_embed_double", tracked_embed)
    monkeypatch.setattr(solver, "_advance", checked_advance)
    u0 = GridFunction.gaussian(Grid(2, 4.0, 32), mass=6.0, sigma=1.0)
    traj = run(u0, make_cfg(kernel=KernelSpec.fractional(1.5),
                            nonlinearity=Nonlinearity.power_law(1.0, 3.0),
                            dt_init=0.01, t_end=0.3))
    assert traj.grid == Grid(2, 16.0, 128) and len(embedded) == 2
    assert max(live) == 0


def test_a_source_spectrum_that_overflows_ends_the_next_step():
    """The transform of F(values) overflows although every value and F(value)
    is finite: the state is accepted without a warning and carries no
    source spectrum, and the step from it transforms F(values) again and
    signals blowup. A state built without a source buffer carries none
    either, and the step from it equals the step from one that does."""
    g = Grid(1, 8.0, 64)
    F = Nonlinearity.power_law(1.0, 2.0)
    e_half = _half_propagator(generator_symbol_grid(KernelSpec.gaussian(), g), 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = _state(np.full(g.shape, 1e154), g, F,
                       source_spectrum=np.empty(g.n // 2 + 1, dtype=complex))
    assert state.source_spectrum is None and state.source_total == math.inf
    with pytest.raises(BlowupSignal, match="overflow"):
        _advance(state, e_half, g, F.fn, 1e-3)
    u0 = GridFunction.gaussian(g, mass=1.0, sigma=1.0).values
    deferred = _state(u0, g, F)
    transformed = _state(u0, g, F, source_spectrum=np.empty(g.n // 2 + 1, dtype=complex))
    assert deferred.source_spectrum is None
    assert np.array_equal(transformed.source_spectrum, g.rfft(F(u0)))
    stepped = [_advance(s, e_half, g, F.fn, 1e-3)[0].values
               for s in (deferred, transformed)]
    assert np.array_equal(*stepped)


def stepped_constant_error(dt):
    """Drive u' = u^2, u(0) = 1 on constant data with bare steps; the spatial
    operator vanishes there and the exact value at t = 1/2 is 2."""
    g = Grid(1, 8.0, 64)
    cfg = make_cfg(dt_init=dt)
    u = GridFunction(g, np.ones(g.shape))
    for _ in range(round(0.5 / dt)):
        u = step(u, cfg, dt)
    return abs(u.sup() - 2.0)


def test_ode_fidelity_on_constant_data():
    assert stepped_constant_error(5e-4) < 2e-6


def test_second_order_convergence():
    ratio = stepped_constant_error(2e-3) / stepped_constant_error(1e-3)
    assert 3.0 < ratio < 5.0


def test_source_free_run_matches_kernel_convolution():
    g = Grid(1, 32.0, 512)
    u0 = GridFunction.gaussian(g, mass=1.5, sigma=1.0)
    cfg = SimConfig(kernel=KernelSpec.gaussian(), nonlinearity=Nonlinearity.zero(),
                    dt_init=0.05, dt_min=1e-12, t_end=1.0)
    traj = run(u0, cfg)
    from blowlab.kernels import semigroup_kernel
    k = semigroup_kernel(KernelSpec.gaussian(), 1.0, g)
    exact = np.fft.fftshift(np.fft.ifftn(
        np.fft.fftn(np.fft.ifftshift(k.values))
        * np.fft.fftn(np.fft.ifftshift(u0.values))).real) * g.cell_volume
    assert float(np.max(np.abs(traj.final_state.values - exact))) < 1e-12
    assert traj.outcome == "reached_horizon"
    assert traj.reliable
    assert abs(traj.mass[-1] - traj.mass[0]) < 1e-9    # no source, no mass


def full_convolution(kernel_values, values, grid):
    """Periodic convolution of an origin-anchored kernel with a field by
    full complex transforms, both rolled to index 0 and the result back."""
    return np.fft.fftshift(np.fft.ifftn(
        np.fft.fftn(np.fft.ifftshift(kernel_values))
        * np.fft.fftn(np.fft.ifftshift(values))).real) * grid.cell_volume


@pytest.mark.parametrize("kernel", [KernelSpec.gaussian(), KernelSpec.bump()])
def test_source_free_run_2d_matches_kernel_convolution(kernel):
    g = Grid(2, 32.0, 128)
    u0 = GridFunction.from_function(
        g, lambda x, y: 1.5 * np.exp(-((x - 1.0) ** 2 + 0.5 * y * y) / 2.0))
    cfg = SimConfig(kernel=kernel, nonlinearity=Nonlinearity.zero(),
                    dt_init=0.05, dt_min=1e-12, t_end=1.0)
    traj = run(u0, cfg)
    # the periodic identity holds whatever the tails: no box audit
    k = semigroup_kernel(kernel, 1.0, g, boundary_tol=1.0)
    exact = full_convolution(k.values, u0.values, g)
    assert traj.grid == g
    assert float(np.max(np.abs(traj.final_state.values - exact))) < 1e-12


def full_field_at(grid, kernel, values, t, center):
    """(k_t * values)(center) from the full-lattice multiplier."""
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    mesh = np.meshgrid(*([xi] * grid.d), indexing="ij")
    radius = np.sqrt(sum(m * m for m in mesh))
    mult = np.exp(-t * kernel.strength * radius ** kernel.alpha)
    return float(np.fft.ifftn(mult * np.fft.fftn(values)).real[center])


@pytest.mark.parametrize("d, center", [(1, (37,)), (2, (37, 9))])
def test_moment_probe_matches_full_field(d, center):
    """The half-spectrum probe weights interior last-axis modes by 2 and the
    modes 0 and n/2 by 1; rough data keeps every mode, Nyquist included."""
    g = Grid(d, 4.0, 64)
    kernel = KernelSpec.fractional(1.5)
    values = np.random.default_rng(3).uniform(0.0, 1.0, g.shape)
    probe = _MomentProbe(g, generator_symbol_grid(kernel, g), center)
    for t in (0.01, 0.3):
        assert abs(probe(g.rfft(values), t)
                   - full_field_at(g, kernel, values, t, center)) < 1e-12


def full_phase_probe(grid, sym, center, u_hat, remaining):
    """The probe with its lattice phase formed whole, by one outer product
    of the per-axis phase vectors."""
    n = grid.n
    phases = [np.exp(2j * np.pi * np.arange(n) * c / n) for c in center]
    phases[-1] = phases[-1][: n // 2 + 1]
    weight = np.full(n // 2 + 1, 2.0)
    weight[0] = weight[-1] = 1.0
    phases[-1] = phases[-1] * weight / float(n) ** grid.d
    phase = phases[0]
    for pv in phases[1:]:
        phase = np.multiply.outer(phase, pv)
    mult = np.multiply(remaining, sym)
    np.exp(mult, out=mult)
    prod = mult * u_hat
    prod *= phase
    return float(np.real(np.sum(prod)))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [32, 256])
def test_block_wise_probe_equals_the_full_phase_bit_for_bit(d, n):
    """The probe forms its phase a block of rows at a time (at n = 256 in
    2-D, two blocks); each entry is the same product as in the whole
    lattice phase, so W keeps its bits."""
    g = Grid(d, 8.0, n)
    kernel = KernelSpec.fractional(1.5)
    sym = generator_symbol_grid(kernel, g)
    u_hat = g.rfft(np.random.default_rng(n + d).uniform(0.0, 1.0, g.shape))
    for center in ((n // 2 + 3, n // 3)[:d], (5, n - 2)[:d]):
        probe = _MomentProbe(g, sym, center)
        for remaining in (0.01, 0.7, 3.0):
            assert probe(u_hat, remaining) == full_phase_probe(
                g, sym, center, u_hat, remaining)


def test_mass_production_law():
    # the recorded source integrals account for the entire mass gain
    g = Grid(1, 32.0, 512)
    u0 = GridFunction.gaussian(g, mass=1.0, sigma=1.0)
    traj = run(u0, make_cfg(t_end=0.2))
    produced = float(np.trapezoid(traj.source_integral, traj.t))
    gained = traj.mass[-1] - traj.mass[0]
    assert abs(gained - produced) / traj.mass[-1] < 1e-6


def test_mass_production_law_2d_through_box_doublings():
    """p = 3 in d = 2 with heavy tails: the support audit doubles the box
    twice, and the mass gained still matches the trapezoid of the recorded
    source integral int F(u) dx, which is second order in dt."""
    g = Grid(2, 4.0, 32)
    u0 = GridFunction.gaussian(g, mass=6.0, sigma=1.0)
    traj = run(u0, make_cfg(kernel=KernelSpec.fractional(1.5),
                            nonlinearity=Nonlinearity.power_law(1.0, 3.0),
                            dt_init=0.01, t_end=0.3))
    assert traj.outcome == "reached_horizon"
    assert sum("doubled" in n for n in traj.notes) == 2
    assert traj.grid == Grid(2, 16.0, 128)
    produced = float(np.trapezoid(traj.source_integral, traj.t))
    gained = traj.mass[-1] - traj.mass[0]
    assert gained > 0.05 * traj.mass[0]
    assert abs(gained - produced) < 1e-4 * gained


def test_a_run_to_its_horizon_transforms_no_state_that_no_step_reads(monkeypatch):
    """Through two box doublings, the second at t_end: one transform of u0,
    five per step and one per doubling, as when each step transformed the
    F(u) of the state it started from. The states the support audit
    replaces and the final state are never stepped, and their F(u) is
    never transformed."""
    calls = []
    for name in ("rfft", "irfft"):
        def counted(self, *args, _f=getattr(Grid, name), **kw):
            calls.append(self.n)
            return _f(self, *args, **kw)
        monkeypatch.setattr(Grid, name, counted)
    u0 = GridFunction.gaussian(Grid(2, 4.0, 32), mass=6.0, sigma=1.0)
    traj = run(u0, make_cfg(kernel=KernelSpec.fractional(1.5),
                            nonlinearity=Nonlinearity.power_law(1.0, 3.0),
                            dt_init=0.01, t_end=0.3))
    assert traj.outcome == "reached_horizon" and traj.grid.n == 128
    assert len(calls) == 1 + 5 * (len(traj.t) - 1) + 2


def test_a_passed_horizon_builds_no_probe_at_a_later_doubling(monkeypatch):
    """Run to t = 1.7, the box doubles at t = 0.8 and 1.6: the first
    doubling builds probes for T = 1 and T = 2, the second only for T = 2,
    since T = 1 has passed. Run to t = 0.97, the second doubling comes at
    t = 0.97 and builds both; up to t = 0.95 the two runs take the same
    steps, and their T = 1 series agree there bit for bit."""
    built = []

    class CountingProbe(_MomentProbe):
        def __init__(self, grid, sym, center):
            built.append(grid.n)
            super().__init__(grid, sym, center)

    monkeypatch.setattr(solver, "_MomentProbe", CountingProbe)
    u0 = GridFunction.gaussian(Grid(2, 8.0, 32), mass=6.0, sigma=1.0)

    def moments(t_end, doubled_at):
        built.clear()
        traj = run(u0, make_cfg(kernel=KernelSpec.fractional(1.5),
                                nonlinearity=Nonlinearity.power_law(1.0, 3.0),
                                dt_init=0.05, t_end=t_end, moment_targets=(1.0, 2.0)))
        assert [n for n in traj.notes if "doubled" in n] == [
            f"box doubled to half-width {L} at t={t}" for L, t in doubled_at]
        return traj.moments[1.0]

    late = moments(1.7, [(16, 0.8), (32, 1.6)])
    assert built == [32, 32, 64, 64, 128]
    early = moments(0.97, [(16, 0.8), (32, 0.97)])
    assert built == [32, 32, 64, 64, 128, 128]
    k = len(late.t)
    assert late.t[-1] < 1.0 and late.t == early.t[:k] and early.t[k] == 0.97
    assert late.W == early.W[:k] and late.F_of_W == early.F_of_W[:k]
    assert late.center == early.center


def test_a_repeated_target_records_each_sample_once():
    g = Grid(1, 16.0, 128)
    u0 = GridFunction.gaussian(g, mass=1.0, sigma=1.0)
    traj = run(u0, make_cfg(dt_init=0.05, t_end=0.3, moment_targets=(1.0, 1.0)))
    assert traj.moments[1.0].t == traj.t
    assert np.all(np.isfinite(traj.moments[1.0].finite_differences()))


def test_comparison_principle():
    g = Grid(1, 32.0, 512)
    small = GridFunction.gaussian(g, mass=1.0, sigma=1.0)
    large = GridFunction.gaussian(g, mass=1.2, sigma=1.0)
    cfg = make_cfg(t_end=0.3)
    lo = run(small, cfg).final_state
    hi = run(large, cfg).final_state
    assert float(np.min(hi.values - lo.values)) > -1e-12


def test_translation_equivariance():
    g = Grid(1, 32.0, 512)
    u = GridFunction.gaussian(g, mass=1.0, sigma=1.0)
    cfg = make_cfg()
    rolled_then_stepped = step(GridFunction(g, np.roll(u.values, 37)), cfg, 1e-3)
    stepped_then_rolled = np.roll(step(u, cfg, 1e-3).values, 37)
    assert float(np.max(np.abs(rolled_then_stepped.values
                               - stepped_then_rolled))) < 1e-14


def test_translation_equivariance_2d():
    g = Grid(2, 16.0, 64)
    u = GridFunction.gaussian(g, mass=1.0, sigma=1.0)
    cfg = make_cfg(kernel=KernelSpec.fractional(1.5))
    shift = (11, -5)
    rolled = GridFunction(g, np.roll(u.values, shift, axis=(0, 1)))
    rolled_then_stepped = step(rolled, cfg, 1e-3).values
    stepped_then_rolled = np.roll(step(u, cfg, 1e-3).values, shift, axis=(0, 1))
    assert float(np.max(np.abs(rolled_then_stepped - stepped_then_rolled))) < 1e-14


def test_constant_data_blowup_time():
    # u' = 2 u^2 from 1 detonates at exactly 1/2
    g = Grid(1, 8.0, 64)
    u0 = GridFunction(g, np.ones(g.shape))
    cfg = SimConfig(kernel=KernelSpec.gaussian(),
                    nonlinearity=Nonlinearity.power_law(2.0, 2.0),
                    dt_init=1e-3, dt_min=1e-12, t_end=1.0, u_max=1e6)
    traj = run(u0, cfg)
    assert traj.outcome == "blew_up"
    assert 0.45 < traj.t_obs < 0.55
    assert not traj.reliable      # constant data always trips the support audit


def test_support_audit_grows_the_box_then_gives_up():
    """Constant data has no compact support, so the audit must double the
    box (twice at most) and then mark the run unreliable instead of looping."""
    g = Grid(1, 8.0, 64)
    u0 = GridFunction(g, np.ones(g.shape))
    traj = run(u0, make_cfg())
    assert traj.outcome == "reached_horizon"
    assert not traj.reliable
    doubled = [n for n in traj.notes if "doubled" in n]
    assert len(doubled) == 2
    assert any("boundary margin" in n for n in traj.notes)
    assert traj.grid == Grid(1, 32.0, 256)


def test_moment_inequality_report():
    g = Grid(1, 32.0, 1024)
    u0 = GridFunction.gaussian(g, mass=2.0, sigma=1.0)
    traj = run(u0, make_cfg(t_end=0.2, moment_targets=(0.5,)))
    jr = jensen_report(traj, Nonlinearity.power_law(1.0, 2.0), 0.5)
    assert jr.steps > 100
    assert jr.fraction_ok >= 0.99
    assert jr.integrated_ok
    with pytest.raises(DomainError):
        jensen_report(traj, Nonlinearity.power_law(1.0, 2.0), 0.75)


def test_step_signals_blowup_on_overflow():
    g = Grid(1, 8.0, 64)
    u = GridFunction(g, np.full(g.shape, 1e160))
    with pytest.raises(BlowupSignal):
        step(u, make_cfg(), 1e-3)


def test_non_finite_source_of_new_state_signals_blowup():
    """F is finite up to 1.008 and infinite beyond, without a floating-point
    exception. From constant data 1 the first step's midpoint (1.005) stays
    below the cap and its result (1.0101) passes it, so only the source
    values carried with the new state are not finite."""
    g = Grid(1, 8.0, 64)
    capped = Nonlinearity(fn=lambda u: np.where(u > 1.008, np.inf, u * u),
                          dfn=lambda u: 2.0 * u, label="capped u^2")
    cfg = SimConfig(kernel=KernelSpec.gaussian(), nonlinearity=capped,
                    dt_init=1e-2, dt_min=1e-12, t_end=1.0)
    traj = run(GridFunction(g, np.ones(g.shape)), cfg)
    assert traj.outcome == "blew_up"
    assert traj.t_obs == 0.0
    assert traj.t == [0.0]


def test_exponential_source_ends_at_overflow():
    """With dt_min in the subnormal range the run climbs until e^u
    overflows. The state whose F(u) is not finite is rejected, so the run
    ends as blew_up with a finite carried source. Steps near the end are
    about 1/F(sup) ~ 1e-308, far below the spacing of doubles at t, so
    dropping the last step leaves t_obs where the earlier full-spectrum
    solver put it: 0.26465794527684283, ending there as dt_underflow after
    F'(sup) overflowed to inf on the accepted state."""
    g = Grid(1, 16.0, 64)
    cfg = make_cfg(nonlinearity=Nonlinearity.exponential(1.0), dt_init=0.05,
                   dt_min=1e-320, t_end=10.0, u_max=1e300)
    with np.errstate(over="raise"):
        traj = run(GridFunction.gaussian(g, mass=4.0, sigma=1.0), cfg)
    assert traj.outcome == "blew_up"
    assert traj.t_obs == pytest.approx(0.26465794527684283, rel=1e-14)
    assert 709.0 < traj.sup[-1] < math.log(np.finfo(float).max)
    assert all(math.isfinite(s) for s in traj.source_integral)


def test_dichotomy_brackets_the_threshold():
    g = Grid(1, 64.0, 512)
    base = GridFunction.gaussian(g, mass=1.0, sigma=1.0)
    cfg = SimConfig(kernel=KernelSpec.gaussian(),
                    nonlinearity=Nonlinearity.power_law(1.0, 4.0),
                    dt_init=0.05, dt_min=1e-14, t_end=30.0, u_max=1e4)
    summary = dichotomy_experiment([0.5, 4.0], base, cfg, bisection_steps=3)
    assert summary.rows[0].outcome == "global_decay"
    assert summary.rows[-1].outcome == "blowup"
    assert len(summary.rows) == 5                 # two endpoints, three cuts
    assert 0.5 < summary.lambda_lo < summary.lambda_hi < 4.0
    assert summary.monotone
    blown = [r for r in summary.rows if r.outcome == "blowup"]
    assert all(r.t_obs is not None for r in blown)


def test_a_censored_midpoint_moves_neither_end_and_ends_the_bisection():
    """t_end = 1 is too short for the first midpoint, sqrt(2), to settle:
    it is censored. The bracket stays on its global_decay and blowup rows,
    and the bisection stops there (the next midpoint would be sqrt(2)
    again). Counted as a survival, it used to move lambda_lo to a
    censored row."""
    g = Grid(1, 64.0, 512)
    base = GridFunction.gaussian(g, mass=1.0, sigma=1.0)
    cfg = SimConfig(kernel=KernelSpec.gaussian(),
                    nonlinearity=Nonlinearity.power_law(1.0, 4.0),
                    dt_init=0.05, dt_min=1e-14, t_end=1.0, u_max=1e4)
    summary = dichotomy_experiment([0.5, 4.0], base, cfg, bisection_steps=6)
    assert [(r.scale, r.outcome) for r in summary.rows] == [
        (0.5, "global_decay"), (math.sqrt(2.0), "censored"), (4.0, "blowup")]
    assert (summary.lambda_lo, summary.lambda_hi) == (0.5, 4.0)
    assert summary.bisection_steps == 1
    assert summary.monotone


def test_dichotomy_validation():
    g = Grid(1, 64.0, 512)
    base = GridFunction.gaussian(g, mass=1.0, sigma=1.0)
    with pytest.raises(DomainError):
        dichotomy_experiment([0.5, 4.0], base, SimConfig(
            kernel=KernelSpec.gaussian(),
            nonlinearity=Nonlinearity.power_sum(),
            dt_init=0.05, dt_min=1e-14, t_end=30.0))
    with pytest.raises(DomainError):
        # p = 2 sits below the mass-driven range boundary 1 + alpha/d = 3
        dichotomy_experiment([0.5, 4.0], base, SimConfig(
            kernel=KernelSpec.gaussian(),
            nonlinearity=Nonlinearity.power_law(1.0, 2.0),
            dt_init=0.05, dt_min=1e-14, t_end=30.0))
    cfg = SimConfig(kernel=KernelSpec.gaussian(),
                    nonlinearity=Nonlinearity.power_law(1.0, 4.0),
                    dt_init=0.05, dt_min=1e-14, t_end=1.0, u_max=1e4)
    # a zero scale would bisect at sqrt(0 * 3) = 0
    for scales, steps in (([0.0, 3.0], 6), ([-1.0, 3.0], 6),
                          ([math.nan, 3.0], 6), ([math.inf], 6), ([], 6),
                          ([0.5, 4.0], -1)):
        with pytest.raises(DomainError):
            dichotomy_experiment(scales, base, cfg, bisection_steps=steps)
    # a repeated scale runs once
    summary = dichotomy_experiment([1.0, 1.0], base, cfg)
    assert [r.scale for r in summary.rows] == [1.0]


@pytest.mark.parametrize("entry", ["run", "step"])
def test_data_mutated_negative_after_construction_is_rejected(entry):
    """GridFunction checks its values once, at construction; run and step
    scan the data they are handed again."""
    g = Grid(1, 8.0, 64)
    u = GridFunction.gaussian(g, mass=1.0, sigma=1.0)
    u.values[5] = -0.1
    with pytest.raises(DomainError, match="u >= 0"):
        if entry == "run":
            run(u, make_cfg())
        else:
            step(u, make_cfg(), 1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_midpoint_source_ends_run_as_blowup(bad):
    """F turns non-finite above 1.003 without a floating-point exception.
    From constant data 1 the first midpoint (1.005) passes that level, so
    the step's update is not finite and the run ends at t = 0."""
    g = Grid(1, 8.0, 64)
    poisoned = Nonlinearity(fn=lambda u: np.where(u > 1.003, bad, u * u),
                            dfn=lambda u: 2.0 * u, label="poisoned u^2")
    cfg = make_cfg(nonlinearity=poisoned, dt_init=1e-2, t_end=1.0)
    traj = run(GridFunction(g, np.ones(g.shape)), cfg)
    assert traj.outcome == "blew_up"
    assert traj.t_obs == 0.0
    assert traj.t == [0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_update_values_signal_blowup(bad):
    """The zero source stays finite on any input, so only the check on the
    values themselves can see the bad entry."""
    g = Grid(1, 8.0, 64)
    values = np.ones(g.shape)
    values[7] = bad
    with pytest.raises(BlowupSignal):
        _state(values, g, Nonlinearity.zero().fn)


def test_finite_source_values_whose_sum_overflows_do_not_signal_blowup():
    """Every F(u0) = 1e308 is a finite double, but their sum is not. The run
    starts and records an infinite source integral without a warning; dt
    control (dt = 0.5/F'(1e154)) then ends it at t = 0."""
    g = Grid(1, 8.0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(GridFunction(g, np.full(g.shape, 1e154)),
                   make_cfg(u_max=1e300))
    assert traj.outcome == "dt_underflow"
    assert traj.t_obs == 0.0
    assert traj.source_integral == [math.inf]
    assert math.isfinite(traj.mass[0])


def test_a_state_whose_source_transform_overflows_is_accepted():
    """u' = u^2 from constant data 1.4e153 (dt = 0.5/F'(u0)): the first
    step's midpoint source still transforms, but the sum of F over the new
    state, its transform's mode 0, overflows. That state is accepted and
    recorded with an infinite source integral; the step from it ends the
    run as blew_up at its time."""
    g = Grid(1, 8.0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(GridFunction(g, np.full(g.shape, 1.4e153)),
                   make_cfg(dt_min=1e-300, u_max=1e300))
    assert traj.outcome == "blew_up"
    assert len(traj.t) == 2 and traj.t_obs == traj.t[1] > 0.0
    assert math.isfinite(traj.source_integral[0])
    assert traj.source_integral[1] == math.inf
