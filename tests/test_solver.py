"""Integrating-factor stepper: ODE fidelity, structure laws, audits."""

import dataclasses
import math
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blowlab import solver
from blowlab.errors import DomainError, ResolutionError
from blowlab.kernels import (Grid, GridFunction, KernelSpec, SemigroupKernel,
                             _propagator, generator_symbol_grid, semigroup_kernel)
from blowlab.nonlinearity import Nonlinearity
from blowlab.solver import (BlowupSignal, MomentSeries, SimConfig, Trajectory,
                            _MomentProbe, _advance, _state,
                            dichotomy_experiment, jensen_report, run)


def step(u, cfg, dt):
    """One step of run's update (the integrating-factor midpoint rule) from
    u, with no dt control and no audits."""
    grid = u.grid
    e_half = _propagator(generator_symbol_grid(cfg.kernel, grid), dt / 2)
    F = cfg.nonlinearity
    new = _advance(_state(u.values, grid, F), e_half, grid, F.fn, dt)[0]
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
    # blowup is a crossing of u_max, never an overflow
    for u_max in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="u_max"):
            make_cfg(u_max=u_max)


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
    e_half = _propagator(generator_symbol_grid(cfg.kernel, g), 0.01 / 2)

    def fresh():
        """A state with both spectra, as a step returns it."""
        return _advance(_state(u0.copy(), g, F), e_half, g, F.fn, 0.01)[0]

    _advance(fresh(), e_half, g, F.fn, 0.01)    # first calls allocate caches
    state = fresh()
    (new, _, _), peak = traced_peak(_advance, state, e_half, g, F.fn, 0.01)
    assert half_spectra(g, peak) <= 2.0
    assert new.spectrum is state.spectrum
    assert new.source_spectrum is state.source_spectrum


def test_a_rejected_step_in_2d_holds_at_most_two_half_spectra():
    """Working-set guard of a rejected step: a 2-D step at n = 256 whose
    estimate exceeds tol allocates at most two half spectra above its
    input state at its peak, and rebuilds the state in its own buffers."""
    g = Grid(2, 16.0, 256)
    kernel = KernelSpec.fractional(1.5)
    F = Nonlinearity.power_law(1.0, 3.0)
    u0 = GridFunction.gaussian(g, mass=4.0, sigma=1.0).values
    e_half = _propagator(generator_symbol_grid(kernel, g), 0.5 / 2)
    _advance(_state(u0.copy(), g, F), e_half, g, F.fn, 0.5, tol=1e-12)
    state = _state(u0.copy(), g, F)
    (kept, f_mid_sum, _), peak = traced_peak(
        lambda: _advance(state, e_half, g, F.fn, 0.5, tol=1e-12))
    assert f_mid_sum is None
    assert half_spectra(g, peak) <= 2.0
    assert kept.spectrum is state.spectrum
    assert kept.source_spectrum is state.source_spectrum


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


def test_a_state_whose_source_sum_overflows_is_a_blowup():
    """The sum of F(values) overflows although every value and F(value) is
    finite: building the state signals blowup without a warning. A state
    built without a source buffer carries the transform of F(values) in a
    fresh array, and the step from it equals the step from one built with
    it."""
    g = Grid(1, 8.0, 64)
    F = Nonlinearity.power_law(1.0, 2.0)
    e_half = _propagator(generator_symbol_grid(KernelSpec.gaussian(), g), 1e-3 / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupSignal, match="overflow encountered in reduce"):
            _state(np.full(g.shape, 1e154), g, F,
                   source_spectrum=np.empty(g.n // 2 + 1, dtype=complex))
    u0 = GridFunction.gaussian(g, mass=1.0, sigma=1.0).values
    unbuffered = _state(u0, g, F)
    buffered = _state(u0, g, F, source_spectrum=np.empty(g.n // 2 + 1, dtype=complex))
    assert np.array_equal(unbuffered.source_spectrum, g.rfft(F(u0)))
    assert np.array_equal(buffered.source_spectrum, g.rfft(F(u0)))
    stepped = [_advance(s, e_half, g, F.fn, 1e-3)[0].values
               for s in (unbuffered, buffered)]
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


def full_phase_cases(d, n):
    g = Grid(d, 8.0, n)
    sym = generator_symbol_grid(KernelSpec.fractional(1.5), g)
    u_hat = g.rfft(np.random.default_rng(n + d).uniform(0.0, 1.0, g.shape))
    for center in ((n // 2 + 3, n // 3)[:d], (5, n - 2)[:d]):
        probe = _MomentProbe(g, sym, center)
        for remaining in (0.01, 0.7, 3.0):
            yield probe(u_hat, remaining), full_phase_probe(
                g, sym, center, u_hat, remaining)


@pytest.mark.parametrize("n", [32, 256])
def test_one_axis_probe_equals_the_full_phase_bit_for_bit(n):
    """In 1-D the probe's one product and one sum are the whole-phase
    arithmetic, so W keeps its bits."""
    for W, oracle in full_phase_cases(1, n):
        assert W == oracle


@pytest.mark.parametrize("n", [32, 256])
def test_two_axis_probe_is_within_ulps_of_the_full_phase(n):
    """In 2-D the probe sums each row before the rows, a different order
    of the same terms than the whole-phase sum."""
    eps = np.finfo(float).eps
    for W, oracle in full_phase_cases(2, n):
        assert abs(W - oracle) <= 4 * eps * abs(oracle)


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


def audit_cfg(kernel, p, dt_init):
    return SimConfig(kernel=kernel, nonlinearity=Nonlinearity.power_law(1.0, p),
                     dt_init=dt_init, dt_min=1e-14, t_end=50.0, u_max=1e12)


def test_a_persistent_mass_defect_before_the_growth_window_is_an_error():
    """A lattice too coarse for its data (spacing 1.5 under sigma = 0.5)
    misses the mass law step after step while the sup is still near its
    start, and the run ends with ResolutionError."""
    u0 = GridFunction.gaussian(Grid(1, 48.0, 64), mass=4.0, sigma=0.5)
    with pytest.raises(ResolutionError,
                       match="persistent relative mass defect above 0.0001 "
                             "outside the growth window"):
        run(u0, audit_cfg(KernelSpec.gaussian(), 2.0, 1e-3))


def test_a_mass_defect_in_the_growth_window_suspends_the_audits():
    """Once the sup has ramped past four times its start, a defect only
    annotates: the run goes on to detect the crossing and ends by the
    stability cap instead."""
    u0 = GridFunction.gaussian(Grid(1, 16.0, 32), mass=4.0, sigma=0.5)
    traj = run(u0, audit_cfg(KernelSpec.fractional(1.5), 3.0, 1e-2))
    assert traj.outcome == "dt_underflow"
    assert traj.t_obs == pytest.approx(0.0564, abs=1e-4)
    assert traj.notes == ["audits suspended at t=0.0535471: terminal peak "
                          "narrower than the lattice"]


def test_a_run_to_its_horizon_transforms_each_state_and_its_source_once(monkeypatch):
    """Through two box doublings, the second at t_end: two transforms of
    u0 (u and F(u)), five per step and two per doubling. Every state
    carries the spectrum of its F(u), the final state and the states the
    support audit replaces among them."""
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
    assert len(calls) == 2 + 5 * (len(traj.t) - 1) + 2 * 2


def test_a_passed_horizon_builds_no_probe_at_a_later_doubling(monkeypatch):
    """The data start clear of the boundary band, so u0's audit passes.
    Run to t = 1.7, the box doubles at t = 0.8 and 1.6: the first
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
    u0 = GridFunction.gaussian(Grid(2, 8.0, 32), mass=3.0, sigma=0.75)
    assert solver._support_ok(u0.values, u0.grid)

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
    assert late.W == early.W[:k]
    assert late.center == early.center


def test_data_that_start_in_the_band_double_the_box_before_the_first_step(monkeypatch):
    """u0 reads 1.5e-8 at |x| = 6 = 0.75 L, inside the boundary band, so its
    audit doubles the box at t = 0: the first step starts from the
    zero-extended u0, bit for bit, and no step runs on the small box."""
    first = []
    advance = solver._advance

    def recorded_advance(state, e_half, grid, *args, **kw):
        if not first:
            first.append((grid, state.values.copy()))
        return advance(state, e_half, grid, *args, **kw)

    monkeypatch.setattr(solver, "_advance", recorded_advance)
    u0 = GridFunction.gaussian(Grid(2, 8.0, 32), mass=6.0, sigma=1.0)
    assert not solver._support_ok(u0.values, u0.grid)
    traj = run(u0, make_cfg(kernel=KernelSpec.fractional(1.5),
                            nonlinearity=Nonlinearity.power_law(1.0, 3.0),
                            dt_init=0.05, t_end=0.1))
    assert traj.notes[0] == "box doubled to half-width 16 at t=0"
    grid, values = first[0]
    assert grid == Grid(2, 16.0, 64)
    assert np.array_equal(values, solver._embed_double(u0.values))


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


def test_power_sum_run_takes_the_steps_of_its_custom_twin():
    """run caps each step at 0.5/F'(sup), so the named power sum's F' sets
    the steps: a run on u^2 + u^3 takes those of the same F written as a
    custom source, whose powers differ from the products by a few ulps."""
    u0 = GridFunction.gaussian(Grid(1, 16.0, 128), mass=2.0)
    named, custom = (run(u0, make_cfg(nonlinearity=F, dt_init=0.2, t_end=0.5)) for F in (
        Nonlinearity.power_sum(1.0, 2.0, 1.0, 3.0),
        Nonlinearity.custom(lambda u: u ** 2 + u ** 3, lambda u: 2.0 * u + 3.0 * u ** 2)))
    assert named.outcome == custom.outcome == "reached_horizon"
    assert len(named.dt) == len(custom.dt) == 8
    assert_allclose(named.dt, custom.dt, rtol=1e-12)
    assert max(named.dt) < 0.2       # the cap, not dt_init, sets the steps
    assert_allclose(named.final_state.values, custom.final_state.values,
                    rtol=1e-12, atol=1e-12 * float(np.max(custom.final_state.values)))


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


def test_a_jensen_report_on_moments_whose_h_leaves_the_doubles_is_a_domain_error():
    """Data of mass 1e-160 under u^3 record moments near 3e-161, where
    h(W) = W^-2 / 2 leaves the doubles: the report raises naming w, where
    it raised a bare OverflowError."""
    F = Nonlinearity.power_law(1.0, 3.0)
    traj = run(GridFunction.gaussian(Grid(1, 8.0, 64), mass=1e-160),
               make_cfg(nonlinearity=F, dt_init=0.01, t_end=0.05,
                        moment_targets=(0.5,)))
    with pytest.raises(DomainError, match="^w = .* is too small"):
        jensen_report(traj, F, 0.5)


def test_a_jensen_report_needs_two_moment_samples():
    with pytest.raises(DomainError, match="moment series too short for a derivative check"):
        jensen_report(_moment_trajectory((1.0,)), Nonlinearity.power_law(1.0, 2.0), 0.5)


def test_a_run_whose_u_max_is_not_above_the_initial_sup_is_a_domain_error():
    u0 = GridFunction.gaussian(Grid(1, 8.0, 64), mass=1.0)
    with pytest.raises(DomainError, match="u_max must exceed the initial sup"):
        run(u0, make_cfg(u_max=u0.sup()))


@pytest.mark.parametrize("grid", [Grid(1, 8.0, 1024), Grid(2, 48.0, 256)], ids=["1d", "2d"])
def test_the_boundary_band_is_built_once_per_grid(grid):
    """Grid.edge() is one read-only mask per grid, and the two audits that
    read it keep their verdicts and their bits: the support audit and the
    kernel's boundary mass, against a band built here."""
    band = grid.edge()
    assert grid.edge() is band
    assert not band.flags.writeable
    with pytest.raises(ValueError):
        band[0] = False
    line = np.abs(grid.axis()) > 0.75 * grid.L
    fresh = line if grid.d == 1 else line[:, None] | line[None, :]
    assert np.array_equal(band, fresh)
    values = np.random.default_rng(3).random(grid.shape)
    inside = np.where(fresh, 0.0, values)
    for _ in range(2):
        assert solver._support_ok(inside, grid)
        assert not solver._support_ok(values, grid)
        kern = SemigroupKernel(grid, values)
        assert kern.boundary_mass() == float(np.abs(values[fresh]).sum()) * grid.cell_volume


def _moment_trajectory(W):
    """A trajectory that recorded the moment series W at t = 0, 1, 2, ...
    of its horizon 0.5."""
    g = Grid(1, 8.0, 64)
    series = MomentSeries(target=0.5, center=(32,), t=[float(i) for i in range(len(W))],
                          W=list(W))
    return Trajectory(t=[], sup=[], mass=[], dt=[], source_integral=[],
                      moments={0.5: series}, outcome="reached_horizon", t_obs=None,
                      final_state=GridFunction(g, np.zeros(g.shape)))


@pytest.mark.parametrize("W_last", [690.0, 800.0])
@pytest.mark.parametrize("make, h_1, rtol", [
    (lambda: Nonlinearity.exponential(1.0), 0.45867514538708193, 0.0),
    (lambda: Nonlinearity.custom(np.expm1, np.exp), 0.45867514538708193, 1e-12),
], ids=["exponential", "custom-exponential"])
def test_jensen_report_reads_a_negligible_last_h_as_0(make, h_1, rtol, W_last):
    """h(W_last) of e^u - 1 is 2.2e-300 at 690 and below the doubles at 800;
    either way it cannot move h(1) - h(W_last), which reads h(1). The report
    raised at both: from the cut's window on the quadrature route and
    below the normal doubles on both. A custom source counts the cut's
    bound, 5.6e-309, in h(W_last)."""
    jr = jensen_report(_moment_trajectory((1.0, 5.0, W_last)), make(), 0.5)
    assert_allclose(jr.integrated_lhs, h_1, rtol=rtol, atol=0.0)
    assert jr.elapsed == 2.0


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


def test_a_run_whose_support_reached_the_margin_is_censored():
    """On a box of half-width 8 the support of the decaying row reaches the
    boundary margin after two doublings, so its run is unreliable: the row
    is censored although the run reached its horizon decaying, and so is
    an unreliable run that blew up."""
    base = GridFunction.gaussian(Grid(1, 8.0, 64), mass=1.0, sigma=1.0)
    cfg = dichotomy_cfg(t_end=20.0)
    summary = dichotomy_experiment([0.3], base, cfg, bisection_steps=0)
    [row] = summary.rows
    assert (row.outcome, row.raw_outcome) == ("censored", "reached_horizon")
    assert row.reliable is False
    assert summary.lambda_lo is None
    traj = run(base.scaled(0.3), cfg)
    assert not traj.reliable
    blown = dataclasses.replace(traj, outcome="blew_up", t_obs=traj.t[-1])
    assert solver._classify_run(blown, 4.0, cfg.t_end)[0] == "censored"
    assert solver._classify_run(dataclasses.replace(blown, reliable=True),
                                4.0, cfg.t_end)[0] == "blowup"


def test_a_reliable_run_whose_clock_stopped_is_censored():
    """A dt_underflow run is censored even where its decay statistic would
    pass the global-decay test, as the same run that reached its horizon
    does."""
    traj = dataclasses.replace(_moment_trajectory((1.0, 2.0)), t=[0.0, 0.8, 1.0],
                               sup=[1.0, 0.5, 0.1])
    assert solver._classify_run(traj, 2.0, 1.0)[0] == "global_decay"
    stopped = dataclasses.replace(traj, outcome="dt_underflow", t_obs=1.0)
    assert solver._classify_run(stopped, 2.0, 1.0)[0] == "censored"


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


def test_u0_whose_source_sum_overflows_is_a_domain_error():
    """Every F(u0) = 1e308 is a finite double, but their sum is not: u0
    leaves the double range, and run rejects it before the first record."""
    g = Grid(1, 8.0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="leaves the double range"):
            run(GridFunction(g, np.full(g.shape, 1e154)), make_cfg(u_max=1e300))


def test_a_run_whose_power_overflows_below_its_source_ends_as_a_blowup():
    """F = 1e-300 u^3 from data whose sup is 1e150: u^3 overflows, while
    F(u0) = 1e150 is a double, so the run starts (it raised DomainError when
    F lost such terms to the overflow of u^3). Its steps shrink with the
    stability cap 0.5/F'(sup), whose F' = 3e-300 u^2 also passes through an
    overflowing u^2, and the run ends as a blowup where F itself overflows,
    near sup = 5.6e202, below u_max = 1e300; with warnings as errors."""
    u0 = GridFunction.gaussian(Grid(1, 16.0, 64), mass=2.5e150, sigma=1.0)
    cfg = make_cfg(nonlinearity=Nonlinearity.power_law(1e-300, 3.0),
                   dt_init=0.01, dt_min=1e-250, t_end=2.0, u_max=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(u0, cfg)
    assert traj.outcome == "blew_up" and traj.t_obs == traj.t[-1]
    assert 1e202 < traj.sup[-1] < (sys.float_info.max / 1e-300) ** (1 / 3)
    for k in range(1, len(traj.t)):
        cap = 0.5 / (3e-300 * traj.sup[k - 1] * traj.sup[k - 1])
        assert traj.dt[k] <= cap * (1.0 + 1e-12)


def test_a_step_to_a_state_whose_source_sum_overflows_is_a_blowup():
    """u' = u^2 from constant data 1.4e153 (dt = 0.5/F'(u0)): the first
    step's midpoint source still transforms, but the sum of F over the new
    state, its transform's mode 0, overflows. The step signals blowup, so
    the run ends as blew_up at t = 0 with the finite source integral of u0."""
    g = Grid(1, 8.0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(GridFunction(g, np.full(g.shape, 1.4e153)),
                   make_cfg(dt_min=1e-300, u_max=1e300))
    assert traj.outcome == "blew_up"
    assert traj.t == [0.0] and traj.t_obs == 0.0
    assert math.isfinite(traj.source_integral[0])


# ---------------------------------------------------------------------------
# step control: the floor, the embedded estimate and the audits
# ---------------------------------------------------------------------------

def dichotomy_cfg(**kw):
    """The README dichotomy's runs: p = 4 on the 1-D gaussian kernel."""
    base = dict(kernel=KernelSpec.gaussian(),
                nonlinearity=Nonlinearity.power_law(1.0, 4.0),
                dt_init=0.05, dt_min=1e-14, t_end=60.0, u_max=1e4)
    base.update(kw)
    return SimConfig(**base)


def dichotomy_data(scale):
    return GridFunction.gaussian(Grid(1, 128.0, 1024), mass=1.0,
                                 sigma=1.0).scaled(scale)


def fixed_rule(cfg, sup):
    """The step of a run without an error estimate: dt_init, or half the
    linearization time 1/F'(sup) where that is shorter."""
    dprime = cfg.nonlinearity.dfn(sup)
    return cfg.dt_init if dprime <= 0 else min(cfg.dt_init, 0.5 / dprime)


@pytest.mark.parametrize("scale, outcome", [(0.3, "reached_horizon"),
                                            (3.0, "blew_up")])
def test_no_step_is_shorter_than_the_fixed_rule(scale, outcome):
    """Every step is at least the fixed rule at the state it starts from,
    except one that lands on t_end. The decay run lengthens its steps past
    dt_init; the blowup run takes the fixed rule's steps."""
    cfg = dichotomy_cfg()
    traj = run(dichotomy_data(scale), cfg)
    assert traj.outcome == outcome and not traj.notes
    for k in range(1, len(traj.t)):
        if traj.t[k] != cfg.t_end:
            assert traj.dt[k] >= fixed_rule(cfg, traj.sup[k - 1])
    assert (max(traj.dt) > cfg.dt_init) == (outcome == "reached_horizon")


@pytest.mark.parametrize("step_tol", [None, 0.0])
def test_a_run_lands_on_t_end_without_a_sliver(monkeypatch, step_tol):
    """t accumulates by addition, so 1200 steps of 0.05 end at
    59.99999999999873; the run used to add a step of 1.27e-12 there (a
    full step, and a finite difference over 1e-12 in every series). The
    last step now lands on t_end. With _STEP_TOL = 0 no step lengthens, as
    in a run without an error estimate."""
    if step_tol is not None:
        monkeypatch.setattr(solver, "_STEP_TOL", step_tol)
    cfg = dichotomy_cfg()
    traj = run(dichotomy_data(0.3), cfg)
    assert traj.outcome == "reached_horizon"
    assert traj.t[-1] == cfg.t_end
    assert min(traj.dt[1:]) >= 1e-9 * cfg.t_end
    if step_tol == 0.0:
        assert len(traj.t) - 1 == 1200


def test_a_blowup_run_equals_a_loop_of_steps_at_the_fixed_rule():
    """C6's run (u' = u^2 from a mass-4 gaussian, dt_init = 1e-3): the
    estimate never allows a step longer than the fixed rule, so every step
    is that rule's, and the run equals a loop of bare steps bit for bit."""
    u0 = GridFunction.gaussian(Grid(1, 48.0, 1024), mass=4.0, sigma=1.0)
    cfg = make_cfg(dt_min=1e-18, t_end=1.5)
    traj = run(u0, cfg)
    assert traj.outcome == "blew_up" and traj.rejected_steps == 0
    u = u0
    for k, dt in enumerate(traj.dt[1:], 1):
        assert dt == fixed_rule(cfg, traj.sup[k - 1])
        u = step(u, cfg, dt)
    assert np.array_equal(u.values, traj.final_state.values)


def test_a_2d_run_at_the_floor_equals_a_loop_of_out_of_place_steps():
    """A 2-D run whose estimates never allow a step past the floor (the
    alpha = 2 fractional kernel, p = 2, n = 128, to t = 2): every trial but
    the one that lands on t_end is the fixed rule's, and none is rejected.
    Each step inverts its final update in place, and the run equals bit
    for bit a loop of bare steps whose inverse transforms all go through a
    fresh temporary."""
    u0 = GridFunction.gaussian(Grid(2, 24.0, 128), mass=2.0, sigma=1.5)
    cfg = make_cfg(kernel=KernelSpec.fractional(2.0), dt_init=0.05, t_end=2.0)
    irfft, spent = Grid.irfft, []

    def recorded(self, spectrum, overwrite=False):
        spent.append(overwrite)
        return irfft(self, spectrum, overwrite=overwrite)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Grid, "irfft", recorded)
        traj = run(u0, cfg)
    assert traj.outcome == "reached_horizon" and not traj.notes
    assert traj.rejected_steps == 0
    assert spent.count(True) == len(traj.t) - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Grid, "irfft", lambda self, spectrum, overwrite=False:
                   irfft(self, spectrum))
        u = u0
        for k, dt in enumerate(traj.dt[1:], 1):
            assert dt == fixed_rule(cfg, traj.sup[k - 1]) or traj.t[k] == cfg.t_end
            u = step(u, cfg, dt)
    assert np.array_equal(u.values, traj.final_state.values)


@pytest.mark.parametrize("data, cfg, dts", [
    (lambda: dichotomy_data(1.8552), dichotomy_cfg(t_end=30.0), (0.05, 0.2, 0.8)),
    (lambda: GridFunction.gaussian(Grid(2, 32.0, 128), mass=1.0, sigma=1.0),
     make_cfg(dt_init=0.01, t_end=1.0), (0.01, 0.04, 0.16)),
    (lambda: GridFunction.gaussian(Grid(1, 48.0, 1024), mass=4.0, sigma=1.0),
     make_cfg(t_end=0.5), (0.001, 0.004, 0.016)),
], ids=["readme-row-1.8552", "2d-gaussian-p2", "c6"])
def test_the_estimate_is_within_one_to_eight_times_the_kept_steps_error(data, cfg, dts):
    """From a state mid-run (the README dichotomy row 1.8552 at t = 30, a
    2-D gaussian-kernel run at t = 1, C6's data at t = 0.5), one step of
    each dt is compared with 64 steps of dt/64 from the same state. The
    step's estimate is within 1 to 8 times the kept step's true local
    error, in the same norm (L2, relative to the state's). The midpoint
    minus Euler difference overstated it 19 to 2135 times at these
    points."""
    u = run(data(), cfg).final_state
    g, F = u.grid, cfg.nonlinearity
    sym = generator_symbol_grid(cfg.kernel, g)

    def steps(dt, k):
        state, e_half = _state(u.values.copy(), g, F), _propagator(sym, dt / 2)
        for _ in range(k):
            state, _, est = _advance(state, e_half, g, F.fn, dt)
        return state.values, est

    norm = np.linalg.norm(u.values)
    for dt in dts:
        kept, est = steps(dt, 1)
        true = np.linalg.norm(kept - steps(dt / 64, 64)[0]) / norm
        assert 1.0 <= est / true <= 8.0


def test_a_rejected_step_keeps_its_state_and_its_retry_is_a_fresh_step():
    """A step whose estimate exceeds tol spends both spectra and rebuilds
    its state in them: the values keep their bits, each spectrum is
    transformed again into its own buffer with the bits of a fresh
    state's, and the step from the returned state equals the step from a
    fresh state bit for bit."""
    g = Grid(1, 16.0, 128)
    F = Nonlinearity.power_law(1.0, 2.0)
    sym = generator_symbol_grid(KernelSpec.gaussian(), g)
    u0 = GridFunction.gaussian(g, mass=4.0, sigma=1.0).values

    def fresh():
        return _state(u0.copy(), g, F,
                      source_spectrum=np.empty(g.n // 2 + 1, dtype=complex))

    state = fresh()
    values = state.values.copy()
    kept, f_mid_sum, est = _advance(state, _propagator(sym, 0.5 / 2), g,
                                    F.fn, 0.5, tol=1e-9)
    assert f_mid_sum is None and est > 1e-9
    assert kept.values is state.values and kept.spectrum is state.spectrum
    assert kept.source_spectrum is state.source_spectrum
    assert np.array_equal(kept.values, values)
    for a, b in zip(kept, fresh()):
        assert np.array_equal(a, b)
    e_half = _propagator(sym, 0.1 / 2)
    retried, fresh_step = (_advance(s, e_half, g, F.fn, 0.1)
                           for s in (kept, fresh()))
    assert retried[1:] == fresh_step[1:]
    for a, b in zip(retried[0], fresh_step[0]):
        assert np.array_equal(a, b)


def test_rejected_steps_are_retried_from_the_same_state(monkeypatch):
    """With the controller pushed to lengthen by 5x after every step within
    tolerance, the decay run meets rejections; each retry starts from the
    state the rejected step left, so the run still equals a loop of bare
    steps at its recorded dt."""
    ratio = solver._step_ratio
    monkeypatch.setattr(solver, "_step_ratio", lambda est: solver._MAX_GROWTH
                        if est <= solver._STEP_TOL else ratio(est))
    cfg = dichotomy_cfg(t_end=20.0)
    u0 = dichotomy_data(0.3)
    traj = run(u0, cfg)
    assert traj.outcome == "reached_horizon" and traj.rejected_steps > 0
    u = u0
    for dt in traj.dt[1:]:
        u = step(u, cfg, dt)
    assert np.array_equal(u.values, traj.final_state.values)


def test_a_decay_run_takes_a_tenth_of_the_fixed_steps_at_the_same_error():
    """C8 at a quarter of its size (p = 4, mass 0.3, dt_init = 0.25, to
    t = 400): the fixed rule takes 1600 steps of dt_init. The run takes at
    most a tenth of them, and its final state is within 1.05 times the
    fixed rule's distance from a dt_init/16 reference (max relative)."""
    g = Grid(1, 256.0, 1024)
    cfg = dichotomy_cfg(dt_init=0.25, dt_min=1e-10, t_end=400.0, u_max=1e8)
    u0 = GridFunction.gaussian(g, mass=0.3, sigma=1.0)
    F = cfg.nonlinearity
    sym = generator_symbol_grid(cfg.kernel, g)

    def fixed(dt):
        state = _state(u0.values.copy(), g, F)
        e_half = _propagator(sym, dt / 2)
        for _ in range(round(cfg.t_end / dt)):
            state = _advance(state, e_half, g, F.fn, dt)[0]
        return state.values

    traj = run(u0, cfg)
    assert traj.outcome == "reached_horizon" and traj.grid == g
    steps = round(cfg.t_end / cfg.dt_init)
    assert len(traj.t) - 1 <= steps / 10
    reference = fixed(cfg.dt_init / 16)

    def error(values):
        return np.max(np.abs(values - reference)) / np.max(reference)

    assert error(traj.final_state.values) <= 1.05 * error(fixed(cfg.dt_init))


@pytest.mark.parametrize("cfg, data", [
    (make_cfg(t_end=0.2), lambda: GridFunction.gaussian(
        Grid(1, 32.0, 1024), mass=2.0, sigma=1.0)),
    (dichotomy_cfg(), lambda: dichotomy_data(0.3)),
], ids=["fixed-steps", "lengthened"])
def test_audits_come_after_16_steps_or_16_dt_init_of_time(monkeypatch, cfg, data):
    """The support audit falls on u0, before the first step, then on the
    first step that completes 16 steps or 16 dt_init of time since the last
    audit, and on the last step. A run of dt_init steps (C5's data) is
    audited on every 16th step, as before the estimate; a lengthened run
    more often in steps."""
    accepted, audited = [0], []
    advance, support_ok = solver._advance, solver._support_ok

    def counted_advance(*args, **kw):
        out = advance(*args, **kw)
        accepted[0] += out[1] is not None
        return out

    def recorded_support_ok(values, grid):
        audited.append(accepted[0])
        return support_ok(values, grid)

    monkeypatch.setattr(solver, "_advance", counted_advance)
    monkeypatch.setattr(solver, "_support_ok", recorded_support_ok)
    traj = run(data(), cfg)
    assert traj.outcome == "reached_horizon" and traj.t[-1] == cfg.t_end
    assert audited[0] == 0
    span = 16 * cfg.dt_init
    last = 0
    for k in range(1, len(traj.t)):
        due = (k - last >= 16 or traj.t[k] - traj.t[last] >= span
               or k == len(traj.t) - 1)
        assert (k in audited) == due
        last = k if due else last
    if max(traj.dt) == cfg.dt_init:
        assert audited == list(range(0, len(traj.t) - 1, 16)) + [len(traj.t) - 1]
    else:
        assert len(audited) - 1 > (len(traj.t) - 1) / 16



def scripted_trials(cfg, script):
    """Drive the controller as run does, without a step: each pair of the
    script is (F'(sup), estimate), the estimate being the trial's own; a
    trial whose estimate exceeds its tol is rejected and keeps t. Each trial
    is checked against the rule of the module docstring. Returns (t, trial,
    rejected) per trial, and (t, None, None) where the controller ends the
    run."""
    control, t, out, proposal = solver._Controller(cfg), 0.0, [], 0.0
    for dprime, est in script:
        trial = control.propose(t, dprime)
        cap = math.inf if dprime <= 0 else 0.5 / dprime
        floor = min(cfg.dt_init, cap)
        if floor < cfg.dt_min:
            assert trial is None
            return out + [(t, None, None)]
        dt = min(cap, max(floor, proposal))
        if cfg.t_end - (t + dt) <= solver._T_END_RTOL * cfg.t_end:
            assert trial.dt == cfg.t_end - t and trial.end == cfg.t_end
        else:
            assert trial.dt == pytest.approx(dt, rel=1e-14) and trial.end == t + trial.dt
        # tol is set by the trial before it lands
        assert trial.tol == (solver._STEP_TOL if dt > floor else math.inf)
        rejected = est > trial.tol
        control.verdict(trial, est)
        # the docstring's proposal: dt min(5, 0.9 (tol/est)^(1/3)), and 0
        # (the floor) for a non-finite estimate
        proposal = trial.dt * (min(5.0, 0.9 * (solver._STEP_TOL / est) ** (1 / 3))
                               if math.isfinite(est) else 0.0)
        out.append((t, trial, rejected))
        t = t if rejected else trial.end
    return out


def test_the_controller_lengthens_by_at_most_max_growth():
    """With estimates far below _STEP_TOL each trial is _MAX_GROWTH times
    the last, up to the stability cap; an estimate of _STEP_TOL allows 0.9
    times the step."""
    cfg = make_cfg(dt_init=1e-3, t_end=1e6)
    script = ([(0.0, 1e-20)] * 6 + [(50.0, 1e-20)] * 2 + [(0.0, solver._STEP_TOL)]
              + [(0.0, 1e-20)] * 2)
    trials = scripted_trials(cfg, script)
    dts = [trial.dt for _, trial, _ in trials]
    assert not any(rejected for _, _, rejected in trials)
    assert all(b <= solver._MAX_GROWTH * a for a, b in zip(dts, dts[1:]))
    assert dts[:6] == pytest.approx([1e-3 * 5.0 ** k for k in range(6)], rel=1e-14)
    assert dts[6:8] == [0.01, 0.01]                   # the cap 0.5/50
    assert dts[8:] == pytest.approx([0.05, 0.045, 0.225], rel=1e-14)


def test_the_controller_never_rejects_a_trial_at_the_floor():
    """A lengthened trial whose estimate exceeds _STEP_TOL is rejected and
    retried shorter from the same t, down to the floor; a trial at the
    floor is accepted whatever its estimate, infinite included."""
    cfg = make_cfg(dt_init=0.01, t_end=1e6)
    script = [(0.0, 1e-20)] * 3 + [(0.0, 1e-3)] * 3 + [(0.0, math.inf), (0.0, 1.0)]
    trials = scripted_trials(cfg, script)
    assert [rejected for _, _, rejected in trials] == [False] * 3 + [True] * 2 + [False] * 3
    assert trials[3][0] == trials[4][0] == trials[5][0]
    assert trials[4][1].dt < trials[3][1].dt
    for _, trial, _ in trials[5:]:
        assert trial.dt == cfg.dt_init and trial.tol == math.inf


def test_a_nonfinite_estimate_is_accepted_and_sends_the_next_trial_to_the_floor():
    """A NaN estimate on a lengthened trial does not reject it, and the next
    trial is the floor; an infinite one at the floor does the same. An
    infinite one on a lengthened trial exceeds _STEP_TOL, so that trial is
    rejected, and its retry is the floor."""
    cfg = make_cfg(dt_init=0.01, t_end=1e6)
    trials = scripted_trials(cfg, [(0.0, 1e-20), (0.0, math.nan), (0.0, math.inf),
                                   (0.0, 1e-20), (0.0, math.inf), (0.0, 1e-20)])
    assert [rejected for _, _, rejected in trials] == [False] * 4 + [True, False]
    assert trials[1][1].dt == 0.05 and trials[1][1].tol == solver._STEP_TOL
    assert [trial.dt for _, trial, _ in trials] == [0.01, 0.05, 0.01, 0.01, 0.05, 0.01]


def test_a_landing_leaves_no_sliver_before_t_end():
    """Ten steps of 0.1 from 0 reach 0.9999999999999999, so the tenth
    lands on t_end = 1; a trial that would pass t_end lands on it too, at
    the floor and lengthened. No trial ends past t_end, and none within
    _T_END_RTOL * t_end of it but on it."""
    for t_end, est in ((1.0, 1.0), (0.95, 1.0), (1.0, 1e-20)):
        cfg = make_cfg(dt_init=0.1, t_end=t_end)
        trials = scripted_trials(cfg, [(0.0, est)] * 12)
        ends = [trial.end for _, trial, _ in trials]
        last = ends.index(t_end)
        assert all(t_end - end > solver._T_END_RTOL * t_end for end in ends[:last])
    t = sum([0.1] * 9)
    assert 0.0 < 1.0 - (t + 0.1) <= solver._T_END_RTOL
    trial = solver._Controller(make_cfg(dt_init=0.1, t_end=1.0)).propose(t, 0.0)
    assert trial == (1.0 - t, math.inf, 1.0)


def test_the_controller_ends_the_run_once_the_floor_falls_below_dt_min():
    """The floor follows the stability cap 0.5/F'(sup) down; the first
    proposal whose floor is below dt_min is None, which run reports as
    dt_underflow."""
    cfg = make_cfg(dt_init=1e-3, dt_min=1e-6, t_end=1e6)
    trials = scripted_trials(cfg, [(10.0 ** k, 1.0) for k in range(3, 9)])
    assert [trial.dt for _, trial, _ in trials[:-1]] == [0.5 / 10.0 ** k for k in range(3, 6)]
    assert trials[-1][1] is None and len(trials) == 4
