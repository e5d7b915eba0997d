"""Release gate: twelve self-contained checks over the public API.

Each check pins a closed form, an identity between two independent
computation routes, or a fitted scaling law, with an explicit tolerance.
``PRESETS`` names each check with its criterion and the parameters its
manifest records; ``run_check`` executes one by name. The CLI ``selftest``
subcommand and the test suite both read this one table, so a green
selftest and a green test run certify the same facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from .asymptotics import sweep_K, sweep_L, window_lower_bound
from .blowup import CriterionInput, evaluate_criterion, moment_at_zero
from .kernels import Grid, GridFunction, KernelSpec, semigroup_kernel, stable_profile
from .nonlinearity import Nonlinearity, OsgoodTransform
from .norms import concentration_values, radial_concentration
from .numutil import log_grid, loglog_slope
from .solver import SimConfig, jensen_report, run
from .specfun import sphere_area
from .stationary import SingularSolution, singular_constant, singular_profile, \
    stationary_residual

__all__ = ["CheckResult", "PRESETS", "Preset", "TOLERANCE_VERSION", "run_check"]

# bumped whenever any tolerance or frozen parameter below changes, so a
# manifest pins the exact gate it was produced under
TOLERANCE_VERSION = "1"


@dataclass
class CheckResult:
    criterion: str                     # "C1" .. "C12"
    name: str                          # preset name
    passed: bool = True
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    tables: Dict[str, tuple] = field(default_factory=dict)

    def add(self, label: str, ok: bool, detail: str) -> None:
        self.checks.append((label, bool(ok), detail))
        self.passed = self.passed and bool(ok)

    def add_rel(self, label: str, value: float, target: float, tol: float) -> None:
        err = abs(value / target - 1.0)
        self.add(label, err <= tol,
                 f"value={value!r} target={target!r} rel_err={err:.3e} tol={tol:g}")

    def table(self, name: str, header, rows, metadata=None) -> None:
        self.tables[name] = (tuple(header), [tuple(r) for r in rows],
                             dict(metadata or {}))


# -- C1 ----------------------------------------------------------------------

def constants_closed_forms(res: CheckResult) -> None:
    sigma3 = sphere_area(3)
    res.add_rel("sphere_area(3) = 4*pi", sigma3, 4.0 * math.pi, 1e-12)
    s = singular_constant(2.0, 5, 3.0)
    res.add_rel("singular_constant(2,5,3) = sqrt(2)", s, math.sqrt(2.0), 1e-12)
    c22 = OsgoodTransform(Nonlinearity.power_law(1.0, 2.0)).h_inverse(1.0)
    res.add("OsgoodTransform(Nonlinearity.power_law(1, 2)).h_inverse(1) = 1 exactly",
            c22 == 1.0, f"value={c22!r}")
    res.table("constants",
              ("name", "value", "target"),
              [("sigma_3", sigma3, 4.0 * math.pi),
               ("s_2_5_3", s, math.sqrt(2.0)),
               ("c_2_2", c22, 1.0)])


# -- C2 ----------------------------------------------------------------------

def osgood_round_trip(res: CheckResult) -> None:
    sources = [
        ("power", Nonlinearity.power_law(0.7, 2.6)),
        ("custom", Nonlinearity.custom(lambda u: u * u * (1.0 + u),
                                       lambda u: 2.0 * u + 3.0 * u * u,
                                       label="u^2 + u^3")),
    ]
    T_values = log_grid(1e-3, 1e3, 25)
    rows = []
    for kind, F in sources:
        tr = OsgoodTransform(F)
        worst = 0.0
        for T in T_values:
            back = tr.h(tr.h_inverse(float(T)))
            err = abs(back / T - 1.0)
            worst = max(worst, err)
            rows.append((kind, float(T), back, err))
        res.add(f"h(h_inverse(T)) = T, {kind} kind",
                worst <= 1e-9, f"max_rel_err={worst:.3e} tol=1e-09")
    res.table("round_trip", ("kind", "T", "round_trip", "rel_err"), rows)


# -- C3 ----------------------------------------------------------------------

def kernel_laws(res: CheckResult) -> None:
    grid = Grid(1, 48.0, 1024)
    specs = [("gaussian_like", KernelSpec.gaussian()),
             ("compact_bump", KernelSpec.bump()),
             ("heavy_tail_2.5", KernelSpec.heavy_tail(2.5)),
             ("pure_fractional_1.2", KernelSpec.fractional(1.2))]
    # Mass and composition are exact periodic-lattice identities, so tail
    # wrap-around is harmless here and the box audit would only reject the
    # heavy-tailed kinds for an irrelevant reason; keep the negativity audit.
    def kern(spec, t):
        return semigroup_kernel(spec, t, grid, boundary_tol=1.0)

    worst_mass = 0.0
    for label, spec in specs:
        for t in (0.5, 2.0):
            worst_mass = max(worst_mass, abs(kern(spec, t).mass() - 1.0))
    res.add("unit mass, four kernel kinds, t in {0.5, 2}",
            worst_mass <= 1e-8, f"max_defect={worst_mass:.3e} tol=1e-08")

    # k_{t+s} against the physical-space convolution of k_t and k_s
    worst_semi = 0.0
    for label, spec in (specs[0], specs[3]):
        kt = kern(spec, 0.7).values
        ks = kern(spec, 1.3).values
        kts = kern(spec, 2.0).values
        # a natural-layout kernel convolved with an origin-anchored one
        conv = grid.irfft(grid.rfft(kt) * grid.rfft(np.fft.ifftshift(ks))) \
            * grid.cell_volume
        worst_semi = max(worst_semi, float(np.max(np.abs(conv - kts))))
    res.add("semigroup composition k_0.7 * k_1.3 = k_2",
            worst_semi <= 1e-7, f"max_diff={worst_semi:.3e} tol=1e-07")

    rho = np.linspace(0.0, 10.0, 201)
    closed = stable_profile(1.0, 3)(rho)
    sub = stable_profile(1.0, 3, method="subordination")(rho)
    gap = float(np.max(np.abs(closed - sub)))
    res.add("alpha=1 profile, closed form vs subordination",
            gap <= 1e-7, f"sup_diff={gap:.3e} tol=1e-07 on rho in [0, 10]")
    res.table("profile_agreement",
              ("rho", "closed", "subordinated", "diff"),
              [(float(r), float(c), float(s), float(abs(c - s)))
               for r, c, s in zip(rho, closed, sub)])


# -- C4 ----------------------------------------------------------------------

def gaussian_approximation(res: CheckResult) -> None:
    spec = KernelSpec.gaussian()
    grid = Grid(1, 48.0, 2048)
    # the diffusivity: the symbol is e^(-|xi|^2) = 1 - |xi|^2 + ...
    A = 1.0
    x = grid.axis()
    rows = []
    scaled = []
    for t in (1.0, 2.0, 4.0, 8.0, 16.0):
        # the lattice kernel keeps an exp(-t) point atom whose frequency
        # truncation rings at that amplitude; the boundary audit must sit
        # above it (exp(-16) ~ 1.1e-7), and the atom itself is part of the
        # approximation error being measured
        k = semigroup_kernel(spec, t, grid, boundary_tol=1e-6).values
        G = np.exp(-x * x / (4.0 * A * t)) / math.sqrt(4.0 * math.pi * A * t)
        sup = float(np.max(np.abs(k - G)))
        scaled.append(math.sqrt(t) * sup)
        rows.append((t, sup, scaled[-1]))
    drops = all(b < a for a, b in zip(scaled, scaled[1:]))
    res.add("sqrt(t) * sup|k_t - G_t| strictly decreasing over t in {1,2,4,8,16}",
            drops, "sequence=" + ", ".join(f"{v:.3e}" for v in scaled))
    res.table("approximation", ("t", "sup_diff", "scaled_diff"), rows,
              {"diffusivity": A})


# -- C5 ----------------------------------------------------------------------

def jensen_chain(res: CheckResult) -> None:
    grid = Grid(1, 32.0, 1024)
    F = Nonlinearity.power_law(1.0, 2.0)
    u0 = GridFunction.gaussian(grid, mass=2.0, sigma=1.0)
    cfg = SimConfig(kernel=KernelSpec.gaussian(), nonlinearity=F,
                    dt_init=1e-3, dt_min=1e-12, t_end=0.45,
                    moment_targets=(0.5, 1.0, 2.0))
    traj = run(u0, cfg)
    rows = []
    for T in cfg.moment_targets:
        jr = jensen_report(traj, F, T)
        rows.append((T, jr.steps, jr.fraction_ok, jr.min_margin,
                     jr.integrated_lhs, jr.elapsed))
        res.add(f"dW/dt >= F(W) - tol at >= 99% of steps, T={T:g}",
                jr.fraction_ok >= 0.99,
                f"fraction_ok={jr.fraction_ok:.6f} min_margin={jr.min_margin:.3e}")
        res.add(f"h(W(0)) - h(W(t)) >= 0.9999*t, T={T:g}",
                jr.integrated_ok,
                f"lhs={jr.integrated_lhs!r} elapsed={jr.elapsed!r}")
    res.table("jensen",
              ("T", "steps", "fraction_ok", "min_margin",
               "integrated_lhs", "elapsed"), rows)


# -- C6 ----------------------------------------------------------------------

def criterion_soundness(res: CheckResult) -> None:
    grid = Grid(1, 48.0, 1024)
    F = Nonlinearity.power_law(1.0, 2.0)
    kernel = KernelSpec.gaussian()
    u0 = GridFunction.gaussian(grid, mass=4.0, sigma=1.0)

    verdict = evaluate_criterion(CriterionInput(u0=u0, kernel=kernel,
                                                nonlinearity=F))
    res.add("threshold criterion fires on the horizon grid",
            verdict.classification == "criterion_met" and verdict.T_star is not None,
            f"classification={verdict.classification} T_star={verdict.T_star!r}")

    T_star = verdict.T_star if verdict.T_star is not None else math.inf
    cfg = SimConfig(kernel=kernel, nonlinearity=F, dt_init=1e-3,
                    dt_min=1e-18, t_end=2.0 * min(T_star, 1e3))
    traj = run(u0, cfg)
    res.add("solver reaches the sup threshold",
            traj.outcome == "blew_up", f"outcome={traj.outcome} t_obs={traj.t_obs!r}")
    if traj.outcome == "blew_up" and verdict.T_star is not None:
        ratio = traj.t_obs / verdict.T_star
        res.add("t_obs <= 1.1 * T_star", ratio <= 1.1,
                f"t_obs={traj.t_obs!r} T_star={verdict.T_star!r} ratio={ratio:.4f}")
    res.add("support audit clean", traj.reliable,
            "notes=" + ("; ".join(traj.notes) if traj.notes else "none"))
    res.table("criterion_curve",
              ("T", "moment", "horizon_level", "ratio", "reliable"),
              [(pt.T, pt.moment, pt.horizon_level, pt.ratio, pt.reliable)
               for pt in verdict.curve],
              {"T_star": verdict.T_star, "t_obs": traj.t_obs,
               "outcome": traj.outcome})


# -- C7 ----------------------------------------------------------------------

def fujita_growth(res: CheckResult) -> None:
    from .norms import RadialProfile
    u0 = RadialProfile.from_function(1, lambda r: 2.0 * np.exp(-r * r),
                                     r_min=1e-3, r_max=50.0)
    kernel = KernelSpec.fractional(2.0)
    p = 2.5
    e = 1.0 / (p - 1.0)
    T_values = log_grid(10.0, 1e4, 25)
    stats, rows = [], []
    for T in T_values:
        W = moment_at_zero(u0, kernel, float(T))
        stat = float(T) ** e * W
        stats.append(stat)
        rows.append((float(T), W, stat))
    slope = loglog_slope(T_values, stats)
    target = e - 1.0 / 2.0  # growth exponent 1/(p-1) - d/alpha at d=1, alpha=2
    res.add("fitted growth exponent of T^(1/(p-1)) W_T(0) within 5% of 1/6",
            abs(slope / target - 1.0) <= 0.05,
            f"slope={slope:.6f} target={target:.6f} rel_err={abs(slope/target-1):.3e}")
    res.table("growth", ("T", "W", "scaled_moment"), rows,
              {"slope": slope, "target": target})


# -- C8 ----------------------------------------------------------------------

def dichotomy_decay(res: CheckResult) -> None:
    grid = Grid(1, 512.0, 4096)
    F = Nonlinearity.power_law(1.0, 4.0)
    u0 = GridFunction.gaussian(grid, mass=0.3, sigma=1.0)
    cfg = SimConfig(kernel=KernelSpec.gaussian(), nonlinearity=F,
                    dt_init=0.25, dt_min=1e-10, t_end=1e3)
    traj = run(u0, cfg)
    res.add("small datum survives to t = 1e3",
            traj.outcome == "reached_horizon", f"outcome={traj.outcome}")
    t = np.asarray(traj.t)
    sup = np.asarray(traj.sup)
    late = t >= 10.0
    stat = t[late] ** (1.0 / 3.0) * sup[late]
    slope = loglog_slope(t[late], stat)
    res.add("t^(1/3) sup u shows no growth trend (slope <= 0.02)",
            slope <= 0.02, f"slope={slope:.6f} bound=0.02")
    keep = np.unique(np.geomspace(1, t.size - 1, 200).astype(int))
    res.table("decay",
              ("t", "sup_u", "scaled_sup"),
              [(float(t[i]), float(sup[i]), float(t[i] ** (1.0 / 3.0) * sup[i]))
               for i in keep if t[i] > 0],
              {"slope": slope})


# -- C9 ----------------------------------------------------------------------

def morrey_closed_form(res: CheckResult) -> None:
    sol = SingularSolution(2.0, 5, 3.0)
    prof = singular_profile(sol)
    target = sphere_area(5) * math.sqrt(2.0) / 4.0
    value = radial_concentration(prof, 3.0, 2.0).value
    res.add_rel("concentration of sampled steady state = sigma_5 sqrt(2)/4",
                value, target, 1e-5)
    r_values = log_grid(0.1, 10.0, 9)
    rows = concentration_values(prof, 3.0, 2.0, r_values)
    vals = np.array([v for _, v in rows])
    spread = float(vals.max() / vals.min() - 1.0)
    res.add("r-independence across two decades", spread <= 1e-6,
            f"relative_spread={spread:.3e} tol=1e-06")
    res.table("concentration", ("r", "value"), rows,
              {"closed_form": target, "sup_value": value})


# -- C10 ---------------------------------------------------------------------

def stationary_residual_check(res: CheckResult) -> None:
    r1 = stationary_residual(SingularSolution(1.0, 3, 3.0), probe_radius=1.0)
    res.add("alpha=1, d=3, p=3 hypersingular residual <= 1e-3",
            abs(r1) <= 1e-3, f"residual={r1:.3e} tol=1e-03")
    r2 = stationary_residual(SingularSolution(2.0, 5, 3.0), probe_radius=1.0)
    res.add("alpha=2 symbolic residual <= 1e-10",
            abs(r2) <= 1e-10, f"residual={r2:.3e} tol=1e-10")
    res.table("residuals", ("alpha", "d", "p", "residual"),
              [(1.0, 3, 3.0, r1), (2.0, 5, 3.0, r2)])


# -- C11 ---------------------------------------------------------------------

def asymptotic_orders(res: CheckResult) -> None:

    rep_K = sweep_K(2.0, 3.0, [400.0, 800.0])
    ratio = abs(rep_K.verdict["last_pair_ratio"])
    res.add("|K(800)/K(400) - 1| <= 0.02 at alpha=2, p=3",
            ratio <= 0.02, f"pair_ratio={ratio:.3e} bound=0.02")

    d_slope = [round(v) for v in log_grid(100, 1000, 7)]
    rep_Lg = sweep_L(2.0, 2.0, d_slope)
    slope = rep_Lg.verdict["slope"]
    pred = rep_Lg.verdict["predicted_slope"]
    res.add("log-log slope of L sigma_d (alpha=2, p=2) within 0.02 of -1/2",
            abs(slope - pred) <= 0.02, f"slope={slope:.4f} predicted={pred}")
    rep_pair = sweep_L(2.0, 2.0, [400.0, 800.0])
    pair = abs(rep_pair.verdict["normalized_last_pair_ratio"])
    res.add("normalized L ratio at d = 400 / 800 stable to 2%",
            pair <= 0.02, f"pair_ratio={pair:.3e} bound=0.02")

    rep_Lf = sweep_L(1.0, 3.0, list(range(3, 51)))
    band = rep_Lf.verdict["normalized_band_hi"] / rep_Lf.verdict["normalized_band_lo"]
    res.add("L sigma_d d^(1/4) (alpha=1, p=3) two-sided over d in [3, 50]",
            band <= 5.0, f"band_max_over_min={band:.4f} bound=5")
    rep_Lf_slope = sweep_L(1.0, 3.0, list(range(10, 51)))
    fslope = rep_Lf_slope.verdict["slope"]
    fpred = rep_Lf_slope.verdict["predicted_slope"]
    res.add("fractional L slope over d in [10, 50] within 0.05 of -1/4",
            abs(fslope - fpred) <= 0.05, f"slope={fslope:.4f} predicted={fpred}")

    res.table("K_sweep", ("d", "K"),
              list(zip(rep_K.d_values, rep_K.values)))
    res.table("L_gaussian_sweep", ("d", "L", "normalized", "rho0"),
              list(zip(rep_Lg.d_values, rep_Lg.values, rep_Lg.normalized,
                       rep_Lg.aux)),
              {"slope": slope, "predicted_slope": pred})
    res.table("L_fractional_sweep", ("d", "L_lower", "normalized", "rho0"),
              list(zip(rep_Lf.d_values, rep_Lf.values, rep_Lf.normalized,
                       rep_Lf.aux)),
              {"band_ratio": band, "slope_10_50": fslope})


# -- C12 ---------------------------------------------------------------------

def window_bound(res: CheckResult) -> None:
    d_values = [10, 20, 50, 100, 200, 500, 1000]
    rows = []
    worst = math.inf
    for d in d_values:
        eta = window_lower_bound(1.0, d, 3.0)
        worst = min(worst, eta)
        rows.append((d, eta))
    res.add("window efficiency eta(d) >= 0.05 for sampled d up to 1000",
            worst >= 0.05, f"min_eta={worst:.6f} bound=0.05")
    res.table("window", ("d", "eta"), rows, {"limit": math.exp(-1.0)})


class Preset(NamedTuple):
    """One release-gate experiment: the criterion it certifies, its check,
    the modules it drives and the frozen parameters its manifest records."""

    criterion: str
    check: Callable[[CheckResult], None]
    targets: Tuple[str, ...]
    bindings: Dict[str, object]


PRESETS: Dict[str, Preset] = {
    "constants-closed-forms": Preset(
        "C1", constants_closed_forms, ("specfun", "stationary", "nonlinearity"),
        {"alpha": 2.0, "d": 5, "p": 3.0}),
    "osgood-round-trip": Preset(
        "C2", osgood_round_trip, ("nonlinearity",),
        {"T_range": "1e-3..1e3", "kinds": "power,custom"}),
    "kernel-laws": Preset(
        "C3", kernel_laws, ("kernels",),
        {"grid": "L=48 n=1024", "kinds": 4}),
    "gaussian-approximation": Preset(
        "C4", gaussian_approximation, ("kernels",),
        {"d": 1, "t": "1,2,4,8,16", "L": 48.0, "n": 2048}),
    "jensen-chain": Preset(
        "C5", jensen_chain, ("solver", "nonlinearity"),
        {"d": 1, "p": 2.0, "mass": 2.0, "targets": "0.5,1,2", "t_end": 0.45}),
    "criterion-soundness": Preset(
        "C6", criterion_soundness, ("blowup", "solver"),
        {"d": 1, "p": 2.0, "mass": 4.0, "L": 48.0, "n": 1024}),
    "fujita-growth": Preset(
        "C7", fujita_growth, ("blowup", "norms"),
        {"d": 1, "p": 2.5, "alpha": 2.0, "T_range": "10..1e4"}),
    "dichotomy-decay": Preset(
        "C8", dichotomy_decay, ("solver",),
        {"d": 1, "p": 4.0, "mass": 0.3, "L": 512.0, "n": 4096, "t_end": 1e3}),
    "morrey-closed-form": Preset(
        "C9", morrey_closed_form, ("norms", "stationary"),
        {"alpha": 2.0, "d": 5, "p": 3.0}),
    "stationary-residual": Preset(
        "C10", stationary_residual_check, ("stationary",),
        {"cases": "(1,3,3),(2,5,3)"}),
    "asymptotic-orders": Preset(
        "C11", asymptotic_orders, ("asymptotics",),
        {"K": "alpha=2 p=3 d=400,800", "L_gauss": "p=2 d=100..1000",
         "L_frac": "alpha=1 p=3 d=3..50"}),
    "window-bound": Preset(
        "C12", window_bound, ("asymptotics",),
        {"alpha": 1.0, "p": 3.0, "d": "10..1000"}),
}


def run_check(name: str) -> CheckResult:
    """Run one preset's check; KeyError for a name not in PRESETS."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from "
                       + ", ".join(PRESETS))
    res = CheckResult(PRESETS[name].criterion, name)
    PRESETS[name].check(res)
    return res
