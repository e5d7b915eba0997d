"""The three workloads, their seeded job lists, oracles and known-defect probes.

A job is one call a user of blowlab would make. ``Job.run`` is the only part
inside the timed region; ``Job.check`` (the oracle) and ``Job.fingerprint``
(compared between passes) run after the pass has been timed.

* ``gate``: the twelve selftest presets and the seven README examples, each
  through ``cli.main`` into a fresh $BLOWLAB_OUTDIR. The seed only permutes
  their order.
* ``lattice2d``: d = 2 criterion sweeps and solver runs at n = 256, with
  masses, widths and centers drawn from the seed.
* ``profiles``: stable-profile points at generic order, stratified in rho,
  plus alpha = 1 subordination points and general-d stationary residuals.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import jv

import blowlab
from blowlab import cli

# sizes a smoke check uses; the full sizes are the defaults below
SIZES = ("full", "smoke")


@dataclass
class Job:
    name: str
    run: Callable[[Path], Any]            # timed; gets a fresh directory
    check: Callable[[Any, Path], List[str]]  # oracle; returns failures
    fingerprint: Callable[[Any, Path], Any]  # must repeat between passes
    metric: str = ""                      # per-job timing metric, if any


def build(workload: str, seed: int, size: str = "full") -> List[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = BUILDERS[workload](rng, size)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

README_EXAMPLES = (
    "constants --alpha 2 --d 5 --p 3",
    "kernel --kind fractional --alpha 1.0 --radial --d 3",
    "criterion --profile gauss --mass 4 --p 2",
    "simulate --profile gauss --mass 2 --p 2 --t-end 0.5 --targets 0.5,1",
    "sweep-L --alpha 1 --p 3 --d 10:50",
    "dichotomy --p 4 --scales 0.3,1,3,10",
    "selftest --only kernel-laws",
)
SMOKE_PRESETS = ("constants-closed-forms", "morrey-closed-form")


def _cli_job(name: str, argv: List[str], metric: str, pass_line: str) -> Job:
    def run(outdir: Path):
        os.environ["BLOWLAB_OUTDIR"] = str(outdir)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            status = cli.main(argv)
        return status, text.getvalue()

    def check(result, outdir: Path) -> List[str]:
        status, text = result
        bad = [f"{name}: exit status {status}"] if status != 0 else []
        bad += [f"{name}: {ln.strip()}" for ln in text.splitlines()
                if "[FAIL]" in ln]
        if pass_line not in text:
            bad.append(f"{name}: missing line {pass_line!r}")
        if not any(outdir.rglob("*.csv")):
            bad.append(f"{name}: wrote no CSV artifact")
        return bad

    return Job(name, run, check, lambda result, outdir: _tree_digest(outdir),
               metric)


def _gate_jobs(rng: random.Random, size: str) -> List[Job]:
    presets = SMOKE_PRESETS if size == "smoke" else tuple(cli.PRESETS)
    examples = README_EXAMPLES[:1] if size == "smoke" else README_EXAMPLES
    jobs = []
    for name in presets:
        crit = cli.PRESETS[name].criterion
        jobs.append(_cli_job(crit, ["selftest", "--only", name],
                             f"acceptance.{crit}.s", f"{crit} {name}: PASS"))
    for ex in examples:
        argv = ex.split()
        last = "selftest: PASS" if argv[0] == "selftest" else "wrote "
        jobs.append(_cli_job(argv[0], argv, f"cli.{argv[0]}.s", last))
    return jobs


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# lattice2d
# ---------------------------------------------------------------------------

# closed-form h(w) = int_w^inf du/F(u) for the sources the jobs use; an
# independent route to the quadrature inside OsgoodTransform
def _h_power(p):
    return lambda w: w ** (1.0 - p) / (p - 1.0)


def _h_power_sum_2_3(w):
    # 1/(u^2 (1 + u)) = 1/u^2 - 1/u + 1/(1 + u)
    return 1.0 / w - math.log1p(1.0 / w)


def _h_exponential(w):
    return -math.log(-math.expm1(-w))


SOURCES = {
    "power": (lambda: blowlab.Nonlinearity.power_law(1.0, 3.0), _h_power(3.0)),
    "power-sum": (lambda: blowlab.Nonlinearity.power_sum(1.0, 2.0, 1.0, 3.0),
                  _h_power_sum_2_3),
    "exponential": (lambda: blowlab.Nonlinearity.exponential(1.0),
                    _h_exponential),
}
KERNELS = {
    "gauss": lambda: blowlab.KernelSpec.gaussian(),
    "bump": lambda: blowlab.KernelSpec.bump(),
    "frac1.5": lambda: blowlab.KernelSpec.fractional(1.5),
    "frac2": lambda: blowlab.KernelSpec.fractional(2.0),
}
# the exponential source's h_inverse drifts from the closed form beyond
# T ~ 14 and fails to bracket further out, so its sweep stops at T = 10;
# both defects are recorded by probes below
EXPONENTIAL_HORIZONS = tuple(np.geomspace(1e-3, 1e1, 30))
LAW_TOL = 1e-4       # integrated mass-production law, relative to final mass
CLOSED_FORM_TOL = 1e-12
H_ROUND_TRIP_TOL = 1e-9
SUP_TOL = 1e-8       # kernel negativity floor is 1e-9 of the kernel's sup


def _draw_gaussian(rng, grid, mass, sigma):
    m = rng.uniform(*mass)
    s = rng.uniform(*sigma)
    c = rng.randint(-3, 3) * grid.spacing   # a lattice point
    return m, s, blowlab.GridFunction.gaussian(grid, m, s, center=c)


def _criterion_job(rng, grid, kname, sname) -> Job:
    m, s, u0 = _draw_gaussian(rng, grid, (3.0, 5.0), (0.8, 1.2))
    make_F, h_closed = SOURCES[sname]
    horizons = EXPONENTIAL_HORIZONS if sname == "exponential" else None
    name = f"criterion-{kname}-{sname}"

    def run(outdir):
        return blowlab.evaluate_criterion(blowlab.CriterionInput(
            u0=u0, kernel=KERNELS[kname](), nonlinearity=make_F(),
            T_grid=horizons))

    def check(verdict, outdir) -> List[str]:
        bad = []
        sup0 = u0.sup()
        prev = math.inf
        for pt in verdict.curve:
            # the semigroup is a positive contraction: W_T <= sup u0, and
            # W_T does not increase with T
            if pt.moment > sup0 * (1 + SUP_TOL) or pt.moment > prev * (1 + SUP_TOL):
                bad.append(f"{name}: W_T={pt.moment!r} breaks the maximum "
                           f"principle at T={pt.T!r}")
            prev = pt.moment
            back = h_closed(pt.horizon_level)
            if abs(back / pt.T - 1.0) > H_ROUND_TRIP_TOL:
                bad.append(f"{name}: closed-form h(h_inverse(T))={back!r} "
                           f"at T={pt.T!r}")
            if kname == "frac2" and pt.reliable:
                exact = m / (2.0 * math.pi * (s * s + 2.0 * pt.T))
                if abs(pt.moment / exact - 1.0) > CLOSED_FORM_TOL:
                    bad.append(f"{name}: W_T={pt.moment!r}, closed form "
                               f"{exact!r} at T={pt.T!r}")
        if kname == "frac2" and not any(pt.reliable for pt in verdict.curve):
            bad.append(f"{name}: no reliable horizon to compare")
        return bad

    def fingerprint(verdict, outdir):
        return (verdict.classification, verdict.T_star,
                tuple((pt.T, pt.moment, pt.horizon_level, pt.reliable)
                      for pt in verdict.curve))

    return Job(name, run, check, fingerprint)


def _solver_job(rng, grid, name, kname, p, mass, sigma, t_end, targets) -> Job:
    *_, u0 = _draw_gaussian(rng, grid, mass, sigma)
    cfg = blowlab.SimConfig(
        kernel=KERNELS[kname](), nonlinearity=blowlab.Nonlinearity.power_law(1.0, p),
        dt_init=0.05, dt_min=1e-12, t_end=t_end, u_max=1e8,
        moment_targets=targets)

    def run(outdir):
        return blowlab.run(u0, cfg)

    def check(traj, outdir) -> List[str]:
        bad = []
        if traj.outcome != "reached_horizon":
            bad.append(f"{name}: outcome {traj.outcome} at t={traj.t_obs!r}")
        # dM/dt = int F(u): trapezoid over the recorded source integral,
        # second order in dt
        t = np.asarray(traj.t)
        M = np.asarray(traj.mass)
        S = np.asarray(traj.source_integral)
        produced = float(np.sum(0.5 * (S[1:] + S[:-1]) * np.diff(t)))
        defect = abs(M[-1] - M[0] - produced) / M[-1]
        if not defect <= LAW_TOL:
            bad.append(f"{name}: mass-production law defect {defect:.3e} "
                       f"> {LAW_TOL:g}")
        if set(traj.moments) != set(cfg.moment_targets):
            bad.append(f"{name}: moment series {sorted(traj.moments)}")
        return bad

    def fingerprint(traj, outdir):
        return (traj.outcome, tuple(traj.t), tuple(traj.mass),
                tuple(traj.notes), traj.final_state.values.tobytes())

    return Job(name, run, check, fingerprint)


def _lattice_jobs(rng: random.Random, size: str) -> List[Job]:
    if size == "smoke":
        grid = blowlab.Grid(2, 24.0, 128)   # the full grid's spacing
        return [_criterion_job(rng, grid, "frac2", "power"),
                _solver_job(rng, grid, "run-gauss-p2", "gauss", 2.0,
                            (1.5, 2.5), (0.9, 1.1), 0.2, (0.5,))]
    grid = blowlab.Grid(2, 48.0, 256)
    jobs = [_criterion_job(rng, grid, k, s)
            for k in KERNELS for s in ("power", "power-sum")]
    jobs.append(_criterion_job(rng, grid, "frac2", "exponential"))
    jobs += [
        _solver_job(rng, grid, "run-gauss-p2", "gauss", 2.0,
                    (1.5, 2.5), (0.9, 1.1), 1.0, (0.5, 1.0)),
        # heavy tails reach the box margin at t = 0.8 and 1.6: two doublings
        _solver_job(rng, grid, "run-frac1.5-p3", "frac1.5", 3.0,
                    (0.8, 1.2), (0.9, 1.1), 1.7, (1.0, 2.0)),
        _solver_job(rng, grid, "run-frac2-p2", "frac2", 2.0,
                    (1.5, 2.5), (1.3, 1.7), 2.0, (1.0,)),
    ]
    return jobs


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

PROFILE_TOL = 1e-6     # subordination against the single-integral routes
POISSON_TOL = 1e-9
RESIDUAL_TOL = 1e-3    # C10's tolerance for the hypersingular residual
RHO_STRATA = {"near": (0.1, 0.9), "mid": (1.1, 4.0), "far": (5.0, 10.0)}
# (d, alpha range, rho strata); alpha is drawn, never 1 or 2, in bands where
# a point costs 0.3 to 1.2 s
PROFILE_CELLS = (
    (1, (0.6, 0.9), ("near",)),
    (3, (0.6, 1.3), ("mid",)),
    (5, (1.2, 1.6), ("far",)),
)
# the slow corner of the subordination route. It is fixed rather than
# drawn: between rho = 5.0 and 5.4 its cost jumps between 4 and 14 s as
# QUADPACK's subdivision changes, which would make wall_s follow the seed.
# rho = 5.3 costs 4-5 s, which lets four passes fit a run
SLOW_CORNER = (1.4, 2, 5.3)
SMOKE_CELLS = ((1, (0.6, 0.9), ("near",)), (3, (0.6, 1.3), ("mid",)))


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _damped_integral(f, alpha, rho, **weight):
    """int_0^inf f(k) dk for an integrand damped by exp(-k^alpha): cut where
    exp(-k^alpha) < e^-50, in pieces of about ten periods of cos(k rho)."""
    k_max = 50.0 ** (1.0 / alpha)
    pieces = max(1, math.ceil(k_max * rho / (20.0 * math.pi)))
    edges = np.linspace(0.0, k_max, pieces + 1)
    total = err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v, e = quad(f, a, b, epsabs=1e-15, epsrel=1e-12, limit=200, **weight)
        total += v
        err += e
    return total, err


def cosine_route(alpha, rho):
    """d = 1: R(rho) = (1/pi) int_0^inf exp(-k^alpha) cos(k rho) dk."""
    val, err = _damped_integral(lambda k: math.exp(-k ** alpha), alpha, rho,
                                weight="cos", wvar=rho)
    return val / math.pi, err / math.pi


def hankel_route(alpha, d, rho):
    """d >= 2: R(rho) = (2 pi)^(-d/2) rho^(1-d/2)
    int_0^inf exp(-k^alpha) k^(d/2) J_(d/2-1)(k rho) dk."""
    nu = d / 2.0 - 1.0
    val, err = _damped_integral(
        lambda k: math.exp(-k ** alpha) * k ** (d / 2.0) * jv(nu, k * rho),
        alpha, rho)
    scale = (2.0 * math.pi) ** (-d / 2.0) * rho ** (1.0 - d / 2.0)
    return scale * val, scale * err


def _route_check(name, value, alpha, d, rho) -> List[str]:
    ref, err = cosine_route(alpha, rho) if d == 1 else hankel_route(alpha, d, rho)
    bad = []
    if err > 0.1 * PROFILE_TOL * abs(ref):
        bad.append(f"{name}: oracle error estimate {err:.2e} too large")
    if abs(value / ref - 1.0) > PROFILE_TOL:
        bad.append(f"{name}: R={value!r}, single-integral route {ref!r}")
    return bad


def _profile_job(alpha, d, rho) -> Job:
    name = f"profile-a{alpha:.3f}-d{d}-r{rho:.3f}"

    def run(outdir):
        return blowlab.stable_profile(alpha, d)(rho)

    return Job(name, run,
               lambda value, outdir: _route_check(name, value, alpha, d, rho),
               lambda value, outdir: value)


def poisson_closed_form(d, rho):
    return math.exp(math.lgamma((d + 1) / 2.0)
                    - ((d + 1) / 2.0) * math.log(math.pi)) \
        * (1.0 + rho * rho) ** (-(d + 1) / 2.0)


def _poisson_job(d, rho) -> Job:
    name = f"poisson-d{d}-r{rho:.3f}"

    def run(outdir):
        return blowlab.stable_profile(1.0, d, method="subordination")(rho)

    def check(value, outdir):
        ref = poisson_closed_form(d, rho)
        if abs(value / ref - 1.0) > POISSON_TOL:
            return [f"{name}: R={value!r}, Poisson closed form {ref!r}"]
        return []

    return Job(name, run, check, lambda value, outdir: value)


def _residual_job(alpha, d, p, radius) -> Job:
    name = f"residual-a{alpha:.3f}-d{d}"

    def run(outdir):
        return blowlab.stationary_residual(
            blowlab.SingularSolution(alpha, d, p), probe_radius=radius)

    def check(value, outdir):
        if not abs(value) <= RESIDUAL_TOL:
            return [f"{name}: residual {value!r} > {RESIDUAL_TOL:g}"]
        return []

    return Job(name, run, check, lambda value, outdir: value)


def _profile_jobs(rng: random.Random, size: str) -> List[Job]:
    jobs = []
    for d, (a_lo, a_hi), strata in (SMOKE_CELLS if size == "smoke"
                                   else PROFILE_CELLS):
        for stratum in strata:
            lo, hi = RHO_STRATA[stratum]
            jobs.append(_profile_job(rng.uniform(a_lo, a_hi), d,
                                     _log_uniform(rng, lo, hi)))
    if size == "smoke":
        return jobs
    jobs.append(_profile_job(*SLOW_CORNER))
    jobs += [_poisson_job(d, _log_uniform(rng, 0.1, 10.0)) for d in (2, 3)]
    jobs += [_residual_job(rng.uniform(0.8, 1.5), d, 3.0,
                           _log_uniform(rng, 0.5, 2.0)) for d in (4, 5)]
    return jobs


BUILDERS = {"gate": _gate_jobs, "lattice2d": _lattice_jobs,
            "profiles": _profile_jobs}
WORKLOADS = tuple(BUILDERS)
# timed passes per run, at least: each job's time is its median over them.
# A profiles pass is mostly the one slow-corner job, so it takes more
# samples to be as steady as the others
MIN_PASSES = {"gate": 3, "lattice2d": 3, "profiles": 4}


# ---------------------------------------------------------------------------
# known-defect probes, run outside the timed region
# ---------------------------------------------------------------------------

def _probe_h_inverse(T) -> List[str]:
    try:
        w = blowlab.OsgoodTransform(blowlab.Nonlinearity.exponential()).h_inverse(T)
    except blowlab.DomainError as exc:
        return [f"h_inverse(exponential, T={T:g}) raised: {exc}"]
    back = _h_exponential(w)
    if abs(back / T - 1.0) > H_ROUND_TRIP_TOL:
        return [f"h_inverse(exponential, T={T:g}) = {w!r}, closed-form h = {back!r}"]
    return []


def probe_profile_warning() -> List[str]:
    """StableProfile at (alpha, d, rho) = (1.2, 1, 10) leaks an
    IntegrationWarning from the subordination quadrature."""
    alpha, d, rho = 1.2, 1, 10.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = blowlab.stable_profile(alpha, d)(rho)
    leaked = [w for w in caught if issubclass(w.category, IntegrationWarning)]
    if leaked:
        return [f"StableProfile{(alpha, d, rho)} leaked {len(leaked)} "
                f"IntegrationWarning: {str(leaked[0].message).splitlines()[0]}"]
    return _route_check("profile-warning-probe", value, alpha, d, rho)


def probe_h_inverse_bracket() -> List[str]:
    """OsgoodTransform(exponential).h_inverse(T) fails to bracket at large
    T, so `blowlab criterion --family exponential` fails on the default
    horizon grid."""
    return _probe_h_inverse(1000.0)


def probe_h_inverse_accuracy() -> List[str]:
    """Before it stops bracketing, the exponential h_inverse already
    returns levels whose closed-form h misses T: by about 1 % at T = 100."""
    return _probe_h_inverse(100.0)


# each workload probes the defects on its own paths; gate, whose CLI offers
# `criterion --family exponential`, runs the cheapest one, so that every
# workload's failed_frac has a base
PROBES = {
    "gate": (probe_h_inverse_accuracy,),
    "lattice2d": (probe_h_inverse_bracket, probe_h_inverse_accuracy),
    "profiles": (probe_profile_warning,),
}
