"""Experiment runner.

Eight subcommands expose the library: `kernel`, `constants`, `criterion`,
`simulate`, `sweep-K`, `sweep-L`, `dichotomy`, and `selftest`. Every
artifact is a deterministic CSV (see reporting); `selftest` replays the
twelve-check release gate and writes a manifest per preset.

Every option is a flag with its default in the parser. Flags can also come
from an argument file: `blowlab constants @run.args --p 3` reads one
argument per line of run.args (such as `--p=4`) in place of `@run.args`,
and a flag given later on the command line wins. The output directory is
taken from $BLOWLAB_OUTDIR (default ./blowlab-out); nothing else reads the
environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import acceptance
from .acceptance import PRESETS
from .asymptotics import K_fractional, sweep_K, sweep_L
from .blowup import CriterionInput, evaluate_criterion
from .errors import DomainError, ResolutionError
from .kernels import _BOUNDARY_TOL, Grid, GridFunction, KernelSpec, semigroup_kernel, \
    stable_profile
from .nonlinearity import Nonlinearity, fujita_exponent
from .norms import morrey_norm_grid, radial_concentration, read_profile_csv
from .numutil import _check_range, log_grid
from .reporting import output_dir, write_csv
from .solver import SimConfig, dichotomy_experiment, run
from .specfun import sphere_area
from .stationary import SingularSolution, singular_constant, singular_morrey_norm

__all__ = ["PRESETS", "main", "run_preset"]


# ---------------------------------------------------------------------------
# release-gate presets (the table lives in acceptance)
# ---------------------------------------------------------------------------

def run_preset(name: str) -> int:
    """Execute one preset: run its check, write its tables and manifest
    under <output dir>/selftest/<name>/, print one PASS/FAIL line per
    expected check. Returns a process exit status (0 pass, 1 fail);
    KeyError for an unknown name."""
    result = acceptance.run_check(name)
    preset = PRESETS[name]

    pdir = output_dir() / "selftest" / name
    for table, (header, rows, meta) in result.tables.items():
        write_csv(pdir / f"{table}.csv", header, rows, meta)
    config = {"preset": name, "criterion": preset.criterion,
              "targets": ",".join(preset.targets),
              "tolerance_version": acceptance.TOLERANCE_VERSION}
    config.update({f"binding.{k}": v for k, v in preset.bindings.items()})
    write_csv(pdir / "manifest.csv", ("criterion", "name", "passed", "detail"),
              [(preset.criterion, lab, ok, det) for lab, ok, det in result.checks],
              config)

    for lab, ok, det in result.checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {lab}: {det}")
    print(f"{preset.criterion} {name}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# option values
# ---------------------------------------------------------------------------

def _parse_d_values(text: str) -> List[float]:
    """Dimension lists: '3:50' (inclusive integers), '100:1000:7'
    (log-spaced, rounded), or '400,800'."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) not in (2, 3):
                raise ValueError("expected lo:hi or lo:hi:count")
            lo, hi = float(parts[0]), float(parts[1])
            if len(parts) == 2:
                return [float(d) for d in range(int(round(lo)), int(round(hi)) + 1)]
            return sorted({float(round(v)) for v in log_grid(lo, hi, int(parts[2]))})
        return [float(v) for v in text.split(",") if v.strip()]
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"bad dimension list {text!r}: {exc}") from exc


def _parse_floats(text: str) -> List[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise DomainError(f"bad number list {text!r}: {exc}") from exc


def _build_kernel(args) -> KernelSpec:
    if args.kernel == "gaussian":
        return KernelSpec.gaussian()
    if args.kernel == "bump":
        return KernelSpec.bump()
    if args.kernel == "heavy":
        return KernelSpec.heavy_tail(args.tail_order)
    return KernelSpec.fractional(args.alpha, args.strength)


def _build_nonlinearity(args) -> Nonlinearity:
    if args.family == "power":
        return Nonlinearity.power_law(args.c, args.p)
    if args.family == "power-sum":
        return Nonlinearity.power_sum(args.c, args.p, args.c2, args.p2)
    if args.family == "exponential":
        return Nonlinearity.exponential(args.c)
    return Nonlinearity.zero()


def _grid(args) -> Grid:
    return Grid(args.d, args.L, args.n)


def _initial_data(args):
    if args.profile in ("gauss", "gaussian"):
        return GridFunction.gaussian(_grid(args), args.mass, args.sigma)
    return read_profile_csv(args.profile, args.d)


def _write_field(path: Path, grid: Grid, values: np.ndarray, name: str,
                 meta: dict) -> Path:
    """A 1-D field, or the y = 0 cross-section of a 2-D one."""
    x = grid.axis()
    if grid.d == 1:
        header = ("x", name)
        rows = [(float(xx), float(vv)) for xx, vv in zip(x, values)]
    else:
        header = ("x", "y", name)
        rows = [(float(xx), 0.0, float(vv))
                for xx, vv in zip(x, values[:, grid.n // 2])]
    return write_csv(path, header, rows, meta)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_kernel(args) -> int:
    spec = _build_kernel(args)
    out = output_dir()
    if args.radial:
        if spec.kind != "pure_fractional":
            raise DomainError("the radial profile dump needs a fractional kernel")
        prof = stable_profile(spec.alpha, args.d)
        _check_range("--rho-max", args.rho_max)
        rho = np.linspace(0.0, args.rho_max, 501)
        path = write_csv(out / "kernel_profile.csv", ("rho", "R"),
                         [(float(r), float(v)) for r, v in zip(rho, prof(rho))],
                         {"alpha": spec.alpha, "d": args.d})
        print(f"wrote {path}")
        return 0
    grid = _grid(args)
    kern = semigroup_kernel(spec, args.t, grid, boundary_tol=args.boundary_tol)
    path = _write_field(out / "kernel.csv", grid, kern.values, "value",
                        {"kind": spec.kind, "t": args.t, "L": grid.L,
                         "n": grid.n, "mass": kern.mass(),
                         "min_value": kern.min_value()})
    print(f"mass = {kern.mass()!r}")
    print(f"min_value = {kern.min_value()!r}")
    print(f"boundary_mass = {kern.boundary_mass()!r}")
    print(f"wrote {path}")
    return 0


def _cmd_constants(args) -> int:
    alpha, d, p, q = args.alpha, args.d, args.p, args.q
    s = singular_constant(alpha, d, p)
    K = K_fractional(alpha, d, p)
    sigma = sphere_area(d)
    morrey = singular_morrey_norm(SingularSolution(alpha, d, p), q)
    print(f"s = {s:.8g}")
    print(f"K = {K:.6g}")
    print(f"sigma_{d} = {sigma:.6g}")
    print(f"morrey_norm = {morrey:.7g}")
    path = write_csv(output_dir() / "constants.csv",
                     ("alpha", "d", "p", "s", "morrey_norm"),
                     [(alpha, d, p, s, morrey)],
                     {"K": K, "q": q, "sigma_d": sigma})
    print(f"wrote {path}")
    return 0


def _cmd_criterion(args) -> int:
    u0 = _initial_data(args)
    inp = CriterionInput(u0=u0, kernel=_build_kernel(args),
                         nonlinearity=_build_nonlinearity(args),
                         T_grid=tuple(log_grid(args.t_min, args.t_max,
                                               args.t_count)),
                         threshold=args.threshold)
    verdict = evaluate_criterion(inp)
    # the concentration at the scale-critical order, computed before any
    # artifact is written; p > 1 + alpha/d keeps both routes in their domains
    F, d = inp.nonlinearity, inp.dimension
    alpha_eff = inp.kernel.alpha_effective(d)
    on_grid = isinstance(u0, GridFunction)
    res = None
    if F.kind == "power" and F.power > fujita_exponent(alpha_eff, d):
        res = (morrey_norm_grid(u0, d * (F.power - 1.0) / alpha_eff) if on_grid
               else radial_concentration(u0, F.power, alpha_eff))
    out = output_dir()
    unreliable = [pt.T for pt in verdict.curve if not pt.reliable]
    path = write_csv(out / "criterion_curve.csv",
                     ("T", "W", "hinv", "ratio"),
                     [(pt.T, pt.moment, pt.horizon_level, pt.ratio)
                      for pt in verdict.curve],
                     {"classification": verdict.classification,
                      "T_star": verdict.T_star,
                      "threshold": verdict.threshold,
                      "unreliable_T": ";".join(repr(T) for T in unreliable)})
    if res is not None:
        write_csv(out / "criterion_norms.csv",
                  ("functional", "order", "value", "argmax"),
                  [("morrey_norm_grid" if on_grid else "radial_concentration",
                    res.s_order, res.value, res.argmax_radius)],
                  {"divergent": res.divergent})
    summary = {
        "classification": verdict.classification,
        "T_star": verdict.T_star,
        "threshold": verdict.threshold,
        # a divergent concentration may be infinite, which JSON cannot hold
        "morrey_value": (res.value if res is not None
                         and math.isfinite(res.value) else None),
        "morrey_divergent": res.divergent if res is not None else None,
        "center": list(verdict.center) if verdict.center is not None else None,
        "note": verdict.hypothesis_note,
    }
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    print(f"wrote {path}")
    return 0


def _cmd_simulate(args) -> int:
    u0 = _initial_data(args)
    if not isinstance(u0, GridFunction):
        raise DomainError("simulate needs lattice data; use --profile gauss")
    cfg = SimConfig(
        kernel=_build_kernel(args), nonlinearity=_build_nonlinearity(args),
        dt_init=args.dt_init, dt_min=args.dt_min, t_end=args.t_end,
        u_max=args.u_max, moment_targets=tuple(_parse_floats(args.targets)))
    traj = run(u0, cfg)
    out = output_dir()
    meta = {"outcome": traj.outcome, "t_obs": traj.t_obs,
            "reliable": traj.reliable, "notes": "; ".join(traj.notes)}
    paths = [write_csv(out / "trajectory.csv", ("t", "sup_u", "mass", "dt"),
                       list(zip(traj.t, traj.sup, traj.mass, traj.dt)),
                       {**meta, "rejected_steps": traj.rejected_steps,
                        "step_error": traj.step_error})]
    for T, ms in sorted(traj.moments.items()):
        fd = ms.finite_differences()
        rows = [(tt, W, float(cfg.nonlinearity.fn(W)), fd[i] if i < fd.size else "")
                for i, (tt, W) in enumerate(zip(ms.t, ms.W))]
        paths.append(write_csv(out / f"moment_T{T:g}.csv",
                               ("t", "W", "F_of_W", "dW_dt_fd"), rows,
                               {"T": T, "center": ";".join(map(str, ms.center))}))
    paths.append(_write_field(out / "final_state.csv", traj.grid,
                              traj.final_state.values, "u", meta))
    print(f"outcome = {traj.outcome}")
    print(f"t_obs = {traj.t_obs!r}")
    print(f"reliable = {traj.reliable}")
    for note in traj.notes:
        print(f"note: {note}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_sweep(sweep, shown_keys, args) -> int:
    """sweep_K or sweep_L: a sweep_<quantity>.csv with the verdict as its
    metadata, and the verdict's ``shown_keys`` on stdout."""
    rep = sweep(args.alpha, args.p, _parse_d_values(args.d))
    aux = rep.aux or [""] * len(rep.d_values)
    path = write_csv(output_dir() / f"sweep_{rep.quantity}.csv",
                     ("quantity", "alpha", "p", "d", "value", "normalized", "rho0"),
                     [(rep.quantity, rep.alpha, rep.p, d, v, nv, a)
                      for d, v, nv, a in zip(rep.d_values, rep.values, rep.normalized, aux)],
                     rep.verdict)
    for key in shown_keys:
        print(f"{key} = {rep.verdict[key]!r}")
    print(f"wrote {path}")
    return 0


def _cmd_dichotomy(args) -> int:
    base = GridFunction.gaussian(_grid(args), args.mass, args.sigma)
    cfg = SimConfig(
        kernel=_build_kernel(args),
        nonlinearity=Nonlinearity.power_law(args.c, args.p),
        dt_init=args.dt_init, dt_min=args.dt_min, t_end=args.t_end,
        u_max=args.u_max)
    summary = dichotomy_experiment(_parse_floats(args.scales), base, cfg,
                                   args.bisection_steps)
    rows = [(r.scale, r.outcome, r.raw_outcome, r.t_obs, r.decay_sup,
             r.predicted_T_star, r.reliable) for r in summary.rows]
    path = write_csv(output_dir() / "dichotomy.csv",
                     ("scale", "outcome", "raw_outcome", "t_obs",
                      "decay_sup", "predicted_T_star", "reliable"), rows,
                     {"lambda_lo": summary.lambda_lo,
                      "lambda_hi": summary.lambda_hi,
                      "monotone": summary.monotone,
                      "bisection_steps": summary.bisection_steps})
    for r in summary.rows:
        print(f"scale {r.scale:g}: {r.outcome}")
    print(f"lambda_lo = {summary.lambda_lo!r}")
    print(f"lambda_hi = {summary.lambda_hi!r}")
    print(f"monotone = {summary.monotone}")
    print(f"wrote {path}")
    return 0


def _cmd_selftest(args) -> int:
    names = [args.only] if args.only else list(PRESETS)
    status = 0
    for name in names:
        status = max(status, run_preset(name))
    print("selftest: " + ("PASS" if status == 0 else "FAIL"))
    return status


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _floats(sp: argparse.ArgumentParser, **defaults) -> None:
    """One float flag per keyword: dt_init=0.05 adds --dt-init, default 0.05."""
    for dest, default in defaults.items():
        sp.add_argument("--" + dest.replace("_", "-"), type=float,
                        default=default)


def _add_kernel(sp: argparse.ArgumentParser, flag: str = "--kernel") -> None:
    sp.add_argument(flag, dest="kernel", default="gaussian",
                    choices=["gaussian", "bump", "heavy", "fractional"])
    _floats(sp, alpha=1.0, tail_order=2.5, strength=1.0)


def _add_source(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--family", default="power",
                    choices=["exponential", "power", "power-sum", "zero"])
    _floats(sp, p=2.0, c=1.0, c2=1.0, p2=3.0)


def _add_lattice(sp: argparse.ArgumentParser, L: float = 48.0,
                 data: bool = True) -> None:
    """The grid (--d, --L, --n) and, with data, the Gaussian on it."""
    sp.add_argument("--d", type=int, default=1)
    _floats(sp, L=L)
    sp.add_argument("--n", type=int, default=1024)
    if data:
        _floats(sp, mass=1.0, sigma=1.0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blowlab", fromfile_prefix_chars="@",
        description="Nonlocal-diffusion blowup experiments and release gate. "
                    "'@file' reads arguments from file, one per line.")
    sub = ap.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="dump a semigroup kernel cross-section")
    _add_kernel(k, "--kind")
    _add_lattice(k, data=False)
    _floats(k, t=1.0, boundary_tol=_BOUNDARY_TOL, rho_max=10.0)
    k.add_argument("--radial", action="store_true",
                   help="emit the self-similar radial profile instead")
    k.set_defaults(fn=_cmd_kernel)

    c = sub.add_parser("constants", help="closed-form constants at (alpha, d, p)")
    _floats(c, alpha=2.0, p=3.0, q=1.0)
    c.add_argument("--d", type=int, default=5)
    c.set_defaults(fn=_cmd_constants)

    cr = sub.add_parser("criterion", help="moment-threshold blowup criterion")
    cr.add_argument("--profile", default="gauss",
                    help="'gauss' or a (r, value) CSV path")
    _add_lattice(cr)
    _add_kernel(cr)
    _add_source(cr)
    _floats(cr, threshold=1.0, t_min=1e-3, t_max=1e3)
    cr.add_argument("--t-count", type=int, default=40)
    cr.set_defaults(fn=_cmd_criterion)

    sim = sub.add_parser("simulate", help="integrate one Cauchy problem")
    sim.add_argument("--profile", default="gauss")
    _add_lattice(sim)
    _add_kernel(sim)
    _add_source(sim)
    _floats(sim, dt_init=1e-3, dt_min=1e-12, t_end=1.0, u_max=1e8)
    sim.add_argument("--targets", default="",
                     help="comma list of moment horizons T")
    sim.set_defaults(fn=_cmd_simulate)

    for name, sweep, shown_keys, d, text in (
            ("sweep-K", sweep_K, ("last_pair_ratio",), "400,800",
             "discrepancy constant over dimension"),
            ("sweep-L", sweep_L, ("slope", "predicted_slope"), "3:50",
             "sphere-pairing envelope over dimension")):
        sw = sub.add_parser(name, help=text)
        _floats(sw, alpha=2.0, p=3.0)
        sw.add_argument("--d", default=d,
                        help="'400,800' or '3:50' or '100:1000:7'")
        sw.set_defaults(fn=functools.partial(_cmd_sweep, sweep, shown_keys))

    di = sub.add_parser("dichotomy", help="scaling family blowup/decay split")
    _add_lattice(di, L=128.0)
    _add_kernel(di)
    _floats(di, p=4.0, c=1.0, dt_init=0.05, dt_min=1e-14, t_end=60.0,
            u_max=1e4)
    di.add_argument("--scales", default="0.3,1,3,10",
                    help="comma list of data amplitudes")
    di.add_argument("--bisection-steps", type=int, default=6)
    di.set_defaults(fn=_cmd_dichotomy)

    st = sub.add_parser("selftest", help="run the full acceptance gate")
    st.add_argument("--only", choices=sorted(PRESETS))
    st.set_defaults(fn=_cmd_selftest)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except UnicodeDecodeError as exc:   # argparse reports only OSError
        ap.error(f"cannot decode an argument file: {exc}")
    try:
        return args.fn(args)
    # OverflowError: a dimension whose closed forms leave the float range
    except (DomainError, ResolutionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
