"""Experiment runner.

Eight subcommands expose the library: `kernel`, `constants`, `criterion`,
`simulate`, `sweep-K`, `sweep-L`, `dichotomy`, and `selftest`. Every
artifact is a deterministic CSV (see reporting); `selftest` replays the
twelve-check release gate and writes a manifest per preset.

Flag values can come from three places, in increasing precedence: built-in
defaults, a `--config <path>` file of `key = value` lines, and explicit
flags. The output directory is taken from $BLOWLAB_OUTDIR (default
./blowlab-out); nothing else reads the environment.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import acceptance
from .acceptance import PRESETS
from .asymptotics import K_fractional, sweep_K, sweep_L
from .blowup import CriterionInput, evaluate_criterion
from .errors import DomainError, OsgoodViolationError, ResolutionError
from .kernels import Grid, GridFunction, KernelSpec, semigroup_kernel, stable_profile
from .nonlinearity import NONLINEARITY_FAMILIES, Nonlinearity
from .norms import read_profile_csv
from .numutil import log_grid
from .reporting import output_dir, write_csv, write_manifest
from .solver import SimConfig, dichotomy_experiment, run
from .specfun import sphere_area
from .stationary import SingularSolution, singular_constant, singular_morrey_norm

__all__ = ["PRESETS", "main", "run_preset"]


# ---------------------------------------------------------------------------
# release-gate presets (the table lives in acceptance)
# ---------------------------------------------------------------------------

def run_preset(name: str, outdir: Optional[Path] = None, echo=print) -> int:
    """Execute one preset: run its check, write its tables and manifest
    under <outdir>/<name>/, print one PASS/FAIL line per expected check.
    Returns a process exit status (0 pass, 1 fail); KeyError for an
    unknown name."""
    result = acceptance.run_check(name)
    preset = PRESETS[name]

    base = Path(outdir) if outdir is not None else output_dir() / "selftest"
    pdir = base / name
    for table, (header, rows, meta) in result.tables.items():
        write_csv(pdir / f"{table}.csv", header, rows, meta)
    config = {"preset": name, "criterion": preset.criterion,
              "targets": ",".join(preset.targets),
              "tolerance_version": acceptance.TOLERANCE_VERSION}
    config.update({f"binding.{k}": v for k, v in preset.bindings.items()})
    write_manifest(pdir / "manifest.csv", config,
                   [(preset.criterion, lab, ok, det)
                    for lab, ok, det in result.checks])

    for lab, ok, det in result.checks:
        echo(f"  [{'PASS' if ok else 'FAIL'}] {lab}: {det}")
    echo(f"{preset.criterion} {name}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def _load_config(path: Optional[str]) -> dict:
    """`key = value` lines; '#' starts a comment; values parsed as Python
    literals when possible, else kept as strings."""
    if not path:
        return {}
    cfg = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line without '=': {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        try:
            cfg[key] = ast.literal_eval(val)
        except (ValueError, SyntaxError):
            cfg[key] = val
    return cfg


def _config_keys() -> set:
    """Dest names of every subcommand's flags: the keys a config may hold."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for sp in sub.choices.values() for a in sp._actions} \
        - {"help", "config"}


class _Options:
    """Flag > config > default, keyed by the argparse dest name. A config
    may be shared between subcommands, so each key must name a flag of
    some subcommand; keys of other subcommands are ignored."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = _load_config(getattr(args, "config", None))
        unknown = sorted(set(self.cfg) - _config_keys()) if self.cfg else []
        if unknown:
            raise DomainError("config keys that no subcommand reads: "
                              + ", ".join(unknown))

    def get(self, key: str, default=None, cast=None):
        v = getattr(self.args, key, None)
        if v is None:
            v = self.cfg.get(key, default)
        if v is None or cast is None:
            return v
        try:
            return cast(v)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"option {key} = {v!r} is not a valid "
                              f"{cast.__name__}") from exc


def _parse_d_values(text) -> List[float]:
    """Dimension lists: '3:50' (inclusive integers), '100:1000:7'
    (log-spaced, rounded), or '400,800'."""
    text = str(text)
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


def _parse_floats(text) -> List[float]:
    if text is None:
        return []
    items = text if isinstance(text, (list, tuple)) else str(text).split(",")
    try:
        return [float(v) for v in items if str(v).strip()]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad number list {text!r}: {exc}") from exc


def _build_kernel(opt: _Options) -> KernelSpec:
    kind = opt.get("kernel", "gaussian")
    if kind in ("gaussian", "gaussian_like"):
        return KernelSpec.gaussian()
    if kind in ("bump", "compact_bump"):
        return KernelSpec.bump()
    if kind in ("heavy", "heavy_tail"):
        return KernelSpec.heavy_tail(opt.get("tail_order", 2.5, float))
    if kind in ("fractional", "pure_fractional"):
        return KernelSpec.fractional(opt.get("alpha", 1.0, float),
                                     opt.get("strength", 1.0, float))
    raise DomainError(f"unknown kernel kind {kind!r}; use gaussian, bump, "
                      "heavy or fractional")


def _build_nonlinearity(opt: _Options) -> Nonlinearity:
    family = opt.get("family", "power")
    if family not in NONLINEARITY_FAMILIES:
        raise DomainError(f"unknown nonlinearity family {family!r}; use "
                          + ", ".join(sorted(NONLINEARITY_FAMILIES)))
    if family == "power":
        return Nonlinearity.power_law(opt.get("c", 1.0, float),
                                      opt.get("p", 2.0, float))
    if family == "power-sum":
        return Nonlinearity.power_sum(opt.get("c", 1.0, float),
                                      opt.get("p", 2.0, float),
                                      opt.get("c2", 1.0, float),
                                      opt.get("p2", 3.0, float))
    if family == "exponential":
        return Nonlinearity.exponential(opt.get("c", 1.0, float))
    return Nonlinearity.zero()


def _grid(opt: _Options) -> Grid:
    return Grid(opt.get("d", 1, int), opt.get("L", 48.0, float),
                opt.get("n", 1024, int))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_kernel(args) -> int:
    opt = _Options(args)
    spec = _build_kernel(opt)
    out = output_dir()
    t = opt.get("t", 1.0, float)
    if opt.get("radial", False):
        if spec.kind != "pure_fractional":
            raise DomainError("the radial profile dump needs a fractional kernel")
        d = opt.get("d", 1, int)
        prof = stable_profile(spec.alpha, d)
        rho = np.linspace(0.0, opt.get("rho_max", 10.0, float), 501)
        path = write_csv(out / "kernel_profile.csv", ("rho", "R"),
                         [(float(r), float(v)) for r, v in zip(rho, prof(rho))],
                         {"alpha": spec.alpha, "d": d})
        print(f"wrote {path}")
        return 0
    grid = _grid(opt)
    kern = semigroup_kernel(spec, t, grid,
                            boundary_tol=opt.get("boundary_tol", 1e-8, float))
    x = grid.axis()
    if grid.d == 1:
        rows = [(float(xx), float(vv)) for xx, vv in zip(x, kern.values)]
        header = ("x", "value")
    else:
        j = grid.n // 2  # cross-section along y = 0
        rows = [(float(xx), 0.0, float(vv))
                for xx, vv in zip(x, kern.values[:, j])]
        header = ("x", "y", "value")
    path = write_csv(out / "kernel.csv", header, rows,
                     {"kind": spec.kind, "t": t, "L": grid.L, "n": grid.n,
                      "mass": kern.mass(), "min_value": kern.min_value()})
    print(f"mass = {kern.mass()!r}")
    print(f"min_value = {kern.min_value()!r}")
    print(f"boundary_mass = {kern.boundary_mass()!r}")
    print(f"wrote {path}")
    return 0


def _cmd_constants(args) -> int:
    opt = _Options(args)
    alpha = opt.get("alpha", 2.0, float)
    d = opt.get("d", 5, int)
    p = opt.get("p", 3.0, float)
    q = opt.get("q", 1.0, float)
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


def _initial_data(opt: _Options):
    profile = opt.get("profile", "gauss")
    if profile in ("gauss", "gaussian"):
        return GridFunction.gaussian(_grid(opt), opt.get("mass", 1.0, float),
                                     opt.get("sigma", 1.0, float))
    return read_profile_csv(profile, opt.get("d", 1, int))


def _cmd_criterion(args) -> int:
    opt = _Options(args)
    u0 = _initial_data(opt)
    kernel = _build_kernel(opt)
    F = _build_nonlinearity(opt)
    T_grid = log_grid(opt.get("t_min", 1e-3, float),
                      opt.get("t_max", 1e3, float),
                      opt.get("t_count", 40, int))
    inp = CriterionInput(u0=u0, kernel=kernel, nonlinearity=F,
                         T_grid=tuple(T_grid),
                         threshold=opt.get("threshold", 1.0, float))
    verdict = evaluate_criterion(inp)
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

    res = verdict.morrey
    if res is not None:
        fname = ("morrey_norm_grid" if res.profile_kind == "grid"
                 else "radial_concentration")
        write_csv(out / "criterion_norms.csv",
                  ("functional", "order", "value", "argmax"),
                  [(fname, res.s_order, res.value, res.argmax_radius)],
                  {"divergent": res.divergent})
    summary = {
        "classification": verdict.classification,
        "T_star": verdict.T_star,
        "threshold": verdict.threshold,
        "morrey_value": res.value if res is not None else None,
        "center": list(verdict.center) if verdict.center is not None else None,
        "note": verdict.hypothesis_note,
    }
    print(json.dumps(summary, sort_keys=True))
    print(f"wrote {path}")
    return 0


def _cmd_simulate(args) -> int:
    opt = _Options(args)
    u0 = _initial_data(opt)
    if not isinstance(u0, GridFunction):
        raise DomainError("simulate needs lattice data; use --profile gauss")
    cfg = SimConfig(
        kernel=_build_kernel(opt), nonlinearity=_build_nonlinearity(opt),
        dt_init=opt.get("dt_init", 1e-3, float),
        dt_min=opt.get("dt_min", 1e-12, float),
        t_end=opt.get("t_end", 1.0, float),
        u_max=opt.get("u_max", 1e8, float),
        moment_targets=tuple(_parse_floats(opt.get("targets"))))
    traj = run(u0, cfg)
    out = output_dir()
    meta = {"outcome": traj.outcome, "t_obs": traj.t_obs,
            "reliable": traj.reliable, "notes": "; ".join(traj.notes)}
    paths = [write_csv(out / "trajectory.csv", ("t", "sup_u", "mass", "dt"),
                       list(zip(traj.t, traj.sup, traj.mass, traj.dt)), meta)]
    for T, ms in sorted(traj.moments.items()):
        fd = ms.finite_differences()
        rows = [(tt, W, FW, fd[i] if i < fd.size else "")
                for i, (tt, W, FW) in enumerate(zip(ms.t, ms.W, ms.F_of_W))]
        paths.append(write_csv(out / f"moment_T{T:g}.csv",
                               ("t", "W", "F_of_W", "dW_dt_fd"), rows,
                               {"T": T, "center": ";".join(map(str, ms.center))}))
    g = traj.grid
    x = g.axis()
    vals = traj.final_state.values
    if g.d == 1:
        rows = [(float(xx), float(vv)) for xx, vv in zip(x, vals)]
        header = ("x", "u")
    else:
        j = g.n // 2
        rows = [(float(xx), 0.0, float(vv)) for xx, vv in zip(x, vals[:, j])]
        header = ("x", "y", "u")
    paths.append(write_csv(out / "final_state.csv", header, rows, meta))
    print(f"outcome = {traj.outcome}")
    print(f"t_obs = {traj.t_obs!r}")
    print(f"reliable = {traj.reliable}")
    for note in traj.notes:
        print(f"note: {note}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _sweep_table(report) -> tuple:
    header = ("quantity", "alpha", "p", "d", "value", "normalized",
              "t0_or_rho0")
    aux = report.aux if report.aux else [""] * len(report.d_values)
    rows = [(report.quantity, report.alpha, report.p, d, v, nv, a)
            for d, v, nv, a in zip(report.d_values, report.values,
                                   report.normalized, aux)]
    return header, rows


def _cmd_sweep_K(args) -> int:
    opt = _Options(args)
    rep = sweep_K(opt.get("alpha", 2.0, float), opt.get("p", 3.0, float),
                  _parse_d_values(opt.get("d", "400,800")))
    header, rows = _sweep_table(rep)
    path = write_csv(output_dir() / "sweep_K.csv", header, rows,
                     {k: v for k, v in sorted(rep.verdict.items())})
    print(f"last_pair_ratio = {rep.verdict['last_pair_ratio']!r}")
    print(f"wrote {path}")
    return 0


def _cmd_sweep_L(args) -> int:
    opt = _Options(args)
    rep = sweep_L(opt.get("alpha", 2.0, float), opt.get("p", 3.0, float),
                  _parse_d_values(opt.get("d", "3:50")))
    header, rows = _sweep_table(rep)
    meta = {k: v for k, v in sorted(rep.verdict.items())}
    band = meta.pop("normalized_band")
    meta["normalized_band_lo"], meta["normalized_band_hi"] = band
    path = write_csv(output_dir() / "sweep_L.csv", header, rows, meta)
    print(f"slope = {rep.verdict['slope']!r}")
    print(f"predicted_slope = {rep.verdict['predicted_slope']!r}")
    print(f"wrote {path}")
    return 0


def _cmd_dichotomy(args) -> int:
    opt = _Options(args)
    grid = Grid(opt.get("d", 1, int), opt.get("L", 128.0, float),
                opt.get("n", 1024, int))
    base = GridFunction.gaussian(grid, opt.get("mass", 1.0, float),
                                 opt.get("sigma", 1.0, float))
    cfg = SimConfig(
        kernel=_build_kernel(opt),
        nonlinearity=Nonlinearity.power_law(opt.get("c", 1.0, float),
                                            opt.get("p", 4.0, float)),
        dt_init=opt.get("dt_init", 0.05, float),
        dt_min=opt.get("dt_min", 1e-14, float),
        t_end=opt.get("t_end", 60.0, float),
        u_max=opt.get("u_max", 1e4, float))
    scales = _parse_floats(opt.get("scales", "0.3,1,3,10"))
    summary = dichotomy_experiment(scales, base, cfg,
                                   opt.get("bisection_steps", 6, int))
    rows = [(r.scale, r.outcome, r.raw_outcome, r.t_obs, r.decay_sup,
             r.predicted_T_star) for r in summary.rows]
    path = write_csv(output_dir() / "dichotomy.csv",
                     ("scale", "outcome", "raw_outcome", "t_obs",
                      "decay_sup", "predicted_T_star"), rows,
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
    opt = _Options(args)
    only = opt.get("only")
    names = [only] if only else list(PRESETS)
    status = 0
    for name in names:
        status = max(status, run_preset(name))
    print("selftest: " + ("PASS" if status == 0 else "FAIL"))
    return status


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="key = value file of option defaults")


def _float(sp, *names):
    for n in names:
        sp.add_argument(n, type=float)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blowlab",
        description="Nonlocal-diffusion blowup experiments and release gate.")
    sub = ap.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="dump a semigroup kernel cross-section")
    k.add_argument("--kind", dest="kernel",
                   choices=["gaussian", "bump", "heavy", "fractional"])
    _float(k, "--alpha", "--tail-order", "--strength", "--t", "--L",
           "--boundary-tol", "--rho-max")
    k.add_argument("--d", type=int)
    k.add_argument("--n", type=int)
    k.add_argument("--radial", action="store_true", default=None,
                   help="emit the self-similar radial profile instead")
    _add_common(k)
    k.set_defaults(fn=_cmd_kernel)

    c = sub.add_parser("constants", help="closed-form constants at (alpha, d, p)")
    _float(c, "--alpha", "--p", "--q")
    c.add_argument("--d", type=int)
    _add_common(c)
    c.set_defaults(fn=_cmd_constants)

    cr = sub.add_parser("criterion", help="moment-threshold blowup criterion")
    cr.add_argument("--profile", help="'gauss' or a (r, value) CSV path")
    _float(cr, "--mass", "--sigma", "--p", "--c", "--c2", "--p2", "--alpha",
           "--tail-order", "--strength", "--L", "--threshold", "--t-min",
           "--t-max")
    cr.add_argument("--kernel",
                    choices=["gaussian", "bump", "heavy", "fractional"])
    cr.add_argument("--family", choices=sorted(NONLINEARITY_FAMILIES))
    cr.add_argument("--d", type=int)
    cr.add_argument("--n", type=int)
    cr.add_argument("--t-count", type=int)
    _add_common(cr)
    cr.set_defaults(fn=_cmd_criterion)

    sim = sub.add_parser("simulate", help="integrate one Cauchy problem")
    sim.add_argument("--profile")
    _float(sim, "--mass", "--sigma", "--p", "--c", "--c2", "--p2", "--alpha",
           "--tail-order", "--strength", "--L", "--dt-init", "--dt-min",
           "--t-end", "--u-max")
    sim.add_argument("--kernel",
                     choices=["gaussian", "bump", "heavy", "fractional"])
    sim.add_argument("--family", choices=sorted(NONLINEARITY_FAMILIES))
    sim.add_argument("--d", type=int)
    sim.add_argument("--n", type=int)
    sim.add_argument("--targets", help="comma list of moment horizons T")
    _add_common(sim)
    sim.set_defaults(fn=_cmd_simulate)

    sk = sub.add_parser("sweep-K", help="discrepancy constant over dimension")
    _float(sk, "--alpha", "--p")
    sk.add_argument("--d", help="'400,800' or '3:50' or '100:1000:7'")
    _add_common(sk)
    sk.set_defaults(fn=_cmd_sweep_K)

    sl = sub.add_parser("sweep-L", help="sphere-pairing envelope over dimension")
    _float(sl, "--alpha", "--p")
    sl.add_argument("--d", help="'400,800' or '3:50' or '100:1000:7'")
    _add_common(sl)
    sl.set_defaults(fn=_cmd_sweep_L)

    di = sub.add_parser("dichotomy", help="scaling family blowup/decay split")
    _float(di, "--mass", "--sigma", "--p", "--c", "--L", "--dt-init",
           "--dt-min", "--t-end", "--u-max", "--alpha", "--tail-order",
           "--strength")
    di.add_argument("--kernel",
                    choices=["gaussian", "bump", "heavy", "fractional"])
    di.add_argument("--d", type=int)
    di.add_argument("--n", type=int)
    di.add_argument("--scales", help="comma list of data amplitudes")
    di.add_argument("--bisection-steps", type=int)
    _add_common(di)
    di.set_defaults(fn=_cmd_dichotomy)

    st = sub.add_parser("selftest", help="run the full acceptance gate")
    st.add_argument("--only", choices=sorted(PRESETS))
    _add_common(st)
    st.set_defaults(fn=_cmd_selftest)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, OsgoodViolationError, ResolutionError,
            FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
