#!/usr/bin/env python3
"""blowlab benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload gate --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The run imports blowlab from ``src/``,
builds the workload's job list from the seed, makes one untimed warm-up
pass, then times passes over the job list until ``--seconds`` have elapsed
and the workload's minimum of passes ran (one at ``--size smoke``); times
are each job's median over the passes. Oracles, the pass-to-pass
fingerprint comparison and the known-defect probes run outside the timed
passes.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate (spans and
counters from tracing.py); the last line then reports the per-layer
metrics from the traced passes and the tracing overhead. The first
line of stdout is the run record. See README.md for every metric.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GEN_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("max_job_s", "s"),
              ("peak_rss_mb", "MB"), ("failed_frac", "ratio"))


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full",
                    help="'full', or 'smoke' for the smallest job lists")
    return ap.parse_args(argv)


def _import_package():
    """blowlab from this checkout's src/, never an installed copy."""
    if not (SRC / "blowlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no blowlab sources under {SRC}; run from "
                         "the root of a blowlab checkout")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import blowlab
    if SRC.resolve() not in Path(blowlab.__file__).resolve().parents:
        raise SystemExit(f"error: imported blowlab from {blowlab.__file__}")
    return blowlab


def _run_pass(jobs, passdir):
    """Time one pass over the job list; returns (wall, job times, results).
    A job that raises yields its exception as the result."""
    dirs = [passdir / f"{i:02d}-{job.name}" for i, job in enumerate(jobs)]
    for d in dirs:
        d.mkdir(parents=True)
    times, results = [], []
    t_pass = time.perf_counter()
    for job, d in zip(jobs, dirs):
        t = time.perf_counter()
        try:
            results.append(job.run(d))
        except Exception as exc:  # recorded as a failed operation
            results.append(exc)
        times.append(time.perf_counter() - t)
    return time.perf_counter() - t_pass, times, results, dirs


class Runner:
    """Holds the job list, the warm-up fingerprints and the failure log."""

    def __init__(self, jobs, workdir, warn):
        self.jobs = jobs
        self.workdir = workdir
        self.warn = warn
        self.reference = None
        self.failed_jobs = set()
        self.failures = []
        self.executions = 0
        self.failed_executions = 0
        self.passes = 0
        self.traced_warnings = Counter()

    def one_pass(self, timed=True, tracer=None):
        """One pass, then its oracles. With a tracer, spans and counters are
        installed for the pass only, and the warnings it leaked are kept."""
        passdir = self.workdir / f"pass{self.passes}"
        self.passes += 1
        if tracer is not None:
            before = self.warn.by_category()
            tracer.install(_tracer_hooks())
        try:
            wall, times, results, dirs = _run_pass(self.jobs, passdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
                self.traced_warnings.update(
                    {k: v - before[k] for k, v in self.warn.by_category().items()})
        prints = []
        for i, (job, res, d) in enumerate(zip(self.jobs, results, dirs)):
            if isinstance(res, Exception):
                bad = [f"{job.name}: raised {type(res).__name__}: {res}"]
                prints.append(None)
            else:
                bad = job.check(res, d)
                prints.append(job.fingerprint(res, d))
                if self.reference is not None and prints[i] != self.reference[i]:
                    bad.append(f"{job.name}: output differs from the warm-up pass")
            if bad:
                self.failed_jobs.add(i)
                self.failures += bad
            if timed:
                self.executions += 1
                self.failed_executions += bool(bad)
        if self.reference is None:
            self.reference = prints
        shutil.rmtree(passdir)
        return wall, times


def _measure(runner, seconds, min_passes, tracer=None):
    """Timed passes until `seconds` have elapsed and `min_passes` ran. With a
    tracer, every untraced pass is followed by a traced one, so a drift in
    the machine's speed hits both sides of the overhead ratio alike.
    Returns untraced walls, untraced job times and traced walls."""
    walls, job_times, traced = [], [], []
    t0 = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - t0 < seconds:
        wall, times = runner.one_pass()
        walls.append(wall)
        job_times.append(times)
        if tracer is not None:
            traced.append(runner.one_pass(tracer=tracer)[0])
    return walls, job_times, traced


def _run_record(args, blowlab):
    import numpy
    import scipy
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], text=True,
                                capture_output=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        l3 = 0
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": bool(args.trace),
        "nproc": os.cpu_count(), "l3_bytes": l3 or None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blowlab": blowlab.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "clients": 1, "loop": "closed",
    }


def _layer_metrics(tracer, passes, warn_counts, job_medians, overhead):
    summary, totals = tracer.summary()

    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                  "counts": {}, "errors": {}})

    def per(x, base):
        return x / base if base else 0.0

    run, crit = row("solver.run"), row("blowup.evaluate_criterion")
    prof, mfield = row("kernels.StableProfile.__call__"), row("blowup.moment_field")
    steps = totals["solver.steps"] / passes
    horizons = totals["blowup.horizons"] / passes
    points = totals["kernels.profile_points"] / passes
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    def self_s(name):
        put(f"{name}.self_s", row(name)["self_s"] / passes, "s")

    self_s("solver.run")
    put("solver.steps", steps, "count")
    put("solver.us_per_step", per(run["incl_s"] / passes * 1e6, steps), "us")
    put("solver.ffts_per_step",
        per(run["counts"].get("fft.calls", 0) / passes, steps), "1/step")
    put("solver.box_doublings", totals["solver.box_doublings"] / passes, "count")
    self_s("solver.dichotomy_experiment")
    self_s("blowup.evaluate_criterion")
    put("blowup.horizons", horizons, "count")
    put("blowup.ms_per_horizon", per(crit["incl_s"] / passes * 1e3, horizons), "ms")
    put("blowup.ffts_per_horizon",
        per(crit["counts"].get("fft.calls", 0) / passes, horizons), "1/horizon")
    put("blowup.moment_field.calls", mfield["calls"] / passes, "count")
    put("blowup.audit_retry_frac",
        per(mfield["errors"].get("ResolutionError", 0), mfield["calls"]), "ratio")
    self_s("kernels.semigroup_kernel")
    put("kernels.profile_points", points, "count")
    put("kernels.ms_per_profile_point",
        per(prof["incl_s"] / passes * 1e3, points), "ms")
    self_s("kernels.subordinator_density")
    put("kernels.quad_calls", totals["kernels.quad_calls"] / passes, "count")
    put("nonlinearity.source_evals_per_step",
        per(run["counts"].get("nonlinearity.source_evals", 0) / passes, steps),
        "1/step")
    h_inv = row("nonlinearity.OsgoodTransform.h_inverse")
    put("nonlinearity.h_inverse.self_s", h_inv["self_s"] / passes, "s")
    put("nonlinearity.h_inverse.calls", h_inv["calls"] / passes, "count")
    put("nonlinearity.quad_calls", totals["nonlinearity.quad_calls"] / passes, "count")
    for name in ("norms.morrey_norm_grid", "norms.radial_concentration",
                 "norms.heat_characterization", "stationary.stationary_residual"):
        self_s(name)
    put("stationary.quad_calls", totals["stationary.quad_calls"] / passes, "count")
    self_s("asymptotics.sweep_L")
    self_s("asymptotics.sweep_K")
    put("asymptotics.quad_calls", totals["asymptotics.quad_calls"] / passes, "count")
    put("specfun.log_gamma.calls", row("specfun.log_gamma")["calls"] / passes, "count")
    self_s("reporting.write_csv")
    put("reporting.write_csv.calls", row("reporting.write_csv")["calls"] / passes, "count")
    put("reporting.bytes_written", totals["reporting.bytes_written"] / passes, "B")
    for name, value in job_medians.items():
        put(name, value, "s")
    put("fft.calls", totals["fft.calls"] / passes, "count")
    put("fft.points", totals["fft.points"] / passes, "count")
    put("fft.bytes_computed", 16 * totals["fft.points"] / passes, "B")
    for name, value in warn_counts.items():
        put(name, value / passes, "count")
    put("trace.overhead_frac", overhead, "ratio")
    return m


def _job_metric_names(workloads, cli):
    names = [f"acceptance.{p.criterion}.s" for p in cli.PRESETS.values()]
    names += [f"cli.{ex.split()[0]}.s" for ex in workloads.README_EXAMPLES]
    return names


def _tracer_hooks():
    import numpy as np

    def steps(traj):
        return {"solver.steps": len(traj.t) - 1,
                "solver.box_doublings": sum(n.startswith("box doubled")
                                            for n in traj.notes)}

    return {
        "solver.run": (None, steps),
        "blowup.evaluate_criterion": (
            None, lambda v: {"blowup.horizons": len(v.curve)}),
        "reporting.write_csv": (
            None, lambda p: {"reporting.bytes_written": Path(p).stat().st_size}),
        "kernels.StableProfile.__call__": (
            lambda a, kw: {"kernels.profile_points":
                           int(np.size(a[1] if len(a) > 1 else kw["rho"]))}, None),
    }


def main(argv=None):
    args = _args(argv)
    blowlab = _import_package()
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose "
                         + ", ".join(workloads.WORKLOADS))
    if args.size not in workloads.SIZES:
        raise SystemExit(f"error: unknown size {args.size!r}")
    import_s = time.perf_counter() - _T_START

    gen_times = []
    for _ in range(GEN_REPEATS):
        t = time.perf_counter()
        jobs = workloads.build(args.workload, args.seed, args.size)
        gen_times.append(time.perf_counter() - t)

    print(json.dumps({"run_record": _run_record(args, blowlab)}), flush=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        with tracing.WarningCounter() as warn:
            runner = Runner(jobs, workdir, warn)
            t = time.perf_counter()
            runner.one_pass(timed=False)
            setup_s = import_s + statistics.median(gen_times) \
                + (time.perf_counter() - t)

            tracer = tracing.Tracer(blowlab) if args.trace else None
            walls, job_times, traced = _measure(
                runner, args.seconds,
                1 if args.size == "smoke" else workloads.MIN_PASSES[args.workload],
                tracer)
            probes = workloads.PROBES[args.workload]
            probe_failures = [msg for probe in probes for msg in probe()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in runner.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    for msg in probe_failures:
        print(f"known defect: {msg}", file=sys.stderr)

    # each job's median over the untraced passes: a slow spell of the shared
    # machine then has to cover most passes to move a job's time
    job_s = [statistics.median(t[i] for t in job_times) for i in range(len(jobs))]
    if args.trace:
        medians = dict.fromkeys(_job_metric_names(workloads, blowlab.cli), 0.0)
        medians.update((job.metric, t) for job, t in zip(jobs, job_s) if job.metric)
        overhead = statistics.median(t / u - 1.0 for t, u in zip(traced, walls))
        metrics = _layer_metrics(tracer, len(traced), runner.traced_warnings,
                                 medians, overhead)
    else:
        failed_ops = len(runner.failed_jobs) + len(probe_failures)
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(job_s),
            "max_job_s": max(job_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failed_frac": failed_ops / (len(jobs) + len(probes)),
        }
        metrics = {k: {"value": float(metrics[k]), "unit": u} for k, u in END_TO_END}

    print(json.dumps({"correct": not runner.failures,
                      "attempted": runner.executions,
                      "failed": runner.failed_executions,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
