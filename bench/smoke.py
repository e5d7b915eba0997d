#!/usr/bin/env python3
"""Smoke check of the benchmark, so that the harness cannot rot.

    python3 bench/smoke.py

Runs every workload at its smallest size with one timed pass, untraced and
traced, and checks that each run exits 0, that its last line has exactly
the keys and metrics BENCHMARK.json declares, and that every oracle held.
Then checks that a directory holding only BENCHMARK.json and bench/ makes
the benchmark exit non-zero without a result. Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ["bench/run.py", "--seed", "0", "--seconds", "0", "--size", "smoke"]


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(ROOT, wl, trace)
            tag = f"{wl} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{tag}: oracles failed\n{proc.stderr}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expect[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(expect[trace]))}")
            print(f"ok {tag}", flush=True)

    bare = ROOT / "bench" / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _run(bare, "gate", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without src/ the benchmark exited "
                            f"{proc.returncode} with output {proc.stdout!r}")
        else:
            print("ok bare directory exits non-zero", flush=True)
    finally:
        shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
