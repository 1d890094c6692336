#!/usr/bin/env python3
"""Record one benchmark snapshot as a BENCH_*.json file.

Runs `perfbench/run.py` on every workload of `BENCHMARK.json` at seed
104729 with `--trace 0`, one after another, for the declared run length,
then one `--trace 1` run of `train_histnet` for the per-layer table, then
one run of the tier-1 suite with `--durations`. Writes the git commit, the
environment line of the first run, the number of cores this process may run
on (`usable_cores`; evaluation runs its batches on that many threads, while
the environment line's `cores` counts every core of the machine), per
workload the median, q1, q3 and sample count of each end-to-end metric with
the failed-op ratio, and the tier-1 wall time, test counts and the set-up
time of the acceptance `comparison` fixture (the slowest set-up in
`tests/test_acceptance.py`, where the session fixture is built).

Before the workloads it times a fixed numpy reference kernel and records its
median, q1, q3 and repeat count as `reference_kernel`. The kernel never
changes with the program, so a reader can tell a host that got slower from a
change that did; no recorded metric is rescaled by it.

Example:
    python scripts/bench.py --out BENCH_7.json
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 104729
TRACED_WORKLOAD = "train_histnet"


def reference_kernel() -> dict:
    """Time five repeats of a fixed numpy workload: 64 float64 256x256
    matmuls, then `np.exp` over 2**20 elements. Keep it as it is, so that
    its readings compare across BENCH files."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 256, 256))
    v = rng.standard_normal(2 ** 20)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(64):
            np.matmul(a, b)
        np.exp(v)
        times.append(time.perf_counter() - start)
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"median_s": statistics.median(times), "q1": q1, "q3": q3, "n": len(times)}


def usable_cores() -> int:
    """The number of cores this process may run on: its CPU affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_perfbench(workload: str, seconds: float, trace: int) -> list[dict]:
    """The JSON lines one perfbench run prints: environment, detail, result."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    print("running", " ".join(cmd[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: perfbench exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if len(lines) != 3 or "metrics" not in lines[-1]:
        raise SystemExit(f"{workload}: unexpected perfbench output:\n{proc.stdout}")
    return lines


def end_to_end(lines: list[dict]) -> dict:
    _, detail_line, result = lines
    detail = detail_line["detail"]
    metrics = {}
    for name, m in result["metrics"].items():
        # peak_rss_mb is one reading per process; the others are summarized
        s = detail.get(name, {"median": m["value"], "q1": m["value"],
                              "q3": m["value"], "n": 1})
        metrics[name] = {"unit": m["unit"], **{k: s[k] for k in ("median", "q1", "q3", "n")}}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "failed_op_ratio": detail["failed_op_ratio"],
            "metrics": metrics}


def per_layer(lines: list[dict]) -> dict:
    _, detail_line, result = lines
    return {"workload": TRACED_WORKLOAD, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            **detail_line["detail"], "metrics": result["metrics"]}


def tier1() -> dict:
    """Wall time, test counts and the `comparison` fixture set-up of one
    tier-1 run, under the caller's environment with `src` on the path."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=0", "-p", "no:cacheprovider"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    print("running", " ".join(cmd[1:]), file=sys.stderr, flush=True)
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - start
    counts = {k: int(v) for v, k in re.findall(
        r"(\d+) (passed|failed|errors?|skipped)", proc.stdout.rstrip().rpartition("\n")[2])}
    setups = [float(t) for t in re.findall(
        r"^([\d.]+)s setup\s+tests/test_acceptance\.py::", proc.stdout, re.M)]
    return {"command": "PYTHONPATH=src python " + " ".join(cmd[1:]),
            "exit_code": proc.returncode, "wall_s": wall, **counts,
            "comparison_setup_s": max(setups, default=None),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to write")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True,
                                check=True).stdout.strip())
    report = {"git_sha": sha, "git_dirty": dirty, "seed": SEED, "seconds": seconds,
              "environment": None, "usable_cores": usable_cores(),
              "reference_kernel": reference_kernel(), "workloads": {}}
    for wl in spec["workloads"]:
        lines = run_perfbench(wl["name"], seconds, trace=0)
        report["environment"] = report["environment"] or lines[0]["environment"]
        report["workloads"][wl["name"]] = end_to_end(lines)
    report["per_layer"] = per_layer(run_perfbench(TRACED_WORKLOAD, seconds, trace=1))
    report["tier1"] = tier1()
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
