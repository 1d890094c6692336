"""histlayer benchmark: one workload per process, closed loop, single thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory of a source checkout: histlayer is imported from the
checkout's `src/`, and all files go to `.perfbench_work/` in the checkout,
which is removed afterwards. Workloads and metrics are declared in
`BENCHMARK.json` at the checkout root; `perfbench/README.md` explains them.

With `--trace 0` the last line of standard output is the end-to-end result;
with `--trace 1` untraced and traced ops alternate and the last line holds
the per-layer metrics. Lines before it give the environment and each
metric's median, quartiles and sample count. The exit status is 0 whenever
a result is printed, also when checks failed (see "correct" and "failed").
"""

from __future__ import annotations

import os

# Before numpy is imported: one BLAS thread, and no evaluation threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
HISTLAYER_THREADS_GIVEN = os.environ.pop("HISTLAYER_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import Tracer, attribute_snapshot, changed_attributes  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def use_checkout_sources(root: Path = ROOT) -> None:
    """Import histlayer from the checkout, and only from there."""
    package = root / "src" / "histlayer" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: no histlayer sources at {package.parent}")
    sys.path.insert(0, str(root / "src"))
    import histlayer
    if Path(histlayer.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: histlayer imported from {histlayer.__file__}, "
                         f"not from {package}")


def declared_metrics(root: Path = ROOT) -> tuple[dict, dict]:
    """(end-to-end units, per-layer units) by metric name, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count, plus the highest upper percentile that
    has at least ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if n >= 2 else (v[0], v[0], v[0])
    out = {"median": statistics.median(v), "q1": q1, "q3": q3, "n": n}
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(v, n=100)[p - 1]
            break
    return out


def environment() -> dict:
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(), "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "HISTLAYER_THREADS": None, "HISTLAYER_THREADS_given": HISTLAYER_THREADS_GIVEN,
    }


@dataclass
class OpResult:
    seconds: float
    value: float | None = None
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def one_op(wl, ctx, tracer=None) -> OpResult:
    """Run one op from a collected heap, as a fresh CLI process would start."""
    wl.prepare(ctx)
    gc.collect()
    if tracer is not None:
        before = attribute_snapshot()
        tracer.install()
    t0 = time.perf_counter()
    try:
        raw = wl.run(ctx)
    except Exception:
        return OpResult(time.perf_counter() - t0, problems=[traceback.format_exc()])
    finally:
        if tracer is not None:
            tracer.uninstall()
    res = OpResult(time.perf_counter() - t0)
    if tracer is not None:
        moved = changed_attributes(before)
        if moved:
            res.problems.append(f"tracing left attributes replaced: {moved}")
    try:
        res.value, res.digests, problems = wl.inspect(ctx, raw)
        res.problems += problems
    except Exception:
        res.problems.append(traceback.format_exc())
    return res


class Tally:
    """Counts ops and their failed checks; the first op's outputs are the
    reference every later op must reproduce byte for byte."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: dict | None = None

    def add(self, res: OpResult, label: str) -> OpResult:
        self.attempted += 1
        if self.reference is None:
            if not res.problems:
                self.reference = res.digests
        else:
            for name, d in self.reference.items():
                if res.digests.get(name) != d:
                    res.problems.append(f"{name} differs from the first op's")
        if res.problems:
            self.failed += 1
            print(f"perfbench: {label} op {self.attempted} failed: "
                  + "; ".join(res.problems), file=sys.stderr)
        return res


def setup_in_subprocess(args, work: Path, index: int) -> tuple[float, Path]:
    """Set up once in a fresh process; returns its time from process start to
    exit and the directory it filled."""
    d = work / f"setup{index}"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-dir", str(d)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=SETUP_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
    return seconds, d


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the set-up child process, and the tiny scale of the self-tests
    parser.add_argument("--setup-dir", type=Path, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    use_checkout_sources()
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {wl.WORKLOADS}")
    scale = wl.TINY if args.scale == "tiny" else wl.FULL
    if args.setup_dir is not None:
        wl.setup(args.workload, args.seed, scale, args.setup_dir)
        return 0

    e2e_units, layer_units = declared_metrics()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    # Anything the program puts in a temporary directory stays in the checkout.
    tempfile.tempdir = str(work)
    os.environ["TMPDIR"] = str(work)
    try:
        print(json.dumps({"environment": environment()}), flush=True)
        if args.trace:
            result = traced_run(args, wl, scale, work, layer_units)
        else:
            result = timed_run(args, wl, scale, work, e2e_units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    print(json.dumps(result), flush=True)
    return 0


def timed_run(args, wl, scale, work: Path, units: dict) -> dict:
    seconds, setup_dir = setup_in_subprocess(args, work, 0)
    setup_times = [seconds]
    ctx = wl.context(args.workload, args.seed, scale, setup_dir)
    tally = Tally()
    tally.add(one_op(wl, ctx), "warm-up")
    ops = []
    # The other set-ups are spread over the run, so that their median, like
    # that of the ops, averages over the machine's slow drifts in speed.
    elapsed = 0.0  # time spent on ops, set-ups excluded
    while True:
        t0 = time.perf_counter()
        ops.append(tally.add(one_op(wl, ctx), "timed"))
        elapsed += time.perf_counter() - t0
        if elapsed >= args.seconds:
            break
        if elapsed >= len(setup_times) * args.seconds / (SETUP_REPEATS - 1):
            setup_times.append(setup_in_subprocess(args, work, len(setup_times))[0])
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_in_subprocess(args, work, len(setup_times))[0])

    secs = [r.seconds for r in ops]
    values = [r.value for r in ops if r.value is not None] or [0.0]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": statistics.median(setup_times), "op_s": statistics.median(secs),
               "accuracy": statistics.median(values), "peak_rss_mb": peak_mb}
    detail = {"setup_s": summarize(setup_times), "op_s": summarize(secs),
              "accuracy": summarize(values),
              "failed_op_ratio": tally.failed / tally.attempted,
              "local_bayes_ceiling": ctx.info.get("local_bayes_ceiling")}
    # the same figures under the names of the quantities they are on this workload
    if args.workload.startswith("train_"):
        detail["train_run_s"], detail["val_per_pixel"] = detail["op_s"], detail["accuracy"]
    elif args.workload == "eval_histnet":
        detail["eval_images_per_s"] = summarize([ctx.scale.n_test_eval / s for s in secs])
        detail["test_per_pixel"] = detail["accuracy"]
    else:
        detail["verify_s"] = detail["op_s"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}),
          flush=True)
    return result_line(tally, metrics, units)


def traced_run(args, wl, scale, work: Path, units: dict) -> dict:
    setup_tracer = Tracer()
    with setup_tracer:
        wl.setup(args.workload, args.seed, scale, work / "setup")
    ctx = wl.context(args.workload, args.seed, scale, work / "setup")
    tally = Tally()
    tally.add(one_op(wl, ctx), "warm-up")
    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(tally.add(one_op(wl, ctx), "untraced").seconds)
        traced.append(tally.add(one_op(wl, ctx, tracer), "traced").seconds)
        if time.perf_counter() >= deadline:
            break
    metrics = tracer.per_op_metrics(len(traced))
    metrics.update(setup_tracer.setup_metrics())
    metrics["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "detail": {"untraced_op_s": summarize(plain),
                                 "traced_op_s": summarize(traced)}}), flush=True)
    return result_line(tally, metrics, units)


def result_line(tally: Tally, metrics: dict, units: dict) -> dict:
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                         "are emitted or declared but not both")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                        for name in units}}


if __name__ == "__main__":
    sys.exit(main())
