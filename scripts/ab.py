#!/usr/bin/env python3
"""Alternating pairs of one benchmark workload: a base revision against the checkout.

    python scripts/ab.py --base REV --workload W --pairs N [--seconds 20 --seed 104729]

Exports REV with `git archive` into a temporary directory and runs
`perfbench/run.py --trace 0` there and in this checkout in turn, N times,
swapping which side runs first on each pair. Prints each pair's end-to-end
metrics as they come, then, per metric, both medians, the base's quartiles,
the pairs the change won and whether the bar is met: the change better in
at least 9 of 10 pairs, and the gap between the medians larger than the
base's interquartile range. A pair ties, and counts as not won, when both
sides read the same. A second line per metric gives the median of the
per-pair ratios change/base and a distribution-free interval for it of at
least 95 % coverage, from sign-test order statistics (the 2nd and 9th
smallest of 10 ratios); fewer than 6 pairs admit no such interval. The export is removed afterwards, and `perfbench/run.py`
removes its own work directory, also when the comparison is interrupted
(Ctrl-C or SIGTERM).

Exit status: 0 when every op on both sides passed its checks, 1 otherwise
(whatever the verdict), 2 for a bad argument.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9   # the change must win at least this share of the pairs


def end_to_end_metrics() -> dict[str, str]:
    """Whether lower or higher is better, by end-to-end metric name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float]:
    """q1 and q3 as `perfbench/run.py` reports them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def check_sides(base: list[float], change: list[float]) -> None:
    """`base[i]` and `change[i]` are pair i, so the sides must be equally long."""
    if len(base) != len(change) or not base:
        raise ValueError(f"need equal, nonempty runs per side, got {len(base)} "
                         f"and {len(change)}")


def compare(base: list[float], change: list[float], better: str) -> dict:
    """Medians, the base's quartiles, the pairs won and the verdict for one
    metric; `base[i]` and `change[i]` are pair i."""
    check_sides(base, change)
    sign = {"lower": 1.0, "higher": -1.0}[better]
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    m_base, m_change = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    gap = sign * (m_base - m_change) + 0.0   # > 0 when the change is better; + 0.0 drops -0.0
    return {"base_median": m_base, "change_median": m_change, "base_q1": q1,
            "base_q3": q3, "wins": wins, "pairs": len(base), "gap": gap,
            "bar_met": wins >= WIN_SHARE * len(base) and gap > q3 - q1}


def format_verdict(name: str, r: dict) -> str:
    rel = (r["change_median"] / r["base_median"] - 1.0) * 100 if r["base_median"] else 0.0
    return (f"{name}: median {r['base_median']:.6g} -> {r['change_median']:.6g} "
            f"({rel:+.1f} %), base q1-q3 {r['base_q1']:.6g}-{r['base_q3']:.6g} "
            f"(IQR {r['base_q3'] - r['base_q1']:.3g}), gap {r['gap']:.3g}, change better "
            f"in {r['wins']}/{r['pairs']} pairs, bar {'met' if r['bar_met'] else 'not met'}")


def sign_test_rank(n: int) -> int:
    """The largest r for which the r-th smallest and the r-th largest of n
    pair ratios bound their population median with at least 95 % coverage,
    1 - 2 P(Binomial(n, 1/2) < r); 0 when not even r = 1 does."""
    r, below = 0, 0   # below = 2**n P(Binomial(n, 1/2) < r)
    while 40 * (below + math.comb(n, r)) <= 2 ** n:   # 2 P(...) stays <= 1/20
        below += math.comb(n, r)
        r += 1
    return r


def ratio_summary(base: list[float], change: list[float]) -> dict:
    """The median of the per-pair ratios change/base and its sign-test
    interval `low`-`high`, the `rank`-th ratios from either end, which
    covers the median ratio with probability `coverage`. The interval is
    None with fewer than 6 pairs; the median and the interval are None when
    a base run reads 0, since no ratio exists then."""
    check_sides(base, change)
    n, r = len(base), sign_test_rank(len(base))
    out = {"pairs": n, "rank": r, "median": None, "low": None, "high": None,
           "coverage": 1.0 - 2 * sum(math.comb(n, i) for i in range(r)) / 2 ** n}
    if 0.0 not in base:
        ratios = sorted(c / b for b, c in zip(base, change))
        out["median"] = statistics.median(ratios)
        if r:
            out["low"], out["high"] = ratios[r - 1], ratios[n - r]
    return out


def format_ratio(name: str, s: dict) -> str:
    if s["median"] is None:
        return f"{name}: no change/base ratio, a base run reads 0"
    line = f"{name}: change/base ratio median {s['median']:.4g}"
    n, r = s["pairs"], s["rank"]
    if not r:
        return f"{line}, no 95 % interval from {n} pairs (it takes 6)"
    return (f"{line}, {s['coverage'] * 100:.1f} % interval {s['low']:.4g}-{s['high']:.4g} "
            f"(ratios {r} and {n + 1 - r} of {n} in order)")


def export(rev: str, dest: Path) -> None:
    """Write the tree of `rev` into `dest`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: Path, args) -> dict:
    """One `perfbench/run.py` run in `tree`; its last output line."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    # In its own session a Ctrl-C does not reach the run; it is interrupted
    # here instead, once, so that it removes its work directory. SIGINT is
    # reset for it, since a shell's background job inherits it ignored.
    with subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True,
                          preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL)
                          ) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            proc.send_signal(signal.SIGINT)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise SystemExit(f"ab: {' '.join(cmd)} exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def _terminate(signum, frame):
    raise SystemExit(128 + signum)   # unwinds, so the export and the run are cleaned up


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=104729)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    signal.signal(signal.SIGTERM, _terminate)
    metrics = end_to_end_metrics()
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        try:
            export(args.base, Path(tmp))
        except subprocess.CalledProcessError as e:
            parser.error(f"cannot export {args.base!r}: {e.stderr.decode().strip()}")
        trees = {"base": Path(tmp), "change": ROOT}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(trees[side], args))
            line = {side: {m: runs[side][-1]["metrics"][m]["value"] for m in metrics}
                    for side in ("base", "change")}
            print(json.dumps({"pair": i + 1, "first": order[0], **line}), flush=True)

    all_correct = True
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        all_correct &= all(r["correct"] for r in results)
        print(f"{side}: {sum(r['attempted'] for r in results)} ops, {failed} failed")
    for name, better in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        print(format_verdict(name, compare(values["base"], values["change"], better)))
        print(format_ratio(name, ratio_summary(values["base"], values["change"])))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
