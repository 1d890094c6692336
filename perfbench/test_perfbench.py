"""Self-tests of the benchmark at tiny scale.

    python3 -m pytest perfbench/test_perfbench.py -q

They are not part of the repository's test suite (`tests/`), and take about
fifteen seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_sources()

import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from histlayer import autodiff  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def tiny_train(tmp_path_factory):
    work = tmp_path_factory.mktemp("train")
    wl.setup("train_histnet", 3, wl.TINY, work)
    return wl.context("train_histnet", 3, wl.TINY, work)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if trace == "0":
            assert m["value"] > 0, name


def test_workloads_are_the_declared_ones():
    assert tuple(w["name"] for w in SPEC["workloads"]) == wl.WORKLOADS


def test_layer_map_covers_exactly_the_per_layer_metrics():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    mapped = [m for g in layer_map["groups"] for m in g["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = set(wl.WORKLOADS)
    for g in layer_map["groups"]:
        assert set(g["moves"]) <= e2e
        assert set(g["on"]) | set(g["no_change_on"]) <= workloads


def test_tracing_restores_every_attribute_and_keeps_output_bytes(tiny_train):
    plain = run.one_op(wl, tiny_train)
    snapshot = tracer.attribute_snapshot()
    t = tracer.Tracer()
    conv1x1 = autodiff.conv1x1
    t.install()
    try:
        assert autodiff.conv1x1 is not conv1x1
        raw = wl.run(tiny_train)
    finally:
        t.uninstall()
    assert tracer.changed_attributes(snapshot) == []
    assert autodiff.conv1x1 is conv1x1
    _, digests, problems = wl.inspect(tiny_train, raw)
    assert problems == []
    assert set(digests) == {"log.csv", "final.hprm"}
    assert digests == plain.digests
    metrics = t.per_op_metrics(1)
    assert metrics["histogram.calls"] > 0
    assert metrics["networks.val_passes_per_epoch"] == 2


def test_eval_outputs_are_identical_traced_and_untraced(tmp_path):
    wl.setup("eval_histnet", 4, wl.TINY, tmp_path)
    ctx = wl.context("eval_histnet", 4, wl.TINY, tmp_path)
    tally = run.Tally()
    tally.add(run.one_op(wl, ctx), "untraced")
    traced = tally.add(run.one_op(wl, ctx, tracer.Tracer()), "traced")
    assert set(traced.digests) == {"confusion.csv", "metrics.csv"}
    assert (tally.attempted, tally.failed) == (2, 0)


def test_a_failing_check_counts_as_a_failed_op(tmp_path, monkeypatch):
    wl.setup("verify_gate", 0, wl.TINY, tmp_path)
    ctx = wl.context("verify_gate", 0, wl.TINY, tmp_path)
    tally = run.Tally()
    tally.add(run.one_op(wl, ctx), "sound")
    relu = autodiff.relu

    def broken_relu(x):
        out = relu(x)
        inner = out._backward

        def bad():
            out.grad *= 1.5
            inner()

        out._backward = bad
        return out

    monkeypatch.setattr(autodiff, "relu", broken_relu)
    res = tally.add(run.one_op(wl, ctx), "broken")
    assert any("verify reports failed" in p for p in res.problems)
    assert (tally.attempted, tally.failed) == (2, 1)
    result = run.result_line(tally, {"x": 1.0}, {"x": "s"})
    assert result["correct"] is False and result["failed"] == 1


def test_changed_output_bytes_count_as_a_failed_op(tiny_train):
    tally = run.Tally()
    tally.add(run.one_op(wl, tiny_train), "first")
    tally.reference = dict(tally.reference, **{"log.csv": "0" * 64})
    res = tally.add(run.one_op(wl, tiny_train), "second")
    assert res.problems == ["log.csv differs from the first op's"]
    assert tally.failed == 1


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_gate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
