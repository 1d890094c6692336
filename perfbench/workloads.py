"""The four benchmark workloads: set-up, one op, and the checks on its outputs.

Every workload calls histlayer through its public API only. The program sees
nothing but the HCTX datasets and HPRM checkpoints generated from the
workload seed. Shapes are the defaults (K=B=6, D=8, C_feat=16, 16x16 pixels,
2 stages, shared stage parameters); only the dataset sizes and the training
schedule are made smaller than the acceptance run so that one run of the
benchmark holds a dozen or more ops.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Names are looked up on the modules at call time, so a tracer that patches
# module attributes sees every call the benchmark makes.
from histlayer import cli, data, verify
from histlayer.config import RunConfig

WORKLOADS = ("train_histnet", "train_score_global", "eval_histnet", "verify_gate")


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload instance. `FULL` is what the benchmark runs."""

    H: int = 16
    W: int = 16
    n_train: int = 100
    n_val: int = 50
    n_test: int = 50
    n_test_eval: int = 1000   # the large test file of eval_histnet
    epochs: int = 3
    decay_epoch: int = 2
    base_epochs: int = 10     # base pretrain in set-up
    # The short schedule reaches the local Bayes ceiling only with a larger
    # step than the default 1e-2.
    lr: float = 0.05
    n_mc: int = 200000
    # verify_gate runs the release gate's own trial counts
    grad_trials: int = 100
    equiv_trials: int = 1000
    oracle_trials: int = 1000
    run_all_trials: int = 50


FULL = Scale()
TINY = Scale(H=8, W=8, n_train=10, n_val=5, n_test=5, n_test_eval=20, epochs=1,
             decay_epoch=1, base_epochs=1, n_mc=2000, grad_trials=2, equiv_trials=4,
             oracle_trials=4, run_all_trials=4)


def run_config(workload: str, seed: int, scale: Scale) -> RunConfig:
    n_test = scale.n_test_eval if workload == "eval_histnet" else scale.n_test
    return RunConfig(seed=seed, H=scale.H, W=scale.W, n_train=scale.n_train,
                     n_val=scale.n_val, n_test=n_test, n_mc=scale.n_mc,
                     epochs=scale.epochs, decay_epoch=scale.decay_epoch, lr=scale.lr)


def quiet(fn, *args, **kwargs):
    """Call fn with its standard output captured, so it cannot mix with ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Context:
    workload: str
    seed: int
    scale: Scale
    work: Path          # the set-up's directory
    out: Path           # where one op writes
    info: dict          # what set-up recorded in setup.json


def setup(workload: str, seed: int, scale: Scale, work: Path) -> dict:
    """Generate this workload's files under `work`; returns and saves its facts."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    work.mkdir(parents=True, exist_ok=True)
    info: dict = {}
    if workload != "verify_gate":
        cfg = run_config(workload, seed, scale)
        quiet(cli.cmd_gen_data, cfg, work / "data")
        info["local_bayes_ceiling"] = data.local_bayes_ceiling(cli.scene_spec(cfg),
                                                               cfg.n_mc, cfg.seed)
        base_cfg = dataclasses.replace(cfg, epochs=scale.base_epochs,
                                       decay_epoch=scale.base_epochs)
        cli.train_run(base_cfg, work / "base", work / "data", mode="base_only")
        if workload == "eval_histnet":
            summary = cli.train_run(cfg, work / "model", work / "data",
                                    base_ckpt=work / "base" / "base.hprm", mode="histnet")
            info["test_per_pixel"] = summary["test_per_pixel"]
    (work / "setup.json").write_text(json.dumps(info))
    return info


def context(workload: str, seed: int, scale: Scale, work: Path) -> Context:
    info = json.loads((work / "setup.json").read_text())
    return Context(workload, seed, scale, work, work / "op", info)


def prepare(ctx: Context) -> None:
    """Untimed: clear the previous op's outputs."""
    shutil.rmtree(ctx.out, ignore_errors=True)


def run(ctx: Context):
    """One op, the part that is timed."""
    cfg = run_config(ctx.workload, ctx.seed, ctx.scale)
    w = ctx.work
    if ctx.workload in ("train_histnet", "train_score_global"):
        mode = ctx.workload[len("train_"):]
        return cli.train_run(cfg, ctx.out, w / "data", base_ckpt=w / "base" / "base.hprm",
                             mode=mode)
    if ctx.workload == "eval_histnet":
        return quiet(cli.cmd_eval, cfg, w / "model" / "final.hprm", w / "data" / "test.hctx",
                     ctx.out)
    s, sc = ctx.seed, ctx.scale
    reports = [verify.check_histogram_gradients(s, sc.grad_trials),
               verify.check_equivalence(s + 1, sc.equiv_trials),
               verify.check_oracle_agreement(s + 2, sc.oracle_trials)]
    return reports + verify.run_all(s + 3, sc.run_all_trials)


def inspect(ctx: Context, raw) -> tuple[float, dict[str, str], list[str]]:
    """Untimed: (accuracy, output digests, failed checks) of one op.

    Accuracy is val per-pixel accuracy for training, test per-pixel accuracy
    for evaluation and the share of passing reports for the verify gate.
    """
    problems: list[str] = []
    if ctx.workload in ("train_histnet", "train_score_global"):
        value = float(raw["val_per_pixel"])
        digests = {f: digest(ctx.out / f) for f in ("log.csv", "final.hprm")}
        if not 0.0 <= value <= 1.0:
            problems.append(f"val_per_pixel {value!r} outside [0, 1]")
        return value, digests, problems
    if ctx.workload == "eval_histnet":
        if raw != 0:
            problems.append(f"cmd_eval returned {raw}")
        with open(ctx.out / "metrics.csv", newline="") as f:
            metrics = {row[0]: row[1] for row in csv.reader(f)}
        value = float(metrics["per_pixel"])
        conf = np.loadtxt(ctx.out / "confusion.csv", delimiter=",", dtype=np.int64)
        sc = ctx.scale
        if int(conf.sum()) != sc.n_test_eval * sc.H * sc.W:
            problems.append(f"confusion matrix sums to {int(conf.sum())}, "
                            f"not N*H*W = {sc.n_test_eval * sc.H * sc.W}")
        if value != ctx.info["test_per_pixel"]:
            problems.append(f"test_per_pixel {value!r} differs from the train_run summary "
                            f"{ctx.info['test_per_pixel']!r} for the same checkpoint")
        digests = {f: digest(ctx.out / f) for f in ("confusion.csv", "metrics.csv")}
        return value, digests, problems
    failing = [r.name for r in raw if not r.passed]
    if failing:
        problems.append(f"verify reports failed: {', '.join(failing)}")
    text = "\n".join(r.to_json() for r in raw)
    value = (len(raw) - len(failing)) / len(raw)
    return value, {"reports": hashlib.sha256(text.encode()).hexdigest()}, problems

