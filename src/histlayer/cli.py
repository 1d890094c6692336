"""Command-line entry point.

Subcommands: gen-data, train, eval, gradcheck, inspect-histogram, compare.
Exit codes: 0 success, 2 config error, 3 I/O or format error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import verify
from .autodiff import Tensor
from .checkpoint import CheckpointFormatError, load_checkpoint, load_into, save_checkpoint
from .config import ConfigError, RunConfig, eval_threads, load_config, write_resolved
from .data import (DatasetFormatError, default_spec, generate, local_bayes_ceiling,
                   read_dataset, write_dataset)
from .histogram import histogram_table
from .networks import (BASELINE_MODES, HistNetConfig, Network, TrainSchedule,
                       evaluate, parameter_census, train_base, two_phase_train)

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4

_SPLIT_SALT = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1


def _split_seed(master: int, index: int) -> int:
    return (master + _SPLIT_SALT * (index + 1)) & _U64


def net_config(cfg: RunConfig, mode: str | None = None) -> HistNetConfig:
    return HistNetConfig(K=cfg.K, B=cfg.B, D_in=cfg.D, C_feat=cfg.C_feat,
                         stages=cfg.stages, baseline_mode=mode or cfg.mode,
                         share_stage_params=cfg.share_stage_params)


def schedule(cfg: RunConfig, seed: int) -> TrainSchedule:
    return TrainSchedule(epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
                         momentum=cfg.momentum, lr_decay=cfg.lr_decay,
                         decay_epoch=cfg.decay_epoch, seed=seed)


def scene_spec(cfg: RunConfig):
    return default_spec(K=cfg.K, D=cfg.D, noise_sigma=cfg.noise_sigma,
                        ambiguous_occupancy=cfg.ambiguous_occupancy)


def _write_log(rows, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["phase", "epoch", "split", "loss", "per_pixel", "per_class"])
        for r in rows:
            writer.writerow([r.phase, r.epoch, r.split,
                             repr(r.loss), repr(r.per_pixel), repr(r.per_class)])


# --------------------------------------------------------------------------
# commands

def cmd_gen_data(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = scene_spec(cfg)
    sizes = {"train": cfg.n_train, "val": cfg.n_val, "test": cfg.n_test}
    for i, (split, n) in enumerate(sizes.items()):
        ds = generate(spec, n, cfg.H, cfg.W, _split_seed(cfg.seed, i))
        write_dataset(ds, out_dir / f"{split}.hctx")
        print(f"wrote {out_dir / (split + '.hctx')} ({n} images)")
    write_resolved(cfg, out_dir)
    return 0


def _load_splits(data_dir: Path):
    splits = {}
    for split in ("train", "val", "test"):
        path = data_dir / f"{split}.hctx"
        if not path.exists():
            raise FileNotFoundError(f"missing dataset file {path}; run gen-data first")
        splits[split] = read_dataset(path)
    return splits


def train_run(cfg: RunConfig, out_dir: Path, data_dir: Path,
              base_ckpt: Path | None = None, seed: int | None = None,
              mode: str | None = None) -> dict:
    """Train one model (base pretrain included if needed); returns a summary."""
    seed = cfg.seed if seed is None else seed
    mode = mode or cfg.mode
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = _load_splits(data_dir)
    train_ds, val_ds = splits["train"], splits["val"]
    rows = []

    if base_ckpt is not None and not base_ckpt.exists():
        raise FileNotFoundError(f"base checkpoint not found: {base_ckpt}")
    if base_ckpt is None:
        base_net = Network(net_config(cfg, "base_only"), seed=seed)
        rows += train_base(base_net, train_ds, val_ds, schedule(cfg, seed))
        base_ckpt = out_dir / "base.hprm"
        save_checkpoint(base_net.state(), base_ckpt)
    base_params = load_checkpoint(base_ckpt)

    summary = {"mode": mode, "seed": seed}
    if mode == "base_only":
        net = Network(net_config(cfg, mode), seed=seed)
        for name in net.base_param_names:
            net.params[name].data[...] = base_params[name].data
    else:
        net = Network(net_config(cfg, mode), seed=seed)
        rows2, phase_info = two_phase_train(net, base_params, train_ds, val_ds,
                                            schedule(cfg, seed))
        rows += rows2
        summary.update(phase_info)
    save_checkpoint(net.state(), out_dir / "final.hprm")
    _write_log(rows, out_dir / "log.csv")
    write_resolved(cfg, out_dir)

    for split in ("val", "test"):
        m = evaluate(net, splits[split])
        summary[f"{split}_per_pixel"] = m["per_pixel"]
        summary[f"{split}_per_class"] = m["per_class"]
    summary["census"] = parameter_census(net)["extra_trainable"]
    summary["log_rows"] = len(rows)
    return summary


def cmd_train(cfg: RunConfig, out_dir: Path, data_dir: Path,
              base_ckpt: Path | None) -> int:
    summary = train_run(cfg, out_dir, data_dir, base_ckpt)
    for key, val in summary.items():
        print(f"{key}: {val}")
    return 0


def cmd_eval(cfg: RunConfig, ckpt: Path, data_path: Path, out_dir: Path) -> int:
    ds = read_dataset(data_path)
    if ds.spec.K != cfg.K or ds.features.shape[1] != cfg.D:
        raise ConfigError(
            f"checkpoint {ckpt} expects K={cfg.K}, D={cfg.D} but dataset "
            f"{data_path} has K={ds.spec.K}, D={ds.features.shape[1]}")
    net = Network(net_config(cfg), seed=cfg.seed)
    load_into(net.state(), ckpt)
    m = evaluate(net, ds)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"per_pixel: {m['per_pixel']!r}")
    print(f"per_class: {m['per_class']!r}")
    for k, r in enumerate(m["recalls"]):
        print(f"recall[{k}]: {float(r)!r}")
    with open(out_dir / "metrics.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["metric", "value"])
        w.writerow(["per_pixel", repr(m["per_pixel"])])
        w.writerow(["per_class", repr(m["per_class"])])
        for k, r in enumerate(m["recalls"]):
            w.writerow([f"recall_{k}", repr(float(r))])
    np.savetxt(out_dir / "confusion.csv", m["confusion"], fmt="%d", delimiter=",")
    write_resolved(cfg, out_dir)
    return 0


def run_gradcheck(cfg: RunConfig, seed: int = 0, corrupt: str | None = None):
    """Finite-difference suite over primitives and a full network graph.

    `corrupt` names one of `verify.PRIMITIVES` whose backward pass is
    deliberately broken, as a sanity check that the harness can actually
    fail: its `gradcheck_<op>` report must fail.
    """
    undo = None
    if corrupt is not None:
        if corrupt not in verify.PRIMITIVES:
            raise ConfigError(f"cannot corrupt {corrupt!r}: expected one of "
                              f"{', '.join(verify.PRIMITIVES)}")
        original = getattr(ad, corrupt)

        def broken(*args, **kwargs):
            result = original(*args, **kwargs)
            out = result[0] if isinstance(result, tuple) else result
            inner = out._backward

            def bad():
                out.grad *= 1.5
                inner()

            out._backward = bad
            return result

        setattr(ad, corrupt, broken)
        undo = (corrupt, original)

    try:
        reports = verify.primitive_reports(seed)
        reports.append(verify.check_histogram_gradients(seed + 1, 3))
        reports.append(_full_network_gradcheck(cfg, seed + 2))
    finally:
        if undo is not None:
            setattr(ad, undo[0], undo[1])
    return reports


def _full_network_gradcheck(cfg: RunConfig, seed: int):
    rng = np.random.default_rng(seed)
    small = HistNetConfig(K=3, B=4, D_in=4, C_feat=5, stages=cfg.stages,
                          baseline_mode="histnet")
    net = Network(small, seed=seed)
    feats = Tensor(rng.standard_normal((2, small.D_in, 3, 3)))
    labels = rng.integers(0, small.K, size=(2, 3, 3))

    def loss_fn():
        loss, _ = net.loss(feats, labels)
        return loss

    worst = 0.0
    skipped = 0
    for p in net.params.values():
        res = ad.grad_check(loss_fn, p, eps=verify.FD_EPS,
                            kink_margin=verify.KINK_MARGIN, max_entries=6, rng=rng)
        worst = max(worst, res.max_rel_err)
        skipped += len(res.skipped)
        if res.max_rel_err >= verify.TOL_FINITE_DIFF:
            return verify.PropertyReport("full_network_finite_differences", 1, worst,
                                         skipped, False, seed,
                                         f"worst parameter: {p.name}")
    return verify.PropertyReport("full_network_finite_differences", 1, worst,
                                 skipped, True, seed)


def cmd_gradcheck(cfg: RunConfig, corrupt: str | None) -> int:
    reports = run_gradcheck(cfg, seed=cfg.seed, corrupt=corrupt)
    ok = True
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max_rel_err={r.max_error:.3e} skipped={r.skipped}")
        if not r.passed:
            ok = False
            if r.detail:
                print(f"     {r.detail}")
    return 0 if ok else EXIT_VERIFY


def cmd_inspect_histogram(ckpt: Path, out_path: Path | None) -> int:
    params = load_checkpoint(ckpt)
    prefixes = [name[:-len(".centers")] for name in params if name.endswith(".centers")]
    if not prefixes:
        raise CheckpointFormatError(f"checkpoint {ckpt} holds no histogram parameters")
    lines = [["class", "bin", "center", "slope", "effective_width", "drifted"]]
    for prefix in prefixes:
        centers = params[f"{prefix}.centers"]
        slopes = params.get(f"{prefix}.slopes")
        if slopes is None or slopes.shape != centers.shape:
            raise CheckpointFormatError(
                f"checkpoint {ckpt}: {prefix}.centers has no matching {prefix}.slopes")
        k, b = centers.shape[:2]
        for row in histogram_table(centers.data.reshape(k, b), slopes.data.reshape(k, b)):
            lines.append([row[0], row[1], repr(row[2]), repr(row[3]),
                          repr(row[4]), row[5]])
    text = "\n".join(",".join(str(c) for c in line) for line in lines) + "\n"
    print(text, end="")
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text)
    return 0


ALL_MODES = ("base_only", "fix_hist", "free_all", "score_global",
             "feat_global", "histnet")


def compare_runs(cfg: RunConfig, out_dir: Path, data_dir: Path,
                 modes=ALL_MODES):
    """Train every requested mode over cfg.compare_seeds seeds.

    Each seed shares one pretrained base checkpoint across modes. Returns
    (per-mode summaries, local Bayes ceiling) and writes compare.csv.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = [cfg.seed + i for i in range(cfg.compare_seeds)]
    results = {m: [] for m in modes}
    for seed in seeds:
        base_dir = out_dir / f"seed{seed}" / "base_only"
        base_summary = train_run(cfg, base_dir, data_dir, seed=seed, mode="base_only")
        if "base_only" in results:
            results["base_only"].append(base_summary)
        base_ckpt = base_dir / "base.hprm"
        for mode in modes:
            if mode == "base_only":
                continue
            run_dir = out_dir / f"seed{seed}" / mode
            results[mode].append(
                train_run(cfg, run_dir, data_dir, base_ckpt=base_ckpt,
                          seed=seed, mode=mode))
    spec = scene_spec(cfg)
    ceiling = local_bayes_ceiling(spec, cfg.n_mc, cfg.seed)
    with open(out_dir / "compare.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["mode", "val_per_pixel", "val_per_class", "test_per_pixel",
                    "test_per_class", "extra_trainable_params", "seeds"])
        for mode in modes:
            rs = results[mode]
            w.writerow([
                mode,
                repr(float(np.mean([r["val_per_pixel"] for r in rs]))),
                repr(float(np.mean([r["val_per_class"] for r in rs]))),
                repr(float(np.mean([r["test_per_pixel"] for r in rs]))),
                repr(float(np.mean([r["test_per_class"] for r in rs]))),
                rs[0]["census"],
                len(rs),
            ])
        w.writerow(["local_bayes_ceiling", repr(ceiling), "", "", "", "", ""])
    write_resolved(cfg, out_dir)
    print(f"wrote {out_dir / 'compare.csv'} (local Bayes ceiling {ceiling:.4f})")
    return results, ceiling


def cmd_compare(cfg: RunConfig, out_dir: Path, data_dir: Path) -> int:
    compare_runs(cfg, out_dir, data_dir)
    return 0


# --------------------------------------------------------------------------
# argument wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="histlayer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=BASELINE_MODES, default=None)
        p.add_argument("--out", type=Path, default=Path("runs"))
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key")

    p = sub.add_parser("gen-data", help="generate train/val/test datasets")
    common(p)

    p = sub.add_parser("train", help="train base and/or context model")
    common(p)
    p.add_argument("--data", type=Path, default=None, help="dataset directory")
    p.add_argument("--base-checkpoint", type=Path, default=None)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    common(p)
    p.add_argument("checkpoint", type=Path)
    p.add_argument("dataset", type=Path)

    p = sub.add_parser("gradcheck", help="finite-difference verification")
    common(p)
    p.add_argument("--corrupt", default=None,
                   help="deliberately break the named op's backward (harness sanity)")

    p = sub.add_parser("inspect-histogram", help="dump learned centers/slopes as CSV")
    common(p)
    p.add_argument("checkpoint", type=Path)
    p.add_argument("--csv", type=Path, default=None)

    p = sub.add_parser("compare", help="train all baseline modes, emit summary CSV")
    common(p)
    p.add_argument("--data", type=Path, default=None)
    return parser


def _resolve(args) -> RunConfig:
    cfg = load_config(args.config, args.set)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.mode is not None:
        cfg.mode = args.mode
    eval_threads()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        out = args.out
        if args.command == "gen-data":
            return cmd_gen_data(cfg, out)
        if args.command == "train":
            return cmd_train(cfg, out, args.data or out, args.base_checkpoint)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, args.dataset, out)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, args.corrupt)
        if args.command == "inspect-histogram":
            return cmd_inspect_histogram(args.checkpoint, args.csv)
        if args.command == "compare":
            return cmd_compare(cfg, out, args.data or out)
        raise AssertionError(args.command)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, DatasetFormatError, CheckpointFormatError, FileNotFoundError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
