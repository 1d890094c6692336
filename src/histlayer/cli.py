"""Command-line entry point.

Subcommands: gen-data, train, eval, gradcheck, inspect-histogram, compare.
Exit codes: 0 success, 2 config error, 3 I/O or format error,
4 verification failure, 5 diverged (in training a parameter or the loss
became non-finite; in `eval`, or the final evaluation of `train`, the loss
is not finite, as when a checkpoint's logits overflow; the command writes
no file), 6 out of memory, 130 interrupted (Ctrl-C), 143 terminated
(SIGTERM).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import signal
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import verify
from .checkpoint import CheckpointFormatError, load_checkpoint, load_into, save_checkpoint
from .config import BASELINE_MODES, ConfigError, RunConfig, load_config, write_resolved
from .data import (DatasetFormatError, default_spec, generate, local_bayes_ceiling,
                   read_dataset, write_dataset)
from .histogram import histogram_table
from .networks import (Network, TrainingDivergedError, evaluate, parameter_census, train_base,
                       two_phase_train)

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4
EXIT_DIVERGED = 5
EXIT_MEMORY = 6
EXIT_INTERRUPTED = 130   # 128 + SIGINT, as a shell reports it
EXIT_TERMINATED = 143    # 128 + SIGTERM

_SPLIT_SALT = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1


def _split_seed(master: int, index: int) -> int:
    return (master + _SPLIT_SALT * (index + 1)) & _U64


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
    """Write the three splits and the resolved config to `out_dir`. On any
    failure the files written so far and the directories made are removed,
    so no partial data set is left."""
    spec = scene_spec(cfg)
    sizes = {"train": cfg.n_train, "val": cfg.n_val, "test": cfg.n_test}
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    written = []
    try:
        for i, (split, n) in enumerate(sizes.items()):
            ds = generate(spec, n, cfg.H, cfg.W, _split_seed(cfg.seed, i))
            out_dir.mkdir(parents=True, exist_ok=True)
            written.append(out_dir / f"{split}.hctx")
            write_dataset(ds, written[-1])
            print(f"wrote {written[-1]} ({n} images)")
        written.append(out_dir / "resolved_config.txt")
        write_resolved(cfg, out_dir)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for d in made:   # deepest first; one that is not empty stays
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    return 0


def _read_matching(cfg: RunConfig, path: Path):
    """Read a dataset file; ConfigError unless its K and D are the config's."""
    ds = read_dataset(path)
    if ds.spec.K != cfg.K or ds.features.shape[1] != cfg.D:
        raise ConfigError(f"config expects K={cfg.K}, D={cfg.D} but dataset {path} "
                          f"has K={ds.spec.K}, D={ds.features.shape[1]}")
    return ds


def _load_splits(cfg: RunConfig, data_dir: Path):
    splits = {}
    for split in ("train", "val", "test"):
        path = data_dir / f"{split}.hctx"
        if not path.exists():
            raise FileNotFoundError(f"missing dataset file {path}; run gen-data first")
        splits[split] = _read_matching(cfg, path)
    return splits


@np.errstate(over="ignore", invalid="ignore")
def _evaluate_finite(net: Network, ds, name: str) -> dict:
    """`evaluate`, with numpy's overflow and invalid-value warnings off as in
    `train_phase`. A pass whose loss is not finite raises
    TrainingDivergedError: its probabilities underflowed or are NaN, so its
    metrics would count meaningless predictions."""
    m = evaluate(net, ds)
    if not np.isfinite(m["loss"]):
        raise TrainingDivergedError(
            f"evaluating {name}: the loss is {m['loss']}; the network's logits diverge")
    return m


def train_run(cfg: RunConfig, out_dir: Path, data_dir: Path,
              base_ckpt: Path | None = None, seed: int | None = None,
              mode: str | None = None) -> dict:
    """Train one model (base pretrain included if needed); returns a summary.

    The model's base is the one pretrained here or the base parameters of
    `base_ckpt`, which may hold more parameters. A context mode's stage-1 val
    accuracy before and after phase 2 is the `stage1_per_pixel` of each
    phase's last val row, or, with no epoch, of the one val pass made here.

    `seed` and `mode`, when given, replace the configuration's, so the
    network, the schedule and the written `resolved_config.txt` all describe
    this run. Every file, `base.hprm` too, is written once training and
    evaluation end, so a failed run writes none and makes no directory."""
    cfg = replace(cfg, seed=cfg.seed if seed is None else seed, mode=mode or cfg.mode)
    splits = _load_splits(cfg, data_dir)
    if base_ckpt is not None and not base_ckpt.exists():
        raise FileNotFoundError(f"base checkpoint not found: {base_ckpt}")
    train_ds, val_ds = splits["train"], splits["val"]
    rows = []

    if base_ckpt is None:
        base_net = Network(replace(cfg, mode="base_only"))
        rows += train_base(base_net, train_ds, val_ds, cfg)
        base = {name: p.data for name, p in base_net.params.items()}
    else:
        base = load_checkpoint(base_ckpt)

    summary = {"mode": cfg.mode, "seed": cfg.seed}
    net = Network(cfg)
    names = net.base_param_names
    load_into({n: net.params[n] for n in names}, {n: v for n, v in base.items() if n in names})
    if cfg.mode != "base_only":
        rows += two_phase_train(net, train_ds, val_ds, cfg)

    # the last epoch-end val pass ran on the final parameters (base_only
    # copies the base it just trained); without one, evaluate val here
    val = asdict(rows[-1]) if rows else _evaluate_finite(net, val_ds, "the val split")
    if cfg.mode != "base_only":   # each phase's last val row; with no epoch, that pass
        ends = {r.phase: r.stage1_per_pixel for r in rows if r.split == "val"}
        summary.update(stage1_before_phase2=ends.get(1, val["stage1_per_pixel"]),
                       stage1_after_phase2=ends.get(2, val["stage1_per_pixel"]))
    test = _evaluate_finite(net, splits["test"], "the test split")
    for split, m in (("val", val), ("test", test)):
        summary[f"{split}_per_pixel"] = m["per_pixel"]
        summary[f"{split}_per_class"] = m["per_class"]
    summary["census"] = parameter_census(net)["extra_trainable"]
    summary["log_rows"] = len(rows)

    out_dir.mkdir(parents=True, exist_ok=True)
    if base_ckpt is None:
        save_checkpoint(base, out_dir / "base.hprm")
    save_checkpoint({name: p.data for name, p in net.params.items()}, out_dir / "final.hprm")
    _write_log(rows, out_dir / "log.csv")
    write_resolved(cfg, out_dir)
    return summary


def cmd_train(cfg: RunConfig, out_dir: Path, data_dir: Path,
              base_ckpt: Path | None) -> int:
    summary = train_run(cfg, out_dir, data_dir, base_ckpt)
    for key, val in summary.items():
        print(f"{key}: {val}")
    return 0


def cmd_eval(cfg: RunConfig, ckpt: Path, data_path: Path, out_dir: Path) -> int:
    ds = _read_matching(cfg, data_path)
    net = Network(cfg)
    load_into(net.params, load_checkpoint(ckpt))
    m = _evaluate_finite(net, ds, f"{ckpt} on {data_path}")
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


def cmd_gradcheck(seed: int, corrupt: str | None) -> int:
    """Run the property battery `verify.run_all(seed)` as JSON lines.

    `corrupt` names one of `verify.PRIMITIVES` whose backward pass is
    deliberately broken, as a sanity check that the harness can actually
    fail: its `gradcheck_<op>` report must fail.
    """
    original = None
    if corrupt is not None:
        if corrupt not in verify.PRIMITIVES:
            raise ConfigError(f"cannot corrupt {corrupt!r}: expected one of "
                              f"{', '.join(verify.PRIMITIVES)}")
        original = getattr(ad, corrupt)

        def broken(*args, **kwargs):
            result = original(*args, **kwargs)
            out = result[0] if isinstance(result, tuple) else result
            inner = out._backward
            if inner is None:  # not recorded: no closure to break
                return result

            def bad():
                out.grad *= 1.5
                inner()

            out._backward = bad
            return result

        setattr(ad, corrupt, broken)
    try:
        reports = verify.run_all(seed)
    finally:
        if original is not None:
            setattr(ad, corrupt, original)
    for r in reports:
        print(r.to_json())
    return 0 if all(r.passed for r in reports) else EXIT_VERIFY


def cmd_inspect_histogram(ckpt: Path, out_path: Path | None) -> int:
    values = load_checkpoint(ckpt)
    centers, slopes = values.get("hist.centers"), values.get("hist.slopes")
    if centers is None:
        raise CheckpointFormatError(f"checkpoint {ckpt} holds no histogram parameters")
    if slopes is None or slopes.shape != centers.shape:
        raise CheckpointFormatError(
            f"checkpoint {ckpt}: hist.centers has no matching hist.slopes")
    if centers.shape[2:] != (1, 1):
        raise CheckpointFormatError(f"checkpoint {ckpt}: hist.centers and hist.slopes have "
                                    f"shape {centers.shape}, expected (K, B, 1, 1)")
    k, b = centers.shape[:2]
    lines = [["class", "bin", "center", "slope", "effective_width", "drifted"]]
    for row in histogram_table(centers.reshape(k, b), slopes.reshape(k, b)):
        lines.append([row[0], row[1], repr(row[2]), repr(row[3]), repr(row[4]), row[5]])
    text = "\n".join(",".join(str(c) for c in line) for line in lines) + "\n"
    print(text, end="")
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text)
    return 0


def compare_runs(cfg: RunConfig, out_dir: Path, data_dir: Path,
                 modes=BASELINE_MODES):
    """Train every requested mode over cfg.compare_seeds seeds.

    Each seed shares one pretrained base checkpoint across modes. Returns
    (per-mode summaries, local Bayes ceiling) and writes compare.csv. Each
    `train_run` makes its directory when it writes its first file, so a
    failed run leaves no empty directory tree.
    """
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

    def common(p, seed=True, mode=True):   # --seed and --mode where the command reads them
        p.add_argument("--config", type=Path, default=None)
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if mode:
            p.add_argument("--mode", choices=BASELINE_MODES, default=None)
        p.add_argument("--out", type=Path, default=Path("runs"))
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key")

    p = sub.add_parser("gen-data", help="generate train/val/test datasets")
    common(p, mode=False)

    p = sub.add_parser("train", help="train base and/or context model")
    common(p)
    p.add_argument("--data", type=Path, default=None, help="dataset directory")
    p.add_argument("--base-checkpoint", type=Path, default=None)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    common(p, seed=False)
    p.add_argument("checkpoint", type=Path)
    p.add_argument("dataset", type=Path)

    p = sub.add_parser("gradcheck", help="run the property battery as JSON lines")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", default=None,
                   help="deliberately break the named op's backward (harness sanity)")

    p = sub.add_parser("inspect-histogram", help="dump learned centers/slopes as CSV")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("--csv", type=Path, default=None)

    p = sub.add_parser("compare", help="train all baseline modes, emit summary CSV")
    common(p, mode=False)
    p.add_argument("--data", type=Path, default=None)
    return parser


def _resolve(args) -> RunConfig:
    cfg = load_config(args.config, args.set)
    for key in ("seed", "mode"):   # an option the command does not take is absent
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
    cfg.validate()
    return cfg


class Terminated(BaseException):
    """Raised by `main`'s SIGTERM handler, so that clean-up runs as for
    Ctrl-C."""


def _terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        # gradcheck reads a seed alone, inspect-histogram no configuration
        if args.command == "gradcheck":
            RunConfig(seed=args.seed).validate()
            return cmd_gradcheck(args.seed, args.corrupt)
        if args.command == "inspect-histogram":
            return cmd_inspect_histogram(args.checkpoint, args.csv)
        cfg = _resolve(args)
        out = args.out
        if args.command == "gen-data":
            return cmd_gen_data(cfg, out)
        if args.command == "train":
            return cmd_train(cfg, out, args.data or out, args.base_checkpoint)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, args.dataset, out)
        if args.command == "compare":
            return cmd_compare(cfg, out, args.data or out)
        raise AssertionError(args.command)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, DatasetFormatError, CheckpointFormatError, FileNotFoundError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except TrainingDivergedError as e:
        print(f"diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except MemoryError as e:
        print(f"out of memory: {e}. The largest arrays are a split's (N, max(D, C_feat, "
              "K*B), H, W) features, N the largest of n_train, n_val and n_test, and the "
              "(n_mc,) draws of the Monte-Carlo ceiling; lower those keys",
              file=sys.stderr)
        return EXIT_MEMORY
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Terminated:
        print("terminated", file=sys.stderr)
        return EXIT_TERMINATED
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
