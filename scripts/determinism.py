#!/usr/bin/env python3
"""Seed-7 determinism recipe: train the base and all six modes, print hashes.

Generates a small dataset (seed 7, 100 train / 60 val / 50 test images at
16x16, n_mc 2000), pretrains a 4-epoch base_only network at lr 0.05 without
decay, then trains every mode from that base with 3 epochs per phase,
decay_epoch 2. Prints one JSON object holding 17 sha256 values: each run's
`log.csv` and `final.hprm`, and the three `data/*.hctx` dataset files.

With `--against DIR` (the `--out` directory of an earlier run, e.g. made
from another commit), it also prints, per run, the largest absolute
difference of any parameter value and of any logged loss, and whether the
accuracy columns of `log.csv` are identical.

Example:
    PYTHONPATH=src python scripts/determinism.py --out runs/det
    PYTHONPATH=src python scripts/determinism.py --out runs/det2 --against runs/det
"""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

from histlayer.checkpoint import load_checkpoint
from histlayer.cli import cmd_gen_data, train_run
from histlayer.config import RunConfig
from histlayer.networks import BASELINE_MODES

RECIPE = RunConfig(seed=7, H=16, W=16, n_train=100, n_val=60, n_test=50, n_mc=2000,
                   lr=0.05, epochs=3, decay_epoch=2)
BASE_EPOCHS = 4
RUNS = ("base_pretrain",) + BASELINE_MODES
FILES = ("log.csv", "final.hprm")
DATASETS = tuple(f"data/{split}.hctx" for split in ("train", "val", "test"))


def run_recipe(out: Path) -> None:
    data = out / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        cmd_gen_data(RECIPE, data)
    base_cfg = dataclasses.replace(RECIPE, epochs=BASE_EPOCHS, decay_epoch=BASE_EPOCHS)
    train_run(base_cfg, out / "base_pretrain", data, mode="base_only")
    base_ckpt = out / "base_pretrain" / "base.hprm"
    for mode in BASELINE_MODES:
        train_run(RECIPE, out / mode, data, base_ckpt=base_ckpt, mode=mode)


def hashes(out: Path) -> dict:
    names = [f"{run}/{name}" for run in RUNS for name in FILES] + list(DATASETS)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _log(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))[1:]


def deviation(out: Path, ref: Path) -> dict:
    """Per run: max |param difference|, max |loss difference|, equal accuracies."""
    result = {}
    for run in RUNS:
        a, b = load_checkpoint(out / run / "final.hprm"), load_checkpoint(ref / run / "final.hprm")
        if a.keys() != b.keys():
            raise SystemExit(f"{run}: parameter names differ from {ref}")
        param = max(float(abs(a[n].data - b[n].data).max(initial=0.0)) for n in a)
        rows, ref_rows = _log(out / run / "log.csv"), _log(ref / run / "log.csv")
        if len(rows) != len(ref_rows):
            raise SystemExit(f"{run}: log.csv has {len(rows)} rows, {ref} has {len(ref_rows)}")
        loss = max((abs(float(r[3]) - float(s[3])) for r, s in zip(rows, ref_rows)),
                   default=0.0)
        same_acc = all(r[4:6] == s[4:6] for r, s in zip(rows, ref_rows))
        result[run] = {"max_param_dev": param, "max_loss_dev": loss,
                       "accuracy_columns_equal": same_acc}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True, help="directory for the runs")
    parser.add_argument("--against", type=Path, default=None,
                        help="--out directory of an earlier run to compare with")
    args = parser.parse_args()

    run_recipe(args.out)
    report = {"sha256": hashes(args.out)}
    if args.against is not None:
        report["against"] = str(args.against)
        report["deviation"] = deviation(args.out, args.against)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
