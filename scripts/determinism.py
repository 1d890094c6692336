#!/usr/bin/env python3
"""Seed-7 determinism recipe: train the base and all six modes, print hashes.

Generates a small dataset (seed 7, 100 train / 60 val / 50 test images at
16x16, n_mc 2000), pretrains a 4-epoch base_only network at lr 0.05 without
decay, then trains every mode from that base with 3 epochs per phase,
decay_epoch 2. Prints one JSON object holding the environment fingerprint
(python, numpy, machine and BLAS), 17 sha256 values (each run's `log.csv`
and `final.hprm`, and the three `data/*.hctx` dataset files), the sha256
of `histlayer gradcheck --seed 0` standard output (`gradcheck_sha256`) and
`gate_sha256`, that of the release gate's reports (histogram finite
differences, direct vs composed equivalence and oracle agreement at the
acceptance seeds and trial counts). That object, run without
`--against`, is `tests/golden/determinism.json`, which a tier-1 test
compares with a fresh run wherever the fingerprint matches; a change that
moves bits on purpose regenerates it.

With `--against DIR` (the `--out` directory of an earlier run, e.g. made
from another commit), it also prints, per run, the largest absolute
difference of any parameter value and of any logged loss, and whether the
accuracy columns of `log.csv` are identical. DIR is checked before the
recipe runs: a run whose `final.hprm` does not load or whose `log.csv` is
missing ends the script with one line naming it (exit 1).

Example:
    PYTHONPATH=src python scripts/determinism.py --out runs/det
    PYTHONPATH=src python scripts/determinism.py --out runs/det2 --against runs/det
    PYTHONPATH=src python scripts/determinism.py --out runs/det > tests/golden/determinism.json
"""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

from histlayer.checkpoint import CheckpointFormatError, load_checkpoint
from histlayer import verify
from histlayer.cli import cmd_gen_data, cmd_gradcheck, train_run
from histlayer.config import BASELINE_MODES, RunConfig

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


def fingerprint() -> dict:
    """What the bits may depend on besides the code: the interpreter, numpy
    and the BLAS build that runs every matrix product."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 only prints its configuration
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(),
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_configuration": blas.get("openblas configuration", "")}


def gradcheck_sha256() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cmd_gradcheck(0, None)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def gate_sha256() -> str:
    """sha256 of the release gate's reports, one JSON line each, at the
    acceptance seeds and trial counts."""
    reports = [verify.check_histogram_gradients(0, 100),
               verify.check_equivalence(1, 1000),
               verify.check_oracle_agreement(2, 1000)]
    text = "\n".join(r.to_json() for r in reports)
    return hashlib.sha256(text.encode()).hexdigest()


def report(out: Path) -> dict:
    """Run the recipe into `out`; the object `tests/golden/determinism.json` holds."""
    run_recipe(out)
    return {"fingerprint": fingerprint(), "sha256": hashes(out),
            "gradcheck_sha256": gradcheck_sha256(), "gate_sha256": gate_sha256()}


def _log(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))[1:]


def _final_params(root: Path, run: str) -> dict:
    path = root / run / "final.hprm"
    try:
        return load_checkpoint(path)
    except (CheckpointFormatError, OSError) as e:
        raise SystemExit(f"{run}: {type(e).__name__} in {path}: {e}") from None


def check_reference(ref: Path) -> None:
    """Exit with one line naming the first run of `ref` whose `final.hprm`
    does not load or whose `log.csv` is missing, so that `--against` fails
    before the recipe runs rather than after."""
    for run in RUNS:
        _final_params(ref, run)
        if not (ref / run / "log.csv").is_file():
            raise SystemExit(f"{run}: no log.csv in {ref / run}")


def deviation(out: Path, ref: Path) -> dict:
    """Per run: max |param difference|, max |loss difference|, equal accuracies.
    Exits with one line naming the run when a checkpoint cannot be read, for
    example one written in an older HPRM version."""
    result = {}
    for run in RUNS:
        a, b = _final_params(out, run), _final_params(ref, run)
        if a.keys() != b.keys():
            raise SystemExit(f"{run}: parameter names differ from {ref}")
        param = max(float(abs(a[n] - b[n]).max(initial=0.0)) for n in a)
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

    if args.against is not None:
        check_reference(args.against)
    result = report(args.out)
    if args.against is not None:
        result["against"] = str(args.against)
        result["deviation"] = deviation(args.out, args.against)
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
