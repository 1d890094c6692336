"""Bit-identity gate: the seed-7 determinism recipe of `scripts/determinism.py`
against `tests/golden/determinism.json`.

Every log.csv, final.hprm and dataset byte of the recipe, the
`gradcheck --seed 0` output and the release gate's reports (histogram finite
differences, direct vs composed equivalence and oracle agreement at the
acceptance seeds and trial counts) must equal the recorded ones. The bits depend
on the interpreter, numpy and the BLAS build, so the test runs only where
the environment fingerprint equals the recorded one and skips, saying why,
elsewhere. A change that moves bits on purpose regenerates the file with

    PYTHONPATH=src python scripts/determinism.py --out DIR > tests/golden/determinism.json
"""

import importlib.util
import json
from pathlib import Path

import pytest

from histlayer.checkpoint import save_checkpoint

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "determinism.json"


def load_determinism_script():
    spec = importlib.util.spec_from_file_location("determinism",
                                                  ROOT / "scripts" / "determinism.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_determinism_recipe_matches_the_golden_file(tmp_path):
    det = load_determinism_script()
    golden = json.loads(GOLDEN.read_text())
    here = det.fingerprint()
    if here != golden["fingerprint"]:
        pytest.skip(f"environment {here} differs from the golden file's "
                    f"{golden['fingerprint']}, so bit identity is not expected")
    result = det.report(tmp_path)
    changed = [name for name, digest in golden["sha256"].items()
               if result["sha256"].get(name) != digest]
    assert changed == []
    assert result["sha256"].keys() == golden["sha256"].keys()
    assert result["gradcheck_sha256"] == golden["gradcheck_sha256"]
    assert result["gate_sha256"] == golden["gate_sha256"]


def test_deviation_names_the_run_whose_checkpoint_it_cannot_read(tmp_path, monkeypatch):
    """A reference run from before HPRM version 2 ends `--against` with one
    line, not a traceback."""
    det = load_determinism_script()
    monkeypatch.setattr(det, "RUNS", ("histnet",))
    for side in ("out", "ref"):
        (tmp_path / side / "histnet").mkdir(parents=True)
        save_checkpoint({}, tmp_path / side / "histnet" / "final.hprm")
    old = tmp_path / "ref" / "histnet" / "final.hprm"
    raw = bytearray(old.read_bytes())
    raw[4] = 1
    old.write_bytes(bytes(raw))
    with pytest.raises(SystemExit, match=r"^histnet: CheckpointFormatError in .*ref.*: "
                                         r"unsupported HPRM version 1, expected 2$"):
        det.deviation(tmp_path / "out", tmp_path / "ref")
