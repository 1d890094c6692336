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


@pytest.mark.parametrize("defect", ["no final.hprm", "unreadable final.hprm", "no log.csv"])
def test_against_checks_the_reference_before_the_recipe_runs(tmp_path, monkeypatch, defect):
    """`--against DIR` ends with one line naming the run whose final.hprm
    does not load or whose log.csv is missing, and trains nothing first."""
    det = load_determinism_script()

    def run_recipe(out):
        raise AssertionError("the recipe ran before the reference was checked")

    monkeypatch.setattr(det, "run_recipe", run_recipe)
    ref = tmp_path / "ref"
    for run in det.RUNS:
        (ref / run).mkdir(parents=True)
        save_checkpoint({}, ref / run / "final.hprm")
        (ref / run / "log.csv").write_text("phase,epoch,split,loss,per_pixel,per_class\n")
    broken = ref / "histnet"
    if defect == "no final.hprm":
        (broken / "final.hprm").unlink()
    elif defect == "unreadable final.hprm":
        (broken / "final.hprm").write_bytes(b"JUNK")
    else:
        (broken / "log.csv").unlink()
    monkeypatch.setattr("sys.argv", ["determinism.py", "--out", str(tmp_path / "out"),
                                     "--against", str(ref)])
    with pytest.raises(SystemExit) as exit_info:
        det.main()
    message = str(exit_info.value.code)
    assert message.startswith("histnet: ") and "\n" not in message
    assert not (tmp_path / "out").exists()
