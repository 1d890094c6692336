"""The fixed reference kernel of `scripts/bench.py`; its benchmark runs are not run here."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_kernel_reads_a_finite_positive_median():
    kernel = load_bench().reference_kernel()
    assert math.isfinite(kernel["median_s"]) and kernel["median_s"] > 0
    assert kernel["q1"] <= kernel["median_s"] <= kernel["q3"]
    assert kernel["n"] == 5
