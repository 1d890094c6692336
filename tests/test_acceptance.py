"""Acceptance gate: one test per release criterion, each printing a verdict line.

The experiment-level criteria share a single comparison run (three modes,
three seeds) at a reduced but representative training scale so the whole
gate stays inside its time budget.
"""

import time

import numpy as np
import pytest

from histlayer import verify
from histlayer.checkpoint import load_checkpoint, load_into
from histlayer.cli import cmd_gen_data, compare_runs, train_run
from histlayer.config import RunConfig
from histlayer.data import generate, default_spec
from histlayer.histogram import init_params
from histlayer.networks import Network, train_base, two_phase_train
from histlayer.verify import TOL_FINITE_DIFF, TOL_STRUCTURAL


def verdict(criterion, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert passed, line


def small_compare_config():
    return RunConfig(n_train=400, n_val=200, n_test=200, H=16, W=16,
                     epochs=20, decay_epoch=14, compare_seeds=3, seed=0)


@pytest.fixture(scope="session")
def comparison(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    cfg = small_compare_config()
    cmd_gen_data(cfg, root / "data")
    start = time.monotonic()
    results, ceiling = compare_runs(cfg, root / "runs", root / "data",
                                    modes=("base_only", "score_global", "histnet"))
    elapsed = time.monotonic() - start
    return {"results": results, "ceiling": ceiling, "elapsed": elapsed,
            "root": root, "cfg": cfg}


def mean_val(results, mode):
    return float(np.mean([r["val_per_pixel"] for r in results[mode]]))


# --------------------------------------------------------------------------

def test_criterion_1_direct_gradients_finite_difference():
    start = time.monotonic()
    report = verify.check_histogram_gradients(seed=0, trials=100)
    elapsed = time.monotonic() - start
    ok = report.passed and report.trials >= 100 and elapsed < 30
    verdict("histogram finite-difference gradients", ok,
            f"{report.trials} instances, max_rel_err={report.max_error:.3e} "
            f"(tol {TOL_FINITE_DIFF}), skipped={report.skipped}, {elapsed:.1f}s")


def test_criterion_2_composed_equivalence():
    start = time.monotonic()
    report = verify.check_equivalence(seed=1, trials=1000)
    elapsed = time.monotonic() - start
    ok = report.passed and report.max_error < TOL_STRUCTURAL and elapsed < 60
    verdict("direct vs composed equivalence", ok,
            f"1000 instances, max_abs_err={report.max_error:.3e} "
            f"(tol {TOL_STRUCTURAL}), {elapsed:.1f}s")


def test_criterion_3_oracle_agreement():
    report = verify.check_oracle_agreement(seed=2, trials=1000)
    ok = report.passed and report.max_error < TOL_STRUCTURAL
    verdict("brute-force oracle agreement", ok,
            f"1000 instances, max_abs_err={report.max_error:.3e} "
            f"(tol {TOL_STRUCTURAL})")


def test_criterion_4_initialization_fidelity():
    p = init_params(6, 6)
    grid_err = max(
        float(np.abs(p.centers.data[k].ravel()
                     - np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])).max())
        for k in range(6))
    slope_err = float(np.abs(p.slopes.data - 5.0).max())
    unity = verify.check_partition_of_unity(seed=3, trials=200)
    ok = (grid_err <= 1e-15 and slope_err == 0.0
          and unity.passed and unity.max_error < TOL_STRUCTURAL)
    verdict("initialization fidelity and partition of unity", ok,
            f"grid_err={grid_err}, slope_err={slope_err}, "
            f"partition_err={unity.max_error:.3e} over {unity.trials} points")


def test_criterion_5_lock_semantics():
    lock = verify.check_lock_immutability(seed=4)

    spec = default_spec()
    train = generate(spec, 16, 8, 8, seed=10)
    val = generate(spec, 8, 8, 8, seed=11)
    sched = RunConfig(epochs=2, batch_size=4, decay_epoch=1)
    base = Network(RunConfig(mode="base_only"))
    train_base(base, train, val, sched)
    net = Network(RunConfig(mode="fix_hist"))
    centers_before = net.hist.centers.data.copy()
    slopes_before = net.hist.slopes.data.copy()
    load_into({n: net.params[n] for n in net.base_param_names},
              {n: p.data for n, p in base.params.items()})
    two_phase_train(net, train, val, sched)
    frozen = (np.array_equal(net.hist.centers.data, centers_before)
              and np.array_equal(net.hist.slopes.data, slopes_before))
    ok = lock.passed and frozen
    verdict("lock mask semantics under momentum SGD", ok,
            f"structural drift after {lock.trials} steps: {lock.max_error}, "
            f"fix_hist bins bit-identical: {frozen}")


def test_criterion_6_context_gain_over_local_ceiling(comparison):
    ceiling = comparison["ceiling"]
    base = mean_val(comparison["results"], "base_only")
    hist = mean_val(comparison["results"], "histnet")
    ok = (abs(base - ceiling) <= 0.03
          and hist - ceiling >= 0.05
          and comparison["elapsed"] < 900)
    verdict("histogram context beats the local Bayes ceiling", ok,
            f"ceiling={ceiling:.4f} (informational gap to 0.85: "
            f"{abs(ceiling - 0.85):.4f}), base_only={base:.4f} "
            f"(|diff|={abs(base - ceiling):.4f} <= 0.03), histnet={hist:.4f} "
            f"(gain={hist - ceiling:.4f} >= 0.05), "
            f"{comparison['elapsed']:.0f}s of 900s budget, 3 seeds")


def test_criterion_7_two_phase_and_ablation_ordering(comparison):
    results = comparison["results"]
    worst_drop = min(r["stage1_after_phase2"] - r["stage1_before_phase2"]
                     for mode in ("score_global", "histnet")
                     for r in results[mode])
    base = mean_val(results, "base_only")
    score = mean_val(results, "score_global")
    hist = mean_val(results, "histnet")
    ok = worst_drop >= -0.01 and hist >= score >= base
    verdict("two-phase stability and ablation ordering", ok,
            f"worst stage-1 change={worst_drop:+.4f} (floor -0.01), "
            f"histnet={hist:.4f} >= score_global={score:.4f} >= "
            f"base_only={base:.4f}")


def test_criterion_8_bitwise_determinism(comparison):
    root = comparison["root"]
    cfg = RunConfig(n_train=16, n_val=8, n_test=8, H=8, W=8,
                    epochs=2, decay_epoch=1, seed=5)
    for tag in ("d1", "d2"):
        cmd_gen_data(cfg, root / tag)
        train_run(cfg, root / f"run_{tag}", root / tag)
    data_same = all(
        (root / "d1" / f"{s}.hctx").read_bytes()
        == (root / "d2" / f"{s}.hctx").read_bytes()
        for s in ("train", "val", "test"))
    ckpt_same = ((root / "run_d1" / "final.hprm").read_bytes()
                 == (root / "run_d2" / "final.hprm").read_bytes())
    log_same = ((root / "run_d1" / "log.csv").read_bytes()
                == (root / "run_d2" / "log.csv").read_bytes())
    reread = load_checkpoint(root / "run_d1" / "final.hprm")
    reload_ok = all(
        np.array_equal(reread[n], load_checkpoint(
            root / "run_d2" / "final.hprm")[n]) for n in reread)
    ok = data_same and ckpt_same and log_same and reload_ok
    verdict("bitwise determinism of data, training and formats", ok,
            f"datasets identical: {data_same}, checkpoints identical: "
            f"{ckpt_same}, logs identical: {log_same}")
