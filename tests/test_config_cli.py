import contextlib
import csv
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import histlayer
import histlayer.autodiff as ad
from histlayer import cli, networks, verify
from histlayer.checkpoint import load_checkpoint, load_into, save_checkpoint
from histlayer.cli import main
from histlayer.config import (BASELINE_MODES, ConfigError, RunConfig, dump_config,
                              load_config, parse_config_text)
from histlayer.data import read_dataset, write_dataset
from histlayer.histogram import ComposedHistogram
from histlayer.networks import Network
from histlayer.verify import PRIMITIVES

def values(params):
    """The arrays a checkpoint saves: each parameter's values by name."""
    return {name: p.data for name, p in params.items()}


SMALL = []
for kv in ("n_train=16", "n_val=8", "n_test=8", "H=8", "W=8",
           "epochs=2", "decay_epoch=1", "n_mc=2000"):
    SMALL += ["--set", kv]


# --------------------------------------------------------------------------
# config parsing

def test_parse_defaults_roundtrip():
    cfg = RunConfig()
    assert parse_config_text(dump_config(cfg)) == cfg


def test_parse_values_comments_and_blank_lines():
    cfg = parse_config_text("# a comment\n\nseed = 5\nlr = 0.5  # trailing\n"
                            "mode = fix_hist\n")
    assert cfg.seed == 5 and cfg.lr == 0.5
    assert cfg.mode == "fix_hist"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'lrate'"):
        parse_config_text("lrate = 0.1\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError, match="bad value for 'epochs'"):
        parse_config_text("epochs = soon\n")


def test_parse_rejects_shapeless_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words\n")


def test_overrides_apply_after_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed = 3\nepochs = 7\n")
    cfg = load_config(p, ["epochs=9", "B = 4"])
    assert cfg.seed == 3 and cfg.epochs == 9 and cfg.B == 4


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.cfg")


def test_override_without_equals():
    with pytest.raises(ConfigError, match="key=value"):
        load_config(None, ["epochs"])


# --------------------------------------------------------------------------
# CLI plumbing and exit codes

def test_unknown_override_key_exits_2(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path), "--set", "nope=1"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_eval_missing_dataset_exits_3(tmp_path, capsys):
    rc = main(["eval", str(tmp_path / "x.hprm"), str(tmp_path / "x.hctx"),
               "--out", str(tmp_path)])
    assert rc == 3
    assert "io error" in capsys.readouterr().err


@pytest.mark.parametrize("command,value", [
    ("train", "B=1"), ("train", "lr=-1"), ("train", "mode=bogus"),
    ("train", "batch_size=0"), ("train", "stages=1"), ("train", "momentum=1.5"),
    ("gen-data", "K=3"), ("gen-data", "H=0"), ("gen-data", "noise_sigma=nan"),
    ("gen-data", "noise_sigma=inf"), ("train", "noise_sigma=nan"),
    # a decayed rate that underflows to 0 or overflows to inf
    ("train", "lr=1e-200 lr_decay=1e-200 decay_epoch=0"),
    ("train", "lr=1e300 lr_decay=1e10 decay_epoch=0")])
def test_bad_config_value_exits_2_before_any_work(tmp_path, capsys, command, value):
    args = [command, "--out", str(tmp_path / "out")]
    for kv in value.split():
        args += ["--set", kv]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


TINY = []
for kv in ("n_train=2", "n_val=2", "n_test=2", "H=2", "W=2", "n_mc=10"):
    TINY += ["--set", kv]


def test_gen_data_with_256_classes_exits_2(tmp_path, capsys):
    """Labels are u8, and K tops out at 255, one class below what u8 holds."""
    rc = main(["gen-data", "--out", str(tmp_path / "out"), "--set", "K=256",
               "--set", "D=255"] + TINY)
    assert rc == 2
    assert "K must be at most 255" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_data_accepts_255_classes(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path), "--set", "K=255",
                 "--set", "D=254"] + TINY) == 0
    assert read_dataset(tmp_path / "train.hctx").spec.K == 255


# The CLI in a child process whose address space is capped, so a command
# that tries to allocate gigabytes fails there and not in the test process.
CAPPED_CLI = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({0}, {0})); "
              "from histlayer.cli import main; sys.exit(main(sys.argv[1:]))")
SRC = str(Path(histlayer.__file__).resolve().parents[1])


def run_capped(args, cwd, limit=2 << 30):
    """Run the CLI on `args` in a child limited to `limit` bytes of address space."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", CAPPED_CLI.format(limit), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_class_count_is_checked_before_the_spec_allocates(tmp_path):
    """K=20000 with D=20000 would make default_spec allocate a 3 GB (K, D) array."""
    proc = run_capped(["gen-data", "--out", "out", "--set", "K=20000", "--set", "D=20000"],
                      tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "config error: K must be at most 255, got 20000" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma,rc", [("1e100", 0), ("1.0000001e100", 2), ("1e308", 2)])
def test_noise_sigma_bound_exits_2_without_a_warning(tmp_path, capsys, sigma, rc):
    """Noise above the bound would overflow the features or the Monte-Carlo
    ceiling; it is a config error before any data is drawn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gen-data", "--out", str(tmp_path / "out"),
                     "--set", f"noise_sigma={sigma}"] + TINY) == rc
    err = capsys.readouterr().err
    if rc == 2:
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "noise_sigma" in err
        assert not (tmp_path / "out").exists()
    else:
        assert err == ""


EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e-3, 0.6, 0.9999, 1.0, 10.0, 1e6, 1e100,
                     1.0000001e100, 1e300, 1e308, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True))
COUNTS = st.integers(1, 3)
EDGE_COUNTS = st.sampled_from([-1, 0])

# per RunConfig key: (an accepted value, at a size that trains in
# milliseconds, and an extreme or rejected one)
CONFIG_DRAWS = {
    "seed": (st.integers(0, 2**64 + 3), st.just(-1)),
    "K": (st.sampled_from([5, 6]), st.sampled_from([0, 4, 255, 256])),
    "D": (st.sampled_from([5, 8]), st.sampled_from([0, 4, 254])),
    "H": (COUNTS, EDGE_COUNTS), "W": (COUNTS, EDGE_COUNTS),
    "noise_sigma": (st.one_of(st.floats(0, 2), st.floats(0, 1e100)), EXTREME_FLOATS),
    "ambiguous_occupancy": (st.floats(0, 0.5), EXTREME_FLOATS),
    "n_train": (COUNTS, EDGE_COUNTS), "n_val": (COUNTS, EDGE_COUNTS),
    "n_test": (COUNTS, EDGE_COUNTS), "n_mc": (st.integers(1, 20), EDGE_COUNTS),
    "B": (st.integers(2, 4), st.sampled_from([0, 1, 64])),
    "C_feat": (st.integers(1, 4), EDGE_COUNTS),
    "mode": (st.sampled_from(BASELINE_MODES), st.just("no_such_mode")),
    "epochs": (st.integers(0, 2), st.just(-1)),
    "batch_size": (COUNTS, EDGE_COUNTS),
    "lr": (st.one_of(st.floats(1e-4, 1.0), st.floats(1e-300, 1e300)), EXTREME_FLOATS),
    "momentum": (st.floats(0, 1, exclude_max=True), EXTREME_FLOATS),
    "lr_decay": (st.one_of(st.floats(1e-3, 1.0), st.floats(1e-300, 1.0)), EXTREME_FLOATS),
    "decay_epoch": (st.integers(0, 2), st.just(-1)),
    "compare_seeds": (st.integers(1, 2), EDGE_COUNTS)}


@st.composite
def run_configs(draw):
    """Accepted tiny values for every key, with up to three keys extreme."""
    drawn = draw(st.fixed_dictionaries({k: ok for k, (ok, _) in CONFIG_DRAWS.items()}))
    for key in draw(st.sets(st.sampled_from(sorted(CONFIG_DRAWS)), max_size=3)):
        drawn[key] = draw(CONFIG_DRAWS[key][1])
    return drawn


def run_in_process(argv):
    """`main(argv)` with stdout dropped; (exit code, stderr text). Fails
    when a warning is raised or stderr holds more than one line, a
    traceback or a warning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        rc = main(argv)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert [str(w.message) for w in caught] == []
    return rc, err.getvalue()


def test_no_accepted_configuration_ends_in_a_traceback_or_a_warning(tmp_path_factory):
    """gen-data then train on any configuration: each command exits 0, 2
    (config error) or 5 (diverged), with at most one stderr line, and no
    exception or warning escapes. A run that trains is then evaluated on
    its test split, which exits 0 or 5 in the same way."""
    assert CONFIG_DRAWS.keys() == {f.name for f in fields(RunConfig)}
    root = tmp_path_factory.mktemp("configs")

    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(run_configs())
    def check(drawn):
        out = Path(tempfile.mkdtemp(dir=root))
        sets = [a for key, value in drawn.items() for a in ("--set", f"{key}={value}")]
        for argv in (["gen-data", "--out", str(out)],
                     ["train", "--out", str(out / "run"), "--data", str(out)]):
            rc, err = run_in_process(argv + sets)
            assert rc in (0, 2, 5), (argv[0], rc, err)
        if rc == 0:
            rc, err = run_in_process(["eval", "--out", str(out / "eval"),
                                      str(out / "run" / "final.hprm"),
                                      str(out / "test.hctx")] + sets)
            assert rc in (0, 5), ("eval", rc, err)

    check()


def test_eval_of_a_checkpoint_whose_logits_overflow_exits_5(tmp_path):
    """Stage-2 logits of about ±1e308 overflow to NaN probabilities: one
    diverged: line naming the NaN loss, no warning and no file."""
    sizes = []
    for kv in ("n_train=8", "n_val=4", "n_test=4", "H=4", "W=4", "epochs=1",
               "decay_epoch=1"):
        sizes += ["--set", kv]
    assert run_in_process(["gen-data", "--out", str(tmp_path / "data")] + sizes)[0] == 0
    assert run_in_process(["train", "--out", str(tmp_path / "run"),
                           "--data", str(tmp_path / "data")] + sizes)[0] == 0
    values = load_checkpoint(tmp_path / "run" / "final.hprm")
    values["head2.w"][0] = 1e308
    values["head2.w"][1] = -1e308
    save_checkpoint(values, tmp_path / "bad.hprm")
    rc, err = run_in_process(["eval", "--out", str(tmp_path / "eval"), str(tmp_path / "bad.hprm"),
                              str(tmp_path / "data" / "test.hctx")] + sizes)
    assert rc == cli.EXIT_DIVERGED
    assert err.startswith("diverged: ") and err.count("\n") == 1, err
    assert "the loss is nan; the network's logits diverge" in err
    assert not (tmp_path / "eval").exists()


def test_train_whose_final_loss_is_not_finite_exits_5_without_outputs(tmp_path):
    """With no epoch, no epoch-end pass checks the loss; the final
    evaluation does. Features of about 1e100 overflow the untrained logits."""
    sizes = TINY + ["--set", "noise_sigma=1e100", "--set", "epochs=0"]
    assert run_in_process(["gen-data", "--out", str(tmp_path)] + sizes)[0] == 0
    rc, err = run_in_process(["train", "--out", str(tmp_path / "run")] + sizes
                             + ["--data", str(tmp_path)])
    assert rc == cli.EXIT_DIVERGED
    assert err.startswith("diverged: evaluating the val split: the loss is "), err
    assert not (tmp_path / "run").exists()


def test_split_no_array_can_hold_exits_2_before_any_work(tmp_path):
    proc = run_capped(["gen-data", "--out", "out", "--set", "H=100000000000",
                       "--set", "W=100000000000"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "config error: sizes too large: a split's" in proc.stderr
    assert not (tmp_path / "out").exists()


def assert_out_of_memory(proc):
    assert proc.returncode == cli.EXIT_MEMORY, proc.stderr
    assert "out of memory: " in proc.stderr
    assert "n_train, n_val and n_test" in proc.stderr and "C_feat" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("split", ["n_train", "n_val", "n_test"])
def test_gen_data_out_of_memory_exits_6_and_leaves_no_split(tmp_path, split):
    """A 1.6 TB split is refused at once; the splits written before it and
    the directories gen-data made are removed."""
    proc = run_capped(["gen-data", "--out", "runs/out"] + TINY
                      + ["--set", f"{split}=100000000"], tmp_path)
    assert_out_of_memory(proc)
    assert "Unable to allocate" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_gen_data_failure_keeps_an_existing_directory_and_its_other_files(tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "notes.txt").write_text("kept")
    proc = run_capped(["gen-data", "--out", "out"] + TINY + ["--set", "n_test=100000000"],
                      tmp_path)
    assert_out_of_memory(proc)
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["notes.txt"]


@pytest.mark.parametrize("command", ["train", "compare"])
def test_train_and_compare_out_of_memory_exit_6(tmp_path, command):
    """C_feat=1e8 makes the first base weight a 6.4 GB array."""
    assert main(["gen-data", "--out", str(tmp_path / "data")] + TINY) == 0
    proc = run_capped([command, "--out", "run", "--data", "data"] + TINY
                      + ["--set", "C_feat=100000000"], tmp_path)
    assert_out_of_memory(proc)
    assert not list(tmp_path.glob("run/**/final.hprm"))
    assert not list(tmp_path.glob("run/**/log.csv"))
    assert not (tmp_path / "run").exists()


def test_interrupt_exits_130_with_one_line(tmp_path, monkeypatch, capsys):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "train_run", interrupted)
    assert main(["train", "--out", str(tmp_path / "run")] + TINY) == cli.EXIT_INTERRUPTED == 130
    err = capsys.readouterr().err
    assert err == "interrupted\n"
    assert "Traceback" not in err


def test_train_out_of_memory_keeps_an_existing_out(tmp_path):
    """With no --data, --out is the data directory: it keeps its files and
    gains none."""
    assert main(["gen-data", "--out", str(tmp_path / "data")] + TINY) == 0
    before = sorted(p.name for p in (tmp_path / "data").iterdir())
    proc = run_capped(["train", "--out", "data"] + TINY + ["--set", "C_feat=100000000"],
                      tmp_path)
    assert_out_of_memory(proc)
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == before


@pytest.mark.parametrize("key, per_entry", [("n_mc", 8), ("H", 2000 * 36 * 16 * 8)],
                         ids=["n_mc-draws", "split"])
def test_largest_array_size_bound_is_exact(key, per_entry):
    """Sizes pass while the largest array's byte count fits an intp."""
    most = np.iinfo(np.intp).max // per_entry
    RunConfig(**{key: most}).validate()
    with pytest.raises(ConfigError, match="sizes too large"):
        RunConfig(**{key: most + 1}).validate()


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe")
    rc = main(["gen-data", "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert rc == 2
    assert "is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_data_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["gen-data", "--out", str(tmp_path / sub), "--seed", "9"]
                    + SMALL) == 0
    for split in ("train", "val", "test"):
        assert ((tmp_path / "a" / f"{split}.hctx").read_bytes()
                == (tmp_path / "b" / f"{split}.hctx").read_bytes())
    assert (tmp_path / "a" / "resolved_config.txt").exists()


# --------------------------------------------------------------------------
# end-to-end training runs (shared fixture keeps this quick)

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_runs")
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--out", str(data)] + SMALL) == 0
    assert main(["train", "--out", str(run), "--data", str(data)] + SMALL) == 0
    return {"root": root, "data": data, "run": run}


def read_log(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_train_outputs_exist(trained):
    run = trained["run"]
    for name in ("base.hprm", "final.hprm", "log.csv", "resolved_config.txt"):
        assert (run / name).exists()


def test_train_log_row_count_all_phases(trained):
    rows = read_log(trained["run"] / "log.csv")
    # phases 0 (base), 1 and 2, each epochs x {train, val}
    assert len(rows) == 3 * 2 * 2
    assert sorted({r["phase"] for r in rows}) == ["0", "1", "2"]


def test_train_with_explicit_base_skips_pretrain(trained):
    run2 = trained["root"] / "run2"
    assert main(["train", "--out", str(run2), "--data", str(trained["data"]),
                 "--base-checkpoint", str(trained["run"] / "base.hprm")]
                + SMALL) == 0
    rows = read_log(run2 / "log.csv")
    assert len(rows) == 2 * 2 * 2
    assert sorted({r["phase"] for r in rows}) == ["1", "2"]
    # the base trained in memory and the same base read from its file
    assert (run2 / "final.hprm").read_bytes() == (trained["run"] / "final.hprm").read_bytes()


def test_a_base_checkpoint_may_hold_extra_parameters(trained, tmp_path, capsys):
    """A histnet final.hprm serves as a base: its histogram, fc and head
    values are ignored, so the run equals one from its base values alone."""
    final = trained["run"] / "final.hprm"
    names = Network(RunConfig(mode="base_only")).base_param_names
    only_base = tmp_path / "base.hprm"
    save_checkpoint({n: v for n, v in load_checkpoint(final).items() if n in names},
                    only_base)
    for base, out in ((final, "from_final"), (only_base, "from_base")):
        assert main(["train", "--out", str(tmp_path / out), "--data", str(trained["data"]),
                     "--base-checkpoint", str(base), "--mode", "score_global"]
                    + SMALL) == 0
    capsys.readouterr()
    assert ((tmp_path / "from_final" / "final.hprm").read_bytes()
            == (tmp_path / "from_base" / "final.hprm").read_bytes())


@pytest.mark.parametrize("error, code", [(KeyboardInterrupt, 130),
                                         (networks.TrainingDivergedError("x"), 5),
                                         (MemoryError, 6)],
                         ids=["interrupted", "diverged", "out-of-memory"])
def test_a_failed_train_writes_no_file(trained, tmp_path, monkeypatch, error, code):
    """Training fails after the base pretrain: no base.hprm is left, and an
    --out holding an earlier complete run keeps every byte of it."""
    def failing(*args):
        raise error

    monkeypatch.setattr(cli, "two_phase_train", failing)
    argv = ["train", "--data", str(trained["data"]), "--seed", "3"] + SMALL
    assert main(argv + ["--out", str(tmp_path / "run")]) == code
    assert not (tmp_path / "run").exists()
    old = tmp_path / "old"
    shutil.copytree(trained["run"], old)
    before = {p.name: p.read_bytes() for p in old.iterdir()}
    assert main(argv + ["--out", str(old)]) == code
    assert {p.name: p.read_bytes() for p in old.iterdir()} == before


# The CLI in a child process whose `cli.<hook>` prints `held` and blocks
# from its call number `after` + 1 on, so that a signal sent once the
# child has printed meets the command mid-work whatever the timing.
HELD_CLI = """
import sys, time
from histlayer import cli
hook, after = sys.argv[1], int(sys.argv[2])
real, calls = getattr(cli, hook), []

def held(*args):
    calls.append(args)
    if len(calls) > after:
        print("held", flush=True)
        time.sleep(600)
    return real(*args)

setattr(cli, hook, held)
sys.exit(cli.main(sys.argv[3:]))
"""


def terminated_at(args, cwd, hook, after, line):
    """Run the CLI on `args` in a child, send it SIGTERM once it prints a
    line starting with `line`, and return (exit code, stderr)."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-u", "-c", HELD_CLI, hook, str(after), *args],
                            cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        for out in proc.stdout:
            if out.startswith(line):
                proc.send_signal(signal.SIGTERM)
                break
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    return proc.returncode, err


def test_gen_data_sigterm_exits_143_and_leaves_no_partial_data_set(tmp_path):
    """SIGTERM after the train split is written: the split and --out go."""
    code, err = terminated_at(["gen-data", "--out", "out"] + TINY, tmp_path,
                              "generate", 1, "wrote ")
    assert (code, err) == (cli.EXIT_TERMINATED, "terminated\n")
    assert not (tmp_path / "out").exists()


def test_train_sigterm_after_the_base_pretrain_keeps_an_earlier_run(trained, tmp_path):
    old = tmp_path / "old"
    shutil.copytree(trained["run"], old)
    before = {p.name: p.read_bytes() for p in old.iterdir()}
    code, err = terminated_at(["train", "--data", str(trained["data"]), "--seed", "3",
                               "--out", str(old)] + SMALL, tmp_path,
                              "two_phase_train", 0, "held")
    assert (code, err) == (cli.EXIT_TERMINATED, "terminated\n")
    assert {p.name: p.read_bytes() for p in old.iterdir()} == before


def test_main_restores_the_sigterm_handler(tmp_path, capsys):
    previous = signal.getsignal(signal.SIGTERM)
    assert main(["gen-data", "--out", str(tmp_path / "out")] + TINY) == 0
    assert signal.getsignal(signal.SIGTERM) is previous


def test_train_missing_base_checkpoint_exits_3(trained, capsys):
    rc = main(["train", "--out", str(trained["root"] / "r3"),
               "--data", str(trained["data"]),
               "--base-checkpoint", str(trained["root"] / "absent.hprm")] + SMALL)
    assert rc == 3


@pytest.mark.parametrize("mode", ["histnet", "base_only"])
@pytest.mark.parametrize("defect", ["shape", "missing"])
def test_train_mismatched_base_checkpoint_exits_3(trained, tmp_path, capsys, mode, defect):
    base = Network(RunConfig(C_feat=8 if defect == "shape" else 16, mode="base_only")).params
    if defect == "missing":
        del base["base.f1.w"]
    save_checkpoint(values(base), tmp_path / "base.hprm")
    rc = main(["train", "--out", str(tmp_path / "run"), "--data", str(trained["data"]),
               "--base-checkpoint", str(tmp_path / "base.hprm"), "--mode", mode] + SMALL)
    assert rc == 3
    assert "base.f1.w" in capsys.readouterr().err
    assert not (tmp_path / "run" / "final.hprm").exists()


@pytest.mark.parametrize("command,value", [
    ("train", "D=9"), ("train", "K=5"), ("train", "K=7"), ("compare", "D=9")])
def test_dataset_disagreeing_with_config_exits_2_before_training(trained, tmp_path,
                                                                 capsys, command, value):
    rc = main([command, "--out", str(tmp_path / "run"), "--data", str(trained["data"]),
               "--set", value] + SMALL)
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "K=6, D=8" in err
    assert list(tmp_path.rglob("*.hprm")) == []


@pytest.mark.parametrize("command,args,rc", [
    ("compare", ["--set", "D=9"], 2),
    ("compare", ["--data", "absent"], 3),
    ("train", ["--base-checkpoint", "absent.hprm"], 3)],
    ids=["compare-mismatched-dataset", "compare-missing-data", "train-missing-base"])
def test_failed_input_check_leaves_no_output_directory(trained, tmp_path, capsys,
                                                       command, args, rc):
    args = [str(tmp_path / a) if a.startswith("absent") else a for a in args]
    if "--data" not in args:
        args += ["--data", str(trained["data"])]
    assert main([command, "--out", str(tmp_path / "run")] + args + SMALL) == rc
    assert not (tmp_path / "run").exists()


def test_compare_writes_each_runs_own_seed_and_mode(trained, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--out", str(out), "--data", str(trained["data"]),
                 "--seed", "3"] + SMALL + ["--set", "epochs=1", "--set", "compare_seeds=2"]) == 0
    caller = load_config(out / "resolved_config.txt")
    assert (caller.seed, caller.mode) == (3, "histnet")
    for seed in (3, 4):
        for mode in BASELINE_MODES:
            cfg = load_config(out / f"seed{seed}" / mode / "resolved_config.txt")
            assert cfg == replace(caller, seed=seed, mode=mode)


def test_eval_reproduces_final_log_metrics(trained, capsys):
    run = trained["run"]
    out = trained["root"] / "eval_out"
    assert main(["eval", str(run / "final.hprm"),
                 str(trained["data"] / "val.hctx"), "--out", str(out)] + SMALL) == 0
    capsys.readouterr()
    with open(out / "metrics.csv", newline="") as f:
        metrics = {row[0]: row[1] for row in csv.reader(f)}
    last_val = [r for r in read_log(run / "log.csv") if r["split"] == "val"][-1]
    assert float(metrics["per_pixel"]) == float(last_val["per_pixel"])
    assert float(metrics["per_class"]) == float(last_val["per_class"])
    assert (out / "confusion.csv").exists()


@pytest.mark.parametrize("mode,with_base,epochs,passes", [
    ("histnet", True, 2, 5), ("histnet", False, 2, 7), ("histnet", True, 0, 2),
    ("score_global", True, 0, 2), ("base_only", True, 2, 2), ("base_only", False, 2, 3)])
def test_train_run_evaluates_val_once_per_parameter_state(trained, monkeypatch, tmp_path,
                                                          mode, with_base, epochs, passes):
    calls = []
    real = networks.evaluate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(networks, "evaluate", counting)
    monkeypatch.setattr(cli, "evaluate", counting)
    cfg = load_config(None, SMALL[1::2] + [f"epochs={epochs}"])
    base = trained["run"] / "base.hprm" if with_base else None
    summary = cli.train_run(cfg, tmp_path, trained["data"], base_ckpt=base, mode=mode)
    # one val pass per trained epoch of each phase, or one when no epoch ran
    # or a base_only model was loaded, then one test pass
    assert len(calls) == passes
    # cmd_train prints the summary in this order
    stage1 = [] if mode == "base_only" else ["stage1_before_phase2", "stage1_after_phase2"]
    assert list(summary) == ["mode", "seed", *stage1, "val_per_pixel", "val_per_class",
                             "test_per_pixel", "test_per_class", "census", "log_rows"]

    # the same values as separate passes over the final parameters
    net = Network(replace(cfg, mode=mode))
    load_into(net.params, load_checkpoint(tmp_path / "final.hprm"))
    for split in ("val", "test"):
        m = real(net, read_dataset(trained["data"] / f"{split}.hctx"))
        assert summary[f"{split}_per_pixel"] == m["per_pixel"]
        assert summary[f"{split}_per_class"] == m["per_class"]
        if split == "val" and stage1:
            assert summary["stage1_after_phase2"] == m["stage1_per_pixel"]
            if not epochs:   # no parameter moved, so one pass gives both
                assert summary["stage1_before_phase2"] == m["stage1_per_pixel"]


def test_diverging_run_exits_5_without_final_checkpoint(trained, tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path), "--data", str(trained["data"])]
              + SMALL + ["--set", "lr=1e6", "--set", "batch_size=2"])
    assert rc == 5
    err = capsys.readouterr().err
    assert "diverged" in err and "parameter" in err
    assert not (tmp_path / "final.hprm").exists()
    assert not (tmp_path / "log.csv").exists()


def test_diverging_run_prints_one_line(trained, tmp_path):
    """No numpy overflow warning comes before the one diverged: line."""
    proc = run_capped(["train", "--out", "run", "--data", str(trained["data"])]
                      + SMALL + ["--set", "lr=1e300"], tmp_path)
    assert proc.returncode == 5
    assert proc.stderr.startswith("diverged: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "run" / "final.hprm").exists()


def test_finite_blow_up_exits_5_without_outputs(tmp_path):
    # parameters grow to ~1e53 and stay finite; a label's probability
    # underflows to 0, so the loss is inf
    sizes = []
    for kv in ("n_train=40", "n_val=20", "n_test=20", "H=8", "W=8",
               "epochs=2", "decay_epoch=1"):
        sizes += ["--set", kv]
    assert run_in_process(["gen-data", "--out", str(tmp_path)] + sizes)[0] == 0
    rc, err = run_in_process(["train", "--out", str(tmp_path)] + sizes + ["--set", "lr=1e6"])
    assert rc == 5
    assert err.startswith("diverged: training diverged in phase ") and err.count("\n") == 1, err
    assert " loss is inf, and parameter " in err
    assert not (tmp_path / "final.hprm").exists()
    assert not (tmp_path / "log.csv").exists()


def test_eval_checkpoint_with_trailing_bytes_exits_3(trained, tmp_path, capsys):
    ckpt = tmp_path / "final.hprm"
    ckpt.write_bytes((trained["run"] / "final.hprm").read_bytes() + bytes(70))
    rc = main(["eval", str(ckpt), str(trained["data"] / "val.hctx"),
               "--out", str(tmp_path / "eval")] + SMALL)
    assert rc == 3
    assert "unexpected bytes" in capsys.readouterr().err


def test_eval_dataset_with_a_nan_feature_exits_3(trained, tmp_path, capsys):
    ds = read_dataset(trained["data"] / "val.hctx")
    ds.features[0, 0, 0, 0] = np.nan
    write_dataset(ds, tmp_path / "val.hctx")
    rc = main(["eval", str(trained["run"] / "final.hprm"), str(tmp_path / "val.hctx"),
               "--out", str(tmp_path / "eval")] + SMALL)
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def _non_finite_copy(src, dst, name, value):
    params = load_checkpoint(src)
    params[name].reshape(-1)[0] = value
    save_checkpoint(params, dst)
    return dst


def test_eval_checkpoint_with_a_nan_parameter_exits_3(trained, tmp_path, capsys):
    ckpt = _non_finite_copy(trained["run"] / "final.hprm", tmp_path / "final.hprm",
                            "head2.b", np.nan)
    rc = main(["eval", str(ckpt), str(trained["data"] / "val.hctx"),
               "--out", str(tmp_path / "eval")] + SMALL)
    assert rc == 3
    err = capsys.readouterr().err
    assert "io error" in err and "head2.b holds non-finite values" in err
    assert not (tmp_path / "eval").exists()


def test_train_base_checkpoint_with_an_inf_parameter_exits_3(trained, tmp_path, capsys):
    base = _non_finite_copy(trained["run"] / "base.hprm", tmp_path / "base.hprm",
                            "base.f1.w", np.inf)
    rc = main(["train", "--out", str(tmp_path / "run"), "--data", str(trained["data"]),
               "--base-checkpoint", str(base)] + SMALL)
    assert rc == 3
    err = capsys.readouterr().err
    assert "io error" in err and "base.f1.w holds non-finite values" in err
    assert not (tmp_path / "run" / "final.hprm").exists()


def test_inspect_histogram_non_finite_checkpoint_exits_3(trained, tmp_path, capsys):
    ckpt = _non_finite_copy(trained["run"] / "final.hprm", tmp_path / "final.hprm",
                            "hist.centers", -np.inf)
    assert main(["inspect-histogram", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert "io error" in err and "hist.centers holds non-finite values" in err


def test_eval_dimension_mismatch_exits_2(trained, capsys):
    rc = main(["eval", str(trained["run"] / "final.hprm"),
               str(trained["data"] / "val.hctx"), "--out",
               str(trained["root"] / "e2"), "--set", "K=5", "--set", "D=6"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "K=5" in err and "K=6" in err


def test_inspect_histogram_fresh_init(tmp_path, capsys):
    net = Network(RunConfig(K=2, B=6, D=3, C_feat=4))
    ckpt = tmp_path / "fresh.hprm"
    save_checkpoint(values(net.params), ckpt)
    assert main(["inspect-histogram", str(ckpt),
                 "--csv", str(tmp_path / "hist.csv")]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["class", "bin", "center", "slope", "effective_width", "drifted"]
    body = rows[1:]
    assert len(body) == 2 * 6
    centers = [float(r[2]) for r in body if r[0] == "0"]
    np.testing.assert_allclose(centers, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-12)
    assert all(float(r[3]) == 5.0 for r in body)
    assert all(r[5] == "0" for r in body)
    assert (tmp_path / "hist.csv").read_text() == out


def test_inspect_histogram_trained_bins_match_checkpoint(trained, capsys):
    assert main(["inspect-histogram", str(trained["run"] / "final.hprm")]) == 0
    out = capsys.readouterr().out
    body = list(csv.reader(out.strip().splitlines()))[1:]
    assert len(body) == 6 * 6
    params = load_checkpoint(trained["run"] / "final.hprm")
    centers = params["hist.centers"].reshape(36)
    got = np.array([float(r[2]) for r in body])
    np.testing.assert_array_equal(got, centers)


def test_inspect_histogram_without_histogram_exits_3(tmp_path, capsys):
    net = Network(RunConfig(K=2, B=3, D=3, C_feat=4, mode="score_global"))
    ckpt = tmp_path / "plain.hprm"
    save_checkpoint(values(net.params), ckpt)
    assert main(["inspect-histogram", str(ckpt)]) == 3
    assert "no histogram parameters" in capsys.readouterr().err


def test_inspect_histogram_free_all_exits_3(tmp_path, capsys):
    net = Network(RunConfig(K=2, B=3, D=3, C_feat=4, mode="free_all"))
    ckpt = tmp_path / "free_all.hprm"
    save_checkpoint(values(net.params), ckpt)
    assert main(["inspect-histogram", str(ckpt)]) == 3
    assert "no histogram parameters" in capsys.readouterr().err


def test_eval_rejects_the_parameters_its_network_lacks(trained, tmp_path, capsys):
    """eval, unlike a base load, takes no extra parameter: a histnet
    checkpoint does not evaluate as base_only."""
    rc = main(["eval", str(trained["run"] / "final.hprm"), str(trained["data"] / "val.hctx"),
               "--mode", "base_only", "--out", str(tmp_path / "out")] + SMALL)
    assert rc == 3
    err = capsys.readouterr().err
    assert ("checkpoint/model parameter mismatch: missing [], unexpected ['fc.b', 'fc.w', "
            "'head2.b', 'head2.w', 'hist.centers', 'hist.slopes']") in err
    assert not (tmp_path / "out").exists()


def test_inspect_histogram_bins_of_another_shape_exit_3(tmp_path, capsys):
    """Matching centers and slopes that are not (K, B, 1, 1) end in one line."""
    ckpt = tmp_path / "odd.hprm"
    save_checkpoint({"hist.centers": np.zeros((2, 3, 2, 1)),
                     "hist.slopes": np.ones((2, 3, 2, 1))}, ckpt)
    assert main(["inspect-histogram", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "io error: " in err and "shape (2, 3, 2, 1), expected (K, B, 1, 1)" in err


@pytest.mark.parametrize("mode", ["histnet", "fix_hist"])
def test_eval_composed_histogram_checkpoint_exits_3(trained, tmp_path, capsys, mode):
    """A checkpoint holding the composed kernels hist.w1/b1/w2/b2 does not load
    into a histnet or fix_hist network, whose histogram is hist.centers/slopes."""
    net = Network(RunConfig(mode=mode))
    params = {n: p for n, p in net.params.items() if not n.startswith("hist.")}
    for p in ComposedHistogram(net.hist).parameters():
        params[p.name] = p
    ckpt = tmp_path / "composed.hprm"
    save_checkpoint(values(params), ckpt)
    rc = main(["eval", str(ckpt), str(trained["data"] / "val.hctx"),
               "--mode", mode, "--out", str(tmp_path / "out")] + SMALL)
    assert rc == 3
    err = capsys.readouterr().err
    assert "parameter mismatch" in err and "hist.w2" in err and "hist.centers" in err


def test_a_checkpoint_holds_values_only(trained, tmp_path, capsys):
    """A file carries no lock mask and no momentum, so it cannot unlock the
    bins that fix_hist freezes, and a fix_hist checkpoint evaluates as
    histnet does: the two modes differ only in their lock masks."""
    cfg = RunConfig(mode="fix_hist")
    save_checkpoint(values(Network(cfg).params), tmp_path / "plain.hprm")
    edited = Network(cfg)
    for p in edited.params.values():
        p.lock_mask[...] = 1.0
        p.momentum_buf[...] = 3.0
    ckpt = tmp_path / "edited.hprm"
    save_checkpoint(values(edited.params), ckpt)
    assert ckpt.read_bytes() == (tmp_path / "plain.hprm").read_bytes()

    fresh = Network(replace(cfg, seed=1))
    load_into(fresh.params, load_checkpoint(ckpt))
    for name in ("hist.centers", "hist.slopes"):
        np.testing.assert_array_equal(fresh.params[name].data, edited.params[name].data)
        assert not fresh.params[name].lock_mask.any()

    for mode in ("fix_hist", "histnet"):
        assert main(["eval", str(ckpt), str(trained["data"] / "val.hctx"),
                     "--mode", mode, "--out", str(tmp_path / mode)] + SMALL) == 0
    capsys.readouterr()
    for name in ("metrics.csv", "confusion.csv"):
        assert ((tmp_path / "fix_hist" / name).read_bytes()
                == (tmp_path / "histnet" / name).read_bytes())


@pytest.mark.parametrize("argv", [
    ["inspect-histogram", "x.hprm", "--out", "d"],
    ["inspect-histogram", "x.hprm", "--mode", "free_all"],
    ["inspect-histogram", "x.hprm", "--set", "K=7"],
    ["inspect-histogram", "x.hprm", "--seed", "9"],
    ["inspect-histogram", "x.hprm", "--config", "run.cfg"],
    ["gradcheck", "--mode", "histnet"], ["gradcheck", "--out", "d"],
    ["gradcheck", "--set", "seed=1"], ["gradcheck", "--config", "run.cfg"],
    ["gen-data", "--mode", "free_all"], ["eval", "C", "D", "--seed", "5"],
    ["compare", "--mode", "fix_hist"]])
def test_subcommand_rejects_options_it_does_not_read(capsys, argv):
    # the parser alone: a tree that accepted the option would run the command
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_gradcheck_negative_seed_exits_2(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == 2
    assert "config error" in capsys.readouterr().err


def gradcheck_reports(capsys, argv, rc):
    assert main(["gradcheck"] + argv) == rc
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_gradcheck_passes(capsys):
    reports = gradcheck_reports(capsys, [], 0)
    assert [r["property"] for r in reports if not r["passed"]] == []
    assert "full_network_finite_differences" in [r["property"] for r in reports]


@pytest.mark.parametrize("seed", [0, 3])
def test_gradcheck_prints_the_property_battery(capsys, seed):
    assert main(["gradcheck", "--seed", str(seed)]) == 0
    want = "".join(r.to_json() + "\n" for r in verify.run_all(seed))
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("op", PRIMITIVES)
def test_gradcheck_corrupt_backward_exits_4(capsys, op):
    reports = gradcheck_reports(capsys, ["--corrupt", op], 4)
    failed = [r["property"] for r in reports if not r["passed"]]
    assert f"gradcheck_{op}" in failed
    if op in ("relu", "softmax"):
        assert "full_network_finite_differences" in failed


def test_gradcheck_corrupt_leaves_unrecorded_outputs_alone(monkeypatch, capsys):
    seen = []

    def battery(seed):
        x = ad.Parameter(np.ones((1, 2, 1, 1)))
        with ad.no_grad():
            seen.append(ad.relu(x).requires_grad)
        seen.append(ad.relu(x).requires_grad)
        ad.reset_tape()
        return []

    monkeypatch.setattr(verify, "run_all", battery)
    assert main(["gradcheck", "--corrupt", "relu"]) == 0
    assert seen == [False, True]


@pytest.mark.parametrize("op", ["frobnicate", "backward", "no_grad"])
def test_gradcheck_corrupt_unknown_op_exits_2(capsys, op):
    assert main(["gradcheck", "--corrupt", op]) == 2
