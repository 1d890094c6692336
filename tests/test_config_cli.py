import csv

import numpy as np
import pytest

from histlayer.checkpoint import save_checkpoint
from histlayer.cli import main
from histlayer.config import (ConfigError, RunConfig, dump_config, load_config,
                              parse_config_text)
from histlayer.histogram import ComposedHistogram
from histlayer.networks import HistNetConfig, Network
from histlayer.verify import PRIMITIVES

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
                            "mode = fix_hist\nshare_stage_params = false\n")
    assert cfg.seed == 5 and cfg.lr == 0.5
    assert cfg.mode == "fix_hist" and cfg.share_stage_params is False


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


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_bad_thread_count_exits_2_before_any_work(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("HISTLAYER_THREADS", threads)
    # the files do not exist: an unchecked run would fail later with exit 3
    rc = main(["eval", str(tmp_path / "x.hprm"), str(tmp_path / "x.hctx"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "HISTLAYER_THREADS" in capsys.readouterr().err


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


def test_train_missing_base_checkpoint_exits_3(trained, capsys):
    rc = main(["train", "--out", str(trained["root"] / "r3"),
               "--data", str(trained["data"]),
               "--base-checkpoint", str(trained["root"] / "absent.hprm")] + SMALL)
    assert rc == 3


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


def test_eval_dimension_mismatch_exits_2(trained, capsys):
    rc = main(["eval", str(trained["run"] / "final.hprm"),
               str(trained["data"] / "val.hctx"), "--out",
               str(trained["root"] / "e2"), "--set", "K=5", "--set", "D=6"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "K=5" in err and "K=6" in err


def test_inspect_histogram_fresh_init(tmp_path, capsys):
    net = Network(HistNetConfig(K=2, B=6, D_in=3, C_feat=4), seed=0)
    ckpt = tmp_path / "fresh.hprm"
    save_checkpoint(net.state(), ckpt)
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
    from histlayer.checkpoint import load_checkpoint
    params = load_checkpoint(trained["run"] / "final.hprm")
    centers = params["hist.centers"].data.reshape(36)
    got = np.array([float(r[2]) for r in body])
    np.testing.assert_array_equal(got, centers)


def test_inspect_histogram_without_histogram_exits_3(tmp_path, capsys):
    net = Network(HistNetConfig(K=2, B=3, D_in=3, C_feat=4,
                                baseline_mode="score_global"), seed=0)
    ckpt = tmp_path / "plain.hprm"
    save_checkpoint(net.state(), ckpt)
    assert main(["inspect-histogram", str(ckpt)]) == 3
    assert "no histogram parameters" in capsys.readouterr().err


def test_inspect_histogram_free_all_exits_3(tmp_path, capsys):
    net = Network(HistNetConfig(K=2, B=3, D_in=3, C_feat=4, baseline_mode="free_all"),
                  seed=0)
    ckpt = tmp_path / "free_all.hprm"
    save_checkpoint(net.state(), ckpt)
    assert main(["inspect-histogram", str(ckpt)]) == 3
    assert "no histogram parameters" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["histnet", "fix_hist"])
def test_eval_composed_histogram_checkpoint_exits_3(trained, tmp_path, capsys, mode):
    """A checkpoint holding the composed kernels hist.w1/b1/w2/b2 does not load
    into a histnet or fix_hist network, whose histogram is hist.centers/slopes."""
    net = Network(HistNetConfig(baseline_mode=mode), seed=0)
    params = {n: p for n, p in net.state().items() if not n.startswith("hist.")}
    for p in ComposedHistogram(net.hists[0]).parameters():
        params[p.name] = p
    ckpt = tmp_path / "composed.hprm"
    save_checkpoint(params, ckpt)
    rc = main(["eval", str(ckpt), str(trained["data"] / "val.hctx"),
               "--mode", mode, "--out", str(tmp_path / "out")] + SMALL)
    assert rc == 3
    err = capsys.readouterr().err
    assert "parameter mismatch" in err and "hist.w2" in err and "hist.centers" in err


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--set", "stages=2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "full_network_finite_differences" in out


@pytest.mark.parametrize("op", PRIMITIVES)
def test_gradcheck_corrupt_backward_exits_4(capsys, op):
    assert main(["gradcheck", "--corrupt", op]) == 4
    assert f"FAIL gradcheck_{op}:" in capsys.readouterr().out


@pytest.mark.parametrize("op", ["frobnicate", "backward", "IGNORE_LABEL"])
def test_gradcheck_corrupt_unknown_op_exits_2(capsys, op):
    assert main(["gradcheck", "--corrupt", op]) == 2
