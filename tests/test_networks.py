import numpy as np
import pytest

import histlayer.autodiff as ad
from histlayer import networks
from histlayer.autodiff import Tensor
from histlayer.data import default_spec, generate
from histlayer.histogram import ComposedHistogram
from histlayer.networks import (BASELINE_MODES, HistNetConfig, Network, TrainSchedule,
                                evaluate, load_base, metrics_from_confusion,
                                parameter_census, train_base, train_phase,
                                two_phase_train)
from histlayer.verify import TOL_STRUCTURAL


def small_cfg(mode="histnet", **kw):
    defaults = dict(K=5, B=3, D_in=6, C_feat=6, stages=2, baseline_mode=mode)
    defaults.update(kw)
    return HistNetConfig(**defaults)


def small_data(n=12, seed=0):
    spec = default_spec(K=5, D=6)
    return generate(spec, n, 6, 6, seed=seed)


# --------------------------------------------------------------------------
# configuration

def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown baseline_mode"):
        small_cfg(mode="magic").validate()


def test_config_rejects_single_stage_context_mode():
    with pytest.raises(ValueError, match="stages >= 2"):
        small_cfg(stages=1).validate()


def test_base_only_allows_single_stage():
    small_cfg(mode="base_only", stages=1).validate()


def test_context_input_dims():
    assert small_cfg("histnet").context_input_dim() == 15
    assert small_cfg("score_global").context_input_dim() == 5
    assert small_cfg("feat_global").context_input_dim() == 6
    assert small_cfg("base_only").context_input_dim() == 0


# --------------------------------------------------------------------------
# construction and forward shapes

@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_forward_shapes_all_modes(mode):
    net = Network(small_cfg(mode), seed=1)
    out = net.forward(Tensor(np.random.default_rng(0).standard_normal((2, 6, 4, 4))))
    ad.reset_tape()
    expected_stages = 1 if mode == "base_only" else 2
    assert len(out.stage_probs) == expected_stages
    for p in out.stage_probs:
        assert p.shape == (2, 5, 4, 4)
    assert out.final_probs.shape == (2, 5, 4, 4)


def test_stage_probs_normalized(rng):
    net = Network(small_cfg(), seed=2)
    out = net.forward(Tensor(rng.standard_normal((3, 6, 5, 5))))
    ad.reset_tape()
    for p in out.stage_probs + [out.final_probs]:
        np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-9)


def test_zeroed_classifier_gives_uniform_probs(rng):
    net = Network(small_cfg("base_only"), seed=3)
    net.params["base.cls.w"].data[...] = 0.0
    net.params["base.cls.b"].data[...] = 0.0
    out = net.forward(Tensor(rng.standard_normal((2, 6, 3, 3))))
    ad.reset_tape()
    np.testing.assert_allclose(out.final_probs.data, 0.2, atol=1e-15)


def test_stage_head_input_width():
    cfg = small_cfg()
    net = Network(cfg, seed=0)
    hw, _ = net.heads[0]
    assert hw.shape[1] == cfg.C_feat + cfg.K * cfg.B


def test_construction_is_seed_deterministic():
    a = Network(small_cfg(), seed=7)
    b = Network(small_cfg(), seed=7)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    c = Network(small_cfg(), seed=8)
    assert not np.array_equal(a.params["fc.w"].data, c.params["fc.w"].data)


def test_zeroed_context_fc_makes_context_modes_agree(rng):
    """With the context projection silenced, every two-stage variant reduces
    to the same feats-only stage-2 classifier."""
    x = rng.standard_normal((2, 6, 4, 4))
    outs = []
    for mode in ("histnet", "score_global", "feat_global"):
        net = Network(small_cfg(mode), seed=11)
        for tag in ("fc.w", "fc.b"):
            net.params[tag].data[...] = 0.0
        # align the parts that differ only through rng consumption order
        if mode != "histnet":
            ref = outs_net
            for name in ("base.f1.w", "base.f2.w", "base.cls.w",
                         "head2.w", "head2.b"):
                net.params[name].data[...] = ref.params[name].data
        else:
            outs_net = net
        out = net.forward(Tensor(x.copy()))
        ad.reset_tape()
        outs.append(out.final_probs.data)
    np.testing.assert_allclose(outs[1], outs[0], atol=1e-12)
    np.testing.assert_allclose(outs[2], outs[0], atol=1e-12)


def test_shared_vs_unshared_stage_parameters():
    shared = Network(small_cfg(stages=3), seed=0)
    assert len(shared.hists) == 1 and len(shared.fcs) == 1 and len(shared.heads) == 2
    solo = Network(small_cfg(stages=3, share_stage_params=False), seed=0)
    assert len(solo.hists) == 2 and len(solo.fcs) == 2 and len(solo.heads) == 2
    assert [p.name for h in solo.hists for p in h.parameters()] == [
        "hist.0.centers", "hist.0.slopes", "hist.1.centers", "hist.1.slopes"]


# --------------------------------------------------------------------------
# parameter census

def census_expect(cfg):
    KB = cfg.K * cfg.B
    d_ctx = cfg.context_input_dim()
    heads = (cfg.stages - 1) * (cfg.K * (cfg.C_feat + KB) + cfg.K)
    branches = 1 if cfg.share_stage_params else cfg.stages - 1
    fc = branches * (KB * d_ctx + KB)
    hist = branches * 2 * KB if cfg.baseline_mode in ("histnet", "free_all") else 0
    if cfg.baseline_mode == "free_all":
        hist = branches * (KB * cfg.K + KB + KB * KB + KB)
    return heads + fc + hist


@pytest.mark.parametrize("mode", ["histnet", "fix_hist", "free_all",
                                  "score_global", "feat_global"])
def test_census_matches_analytic_count(mode):
    cfg = small_cfg(mode)
    census = parameter_census(Network(cfg, seed=0))
    assert census["extra_trainable"] == census_expect(cfg)


def test_census_base_only_empty():
    census = parameter_census(Network(small_cfg("base_only"), seed=0))
    assert census["extra_trainable"] == 0
    assert census["per_param"] == {}


def test_census_histnet_bin_entries():
    cfg = small_cfg("histnet")
    census = parameter_census(Network(cfg, seed=0))["per_param"]
    KB = cfg.K * cfg.B
    assert [n for n in census if n.startswith("hist")] == ["hist.centers", "hist.slopes"]
    assert census["hist.centers"] == KB
    assert census["hist.slopes"] == KB


def test_census_fix_hist_bin_entries():
    census = parameter_census(Network(small_cfg("fix_hist"), seed=0))["per_param"]
    assert census["hist.centers"] == 0 and census["hist.slopes"] == 0


@pytest.mark.parametrize("mode", ["histnet", "fix_hist"])
def test_direct_histogram_matches_composed_reference_in_network(mode):
    """The network's direct-form histogram gives the loss and gradients of the
    same network running the locked composed stack on the same bins."""
    rng = np.random.default_rng(21)
    direct = Network(small_cfg(mode), seed=9)
    for p in direct.params.values():
        p.data[...] = rng.standard_normal(p.shape) * 0.5
    hp = direct.hists[0]
    hp.centers.data[...] = rng.uniform(-0.2, 1.2, size=hp.centers.shape)
    hp.slopes.data[...] = rng.uniform(0.5, 8.0, size=hp.slopes.shape)
    ref = Network(small_cfg(mode), seed=9)
    for name, p in ref.params.items():
        p.data[...] = direct.params[name].data
    layer = ComposedHistogram(ref.hists[0])
    ref.hists[0] = layer
    ds = small_data(3, seed=12)
    feats, labels = Tensor(ds.features), ds.labels

    losses = []
    for net, hist_params in ((direct, hp.parameters()), (ref, layer.parameters())):
        net.zero_grads()
        ad.zero_grads(hist_params)
        loss, _ = net.loss(feats, labels)
        ad.backward(loss)
        losses.append(loss.item())
    assert abs(losses[0] - losses[1]) < TOL_STRUCTURAL
    for name, p in direct.params.items():
        if not name.startswith("hist."):
            np.testing.assert_allclose(p.grad, ref.params[name].grad,
                                       rtol=0, atol=TOL_STRUCTURAL)
    KB = hp.K * hp.B
    diag = np.arange(KB)
    assert np.abs(hp.centers.grad).max() > 1e-6
    np.testing.assert_allclose(hp.centers.grad.reshape(KB), -layer.b1.grad.reshape(KB),
                               rtol=0, atol=TOL_STRUCTURAL)
    np.testing.assert_allclose(hp.slopes.grad.reshape(KB), -layer.w2.grad[diag, diag, 0, 0],
                               rtol=0, atol=TOL_STRUCTURAL)


# --------------------------------------------------------------------------
# evaluation

def test_metrics_fixture_confusion():
    m = metrics_from_confusion(np.array([[2, 0], [1, 1]]))
    assert m["per_pixel"] == pytest.approx(0.75)
    assert m["per_class"] == pytest.approx(0.75)


def test_metrics_absent_class_excluded_from_mean():
    m = metrics_from_confusion(np.array([[3, 0, 0], [0, 0, 0], [1, 0, 1]]))
    assert m["per_class"] == pytest.approx((1.0 + 0.5) / 2)


def test_empty_dataset_rejected():
    net = Network(small_cfg("base_only"), seed=0)
    ds = small_data(2)
    ds.features = ds.features[:0]
    with pytest.raises(ValueError, match="empty"):
        evaluate(net, ds)


def test_confusion_counts_every_pixel():
    net = Network(small_cfg(), seed=0)
    ds = small_data(5)
    conf = evaluate(net, ds)["confusion"]
    assert conf.sum() == 5 * 6 * 6


@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_no_grad_loss_records_nothing_and_matches_recorded(mode):
    net = Network(small_cfg(mode), seed=3)
    ds = small_data(3, seed=4)
    feats = Tensor(ds.features)
    loss, out = net.loss(feats, ds.labels)
    ad.reset_tape()
    with ad.no_grad():
        loss_ng, out_ng = net.loss(feats, ds.labels)
    assert ad._STATE.tape == []
    nodes = [loss_ng, out_ng.final_probs, *out_ng.stage_logits, *out_ng.stage_probs]
    assert all(t.grad is None for t in nodes)
    assert loss_ng.item() == loss.item()
    np.testing.assert_array_equal(out_ng.final_probs.data, out.final_probs.data)
    for a, b in zip(out_ng.stage_logits, out.stage_logits):
        np.testing.assert_array_equal(a.data, b.data)


def test_threaded_evaluation_matches_serial(monkeypatch):
    net = Network(small_cfg(), seed=4)
    ds = small_data(30, seed=5)
    # 8 batches of at most 4 images, so 4 threads get several batches each
    monkeypatch.setattr(networks, "EVAL_BATCH", 4)
    monkeypatch.setenv("HISTLAYER_THREADS", "1")
    serial = evaluate(net, ds)
    monkeypatch.setenv("HISTLAYER_THREADS", "4")
    threaded = evaluate(net, ds)
    np.testing.assert_array_equal(threaded["confusion"], serial["confusion"])
    assert threaded["loss"] == serial["loss"]


def test_evaluation_threads_capped_at_batch_count(monkeypatch):
    pools = []

    class RecordingPool(networks.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(networks, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(networks, "EVAL_BATCH", 4)
    monkeypatch.setenv("HISTLAYER_THREADS", "64")
    evaluate(Network(small_cfg(), seed=4), small_data(30, seed=5))
    assert pools == [8]


def test_evaluate_loss_matches_recorded_two_pass_value(monkeypatch):
    """The merged pass gives the loss of the former separate loss pass: recorded
    batch losses weighted by batch length, summed in batch order, over N."""
    net = Network(small_cfg(), seed=6)
    ds = small_data(12, seed=8)
    monkeypatch.setattr(networks, "EVAL_BATCH", 5)  # batches of 5, 5 and 2
    total = 0.0
    for start in range(0, len(ds), 5):
        stop = min(start + 5, len(ds))
        loss, _ = net.loss(Tensor(ds.features[start:stop]), ds.labels[start:stop])
        total += loss.item() * (stop - start)
    ad.reset_tape()
    assert evaluate(net, ds)["loss"] == total / len(ds)
    assert ad._STATE.tape == []


# --------------------------------------------------------------------------
# training

def schedule(epochs=2):
    return TrainSchedule(epochs=epochs, batch_size=4, decay_epoch=1, seed=0)


def test_train_base_loss_decreases():
    ds = small_data(24, seed=1)
    val = small_data(8, seed=2)
    net = Network(small_cfg("base_only"), seed=0)
    rows = train_base(net, ds, val, TrainSchedule(epochs=6, batch_size=4,
                                                  decay_epoch=5, seed=0))
    train_losses = [r.loss for r in rows if r.split == "train"]
    assert train_losses[-1] < train_losses[0]


def test_phase1_leaves_base_and_bins_bit_identical():
    ds = small_data(16, seed=3)
    val = small_data(8, seed=4)
    base = Network(small_cfg("base_only"), seed=0)
    train_base(base, ds, val, schedule())
    net = Network(small_cfg(), seed=0)
    load_base(net, base.state())
    before = {n: net.params[n].data.copy() for n in net.base_param_names}
    bins_before = (net.hists[0].centers.data.copy(), net.hists[0].slopes.data.copy())
    hist_names = {p.name for p in net.hists[0].parameters()}
    phase1 = [p for n, p in net.params.items()
              if n in net.new_param_names and n not in hist_names]
    train_phase(net, ds, val, phase1, schedule(), phase=1)
    for n, v in before.items():
        np.testing.assert_array_equal(net.params[n].data, v)
    np.testing.assert_array_equal(net.hists[0].centers.data, bins_before[0])
    np.testing.assert_array_equal(net.hists[0].slopes.data, bins_before[1])


def test_two_phase_train_moves_bins_in_phase_two():
    ds = small_data(16, seed=3)
    val = small_data(8, seed=4)
    base = Network(small_cfg("base_only"), seed=0)
    train_base(base, ds, val, schedule())
    net = Network(small_cfg(), seed=0)
    bins_before = net.hists[0].centers.data.copy()
    rows, stage1 = two_phase_train(net, base.state(), ds, val, schedule())
    assert any(r.phase == 1 for r in rows) and any(r.phase == 2 for r in rows)
    assert not np.array_equal(net.hists[0].centers.data, bins_before)
    assert 0.0 <= stage1["stage1_before_phase2"] <= 1.0
    assert 0.0 <= stage1["stage1_after_phase2"] <= 1.0


def test_two_phase_train_rejects_base_only():
    net = Network(small_cfg("base_only"), seed=0)
    with pytest.raises(ValueError, match="context-refinement"):
        two_phase_train(net, net.state(), small_data(4), small_data(4), schedule())


def test_load_base_shape_mismatch_named():
    base = Network(small_cfg("base_only", C_feat=7), seed=0)
    net = Network(small_cfg(), seed=0)
    with pytest.raises(ValueError, match="base.f1.w"):
        load_base(net, base.state())


def test_training_is_reproducible():
    ds = small_data(16, seed=3)
    val = small_data(8, seed=4)
    results = []
    for _ in range(2):
        base = Network(small_cfg("base_only"), seed=0)
        train_base(base, ds, val, schedule())
        net = Network(small_cfg(), seed=0)
        two_phase_train(net, base.state(), ds, val, schedule())
        results.append({n: p.data.copy() for n, p in net.params.items()})
    for n in results[0]:
        np.testing.assert_array_equal(results[0][n], results[1][n])


def test_log_rows_cover_each_epoch_and_split():
    ds = small_data(12, seed=6)
    val = small_data(6, seed=7)
    net = Network(small_cfg("base_only"), seed=0)
    rows = train_base(net, ds, val, schedule(epochs=3))
    assert len(rows) == 6
    assert [(r.epoch, r.split) for r in rows] == [
        (0, "train"), (0, "val"), (1, "train"), (1, "val"), (2, "train"), (2, "val")]


def test_evaluate_metrics_in_unit_interval():
    net = Network(small_cfg(), seed=0)
    m = evaluate(net, small_data(6))
    assert 0.0 <= m["per_pixel"] <= 1.0
    assert 0.0 <= m["per_class"] <= 1.0
