import sys
import threading

import numpy as np
import pytest

import histlayer.autodiff as ad
from histlayer import networks
from histlayer.autodiff import Parameter, Tensor
from histlayer.checkpoint import CheckpointFormatError, load_into
from histlayer.config import BASELINE_MODES, RunConfig
from histlayer.data import default_spec, generate
from histlayer.histogram import ComposedHistogram
from histlayer.networks import (Network, evaluate, metrics_from_confusion,
                                parameter_census, train_base, train_phase,
                                two_phase_train)
from histlayer.verify import TOL_STRUCTURAL


def small_cfg(mode="histnet", **kw):
    defaults = dict(K=5, B=3, D=6, C_feat=6, mode=mode)
    defaults.update(kw)
    return RunConfig(**defaults)


def small_data(n=12, seed=0):
    spec = default_spec(K=5, D=6)
    return generate(spec, n, 6, 6, seed=seed)


def copy_base(net, base):
    """Load a base_only network's values into `net`, as `cli.train_run` does."""
    load_into({n: net.params[n] for n in net.base_param_names},
              {n: p.data for n, p in base.params.items()})


def outputs(net, x):
    """The StageOutputs of the loss pass on features x; labels do not change them."""
    n, _, h, w = x.shape
    _, out = net.loss(Tensor(x), np.zeros((n, h, w), dtype=np.uint8))
    ad.reset_tape()
    return out


# --------------------------------------------------------------------------
# configuration

def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        Network(small_cfg(mode="magic"))


def context_input_dim(cfg):
    return {"score_global": cfg.K, "feat_global": cfg.C_feat,
            "base_only": 0}.get(cfg.mode, cfg.K * cfg.B)


def test_context_input_dims():
    for mode, dim in [("histnet", 15), ("score_global", 5), ("feat_global", 6),
                      ("base_only", 0)]:
        net = Network(small_cfg(mode))
        assert (net.fc[0].shape[1] if net.fc else 0) == dim == context_input_dim(net.cfg)


# --------------------------------------------------------------------------
# construction and forward shapes

@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_forward_shapes_all_modes(mode):
    net = Network(small_cfg(mode, seed=1))
    out = outputs(net, np.random.default_rng(0).standard_normal((2, 6, 4, 4)))
    expected_stages = 1 if mode == "base_only" else 2
    assert len(out.stage_probs) == expected_stages
    for p in out.stage_probs:
        assert p.shape == (2, 5, 4, 4)
    assert out.prediction().shape == (2, 4, 4)


def test_stage_probs_normalized(rng):
    net = Network(small_cfg(seed=2))
    out = outputs(net, rng.standard_normal((3, 6, 5, 5)))
    for p in out.stage_probs:
        np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-9)


def test_zeroed_classifier_gives_uniform_probs(rng):
    net = Network(small_cfg("base_only", seed=3))
    net.params["base.cls.w"].data[...] = 0.0
    net.params["base.cls.b"].data[...] = 0.0
    out = outputs(net, rng.standard_normal((2, 6, 3, 3)))
    np.testing.assert_allclose(out.stage_probs[0].data, 0.2, atol=1e-15)
    # every class ties, and a tie goes to the lowest class
    assert not out.prediction().any()


def test_stage_head_input_width():
    cfg = small_cfg()
    net = Network(cfg)
    hw, _ = net.head
    assert hw.shape[1] == cfg.C_feat + cfg.K * cfg.B


def test_construction_is_seed_deterministic():
    a = Network(small_cfg(seed=7))
    b = Network(small_cfg(seed=7))
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    c = Network(small_cfg(seed=8))
    assert not np.array_equal(a.params["fc.w"].data, c.params["fc.w"].data)


def test_zeroed_context_fc_makes_context_modes_agree(rng):
    """With the context projection silenced, every two-stage variant reduces
    to the same feats-only stage-2 classifier."""
    x = rng.standard_normal((2, 6, 4, 4))
    outs = []
    for mode in ("histnet", "score_global", "feat_global"):
        net = Network(small_cfg(mode, seed=11))
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
        out = outputs(net, x.copy())
        outs.append(([p.data for p in out.stage_probs], out.prediction()))
    for probs, pred in outs[1:]:
        for p, p0 in zip(probs, outs[0][0]):
            np.testing.assert_allclose(p, p0, atol=1e-12)
        np.testing.assert_array_equal(pred, outs[0][1])


_BASE_LAYOUT = [("base.f1.w", (16, 8, 1, 1)), ("base.f1.b", (16, 1, 1, 1)),
                ("base.f2.w", (16, 16, 1, 1)), ("base.f2.b", (16, 1, 1, 1)),
                ("base.cls.w", (6, 16, 1, 1)), ("base.cls.b", (6, 1, 1, 1))]
_BINS = [("hist.centers", (6, 6, 1, 1)), ("hist.slopes", (6, 6, 1, 1))]


def _stage2_layout(d_ctx):
    return [("fc.w", (36, d_ctx, 1, 1)), ("fc.b", (36, 1, 1, 1)),
            ("head2.w", (6, 52, 1, 1)), ("head2.b", (6, 1, 1, 1))]


@pytest.mark.parametrize("mode, extra", [
    ("base_only", []),
    ("histnet", _BINS + _stage2_layout(36)),
    ("fix_hist", _BINS + _stage2_layout(36)),
    ("free_all", [("hist.w1", (36, 6, 1, 1)), ("hist.b1", (36, 1, 1, 1)),
                  ("hist.w2", (36, 36, 1, 1)), ("hist.b2", (36, 1, 1, 1))]
     + _stage2_layout(36)),
    ("score_global", _stage2_layout(6)),
    ("feat_global", _stage2_layout(16)),
])
def test_checkpoint_layout_per_mode(mode, extra):
    """The ordered (name, shape) list that final.hprm writes, at the defaults."""
    net = Network(RunConfig(mode=mode))
    assert [(n, p.shape) for n, p in net.params.items()] == _BASE_LAYOUT + extra


# --------------------------------------------------------------------------
# parameter census

def census_expect(cfg):
    KB = cfg.K * cfg.B
    d_ctx = context_input_dim(cfg)
    head = cfg.K * (cfg.C_feat + KB) + cfg.K
    fc = KB * d_ctx + KB
    hist = 2 * KB if cfg.mode == "histnet" else 0
    if cfg.mode == "free_all":
        hist = KB * cfg.K + KB + KB * KB + KB
    return head + fc + hist


@pytest.mark.parametrize("mode", ["histnet", "fix_hist", "free_all",
                                  "score_global", "feat_global"])
def test_census_matches_analytic_count(mode):
    cfg = small_cfg(mode)
    census = parameter_census(Network(cfg))
    assert census["extra_trainable"] == census_expect(cfg)


def test_census_base_only_empty():
    census = parameter_census(Network(small_cfg("base_only")))
    assert census["extra_trainable"] == 0
    assert census["per_param"] == {}


def test_census_histnet_bin_entries():
    cfg = small_cfg("histnet")
    census = parameter_census(Network(cfg))["per_param"]
    KB = cfg.K * cfg.B
    assert [n for n in census if n.startswith("hist")] == ["hist.centers", "hist.slopes"]
    assert census["hist.centers"] == KB
    assert census["hist.slopes"] == KB


def test_census_fix_hist_bin_entries():
    census = parameter_census(Network(small_cfg("fix_hist")))["per_param"]
    assert census["hist.centers"] == 0 and census["hist.slopes"] == 0


@pytest.mark.parametrize("mode", ["histnet", "fix_hist"])
def test_direct_histogram_matches_composed_reference_in_network(mode):
    """The network's direct-form histogram gives the loss and gradients of the
    same network running the locked composed stack on the same bins."""
    rng = np.random.default_rng(21)
    direct = Network(small_cfg(mode, seed=9))
    for p in direct.params.values():
        p.data[...] = rng.standard_normal(p.shape) * 0.5
    hp = direct.hist
    hp.centers.data[...] = rng.uniform(-0.2, 1.2, size=hp.centers.shape)
    hp.slopes.data[...] = rng.uniform(0.5, 8.0, size=hp.slopes.shape)
    ref = Network(small_cfg(mode, seed=9))
    for name, p in ref.params.items():
        p.data[...] = direct.params[name].data
    layer = ComposedHistogram(ref.hist)
    ref.hist = layer
    ds = small_data(3, seed=12)
    feats, labels = Tensor(ds.features), ds.labels

    losses = []
    for net in (direct, ref):   # fresh parameters: every buffer starts at zero
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
    net = Network(small_cfg("base_only"))
    ds = small_data(2)
    ds.features = ds.features[:0]
    with pytest.raises(ValueError, match="empty"):
        evaluate(net, ds)


def test_confusion_counts_every_pixel():
    net = Network(small_cfg())
    ds = small_data(5)
    conf = evaluate(net, ds)["confusion"]
    assert conf.sum() == 5 * 6 * 6


# values that tie exactly (+0.0 with -0.0 too); then with inf; then with NaN
TIE_VALUES = [np.array([-0.0, 0.0, 0.25, 0.5, 1.0]),
              np.array([-0.0, 0.0, 0.25, 0.5, 1.0, np.inf, -np.inf]),
              np.array([-0.0, 0.0, 0.25, 0.5, 1.0, np.inf, -np.inf, np.nan])]


@pytest.mark.parametrize("stages", [1, 2])
@pytest.mark.parametrize("K", [1, 2, 6, 255])
def test_prediction_is_np_argmax_of_the_mean_of_the_stage_probabilities(K, stages):
    """Byte for byte: ties to the lowest class, the first NaN winning, on
    random arrays where a random share of entries is drawn from TIE_VALUES."""
    rng = np.random.default_rng(K * 10 + stages)
    seen = {"tie": 0, "nan": 0, "inf": 0}
    for trial in range(30):
        values = TIE_VALUES[trial % 3]
        probs = []
        for _ in range(stages):
            p = rng.random((3, K, 4, 5))
            pick = rng.random(p.shape) < rng.random()
            p[pick] = rng.choice(values, size=int(pick.sum()))
            probs.append(Tensor(p))
        with ad.no_grad(), np.errstate(invalid="ignore"):   # inf + -inf is NaN
            mean = ad.mean_tensors(probs).data
            pred = networks.StageOutputs(probs).prediction()
        ref = np.argmax(mean, axis=1)
        assert pred.dtype == np.uint8
        assert pred.astype(ref.dtype).tobytes() == ref.tobytes()
        top = np.take_along_axis(mean, ref[:, None], axis=1)
        seen["tie"] += int(((mean == top).sum(axis=1) > 1).sum())
        seen["nan"] += int(np.isnan(mean).any(axis=1).sum())
        seen["inf"] += int(np.isinf(mean).any(axis=1).sum())
    assert seen["nan"] and seen["inf"] and (seen["tie"] or K == 1)


def test_channel_argmax_on_hand_made_rows():
    rows = [[-0.0, 0.0], [0.0, -0.0], [np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan],
            [-np.inf, -np.inf], [np.inf, np.inf], [1.0, np.inf], [0.5, 0.5]]
    p = np.array(rows).reshape(len(rows), 2, 1, 1)
    pred = networks.channel_argmax(p).ravel().tolist()
    assert pred == np.argmax(p, axis=1).ravel().tolist() == [0, 0, 0, 1, 0, 0, 0, 1, 0]


def test_evaluate_confusion_is_np_argmax_of_a_histnet_batch():
    """At the default shapes (K = 6, 16x16), one evaluation batch."""
    net = Network(RunConfig(seed=5))
    ds = generate(default_spec(), 6, 16, 16, seed=2)
    with ad.no_grad():
        _, out = net.loss(Tensor(ds.features), ds.labels)
    p1, p2 = (p.data for p in out.stage_probs)
    pred = np.argmax((p1 + p2) / 2, axis=1)
    conf = np.zeros((6, 6), dtype=np.int64)
    np.add.at(conf, (ds.labels.ravel(), pred.ravel()), 1)
    np.testing.assert_array_equal(evaluate(net, ds)["confusion"], conf)


@pytest.mark.parametrize("label", [5, 255])
def test_evaluate_rejects_a_label_outside_the_class_range(label):
    # the loss holds labels to [0, K) before a confusion matrix counts them
    ds = small_data(3)
    ds.labels[1, 2, 3] = label
    with pytest.raises(ValueError, match="out of range"):
        evaluate(Network(small_cfg()), ds)


@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_no_grad_loss_records_nothing_and_matches_recorded(mode):
    net = Network(small_cfg(mode, seed=3))
    ds = small_data(3, seed=4)
    feats = Tensor(ds.features)
    loss, out = net.loss(feats, ds.labels)
    ad.reset_tape()
    with ad.no_grad():
        loss_ng, out_ng = net.loss(feats, ds.labels)
    assert ad._STATE.tape == []
    nodes = [loss_ng, *out_ng.stage_probs]
    assert all(t.grad is None for t in nodes)
    assert loss_ng.item() == loss.item()
    np.testing.assert_array_equal(out_ng.prediction(), out.prediction())
    for a, b in zip(out_ng.stage_probs, out.stage_probs):
        np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_training_backward_skips_the_unused_probability_branch(mode):
    net = Network(small_cfg(mode, seed=3))
    ds = small_data(3, seed=4)
    feats = Tensor(ds.features)
    loss, out = net.loss(feats, ds.labels)
    # the last stage's probabilities feed no loss
    pruned = [out.stage_probs[-1]]
    ran = []
    for t in pruned:
        inner = t._backward
        t._backward = lambda inner=inner: ran.append(inner) or inner()
    ad.backward(loss)
    assert ran == []
    assert all(t.grad is None for t in pruned)
    assert feats.grad is None
    # the last stage's loss reached its logits, so its classifier has a gradient
    last = net.head[0] if net.head is not None else net.cls_w
    assert np.any(last.grad != 0)


@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_data_batch_without_gradient_gives_identical_parameter_gradients(mode):
    ds = small_data(3, seed=4)
    grads = []
    for leaf in (Parameter, Tensor):
        net = Network(small_cfg(mode, seed=3))
        loss, _ = net.loss(leaf(ds.features), ds.labels)
        ad.backward(loss)
        grads.append({n: p.grad.tobytes() for n, p in net.params.items()})
    assert grads[0] == grads[1]


CONTEXT_MODES = [m for m in BASELINE_MODES if m != "base_only"]


def phase1_params(net):
    """The context fc layer and the stage-2 head, as two_phase_train's phase 1."""
    return [*net.fc, *net.head]


@pytest.mark.parametrize("mode", CONTEXT_MODES)
def test_phase1_step_gives_the_full_graph_gradients_bitwise(mode):
    """A phase-1 step on cached prefixes moves the fc layer and the head as
    a step whose backward runs through the whole network does. The full
    pass is forced by a base parameter in `trainable` whose zeroed lock
    mask keeps its value."""
    ds, val = small_data(6, seed=4), small_data(3, seed=5)
    results = []
    for full in (True, False):
        net = Network(small_cfg(mode, seed=3))
        trainable = phase1_params(net)
        if full:
            net.f1_w.lock_mask[...] = 0.0
            trainable.append(net.f1_w)
        rows = train_phase(net, ds, val, trainable, schedule(1), phase=1)
        assert net.f1_w.grad.any() == full   # only the full backward reaches the base
        results.append((rows, {n: p.data.tobytes() for n, p in net.params.items()}))
    assert results[0] == results[1]


@pytest.mark.parametrize("mode", CONTEXT_MODES)
def test_phase1_tape_holds_no_base_or_histogram_node(mode):
    net = Network(small_cfg(mode, seed=3))
    ds = small_data(3, seed=4)
    pre = networks.PrefixCache(net, ds, 3).take(slice(0, 3), ds.labels)
    loss, out = net.refine(pre, ds.labels)
    tape = ad._STATE.tape
    # fc, stage-2 head, its softmax and loss, and the mean of the stage losses
    assert len(tape) == 5
    assert tape[0].shape == (3, net.fc[0].shape[0], 1, 1)
    # the stage-2 logits, then their probabilities
    assert tape[1].shape == out.stage_probs[1].shape
    assert ad._softmax_channels(tape[1].data).tobytes() == out.stage_probs[1].data.tobytes()
    assert tape[2] is out.stage_probs[1]
    assert tape[4:] == [loss]
    # stage 1 is cached data: its probabilities take no gradient
    assert not out.stage_probs[0].requires_grad
    ad.reset_tape()


@pytest.mark.parametrize("mode", CONTEXT_MODES)
def test_prefix_of_a_batch_equals_the_per_image_prefixes(mode):
    net = Network(small_cfg(mode, seed=3))
    ds = small_data(5, seed=4)
    with ad.no_grad():
        batch = net.prefix(Tensor(ds.features), ds.labels)
        singles = [net.prefix(Tensor(ds.features[i:i + 1]), ds.labels[i:i + 1])
                   for i in range(len(ds))]

    def parts(pre):
        return [pre.feats.data, pre.probs.data, pre.summary.data]

    for whole, *per_image in zip(parts(batch), *map(parts, singles)):
        assert np.concatenate(per_image).tobytes() == whole.tobytes()
    # each image's loss, rebuilt from the batch's probabilities, is its own pass's
    for i, single in enumerate(singles):
        loss = ad.xent_from_probs(batch.probs.data[i:i + 1], ds.labels[i:i + 1])
        assert loss.data.tobytes() == single.loss.data.tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e6])   # 1e6: stage 1 underflows, the loss is inf
@pytest.mark.parametrize("mode", CONTEXT_MODES)
def test_refine_on_cached_prefixes_matches_the_loss_pass_bitwise(mode, scale):
    ds = small_data(7, seed=4)
    idx = np.array([5, 0, 3])
    labels = ds.labels[idx]
    results = []
    for cached in (False, True):
        net = Network(small_cfg(mode, seed=3))
        net.params["base.cls.w"].data *= scale
        if cached:  # filled in chunks of 2, which split the batch differently
            pre = networks.PrefixCache(net, ds, batch_size=2).take(idx, labels)
            loss, out = net.refine(pre, labels)
        else:
            loss, out = net.loss(Tensor(ds.features[idx]), labels)
        ad.backward(loss)
        results.append((loss.data.tobytes(), [p.data.tobytes() for p in out.stage_probs],
                        out.prediction().tobytes(), loss.item(),
                        [p.grad.tobytes() for p in phase1_params(net)]))
    assert results[0] == results[1]
    assert np.isfinite(results[0][3]) == (scale == 1.0)


def record_prefixes(monkeypatch, calls):
    """Append ("prefix", batch length) to `calls` at each `Network.prefix`."""
    real_prefix = Network.prefix

    def prefix(self, features, labels):
        calls.append(("prefix", features.shape[0]))
        return real_prefix(self, features, labels)

    monkeypatch.setattr(Network, "prefix", prefix)


# the train split's 10 images, then the val split's 6, in chunks of 4
ONCE_EACH = [("prefix", 4), ("prefix", 4), ("prefix", 2), ("prefix", 4), ("prefix", 2)]


def test_phase1_computes_each_prefix_once(monkeypatch):
    """Phase 1 runs the prefix once per image, in batch-size chunks before
    its first step, and not again in its steps or its val passes."""
    calls = []
    real_phase = networks.train_phase

    def train_phase(*args, **kwargs):
        calls.append(("phase", kwargs["phase"]))
        return real_phase(*args, **kwargs)

    record_prefixes(monkeypatch, calls)
    monkeypatch.setattr(networks, "train_phase", train_phase)
    ds, val = small_data(10, seed=3), small_data(6, seed=4)
    net = Network(small_cfg())
    copy_base(net, Network(small_cfg("base_only")))
    two_phase_train(net, ds, val, schedule(2))
    phase2 = calls.index(("phase", 2))
    assert calls[:phase2] == [("phase", 1), *ONCE_EACH]
    assert len(calls) > phase2 + 1   # phase 2 computes its prefixes per batch


def test_a_call_that_trains_the_refine_parameters_computes_each_prefix_once(monkeypatch):
    """`trainable` alone decides the cache: a direct call with the context
    fc layer and the stage-2 head gets it without asking."""
    calls = []
    record_prefixes(monkeypatch, calls)
    ds, val = small_data(10, seed=3), small_data(6, seed=4)
    net = Network(small_cfg())
    train_phase(net, ds, val, phase1_params(net), schedule(2), phase=1)
    assert calls == ONCE_EACH


def test_a_call_that_trains_every_parameter_moves_the_base_and_the_bins():
    """With the base and the bins in `trainable`, no pass runs on a cache:
    every base parameter and the bin centers move."""
    ds, val = small_data(8, seed=3), small_data(4, seed=4)
    net = Network(small_cfg())
    moving = [*net.base_param_names, "hist.centers"]
    before = {n: net.params[n].data.copy() for n in moving}
    train_phase(net, ds, val, list(net.params.values()), schedule(1), phase=2)
    for name, value in before.items():
        assert not np.array_equal(net.params[name].data, value), name


def test_phase1_leaves_every_base_and_histogram_gradient_zero(monkeypatch):
    """Phase 1's graph is `refine` alone, so its backward writes no base or
    histogram gradient buffer."""
    seen = {}
    real_phase = networks.train_phase

    def train_phase(net, *args, **kwargs):
        if kwargs["phase"] == 2:   # phase 1 has ended
            seen.update({n: net.params[n].grad.copy() for n in fixed})
        return real_phase(net, *args, **kwargs)

    monkeypatch.setattr(networks, "train_phase", train_phase)
    ds, val = small_data(8, seed=3), small_data(4, seed=4)
    net = Network(small_cfg())
    fixed = [*net.base_param_names, "hist.centers", "hist.slopes"]
    copy_base(net, Network(small_cfg("base_only")))
    two_phase_train(net, ds, val, schedule(2))
    assert list(seen) == fixed
    for name, grad in seen.items():
        assert not grad.any(), name


def use_workers(monkeypatch, workers):
    """Make `evaluate` see `workers` usable cores."""
    monkeypatch.setattr(networks, "_usable_cores", lambda: workers)


def eval_threads():
    return [t for t in threading.enumerate() if t.name.startswith(networks.EVAL_THREAD_NAME)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_evaluate_loss_matches_recorded_two_pass_value(monkeypatch, workers):
    """The merged pass gives the loss of the former separate loss pass: recorded
    batch losses weighted by batch length, summed in batch order, over N; and
    the confusion counts of `np.argmax` over each batch's mean of the stage
    probabilities and over its stage-1 probabilities. The bits do not depend
    on how many batches run at once."""
    net = Network(small_cfg(seed=6))
    ds = small_data(12, seed=8)
    monkeypatch.setattr(networks, "EVAL_BATCH", 5)  # batches of 5, 5 and 2
    use_workers(monkeypatch, workers)
    K = net.cfg.K
    total = 0.0
    conf = np.zeros((K, K), dtype=np.int64)
    conf1 = np.zeros_like(conf)
    for start in range(0, len(ds), 5):
        stop = min(start + 5, len(ds))
        labels = ds.labels[start:stop]
        loss, out = net.loss(Tensor(ds.features[start:stop]), labels)
        total += loss.item() * (stop - start)
        p1, p2 = (p.data for p in out.stage_probs)
        conf += networks._confusion(labels, np.argmax((p1 + p2) / 2, axis=1), K)
        conf1 += networks._confusion(labels, np.argmax(p1, axis=1), K)
    ad.reset_tape()
    m = evaluate(net, ds)
    assert m["loss"] == total / len(ds)
    np.testing.assert_array_equal(m["confusion"], conf)
    assert m["stage1_per_pixel"] == metrics_from_confusion(conf1)["per_pixel"]
    assert ad._STATE.tape == []


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_evaluate_on_more_workers_than_cores_matches_one(monkeypatch, cached):
    """Four workers on six batches of two, switching threads every
    microsecond, give the one-worker bits, on a dataset whose summed batch
    losses change bits when summed in reverse."""
    net = Network(small_cfg(seed=6))
    ds = small_data(12, seed=8)
    cache = networks.PrefixCache(net, ds, 5) if cached else None
    monkeypatch.setattr(networks, "EVAL_BATCH", 2)
    with ad.no_grad():
        losses = [networks._batch_result(net, ds, i, i + 2, cache)[0] for i in range(0, 12, 2)]
    assert sum(losses) != sum(reversed(losses))
    use_workers(monkeypatch, 1)
    serial = evaluate(net, ds, cache)
    use_workers(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = evaluate(net, ds, cache)
    finally:
        sys.setswitchinterval(interval)
    assert pooled["loss"] == serial["loss"] == sum(losses) / 12
    assert pooled["stage1_per_pixel"] == serial["stage1_per_pixel"]
    np.testing.assert_array_equal(pooled["confusion"], serial["confusion"])
    assert eval_threads() == []


def test_evaluate_raises_a_batch_error_and_leaves_no_thread(monkeypatch):
    real = networks._batch_pass

    def failing(net, dataset, idx, labels, cache):
        if idx.start == 5:
            raise RuntimeError("batch at 5 failed")
        return real(net, dataset, idx, labels, cache)

    monkeypatch.setattr(networks, "_batch_pass", failing)
    monkeypatch.setattr(networks, "EVAL_BATCH", 5)
    use_workers(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="batch at 5 failed"):
        evaluate(Network(small_cfg(seed=6)), small_data(12, seed=8))
    assert eval_threads() == []
    assert ad._STATE.grad_enabled


def test_evaluate_batches_run_under_the_callers_errstate(monkeypatch):
    real = networks._batch_pass
    seen = []

    def recording(*args):
        seen.append((threading.current_thread().name, np.geterr()))
        return real(*args)

    monkeypatch.setattr(networks, "_batch_pass", recording)
    monkeypatch.setattr(networks, "EVAL_BATCH", 5)
    use_workers(monkeypatch, 2)
    with np.errstate(divide="ignore", over="raise", under="ignore", invalid="ignore"):
        caller = np.geterr()
        evaluate(Network(small_cfg(seed=6)), small_data(12, seed=8))
    assert caller != np.geterr()
    assert len(seen) == 3
    assert all(name.startswith(networks.EVAL_THREAD_NAME) for name, _ in seen)
    assert all(state == caller for _, state in seen)


@pytest.mark.parametrize("workers", [1, 3])
def test_evaluate_batches_take_no_gradient(monkeypatch, workers):
    """No tensor an evaluation builds, batch or op output, is recorded: none
    keeps a backward closure."""
    batches, built = [], []
    real_init = Tensor.__init__

    def recording_init(self, data):
        real_init(self, data)
        built.append(self)

    def batch(data):
        t = Tensor(data)
        batches.append(t)
        return t

    net, ds = Network(small_cfg(seed=6)), small_data(12, seed=8)
    monkeypatch.setattr(Tensor, "__init__", recording_init)
    monkeypatch.setattr(networks, "Tensor", batch)
    monkeypatch.setattr(networks, "EVAL_BATCH", 5)
    use_workers(monkeypatch, workers)
    evaluate(net, ds)
    sizes = [t.shape[0] for t in batches]
    if workers == 1:   # in batch order on the caller's thread
        assert sizes == [5, 5, 2]
    else:              # built in whatever order the workers reach them
        assert sorted(sizes) == [2, 5, 5]
    assert len(built) > len(batches)   # the op outputs too
    assert all(t._backward is None for t in built)


# --------------------------------------------------------------------------
# training

def schedule(epochs=2):
    return RunConfig(epochs=epochs, batch_size=4, decay_epoch=1)


def test_train_base_loss_decreases():
    ds = small_data(24, seed=1)
    val = small_data(8, seed=2)
    net = Network(small_cfg("base_only"))
    rows = train_base(net, ds, val, RunConfig(epochs=6, batch_size=4, decay_epoch=5))
    train_losses = [r.loss for r in rows if r.split == "train"]
    assert train_losses[-1] < train_losses[0]


def test_phase1_leaves_base_and_bins_bit_identical():
    ds = small_data(16, seed=3)
    val = small_data(8, seed=4)
    base = Network(small_cfg("base_only"))
    train_base(base, ds, val, schedule())
    net = Network(small_cfg())
    copy_base(net, base)
    before = {n: net.params[n].data.copy() for n in net.base_param_names}
    bins_before = (net.hist.centers.data.copy(), net.hist.slopes.data.copy())
    train_phase(net, ds, val, phase1_params(net), schedule(), phase=1)
    for n, v in before.items():
        np.testing.assert_array_equal(net.params[n].data, v)
    np.testing.assert_array_equal(net.hist.centers.data, bins_before[0])
    np.testing.assert_array_equal(net.hist.slopes.data, bins_before[1])


def test_two_phase_train_moves_bins_in_phase_two():
    ds = small_data(16, seed=3)
    val = small_data(8, seed=4)
    base = Network(small_cfg("base_only"))
    train_base(base, ds, val, schedule())
    net = Network(small_cfg())
    copy_base(net, base)
    bins_before = net.hist.centers.data.copy()
    rows = two_phase_train(net, ds, val, schedule())
    assert any(r.phase == 1 for r in rows) and any(r.phase == 2 for r in rows)
    assert not np.array_equal(net.hist.centers.data, bins_before)
    for r in rows:
        if r.split == "val":
            assert 0.0 <= r.stage1_per_pixel <= 1.0


def stage1_per_pixel(net, ds):
    """Stage-1 per-pixel accuracy from a separate forward pass."""
    with ad.no_grad():
        _, out = net.loss(Tensor(ds.features), ds.labels)
    return float(np.mean(np.argmax(out.stage_probs[0].data, axis=1) == ds.labels))


@pytest.mark.parametrize("epochs", [2, 0])
def test_two_phase_train_takes_stage1_from_the_epoch_end_passes(monkeypatch, epochs):
    """Each phase's last val row holds the stage-1 accuracy of a separate
    pass after that phase, and the phases evaluate val once per epoch and
    at no other time; `cli.train_run` reads its stage-1 keys from these rows."""
    ds, val = small_data(16, seed=3), small_data(8, seed=4)
    base = Network(small_cfg("base_only"))
    train_base(base, ds, val, schedule())
    # reference: a separate stage-1 pass after each phase
    ref = Network(small_cfg())
    copy_base(ref, base)
    train_phase(ref, ds, val, phase1_params(ref), schedule(epochs), phase=1)
    before = stage1_per_pixel(ref, val)
    train_phase(ref, ds, val, list(ref.params.values()), schedule(epochs), phase=2)
    after = stage1_per_pixel(ref, val)

    calls = []
    real = networks.evaluate
    monkeypatch.setattr(networks, "evaluate", lambda *a: calls.append(a) or real(*a))
    net = Network(small_cfg())
    copy_base(net, base)
    rows = two_phase_train(net, ds, val, schedule(epochs))
    ends = {r.phase: r.stage1_per_pixel for r in rows if r.split == "val"}
    assert ends == ({1: before, 2: after} if epochs else {})
    assert len(calls) == 2 * epochs


def test_train_phase_names_the_first_non_finite_parameter():
    net = Network(small_cfg("base_only"))
    net.params["base.f2.b"].data[3] = np.inf
    net.params["base.cls.w"].data[0] = np.nan
    with pytest.raises(networks.TrainingDivergedError,
                       match="phase 0, epoch 0: parameter base.f2.b"):
        train_phase(net, small_data(8), small_data(4), [], schedule(), phase=0)


def test_train_phase_stops_when_the_loss_is_not_finite_with_finite_parameters():
    net = Network(small_cfg("base_only"))
    net.params["base.cls.w"].data *= 1e6    # logit gaps far above 745
    val = small_data(4)
    with ad.no_grad():
        loss = net.loss(Tensor(val.features), val.labels)[0].item()
    assert loss == np.inf
    assert evaluate(net, val)["loss"] == np.inf
    with pytest.raises(networks.TrainingDivergedError,
                       match="phase 0, epoch 0: the train loss is inf, and parameter "
                             "base.cls.w reaches magnitude"):
        train_phase(net, small_data(8), val, [], schedule(), phase=0)
    assert all(np.isfinite(p.data).all() for p in net.params.values())


def test_train_phase_stops_when_only_the_val_loss_is_not_finite():
    """Class 0's logit leads by 800, so every other class's probability
    underflows to 0: the all-0 train labels keep a finite loss, and the val
    labels, which hold other classes, do not."""
    net = Network(small_cfg("base_only"))
    net.params["base.cls.b"].data[0] = 800.0
    train, val = small_data(8), small_data(4)
    train.labels[...] = 0
    assert (val.labels != 0).any()
    assert np.isfinite(evaluate(net, train)["loss"])
    with pytest.raises(networks.TrainingDivergedError,
                       match="phase 0, epoch 0: the val loss is inf, and parameter "
                             "base.cls.b reaches magnitude 800; lower lr"):
        train_phase(net, train, val, [], schedule(), phase=0)


def test_two_phase_train_rejects_base_only():
    net = Network(small_cfg("base_only"))
    with pytest.raises(ValueError, match="context-refinement"):
        two_phase_train(net, small_data(4), small_data(4), schedule())


def test_base_copy_shape_mismatch_named():
    """A base of another C_feat is refused by name, and no parameter of the
    network changes."""
    base = Network(small_cfg("base_only", C_feat=7))
    net = Network(small_cfg())
    before = {n: p.data.copy() for n, p in net.params.items()}
    with pytest.raises(CheckpointFormatError, match="base.f1.w"):
        copy_base(net, base)
    for n, value in before.items():
        np.testing.assert_array_equal(net.params[n].data, value)


def test_training_is_reproducible():
    ds = small_data(16, seed=3)
    val = small_data(8, seed=4)
    results = []
    for _ in range(2):
        base = Network(small_cfg("base_only"))
        train_base(base, ds, val, schedule())
        net = Network(small_cfg())
        copy_base(net, base)
        two_phase_train(net, ds, val, schedule())
        results.append({n: p.data.copy() for n, p in net.params.items()})
    for n in results[0]:
        np.testing.assert_array_equal(results[0][n], results[1][n])


def test_log_rows_cover_each_epoch_and_split():
    ds = small_data(12, seed=6)
    val = small_data(6, seed=7)
    net = Network(small_cfg("base_only"))
    rows = train_base(net, ds, val, schedule(epochs=3))
    assert len(rows) == 6
    assert [(r.epoch, r.split) for r in rows] == [
        (0, "train"), (0, "val"), (1, "train"), (1, "val"), (2, "train"), (2, "val")]


def test_evaluate_metrics_in_unit_interval():
    net = Network(small_cfg())
    m = evaluate(net, small_data(6))
    assert 0.0 <= m["per_pixel"] <= 1.0
    assert 0.0 <= m["per_class"] <= 1.0
