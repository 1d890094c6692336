import gc
import hashlib
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import histlayer.autodiff as ad
from histlayer.autodiff import Parameter, ShapeError, Tensor
from histlayer.histogram import HistogramParams, hist_forward_direct, init_params


def scalar_sum(t):
    """Graph node summing all entries of t (linear readout for backward tests)."""
    def _bw():
        ad._accumulate(t, np.full(t.shape, out.grad.reshape(-1)[0]))
    out = ad._node(np.full((1, 1, 1, 1), t.data.sum()), _bw, t)
    return out


def run_backward(out, upstream=1.0):
    """Backpropagate `upstream`, broadcast to the shape of `out`."""
    ad.backward(out, np.broadcast_to(upstream, out.shape))


# --------------------------------------------------------------------------
# conv1x1

def test_conv1x1_identity():
    x = Tensor(np.arange(24, dtype=float).reshape(2, 3, 2, 2))
    w = Parameter(np.eye(3).reshape(3, 3, 1, 1))
    b = Parameter(np.zeros((3, 1, 1, 1)))
    ad.reset_tape()
    out = ad.conv1x1(x, w, b)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv1x1_zero_input_gives_bias():
    x = Tensor(np.zeros((2, 3, 2, 2)))
    w = Parameter(np.ones((4, 3, 1, 1)))
    b = Parameter(np.array([1.0, -2.0, 0.5, 3.0]).reshape(4, 1, 1, 1))
    ad.reset_tape()
    out = ad.conv1x1(x, w, b)
    for o in range(4):
        np.testing.assert_array_equal(out.data[:, o], b.data[o, 0, 0, 0])


def test_conv1x1_weight_gradient_matches_finite_difference(rng):
    x = Parameter(rng.standard_normal((2, 3, 2, 2)), name="x")
    w = Parameter(rng.standard_normal((4, 3, 1, 1)), name="w")
    b = Parameter(rng.standard_normal((4, 1, 1, 1)), name="b")

    def loss_fn():
        return scalar_sum(ad.conv1x1(x, w, b))

    for p in (x, w, b):
        res = ad.grad_check(loss_fn, p, eps=1e-4)
        assert res.max_rel_err < 1e-6
        assert not res.skipped


def test_conv1x1_shape_mismatch_reports_dimensions():
    x = Tensor(np.zeros((1, 3, 2, 2)))
    w = Parameter(np.zeros((4, 5, 1, 1)))
    b = Parameter(np.zeros((4, 1, 1, 1)))
    with pytest.raises(ShapeError, match="5 input channels"):
        ad.conv1x1(x, w, b)


# conv shapes (n, cin, h, w, cout): the network's feature layers and
# classifier, the stage head as a plain conv, free_all's composed kernels,
# an evaluation batch
CONV_SHAPES = [(10, 8, 16, 16, 16), (10, 16, 16, 16, 6), (10, 52, 16, 16, 6),
               (10, 6, 16, 16, 36), (10, 36, 16, 16, 36), (50, 52, 16, 16, 6)]
FC_SHAPE = (10, 36, 1, 1, 36)


def conv_pass(rng, n, cin, h, w, cout):
    x = Parameter(rng.standard_normal((n, cin, h, w)))
    weight = Parameter(rng.standard_normal((cout, cin, 1, 1)))
    bias = Parameter(rng.standard_normal((cout, 1, 1, 1)))
    upstream = rng.standard_normal((n, cout, h, w))
    ad.reset_tape()
    out = ad.conv1x1(x, weight, bias)
    ad.backward(out, upstream)
    return x, weight, bias, upstream, out


@pytest.mark.parametrize("shape", CONV_SHAPES + [FC_SHAPE], ids=lambda s: "x".join(map(str, s)))
def test_conv1x1_outputs_and_gradients_are_c_contiguous(shape, rng):
    x, weight, _, _, out = conv_pass(rng, *shape)
    for arr in (out.data, out.grad, x.grad, weight.grad):
        assert arr.flags.c_contiguous


@pytest.mark.parametrize("shape", CONV_SHAPES + [FC_SHAPE], ids=lambda s: "x".join(map(str, s)))
def test_conv1x1_matches_tensordot_and_einsum_reference(shape, rng):
    x, weight, bias, upstream, out = conv_pass(rng, *shape)
    w2 = weight.data[:, :, 0, 0]
    ref_out = np.tensordot(w2, x.data, axes=([1], [1])).transpose(1, 0, 2, 3)
    ref_out += bias.data.reshape(1, -1, 1, 1)
    ref_gx = np.tensordot(w2.T, upstream, axes=([1], [1])).transpose(1, 0, 2, 3)
    ref_gw = np.einsum("nohw,nchw->oc", upstream, x.data)
    assert np.abs(weight.grad[:, :, 0, 0] - ref_gw).max() <= 1e-12
    if shape[2] * shape[3] > 1:
        np.testing.assert_array_equal(out.data, ref_out)
        np.testing.assert_array_equal(x.grad, ref_gx)
    else:
        # one matrix-vector product per image rounds differently from
        # tensordot's single matrix product
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, ref_gx, rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# abs / relu

def test_abs_elem_sign_cases():
    x = Tensor(np.array([-1.5, 0.0, 2.0, 0.0]).reshape(1, 1, 2, 2))
    ad.reset_tape()
    out = ad.abs_elem(x)
    np.testing.assert_array_equal(out.data.ravel(), [1.5, 0.0, 2.0, 0.0])


def test_abs_elem_gradient_is_sign_times_upstream():
    x = Parameter(np.full((1, 1, 1, 1), -0.3))
    ad.reset_tape()
    out = ad.abs_elem(x)
    run_backward(out, upstream=2.0)
    assert x.grad.ravel()[0] == -2.0


def test_relu_values_and_dead_gradient():
    x = Tensor(np.array([-2.0, 0.0, 3.0, -1.0]).reshape(1, 1, 2, 2))
    ad.reset_tape()
    out = ad.relu(x)
    np.testing.assert_array_equal(out.data.ravel(), [0.0, 0.0, 3.0, 0.0])

    neg = Parameter(np.full((1, 2, 2, 2), -1.0))
    ad.reset_tape()
    out = ad.relu(neg)
    run_backward(out)
    assert np.all(out.data == 0.0)
    assert np.all(neg.grad == 0.0)


def test_relu_is_bit_equal_to_where_on_signed_zeros(rng):
    raw = rng.standard_normal((2, 3, 4, 4))
    raw.flat[:6] = [0.0, -0.0, 0.0, -0.0, 1e-300, -1e-300]
    ref = np.where(raw > 0, raw, 0.0)
    with ad.no_grad():
        assert ad.relu(Tensor(raw)).data.tobytes() == ref.tobytes()
    x = Parameter(raw)
    upstream = rng.standard_normal(raw.shape)
    ad.reset_tape()
    out = ad.relu(x)
    assert out.data.tobytes() == ref.tobytes()
    ad.backward(out, upstream)
    assert x.grad.tobytes() == (np.zeros_like(raw) + (raw > 0) * upstream).tobytes()


def test_abs_relu_finite_difference_away_from_kinks(rng):
    # keep inputs at least 0.1 away from zero so no kink is nearby
    raw = rng.uniform(0.1, 1.0, size=(2, 2, 3, 3)) * rng.choice([-1, 1], size=(2, 2, 3, 3))
    x = Parameter(raw, name="x")

    def loss_fn():
        return scalar_sum(ad.abs_elem(ad.relu(x)))

    res = ad.grad_check(loss_fn, x, eps=1e-4, kink_margin=1e-3)
    assert res.max_rel_err < 1e-5


# --------------------------------------------------------------------------
# pooling / concat / fc

def test_global_avg_pool_constant_map():
    x = Tensor(np.full((2, 3, 4, 5), 0.7))
    ad.reset_tape()
    out = ad.global_avg_pool(x)
    np.testing.assert_allclose(out.data, 0.7)
    assert out.shape == (2, 3, 1, 1)


def test_global_avg_pool_mean_value_and_gradient():
    x = Parameter(np.array([0.0, 0.2, 0.4, 1.0]).reshape(1, 1, 2, 2))
    ad.reset_tape()
    out = ad.global_avg_pool(x)
    assert out.item() == pytest.approx(0.4)
    run_backward(out)
    np.testing.assert_allclose(x.grad, 0.25)


def test_global_avg_pool_rejects_empty_spatial():
    with pytest.raises(ShapeError):
        ad.global_avg_pool(Tensor(np.zeros((1, 2, 0, 3))))


# --------------------------------------------------------------------------
# concat_conv1x1

def concat_reference(f, ctx, weight, bias, upstream, frozen):
    """Output and (features, context, weight, bias) gradients of conv1x1 on
    the numpy-built concat of f with ctx tiled over every position; None
    for frozen features, which are data."""
    n, c, h, w = f.shape
    tiled = np.broadcast_to(ctx, (n, ctx.shape[1], h, w))
    cat = Parameter(np.concatenate([f, tiled], axis=1))
    wp, bp = Parameter(weight), Parameter(bias)
    ad.reset_tape()
    out = ad.conv1x1(cat, wp, bp)
    ad.backward(out, upstream)
    g_ctx = cat.grad[:, c:].sum(axis=(2, 3), keepdims=True)
    g_f = None if frozen == "features" else cat.grad[:, :c]
    return out.data, g_f, g_ctx, wp.grad, bp.grad


# (n, c, h, w, d, cout): the network's stage-2 head, an evaluation batch, a
# single position and tiny odd sizes
CONCAT_SHAPES = [(10, 16, 16, 16, 36, 6), (50, 16, 16, 16, 36, 6), (3, 4, 1, 1, 5, 2),
                 (2, 3, 3, 2, 1, 4)]


# frozen features are data, which take no gradient; a frozen weight has a
# zero lock mask, which stops only the optimizer, so it takes its gradient
@pytest.mark.parametrize("frozen", [None, "features", "weight"])
@pytest.mark.parametrize("shape", CONCAT_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_concat_conv1x1_matches_numpy_concat_then_conv1x1(shape, frozen, rng):
    n, c, h, w, d, cout = shape
    fdata = rng.standard_normal((n, c, h, w))
    cdata = rng.standard_normal((n, d, 1, 1))
    wdata = rng.standard_normal((cout, c + d, 1, 1))
    bdata = rng.standard_normal((cout, 1, 1, 1))
    upstream = rng.standard_normal((n, cout, h, w))
    f = Tensor(fdata) if frozen == "features" else Parameter(fdata)
    ctx = Parameter(cdata)
    weight, bias = Parameter(wdata), Parameter(bdata)
    if frozen == "weight":
        weight.lock_mask[...] = 0.0
    ad.reset_tape()
    out = ad.concat_conv1x1(f, ctx, weight, bias)
    ad.backward(out, upstream)
    got = (out.data, f.grad, ctx.grad, weight.grad, bias.grad)
    want = concat_reference(fdata, cdata, wdata, bdata, upstream, frozen)
    for name, a, b in zip(("out", "features", "context", "weight", "bias"), got, want):
        if b is None:
            assert a is None, name
        else:
            assert a.shape == b.shape, name
            assert np.abs(a - b).max() <= 1e-12, name


def test_concat_conv1x1_degenerate_features():
    """Without feature channels every position gets the context term."""
    feats = Tensor(np.zeros((2, 0, 3, 3)))
    ctx = Tensor(np.arange(4, dtype=float).reshape(2, 2, 1, 1))
    weight = Parameter(np.array([[1.0, 10.0]]).reshape(1, 2, 1, 1))
    bias = Parameter(np.full((1, 1, 1, 1), 0.5))
    ad.reset_tape()
    out = ad.concat_conv1x1(feats, ctx, weight, bias)
    assert out.shape == (2, 1, 3, 3)
    for n in range(2):
        np.testing.assert_array_equal(out.data[n, 0], ctx.data[n, 0, 0, 0]
                                      + 10.0 * ctx.data[n, 1, 0, 0] + 0.5)


def test_concat_conv1x1_context_gradient_is_spatial_sum(rng):
    feats = Tensor(rng.standard_normal((2, 3, 4, 4)))
    ctx = Parameter(rng.standard_normal((2, 2, 1, 1)))
    weight = Parameter(rng.standard_normal((5, 5, 1, 1)))
    bias = Parameter(np.zeros((5, 1, 1, 1)))
    ad.reset_tape()
    out = ad.concat_conv1x1(feats, ctx, weight, bias)
    upstream = rng.standard_normal(out.shape)
    run_backward(out, upstream)
    g_sum = upstream.sum(axis=(2, 3))
    np.testing.assert_allclose(ctx.grad[:, :, 0, 0], g_sum @ weight.data[:, 3:, 0, 0],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(bias.grad[:, 0, 0, 0], g_sum.sum(axis=0), rtol=0, atol=1e-12)


def test_concat_conv1x1_with_zero_context_weights_is_the_feature_conv(rng):
    feats = Tensor(rng.standard_normal((2, 5, 3, 2)))
    ctx = Tensor(rng.standard_normal((2, 4, 1, 1)))
    weight = Parameter(np.concatenate([rng.standard_normal((3, 5, 1, 1)),
                                       np.zeros((3, 4, 1, 1))], axis=1))
    bias = Parameter(rng.standard_normal((3, 1, 1, 1)))
    ad.reset_tape()
    out = ad.concat_conv1x1(feats, ctx, weight, bias)
    ref = ad.conv1x1(feats, Parameter(weight.data[:, :5].copy()), bias)
    ad.reset_tape()
    np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("ctx_shape, weight_shape, bias_len, match", [
    ((3, 1, 1, 1), (2, 2, 1, 1), 2, "batch"),
    ((2, 1, 2, 2), (2, 2, 1, 1), 2, r"\(N,D,1,1\)"),
    ((2, 1, 1, 1), (2, 3, 1, 1), 2, "3 input channels"),
    ((2, 1, 1, 1), (2, 2, 1, 1), 3, "bias has 3 entries"),
], ids=["batch", "spatial_context", "weight_width", "bias"])
def test_concat_conv1x1_shape_mismatch(ctx_shape, weight_shape, bias_len, match):
    with pytest.raises(ShapeError, match=match):
        ad.concat_conv1x1(Tensor(np.zeros((2, 1, 2, 2))), Tensor(np.zeros(ctx_shape)),
                          Parameter(np.zeros(weight_shape)),
                          Parameter(np.zeros((bias_len, 1, 1, 1))))


def test_fully_connected_identity_and_bias(rng):
    x = Tensor(rng.standard_normal((3, 4, 1, 1)))
    w = Parameter(np.eye(4).reshape(4, 4, 1, 1))
    b = Parameter(np.zeros((4, 1, 1, 1)))
    ad.reset_tape()
    np.testing.assert_array_equal(ad.fully_connected(x, w, b).data, x.data)

    zero = Tensor(np.zeros((2, 4, 1, 1)))
    b2 = Parameter(rng.standard_normal((5, 1, 1, 1)))
    w2 = Parameter(rng.standard_normal((5, 4, 1, 1)))
    ad.reset_tape()
    out = ad.fully_connected(zero, w2, b2)
    for o in range(5):
        np.testing.assert_array_equal(out.data[:, o], b2.data[o, 0, 0, 0])


def test_fully_connected_finite_difference(rng):
    x = Parameter(rng.standard_normal((2, 4, 1, 1)), name="x")
    w = Parameter(rng.standard_normal((3, 4, 1, 1)), name="w")
    b = Parameter(rng.standard_normal((3, 1, 1, 1)), name="b")

    def loss_fn():
        return scalar_sum(ad.fully_connected(x, w, b))

    for p in (x, w, b):
        assert ad.grad_check(loss_fn, p).max_rel_err < 1e-6


def test_fully_connected_rejects_spatial_input():
    with pytest.raises(ShapeError):
        ad.fully_connected(Tensor(np.zeros((1, 2, 2, 2))),
                           Parameter(np.zeros((2, 2, 1, 1))),
                           Parameter(np.zeros((2, 1, 1, 1))))


# --------------------------------------------------------------------------
# softmax cross-entropy

def test_softmax_xent_uniform_logits_gives_log_k():
    logits = Tensor(np.zeros((2, 6, 3, 3)))
    labels = np.zeros((2, 3, 3), dtype=int)
    ad.reset_tape()
    loss, probs = ad.softmax_xent(logits, labels)
    assert loss.item() == pytest.approx(np.log(6.0), rel=1e-12)
    np.testing.assert_allclose(probs.data, 1.0 / 6.0)


def test_softmax_xent_saturated_logit_gives_near_zero_loss():
    logits_arr = np.zeros((1, 3, 1, 1))
    logits_arr[0, 1] = 1000.0
    labels = np.full((1, 1, 1), 1)
    ad.reset_tape()
    loss, _ = ad.softmax_xent(Tensor(logits_arr), labels)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_softmax_xent_finite_difference(rng):
    logits = Parameter(rng.standard_normal((1, 3, 2, 2)), name="logits")
    labels = rng.integers(0, 3, size=(1, 2, 2))

    def loss_fn():
        loss, _ = ad.softmax_xent(logits, labels)
        return loss

    res = ad.grad_check(loss_fn, logits, eps=1e-4)
    assert res.max_rel_err < 1e-5


def test_softmax_xent_rejects_out_of_range_label():
    logits = Tensor(np.zeros((1, 3, 1, 1)))
    with pytest.raises(ValueError, match="out of range"):
        ad.softmax_xent(logits, np.full((1, 1, 1), 7))


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_softmax_xent_rejects_label_255(dtype):
    # no label value is ignored: every label must lie in [0, K)
    labels = np.zeros((1, 2, 2), dtype=dtype)
    labels[0, 1, 0] = 255
    with pytest.raises(ValueError, match=r"out of range \[0,6\): \[255\]"):
        ad.softmax_xent(Tensor(np.zeros((1, 6, 2, 2))), labels)


def test_softmax_xent_rejects_an_empty_label_map():
    with pytest.raises(ValueError):
        ad.softmax_xent(Tensor(np.zeros((0, 6, 2, 2))), np.zeros((0, 2, 2), dtype=np.uint8))


def test_softmax_xent_bit_equal_to_take_along_axis_reference(rng):
    # 3*6*5*7 = 630 entries: a flat index built in uint8 would wrap
    n, k, h, w = 3, 6, 5, 7
    logits_arr = rng.standard_normal((n, k, h, w))
    labels = rng.integers(0, k, size=(n, h, w)).astype(np.uint8)
    labels[2, 4, 6] = 1
    logits_arr[2, 0, 4, 6] = 800.0      # label 1 there underflows to p = 0
    logits = Parameter(logits_arr)
    ad.reset_tape()
    loss, probs = ad.softmax_xent(logits, labels)
    ad.backward(loss)

    p = probs.data
    picked = np.take_along_axis(p, labels[:, None], axis=1)[:, 0]
    with np.errstate(divide="ignore"):
        want_loss = -np.log(picked).sum() / labels.size
    onehot = np.zeros_like(p)
    np.put_along_axis(onehot, labels[:, None], 1.0, axis=1)
    want_grad = np.zeros_like(p) + (p - onehot) * (1.0 / labels.size)
    assert want_loss == np.inf
    assert loss.data.tobytes() == np.full((1, 1, 1, 1), want_loss).tobytes()
    assert logits.grad.tobytes() == want_grad.tobytes()


def test_softmax_xent_underflow_gives_an_inf_loss_without_a_warning():
    """log 0 is -inf without numpy's divide warning, and the gradient keeps
    the bits of p - onehot over the position count."""
    logits_arr = np.zeros((1, 3, 1, 2))
    logits_arr[0, 0, 0, 1] = 800.0      # label 2 there underflows to p = 0
    labels = np.array([[[2, 2]]])
    logits = Parameter(logits_arr)
    ad.reset_tape()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, probs = ad.softmax_xent(logits, labels)
        ad.backward(loss)
    assert loss.item() == np.inf
    onehot = np.zeros_like(logits_arr)
    onehot[0, 2] = 1.0
    want_grad = np.zeros_like(logits_arr) + (probs.data - onehot) * (1.0 / 2)
    assert np.isfinite(logits.grad).all()
    assert logits.grad.tobytes() == want_grad.tobytes()


# --------------------------------------------------------------------------
# SGD with lock masks

def test_sgd_step_plain_arithmetic():
    p = Parameter(np.full((1, 1, 1, 1), 1.0))
    p.grad[...] = 0.5
    ad.sgd_step([p], lr=0.01, momentum=0.0)
    assert p.data.ravel()[0] == pytest.approx(0.995, rel=1e-15)


def test_sgd_step_fully_locked_value_unchanged(rng):
    p = Parameter(rng.standard_normal((2, 2, 1, 1)),
                  lock_mask=np.zeros((2, 2, 1, 1)))
    before = p.data.copy()
    for _ in range(10):
        p.grad[...] = rng.standard_normal(p.shape)
        ad.sgd_step([p], lr=0.1, momentum=0.9)
    np.testing.assert_array_equal(p.data, before)


def test_sgd_two_steps_momentum_recurrence():
    g = 0.7
    lr = 0.05
    p = Parameter(np.zeros((1, 1, 1, 1)))
    for _ in range(2):
        p.grad[...] = g
        ad.sgd_step([p], lr=lr, momentum=0.9)
    assert p.data.ravel()[0] == pytest.approx(-lr * g * (1 + 1.9), rel=1e-14)


def test_sgd_rejects_bad_lr():
    with pytest.raises(ValueError):
        ad.sgd_step([], lr=0.0)
    with pytest.raises(ValueError):
        ad.sgd_step([], lr=-1e-3)


# --------------------------------------------------------------------------
# grad_check harness

def test_grad_check_pure_linear_graph_is_exact(rng):
    x = Parameter(rng.standard_normal((1, 3, 2, 2)), name="x")
    w = Parameter(rng.standard_normal((2, 3, 1, 1)), name="w")
    b = Parameter(rng.standard_normal((2, 1, 1, 1)), name="b")

    def loss_fn():
        return scalar_sum(ad.global_avg_pool(ad.conv1x1(x, w, b)))

    for p in (x, w, b):
        assert ad.grad_check(loss_fn, p, eps=1e-4).max_rel_err < 1e-9


def test_grad_check_flags_input_at_bin_center_as_skipped():
    params = init_params(1, 6)
    # value exactly at the 0.4 bin center: the abs hinge sits at zero
    x = Parameter(np.full((1, 1, 1, 1), 0.4), name="x")

    def loss_fn():
        return scalar_sum(hist_forward_direct(x, params))

    res = ad.grad_check(loss_fn, x, eps=1e-4, kink_margin=1e-3)
    assert res.skipped == [(0, 0, 0, 0)]
    assert res.n_checked == 0


def hinge_crossed_per_trace(trace_a, trace_b, margin):
    """The per-trace loop `_hinge_crossed` replaced, kept as its reference."""
    for pa, pb in zip(trace_a, trace_b):
        if np.any((pa > 0) != (pb > 0)):
            return True
        moved = pa != pb
        if np.any(moved & ((np.abs(pa) < margin) | (np.abs(pb) < margin))):
            return True
    return False


MARGIN = 1e-3
# side flips, signed zeros, values at and just inside the margin, and NaN
HINGE_VALUES = st.sampled_from([0.0, -0.0, MARGIN, -MARGIN, np.nextafter(MARGIN, 0.0),
                                -np.nextafter(MARGIN, 0.0), 2 * MARGIN, -2 * MARGIN, 0.5,
                                -0.5, 1e-300, -1e-300, np.nan, np.inf, -np.inf])


@st.composite
def hinge_trace_pairs(draw):
    """Two passes' traces of equal count and sizes; the second pass mostly
    repeats the first, as the entries a wiggle does not reach do."""
    sizes = draw(st.lists(st.integers(0, 5), max_size=4))
    trace_a, trace_b = [], []
    for size in sizes:
        a = draw(st.lists(HINGE_VALUES, min_size=size, max_size=size))
        b = [draw(st.one_of(st.just(v), HINGE_VALUES)) for v in a]
        trace_a.append(np.array(a, dtype=np.float64))
        trace_b.append(np.array(b, dtype=np.float64))
    return trace_a, trace_b


@settings(max_examples=300, deadline=None)
@given(hinge_trace_pairs())
def test_hinge_crossed_decides_as_the_per_trace_loop(traces):
    trace_a, trace_b = traces
    assert (ad._hinge_crossed(trace_a, trace_b, MARGIN)
            == hinge_crossed_per_trace(trace_a, trace_b, MARGIN))


@pytest.mark.parametrize("trace_b", [[np.zeros(3)], [np.zeros(2), np.zeros(2)],
                                     [np.zeros(2), np.zeros(1), np.zeros(1)]],
                         ids=["fewer-traces", "other-sizes", "more-traces"])
def test_hinge_crossed_rejects_passes_with_different_traces(trace_b):
    with pytest.raises(ValueError, match="different hinge traces"):
        ad._hinge_crossed([np.zeros(2), np.zeros(1)], trace_b, MARGIN)


# --------------------------------------------------------------------------
# tensor buffers

def test_a_tensor_is_data_without_a_gradient():
    t = Tensor(np.ones((1, 2, 1, 1)))
    assert t.grad is None
    assert not t.requires_grad
    with pytest.raises(TypeError):
        Tensor(np.ones((1, 2, 1, 1)), with_grad=True)


def _grad_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


# Digests of (input, parameter) gradients as a `Tensor(x)` input leaf took
# them when a plain tensor could hold a gradient buffer: a `Parameter` input,
# the one leaf that takes a gradient now, gets the same bits.
def test_parameter_input_to_conv1x1_takes_the_pinned_gradient_bits():
    rng = np.random.default_rng(24)
    x = Parameter(rng.standard_normal((3, 5, 4, 4)))
    w = Parameter(rng.standard_normal((6, 5, 1, 1)))
    b = Parameter(rng.standard_normal((6, 1, 1, 1)))
    ad.reset_tape()
    ad.backward(ad.conv1x1(x, w, b), rng.standard_normal((3, 6, 4, 4)))
    assert _grad_digest(x.grad, w.grad, b.grad) == "7e5b0dee0cc09a11"


def test_parameter_input_to_the_histogram_takes_the_pinned_gradient_bits():
    rng = np.random.default_rng(24)
    p = HistogramParams(Parameter(rng.uniform(-0.2, 1.2, size=(3, 5, 1, 1))),
                        Parameter(rng.uniform(0.5, 8.0, size=(3, 5, 1, 1))))
    x = Parameter(rng.uniform(-0.2, 1.2, size=(2, 3, 4, 4)))
    ad.reset_tape()
    ad.backward(hist_forward_direct(x, p), rng.standard_normal((2, 15, 1, 1)))
    assert _grad_digest(x.grad) == "1268b2f460a78c6c"
    # the centers and slopes as the backward from per-bin counts rounds them
    assert _grad_digest(p.centers.grad, p.slopes.grad) == "c930d017f253856e"


def test_every_buffer_is_a_fresh_c_contiguous_float64_array_of_the_data_shape():
    base = np.arange(24.0).reshape(2, 3, 4, 1)
    inputs = [base, base[:, ::2], np.asfortranarray(base), base.astype(np.float32),
              np.arange(24).reshape(2, 3, 4, 1)]
    buffers = []
    for data in inputs:
        p = Parameter(data)
        locked = Parameter(data, lock_mask=np.asfortranarray(np.ones(data.shape)))
        own = [p.grad, p.lock_mask, p.momentum_buf, locked.grad,
               locked.lock_mask, locked.momentum_buf]
        for buf in own:
            assert buf.dtype == np.float64
            assert buf.flags.c_contiguous and buf.flags.writeable
            assert buf.shape == data.shape
            for other in (data, p.data, locked.data):
                assert not np.shares_memory(buf, other)
        buffers += own
    for i, buf in enumerate(buffers):
        assert not any(np.shares_memory(buf, other) for other in buffers[i + 1:])


def test_a_given_lock_mask_is_copied():
    mask = np.zeros((1, 2, 1, 1))
    p = Parameter(np.ones((1, 2, 1, 1)), lock_mask=mask)
    mask[...] = 1.0
    np.testing.assert_array_equal(p.lock_mask, 0.0)


# --------------------------------------------------------------------------
# data inputs: nodes recorded only toward inputs that take a gradient

def test_node_records_nothing_without_a_gradient_input(rng):
    data = Tensor(rng.standard_normal((1, 2, 1, 1)))
    other = Tensor(rng.standard_normal((1, 2, 1, 1)))
    live = Parameter(rng.standard_normal((1, 2, 1, 1)), name="live")
    ad.reset_tape()
    out = ad._node(data.data, lambda: None, data, other)
    assert ad._STATE.tape == []
    assert not out.requires_grad
    mixed = ad._node(data.data, lambda: None, data, other, live)
    assert ad._STATE.tape == [mixed]
    assert mixed.requires_grad
    ad.reset_tape()


@pytest.mark.parametrize("op", ["concat_conv1x1", "mean_tensors"])
def test_multi_input_ops_skip_inputs_without_gradient(op, rng):
    frozen = Tensor(rng.standard_normal((2, 3, 2, 2)))
    live = Parameter(rng.standard_normal((2, 3, 1, 1) if op == "concat_conv1x1"
                                         else (2, 3, 2, 2)), name="live")
    ad.reset_tape()
    if op == "concat_conv1x1":
        weight = Parameter(rng.uniform(0.5, 1.5, size=(2, 6, 1, 1)))
        bias = Parameter(np.zeros((2, 1, 1, 1)))
        out = scalar_sum(ad.concat_conv1x1(frozen, live, weight, bias))
    else:
        out = scalar_sum(ad.mean_tensors([frozen, live]))
    ad.backward(out)
    assert frozen.grad is None
    assert np.all(live.grad != 0.0)


# --------------------------------------------------------------------------
# engine-level properties

LINEAR_OPS = ["conv1x1", "fully_connected", "global_avg_pool", "concat_conv1x1"]


@pytest.mark.parametrize("op", LINEAR_OPS)
def test_linearity(op, rng):
    a, b_coef = 1.7, -0.3
    if op == "conv1x1":
        w = Parameter(rng.standard_normal((2, 3, 1, 1)))
        bias = Parameter(np.zeros((2, 1, 1, 1)))
        f = lambda t: ad.conv1x1(t, w, bias).data
        shape = (2, 3, 3, 3)
    elif op == "fully_connected":
        w = Parameter(rng.standard_normal((2, 3, 1, 1)))
        bias = Parameter(np.zeros((2, 1, 1, 1)))
        f = lambda t: ad.fully_connected(t, w, bias).data
        shape = (2, 3, 1, 1)
    elif op == "global_avg_pool":
        f = lambda t: ad.global_avg_pool(t).data
        shape = (2, 3, 3, 3)
    else:
        ctx = Tensor(np.zeros((2, 2, 1, 1)))
        w = Parameter(rng.standard_normal((4, 5, 1, 1)))
        bias = Parameter(np.zeros((4, 1, 1, 1)))
        f = lambda t: ad.concat_conv1x1(t, ctx, w, bias).data
        shape = (2, 3, 3, 3)
    x = rng.standard_normal(shape)
    y = rng.standard_normal(shape)
    ad.reset_tape()
    lhs = f(Tensor(a * x + b_coef * y))
    rhs = a * f(Tensor(x)) + b_coef * f(Tensor(y))
    ad.reset_tape()
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_deterministic_forward_backward_bit_identical():
    def one_run():
        rng = np.random.default_rng(99)
        x = Parameter(rng.standard_normal((2, 3, 4, 4)), name="x")
        w = Parameter(rng.standard_normal((3, 3, 1, 1)), name="w")
        b = Parameter(rng.standard_normal((3, 1, 1, 1)), name="b")
        labels = rng.integers(0, 3, size=(2, 4, 4))
        ad.reset_tape()
        loss, probs = ad.softmax_xent(ad.relu(ad.conv1x1(x, w, b)), labels)
        ad.backward(loss)
        return loss.item(), probs.data.copy(), x.grad.copy(), w.grad.copy()

    r1 = one_run()
    r2 = one_run()
    assert r1[0] == r2[0]
    for a, b in zip(r1[1:], r2[1:]):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_forward_backward_stay_finite(seed):
    rng = np.random.default_rng(seed)
    x = Parameter(rng.standard_normal((1, 3, 3, 3)) * 10, name="x")
    w = Parameter(rng.standard_normal((4, 3, 1, 1)) * 10, name="w")
    b = Parameter(rng.standard_normal((4, 1, 1, 1)), name="b")
    labels = rng.integers(0, 4, size=(1, 3, 3))
    ad.reset_tape()
    loss, probs = ad.softmax_xent(ad.conv1x1(ad.abs_elem(x), w, b), labels)
    ad.backward(loss)
    picked = np.take_along_axis(probs.data, labels[:, None], axis=1)
    # the loss is finite exactly when no label's probability underflowed
    assert np.isfinite(loss.item()) == (picked > 0).all()
    assert np.all(np.isfinite(probs.data))
    assert np.all(np.isfinite(x.grad))
    assert np.all(np.isfinite(w.grad))


# --------------------------------------------------------------------------
# no_grad, upstream gradients and graph lifetime

def test_no_grad_direct_histogram_records_nothing_and_matches(rng):
    x = rng.uniform(0, 1, size=(2, 3, 4, 4))
    p = init_params(3, 5)
    ad.reset_tape()
    recorded = hist_forward_direct(Tensor(x), p).data
    ad.reset_tape()
    with ad.no_grad():
        out = hist_forward_direct(Tensor(x), p)
    assert ad._STATE.tape == []
    assert out.grad is None and out._backward is None
    np.testing.assert_array_equal(out.data, recorded)


def test_no_grad_restores_recording_on_exit():
    x = Parameter(np.ones((1, 2, 1, 1)))
    ad.reset_tape()
    with ad.no_grad():
        with ad.no_grad():
            ad.relu(x)
        ad.relu(x)
    out = ad.relu(x)
    assert ad._STATE.tape == [out]
    ad.reset_tape()


def test_backward_upstream_matches_manual_replay(rng):
    x = Parameter(rng.standard_normal((2, 3, 2, 2)), name="x")
    w = Parameter(rng.standard_normal((4, 3, 1, 1)), name="w")
    b = Parameter(rng.standard_normal((4, 1, 1, 1)), name="b")
    upstream = rng.standard_normal((2, 4, 2, 2))
    ad.reset_tape()
    run_backward(ad.relu(ad.conv1x1(x, w, b)), upstream)
    want = [p.grad.copy() for p in (x, w, b)]
    ad.zero_grads([x, w, b])
    ad.backward(ad.relu(ad.conv1x1(x, w, b)), upstream)
    assert ad._STATE.tape == []
    for p, g in zip((x, w, b), want):
        np.testing.assert_array_equal(p.grad, g)


def test_nodes_consumed_twice_get_summed_gradients_in_their_own_buffers(rng):
    x = Parameter(rng.standard_normal((2, 3, 2, 2)), name="x")
    ad.reset_tape()
    h = ad.relu(x)
    a = ad.abs_elem(x)
    ctx = ad.global_avg_pool(h)
    m = ad.mean_tensors([h, h, a, a])
    ones = Parameter(np.ones((1, 6, 1, 1)))  # one output channel
    cat = ad.concat_conv1x1(m, ctx, ones, Parameter(np.zeros((1, 1, 1, 1))))
    s = scalar_sum(cat)
    s2 = scalar_sum(ctx)
    loss = ad.mean_tensors([s, s, s2, s2])
    ad.backward(loss)
    # every sum below is exact in binary floating point
    assert s.grad.item() == s2.grad.item() == 0.5
    np.testing.assert_array_equal(cat.grad, np.full(cat.shape, 0.5))
    np.testing.assert_array_equal(m.grad, np.full(m.shape, 0.5))
    np.testing.assert_array_equal(ctx.grad, np.full(ctx.shape, 4 * 0.5 + 0.5))
    np.testing.assert_array_equal(h.grad, np.full(h.shape, 2 * 0.125 + 2.5 / 4))
    np.testing.assert_array_equal(a.grad, np.full(a.shape, 2 * 0.125))
    np.testing.assert_array_equal(x.grad, np.where(x.data > 0, 1.125, -0.25))
    buffers = [t.grad for t in (loss, s, s2, cat, m, ctx, h, a, x)]
    for i, buf in enumerate(buffers):
        before = [b.copy() for b in buffers]
        buf += 1.0
        for j, other in enumerate(buffers):
            if j != i:
                np.testing.assert_array_equal(other, before[j])


def test_backward_rejects_bad_upstream_and_tape_free_outputs():
    x = Parameter(np.ones((1, 2, 2, 2)))
    ad.reset_tape()
    with pytest.raises(ShapeError, match="upstream gradient shape"):
        ad.backward(ad.relu(x), np.ones((1, 2, 1, 1)))
    with pytest.raises(ShapeError, match="scalar"):
        ad.backward(ad.relu(x))
    ad.reset_tape()
    with ad.no_grad():
        out = ad.relu(x)
    with pytest.raises(ValueError, match="gradients on"):
        ad.backward(out, np.ones(out.shape))


def _graph_with_hidden_ref(rng):
    """Record a small loss graph; return it with a weakref to an inner node."""
    x = Parameter(rng.standard_normal((2, 3, 2, 2)), name="x")
    w = Parameter(rng.standard_normal((3, 3, 1, 1)), name="w")
    b = Parameter(rng.standard_normal((3, 1, 1, 1)), name="b")
    labels = rng.integers(0, 3, size=(2, 2, 2))
    ad.reset_tape()
    hidden = ad.relu(ad.conv1x1(x, w, b))
    loss, probs = ad.softmax_xent(ad.conv1x1(ad.abs_elem(hidden), w, b), labels)
    return loss, probs, weakref.ref(hidden)


@pytest.mark.parametrize("release", ["backward", "reset_tape"])
def test_released_graph_freed_without_the_collector(release, rng):
    """Backward and reset_tape drop the node closures, so no reference cycle
    keeps an intermediate node alive until a garbage collection."""
    gc.disable()
    try:
        loss, probs, hidden = _graph_with_hidden_ref(rng)
        assert hidden() is not None
        if release == "backward":
            ad.backward(loss)
        else:
            ad.reset_tape()
        del loss, probs
        assert hidden() is None
    finally:
        gc.enable()
