"""Forward-only work held once: the histogram forward in image chunks and the
one-buffer channel softmax give the bits of the whole-array expressions."""

import math

import numpy as np
import pytest

import histlayer.autodiff as ad
import histlayer.histogram as hist
from histlayer.autodiff import Parameter, Tensor
from histlayer.histogram import HistogramParams, hist_forward_direct

# the network's histogram: K classes, B bins, on 16x16 likelihood maps
K, B, H, W = 6, 6, 16, 16
STEP = max(1, hist._WORK // (K * B * H * W))


def random_params(rng):
    return HistogramParams(
        Parameter(rng.uniform(-0.2, 1.2, size=(K, B, 1, 1)), name="hist.centers"),
        Parameter(rng.uniform(0.5, 8.0, size=(K, B, 1, 1)), name="hist.slopes"))


def test_the_network_shape_spans_several_chunks():
    assert 1 < STEP < 50


@pytest.mark.parametrize("n", [1, STEP - 1, STEP, STEP + 1, 50])
def test_chunked_histogram_equals_the_per_image_outputs_bitwise(n):
    rng = np.random.default_rng(n)
    p = random_params(rng)
    x = rng.uniform(-0.2, 1.2, size=(n, K, H, W))
    upstream = rng.standard_normal((n, K * B, 1, 1))

    per_image, per_traces, per_grads = [], [], []
    for i in range(n):
        lik = Parameter(x[i:i + 1])
        ad.reset_tape()
        with ad.hinge_trace() as trace:
            out = hist_forward_direct(lik, p)
        ad.backward(out, upstream[i:i + 1])
        per_image.append(out.data)
        per_traces.append(trace)
        per_grads.append(lik.grad)
    want = np.concatenate(per_image)

    lik = Parameter(x)
    ad.zero_grads([p.centers, p.slopes])
    ad.reset_tape()
    with ad.hinge_trace() as recorded_trace:
        recorded = hist_forward_direct(lik, p)
    assert ad._STATE.tape == [recorded]
    ad.backward(recorded, upstream)
    with ad.no_grad(), ad.hinge_trace() as free_trace:
        free = hist_forward_direct(Tensor(x), p)
    assert free._backward is None

    assert recorded.data.tobytes() == want.tobytes()
    assert free.data.tobytes() == want.tobytes()
    # the backward computes each chunk's offsets again: the likelihood
    # gradient is per pixel, so it is the per-image one bit for bit
    assert lik.grad.tobytes() == np.concatenate(per_grads).tobytes()

    # offsets then hinge inputs, chunk by chunk, alike in both passes
    assert len(recorded_trace) == len(free_trace) == 2 * math.ceil(n / STEP)
    for a, b in zip(recorded_trace, free_trace):
        assert a.tobytes() == b.tobytes()
    # each kind, in image order, holds the per-image values
    for kind in (0, 1):
        got = np.concatenate(recorded_trace[kind::2])
        assert got.tobytes() == np.concatenate([t[kind] for t in per_traces]).tobytes()


def three_array_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("gap", [0.0, 30.0, 745.5, 800.0, 1e5])
def test_softmax_channels_equals_the_three_array_expression_bitwise(gap):
    rng = np.random.default_rng(int(gap))
    logits = rng.standard_normal((5, K, 4, 3)) * 3.0
    logits[:, 2] += gap          # channel 2 leads the others by about `gap`
    before = logits.copy()
    got = ad._softmax_channels(logits)
    assert got.tobytes() == three_array_softmax(before).tobytes()
    assert logits.tobytes() == before.tobytes()
    if gap >= 800.0:             # exp of every other shifted logit underflows
        assert np.all(np.delete(got, 2, axis=1) == 0.0)
        assert np.all(got[:, 2] == 1.0)
