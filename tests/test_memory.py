"""Peak memory of histogram and evaluation passes, of dataset files and of
the Monte-Carlo ceiling, as byte counts of the allocations tracemalloc sees (numpy reports its array
buffers to it), so each bound holds on any machine."""

import contextlib
import tracemalloc

import numpy as np
import pytest

import histlayer.autodiff as ad
from histlayer.autodiff import Parameter, Tensor
from histlayer import networks
from histlayer.config import RunConfig
from histlayer.data import (ContextDataset, default_spec, generate, local_bayes_ceiling,
                            read_dataset, write_dataset)
from histlayer.histogram import hist_forward_direct, init_params
from histlayer.networks import Network


def peak_bytes(fn):
    """(peak bytes allocated while `fn` runs, above what was held before; its result)"""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        if not tracing:
            tracemalloc.stop()


# an evaluation batch of the network's histogram: K classes, B bins, 16x16 maps
N, K, B, H, W = 50, 6, 6, 16, 16
OFFSETS = N * K * B * H * W * 8   # bytes of one (N,K,B,H,W) float64 array


@pytest.mark.parametrize("recorded", [False, True], ids=["unrecorded", "recorded"])
def test_histogram_forward_peaks_below_one_offsets_array(recorded):
    p = init_params(K, B)
    x = Tensor(np.random.default_rng(0).uniform(size=(N, K, H, W)))
    ad.reset_tape()
    with contextlib.nullcontext() if recorded else ad.no_grad():
        peak, out = peak_bytes(lambda: hist_forward_direct(x, p))
    assert ad._STATE.tape == ([out] if recorded else [])
    ad.reset_tape()
    assert out.shape == (N, K * B, 1, 1)
    assert peak < OFFSETS


def kept_bytes(fn):
    """(bytes still allocated after `fn` returns, above what was held before;
    its result)"""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        if not tracing:
            tracemalloc.stop()


def test_recorded_histogram_forward_keeps_its_state_until_backward_or_reset():
    """A recorded forward keeps its int8 support state (an eighth of an
    offsets array), its per-bin counts and its chunk work array for the
    backward, and nothing once the tape is reset."""
    p = init_params(K, B)
    x = Tensor(np.random.default_rng(0).uniform(size=(N, K, H, W)))
    ad.reset_tape()
    tracemalloc.start()
    try:
        kept, out = kept_bytes(lambda: hist_forward_direct(x, p))
        assert ad._STATE.tape == [out]
        assert OFFSETS / 8 < kept <= 0.3 * OFFSETS
        freed, _ = kept_bytes(ad.reset_tape)
        assert kept + freed <= out.data.nbytes + 4096
    finally:
        tracemalloc.stop()


def test_unrecorded_histogram_forward_keeps_only_its_output():
    p = init_params(K, B)
    x = Tensor(np.random.default_rng(0).uniform(size=(N, K, H, W)))
    ad.reset_tape()
    with ad.no_grad():
        kept, out = kept_bytes(lambda: hist_forward_direct(x, p))
    assert ad._STATE.tape == []
    assert kept <= out.data.nbytes + 4096


def test_histogram_forward_and_backward_peak_below_one_offsets_array():
    """Measured at 0.50 of one: the kept int8 support state, the chunk work
    array and the likelihood gradient; the backward takes the centers and
    slopes from per-bin counts and keeps no float copy of the state (0.63
    with that copy, 0.66 without the kept state)."""
    rng = np.random.default_rng(0)
    p = init_params(K, B)
    x = Parameter(rng.uniform(size=(N, K, H, W)))
    upstream = rng.standard_normal((N, K * B, 1, 1))
    ad.reset_tape()
    peak, _ = peak_bytes(lambda: ad.backward(hist_forward_direct(x, p), upstream))
    assert np.any(x.grad != 0) and np.any(p.centers.grad != 0) and np.any(p.slopes.grad != 0)
    assert peak < 0.55 * OFFSETS


def test_evaluation_batch_peaks_below_three_feature_maps():
    """A forward-only pass of one evaluation batch of the default network
    drops each activation once the next layer has read it."""
    cfg = RunConfig(seed=1)
    ds = generate(default_spec(K=cfg.K, D=cfg.D), N, H, W, seed=3)
    net = Network(cfg)
    feature_map = N * cfg.C_feat * H * W * 8   # bytes of one (N,C_feat,H,W) float64 array
    ad.reset_tape()
    with ad.no_grad():
        peak, (loss, _) = peak_bytes(lambda: networks._batch_pass(
            net, ds, slice(0, N), ds.labels, None))
    assert ad._STATE.tape == []
    assert np.isfinite(loss.item())
    assert peak < 3 * feature_map


def test_generate_peaks_below_one_and_a_tenth_feature_arrays():
    peak, ds = peak_bytes(lambda: generate(default_spec(), 200, 16, 16, seed=0))
    assert peak < 1.1 * ds.features.nbytes


def _dataset(n=1000, d=8, h=16, w=16):
    spec = default_spec(D=d)
    rng = np.random.default_rng(0)
    return ContextDataset(rng.standard_normal((n, d, h, w)),
                          rng.integers(0, spec.K, size=(n, h, w)).astype(np.uint8),
                          rng.integers(0, spec.S, size=n).astype(np.uint8), spec, 0)


def test_write_dataset_makes_no_copy_of_the_features(tmp_path):
    ds = _dataset()
    peak, _ = peak_bytes(lambda: write_dataset(ds, tmp_path / "d.hctx"))
    assert peak < 0.25 * ds.features.nbytes


def test_read_dataset_peaks_below_one_and_a_twentieth_feature_arrays(tmp_path):
    ds = _dataset()
    write_dataset(ds, tmp_path / "d.hctx")
    peak, back = peak_bytes(lambda: read_dataset(tmp_path / "d.hctx"))
    assert back.features.tobytes() == ds.features.tobytes()
    assert peak < 1.05 * ds.features.nbytes


def test_local_bayes_ceiling_peaks_below_16_mb():
    """The default 200000 draws are predicted in row chunks: one (n_mc, K, D)
    distance array would take 77 MB on its own."""
    peak, _ = peak_bytes(lambda: local_bayes_ceiling(default_spec(), 200000, 0))
    assert peak < 16e6
