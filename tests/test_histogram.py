import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import histlayer.autodiff as ad
from histlayer.autodiff import Parameter, ShapeError, Tensor
from histlayer.histogram import (S_MIN, ComposedHistogram, HistogramParams, basis_eval,
                                 hist_forward_direct, init_params)
from histlayer.oracle import hist_oracle


def run_backward(out, upstream):
    out.grad[...] = upstream
    for node in reversed(ad._STATE.tape):
        if node._backward is not None:
            node._backward()
    ad.reset_tape()


def random_params(rng, K, B):
    return HistogramParams(
        Parameter(rng.uniform(-0.2, 1.2, size=(K, B, 1, 1)), name="hist.centers"),
        Parameter(rng.uniform(0.5, 8.0, size=(K, B, 1, 1)), name="hist.slopes"))


# --------------------------------------------------------------------------
# basis function

def test_basis_peak_is_one():
    assert basis_eval(0.4, 0.4, 5.0) == 1.0


def test_basis_support_boundary_is_zero():
    assert basis_eval(0.4 + 1 / 5.0, 0.4, 5.0) == 0.0
    assert basis_eval(0.4 - 1 / 5.0, 0.4, 5.0) == 0.0


def test_basis_symmetric_midpoint():
    assert basis_eval(0.5, 0.4, 5.0) == pytest.approx(0.5, rel=1e-15)


# --------------------------------------------------------------------------
# initialization

def test_init_b6_matches_canonical_grid():
    p = init_params(3, 6)
    for k in range(3):
        np.testing.assert_allclose(p.centers.data[k].ravel(),
                                   [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-15)
    np.testing.assert_array_equal(p.slopes.data, 5.0)


def test_init_b2_two_point_grid():
    p = init_params(1, 2)
    np.testing.assert_array_equal(p.centers.data.ravel(), [0.0, 1.0])
    np.testing.assert_array_equal(p.slopes.data.ravel(), [1.0, 1.0])


def test_init_rejects_single_bin():
    with pytest.raises(ValueError):
        init_params(1, 1)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(2, 9))
def test_partition_of_unity_at_init(x, B):
    p = init_params(1, B)
    total = sum(basis_eval(x, p.centers.data[0, b, 0, 0], p.slopes.data[0, b, 0, 0])
                for b in range(B))
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0))
def test_vote_locality_at_init(x):
    p = init_params(1, 6)
    votes = [basis_eval(x, p.centers.data[0, b, 0, 0], p.slopes.data[0, b, 0, 0])
             for b in range(6)]
    assert sum(v > 0 for v in votes) <= 2


# --------------------------------------------------------------------------
# direct forward

def test_direct_forward_two_pixel_example():
    p = init_params(1, 6)
    x = Tensor(np.array([0.0, 0.2]).reshape(1, 1, 1, 2))
    ad.reset_tape()
    feat = hist_forward_direct(x, p)
    ad.reset_tape()
    np.testing.assert_allclose(feat.data.ravel(), [0.5, 0.5, 0, 0, 0, 0], atol=1e-15)


def test_direct_forward_constant_map_at_center_peaks_one():
    p = init_params(1, 6)
    x = Tensor(np.full((1, 1, 3, 3), 0.4))
    ad.reset_tape()
    feat = hist_forward_direct(x, p).data.ravel()
    ad.reset_tape()
    assert feat[2] == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(np.delete(feat, 2), 0.0, atol=1e-15)


def test_direct_forward_matches_oracle_on_random_map(rng):
    p = random_params(rng, 3, 5)
    x = rng.uniform(-0.2, 1.2, size=(2, 3, 4, 4))
    ad.reset_tape()
    got = hist_forward_direct(Tensor(x), p).data.reshape(2, 15)
    ad.reset_tape()
    want = hist_oracle(x, p.centers.data.reshape(3, 5), p.slopes.data.reshape(3, 5))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_direct_forward_channel_mismatch_rejected():
    p = init_params(2, 6)
    with pytest.raises(ShapeError, match="K=2"):
        hist_forward_direct(Tensor(np.zeros((1, 3, 2, 2))), p)


def test_feature_range_and_init_row_sums(rng):
    p = init_params(2, 6)
    x = Tensor(rng.uniform(0, 1, size=(3, 2, 5, 5)))
    ad.reset_tape()
    feat = hist_forward_direct(x, p).data
    ad.reset_tape()
    assert feat.min() >= 0.0 and feat.max() <= 1.0
    sums = feat.reshape(3, 2, 6).sum(axis=2)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


# --------------------------------------------------------------------------
# direct backward

def test_backward_inactive_vote_has_zero_partials():
    p = init_params(1, 2)   # centers 0 and 1, slope 1
    x = Tensor(np.full((1, 1, 1, 1), 0.0))   # outside support of bin 1? psi1(0)=0
    ad.reset_tape()
    feat = hist_forward_direct(x, p)
    upstream = np.zeros((1, 2, 1, 1))
    upstream[0, 1] = 1.0    # only bin 1 receives upstream error
    run_backward(feat, upstream)
    assert p.centers.grad[0, 1, 0, 0] == 0.0
    assert p.slopes.grad[0, 1, 0, 0] == 0.0
    assert x.grad.ravel()[0] == 0.0


def test_backward_single_pixel_hand_case():
    # one pixel at mu + 0.05, slope 5: psi = 0.75, active branch
    p = HistogramParams(Parameter(np.full((1, 1, 1, 1), 0.4)),
                        Parameter(np.full((1, 1, 1, 1), 5.0)))
    x = Tensor(np.full((1, 1, 1, 1), 0.45))
    ad.reset_tape()
    feat = hist_forward_direct(x, p)
    run_backward(feat, np.ones((1, 1, 1, 1)))
    assert p.centers.grad.ravel()[0] == pytest.approx(5.0, rel=1e-15)
    assert p.slopes.grad.ravel()[0] == pytest.approx(-0.05, rel=1e-12)
    assert x.grad.ravel()[0] == pytest.approx(-5.0, rel=1e-15)


def test_backward_finite_difference_full(rng):
    p = random_params(rng, 2, 4)
    x = Parameter(rng.uniform(0, 1, size=(2, 2, 3, 3)), name="x")
    upstream = rng.standard_normal((2, 8, 1, 1))

    def loss_fn():
        feat = hist_forward_direct(x, p)
        s = (feat.data * upstream).sum()

        def _bw():
            feat.grad += upstream * out.grad.reshape(-1)[0]

        out = ad._node(np.full((1, 1, 1, 1), s), _bw)
        return out

    for wiggle in (x, p.centers, p.slopes):
        res = ad.grad_check(loss_fn, wiggle, eps=1e-4, kink_margin=1e-3)
        assert res.max_rel_err < 1e-5


# --------------------------------------------------------------------------
# brute-force oracle

def test_oracle_all_half_input_hits_bins_two_and_three():
    p = init_params(1, 6)
    x = np.full((1, 1, 2, 2), 0.5)
    out = hist_oracle(x, p.centers.data.reshape(1, 6), p.slopes.data.reshape(1, 6))
    np.testing.assert_allclose(out.ravel(), [0, 0, 0.5, 0.5, 0, 0], atol=1e-15)


def test_oracle_single_bin_at_zero():
    out = hist_oracle(np.zeros((1, 1, 1, 1)), np.zeros((1, 1)), np.ones((1, 1)))
    np.testing.assert_array_equal(out, [[1.0]])


def test_oracle_agreement_many_random_instances(rng):
    for _ in range(100):
        K = int(rng.integers(1, 4))
        B = int(rng.integers(2, 7))
        p = random_params(rng, K, B)
        x = rng.uniform(-0.2, 1.2, size=(1, K, 3, 3))
        ad.reset_tape()
        got = hist_forward_direct(Tensor(x), p).data.reshape(1, K * B)
        ad.reset_tape()
        want = hist_oracle(x, p.centers.data.reshape(K, B), p.slopes.data.reshape(K, B))
        assert np.abs(got - want).max() < 1e-12


# --------------------------------------------------------------------------
# composed realization

def composed_pair(rng, K, B):
    p = random_params(rng, K, B)
    return p, ComposedHistogram(p)


@pytest.mark.parametrize("h,w", [(4, 4), (1, 1)])
def test_composed_forward_equals_direct(h, w, rng):
    p, layer = composed_pair(rng, 2, 5)
    x = rng.uniform(-0.2, 1.2, size=(3, 2, h, w))
    ad.reset_tape()
    direct = hist_forward_direct(Tensor(x.copy()), p).data
    ad.reset_tape()
    composed = layer.forward(Tensor(x.copy())).data
    ad.reset_tape()
    np.testing.assert_allclose(composed, direct, atol=1e-12)


def test_composed_gradients_equal_direct(rng):
    p, layer = composed_pair(rng, 2, 4)
    x = rng.uniform(0, 1, size=(2, 2, 3, 3))
    upstream = rng.standard_normal((2, 8, 1, 1))

    xd = Tensor(x.copy())
    ad.reset_tape()
    run_backward(hist_forward_direct(xd, p), upstream)

    xc = Tensor(x.copy())
    ad.reset_tape()
    run_backward(layer.forward(xc), upstream)

    diag = np.arange(8)
    np.testing.assert_allclose(xc.grad, xd.grad, atol=1e-12)
    np.testing.assert_allclose(-layer.b1.grad.reshape(2, 4),
                               p.centers.grad.reshape(2, 4), atol=1e-12)
    np.testing.assert_allclose(-layer.w2.grad[diag, diag, 0, 0].reshape(2, 4),
                               p.slopes.grad.reshape(2, 4), atol=1e-12)


def test_composed_structural_entries_locked_under_sgd(rng):
    layer = ComposedHistogram(init_params(2, 6))
    w1_before = layer.w1.data.copy()
    w2_before = layer.w2.data.copy()
    b2_before = layer.b2.data.copy()
    for _ in range(100):
        x = Tensor(rng.uniform(0, 1, size=(2, 2, 3, 3)))
        ad.reset_tape()
        out = layer.forward(x)
        ad.zero_grads(layer.parameters())
        run_backward(out, rng.standard_normal(out.shape))
        ad.sgd_step(layer.parameters(), lr=1e-2, momentum=0.9)
        layer.clamp_slopes()
    diag = np.arange(12)
    off = np.ones_like(w2_before, dtype=bool)
    off[diag, diag] = False
    np.testing.assert_array_equal(layer.w1.data, w1_before)
    np.testing.assert_array_equal(layer.w2.data[off], w2_before[off])
    np.testing.assert_array_equal(layer.b2.data, b2_before)
    # centers and slopes did move
    assert np.any(layer.w2.data[diag, diag, 0, 0] != w2_before[diag, diag, 0, 0])


def test_slope_clamp_keeps_minimum():
    layer = ComposedHistogram(init_params(1, 2))
    diag = np.arange(2)
    layer.w2.data[diag, diag, 0, 0] = np.array([0.5, -1e-9])  # degenerate updates
    layer.clamp_slopes()
    assert np.all(-layer.w2.data[diag, diag, 0, 0] >= S_MIN)
    params = init_params(1, 2)
    params.slopes.data[...] = np.array([-0.5, 1e-9]).reshape(1, 2, 1, 1)
    params.clamp_slopes()
    assert np.all(params.slopes.data >= S_MIN)


def test_unlocked_layer_keeps_everything_trainable():
    layer = ComposedHistogram(init_params(1, 3), unlocked=True)
    for p in layer.parameters():
        assert np.all(p.lock_mask == 1.0)
