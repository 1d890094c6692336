import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import histlayer.autodiff as ad
import histlayer.histogram as hist
from histlayer.autodiff import Parameter, ShapeError, Tensor
from histlayer.histogram import (S_MIN, ComposedHistogram, HistogramParams, basis_eval,
                                 hist_forward_direct, init_params)
from histlayer.oracle import hist_oracle


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
    x = Parameter(np.full((1, 1, 1, 1), 0.0))   # outside support of bin 1? psi1(0)=0
    ad.reset_tape()
    feat = hist_forward_direct(x, p)
    upstream = np.zeros((1, 2, 1, 1))
    upstream[0, 1] = 1.0    # only bin 1 receives upstream error
    ad.backward(feat, upstream)
    assert p.centers.grad[0, 1, 0, 0] == 0.0
    assert p.slopes.grad[0, 1, 0, 0] == 0.0
    assert x.grad.ravel()[0] == 0.0


def test_backward_single_pixel_hand_case():
    # one pixel at mu + 0.05, slope 5: psi = 0.75, active branch
    p = HistogramParams(Parameter(np.full((1, 1, 1, 1), 0.4)),
                        Parameter(np.full((1, 1, 1, 1), 5.0)))
    x = Parameter(np.full((1, 1, 1, 1), 0.45))
    ad.reset_tape()
    feat = hist_forward_direct(x, p)
    ad.backward(feat, np.ones((1, 1, 1, 1)))
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
            ad._accumulate(feat, upstream * out.grad.reshape(-1)[0])

        out = ad._node(np.full((1, 1, 1, 1), s), _bw, feat)
        return out

    for wiggle in (x, p.centers, p.slopes):
        res = ad.grad_check(loss_fn, wiggle, eps=1e-4, kink_margin=1e-3)
        assert res.max_rel_err < 1e-5


def reference_hist_grads(x, mu, s, upstream):
    """The backward formula with the broadcast np.where and separate centers
    and likelihood products, kept as the reference for the fused one."""
    n, K, h, w = x.shape
    B = mu.shape[1]
    mu, s = mu.reshape(1, K, B, 1, 1), s.reshape(1, K, B, 1, 1)
    d = x.reshape(n, K, 1, h, w) - mu
    t = np.abs(d)
    t *= -s
    t += 1.0
    active = t > 0
    gg = upstream.reshape(n, K, B, 1, 1) / (h * w)
    sgn = np.sign(d)
    common = np.where(active, gg, 0.0)
    slopes = (common * -np.abs(d)).sum(axis=(0, 3, 4)).reshape(K, B, 1, 1)
    centers = (common * s * sgn).sum(axis=(0, 3, 4)).reshape(K, B, 1, 1)
    likelihood = (common * -s * sgn).sum(axis=2).reshape(n, K, h, w)
    # accumulated into zero-filled buffers, as the layer does
    return [np.zeros_like(g) + g for g in (likelihood, centers, slopes)]


def test_backward_bit_equal_to_reference_formula(rng):
    # random small shapes, each one chunk, then the network's K = B = 6 on
    # 16x16 maps at batch sizes that span two and several chunks
    step = max(1, hist._WORK // (6 * 6 * 16 * 16))
    kinks = 0
    for trial, n_net in enumerate([None] * 60 + [step + 1, 50]):
        if n_net is None:
            K, B = int(rng.integers(1, 4)), int(rng.integers(2, 7))
            n, h, w = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        else:
            n, K, B, h, w = n_net, 6, 6, 16, 16
        p = init_params(K, B) if trial % 3 == 0 else random_params(rng, K, B)
        x = rng.uniform(-0.2, 1.2, size=(n, K, h, w))
        # half the pixels sit exactly on a bin center or a support edge
        mu, s = p.centers.data[:, :, 0, 0], p.slopes.data[:, :, 0, 0]
        k, b = np.arange(K).reshape(1, K, 1, 1), rng.integers(B, size=x.shape)
        edge = rng.choice([0.0, 1.0, -1.0], size=x.shape)
        x = np.where(rng.random(x.shape) < 0.5, mu[k, b] + edge / s[k, b], x)
        upstream = rng.standard_normal((n, K * B, 1, 1))
        ref = reference_hist_grads(x, p.centers.data, p.slopes.data, upstream)
        kinks += int((np.abs(x.reshape(n, K, 1, h, w) - mu.reshape(1, K, B, 1, 1)) == 0).sum())
        lik = Parameter(x)
        ad.reset_tape()
        ad.backward(hist_forward_direct(lik, p), upstream)
        for got, want in zip((lik.grad, p.centers.grad, p.slopes.grad), ref):
            assert got.tobytes() == want.tobytes()
    assert kinks > 0


def outside_every_support(rng, p, size):
    """Pixels beyond the support of every bin of their class, on either side."""
    mu, s = p.centers.data[:, :, 0, 0], p.slopes.data[:, :, 0, 0]
    lo = (mu - 1.0 / s).min(axis=1).reshape(1, -1, 1, 1)
    hi = (mu + 1.0 / s).max(axis=1).reshape(1, -1, 1, 1)
    gap = rng.uniform(1e-6, 1.0, size=size)
    return np.where(rng.random(size) < 0.5, lo - gap, hi + gap)


def histogram_trials(rng, outside_share):
    """(x, params, upstream) at random small shapes and the network's shapes;
    `outside_share` of the pixels lie outside every support and a tenth sit
    on a bin center or a support edge."""
    step = max(1, hist._WORK // (6 * 6 * 16 * 16))
    for trial, n_net in enumerate([None] * 24 + [step + 1, 50]):
        if n_net is None:
            K, B = int(rng.integers(1, 4)), int(rng.integers(2, 7))
            n, h, w = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        else:
            n, K, B, h, w = n_net, 6, 6, 16, 16
        p = init_params(K, B) if trial % 3 == 0 else random_params(rng, K, B)
        mu, s = p.centers.data[:, :, 0, 0], p.slopes.data[:, :, 0, 0]
        shape = (n, K, h, w)
        k, b = np.arange(K).reshape(1, K, 1, 1), rng.integers(B, size=shape)
        on_grid = mu[k, b] + rng.choice([0.0, 1.0, -1.0], size=shape) / s[k, b]
        x = np.where(rng.random(shape) < 0.1, on_grid, rng.uniform(-0.2, 1.2, size=shape))
        x = np.where(rng.random(shape) < outside_share, outside_every_support(rng, p, shape), x)
        yield x, p, rng.standard_normal((n, K * B, 1, 1))


def layer_likelihood_gradient(x, mu, s, upstream):
    """The likelihood gradient as the layer computes it when it writes the
    first buffer: the centers' product summed over the bins, then negated,
    so a pixel with no support in any bin gets -0.0."""
    n, K, h, w = x.shape
    B = mu.shape[1]
    mu, s = mu.reshape(1, K, B, 1, 1), s.reshape(1, K, B, 1, 1)
    d = x.reshape(n, K, 1, h, w) - mu
    t = np.abs(d)
    t *= -s
    t += 1.0
    gg = upstream.reshape(n, K, B, 1, 1) / (h * w)
    return np.negative((np.where(t > 0, gg * s, 0.0) * np.sign(d)).sum(axis=2))


@pytest.mark.parametrize("outside_share", [0.5, 1.0])
def test_backward_bit_equal_where_pixels_lie_outside_every_support(rng, outside_share):
    outside = 0
    for x, p, upstream in histogram_trials(rng, outside_share):
        mu, s = p.centers.data, p.slopes.data
        d = x[:, :, None] - mu[None, :, :, 0, 0][..., None, None]
        outside += int((np.abs(d) * s[None, :, :, 0, 0][..., None, None] >= 1.0)
                       .all(axis=2).sum())
        lik = Parameter(x)
        ad.reset_tape()
        ad.backward(hist_forward_direct(lik, p), upstream)
        want = reference_hist_grads(x, mu, s, upstream)
        for got, ref in zip((lik.grad, p.centers.grad, p.slopes.grad), want):
            assert got.tobytes() == ref.tobytes()
    assert outside > 0


@pytest.mark.parametrize("outside_share", [0.0, 0.5, 1.0])
def test_recorded_likelihood_takes_the_layers_gradient_bit_for_bit(rng, outside_share):
    """The histogram writes the first gradient of a recorded likelihood node,
    so that node holds the layer's own array: every bit of it, the sign of
    each zero included, is pinned, and so is what flows on to the leaf."""
    negative_zeros = 0
    for x, p, upstream in histogram_trials(rng, outside_share):
        leaf = Parameter(x)
        ad.reset_tape()
        lik = ad.mean_tensors([leaf])   # a recorded node with leaf's values
        assert lik.data.tobytes() == x.tobytes()
        ad.backward(hist_forward_direct(lik, p), upstream)
        mu, s = p.centers.data, p.slopes.data
        want = layer_likelihood_gradient(x, mu, s, upstream)
        assert lik.grad.tobytes() == want.tobytes()
        assert leaf.grad.tobytes() == (np.zeros_like(x) + want / 1).tobytes()
        ref = reference_hist_grads(x, mu, s, upstream)
        assert p.centers.grad.tobytes() == ref[1].tobytes()
        assert p.slopes.grad.tobytes() == ref[2].tobytes()
        negative_zeros += int(np.signbit(want[want == 0]).sum())
    assert negative_zeros > 0


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


def oracle_by_index(likelihood, centers, slopes):
    """`hist_oracle` as it was before it walked lists: numpy scalars indexed
    one at a time, kept as its reference."""
    likelihood = np.asarray(likelihood, dtype=np.float64)
    n, k_classes, h, w = likelihood.shape
    b_bins = centers.shape[1]
    out = np.zeros((n, k_classes * b_bins))
    for sample in range(n):
        for k in range(k_classes):
            for b in range(b_bins):
                mu = float(centers[k, b])
                s = float(slopes[k, b])
                total = 0.0
                for i in range(h):
                    for j in range(w):
                        x = float(likelihood[sample, k, i, j])
                        vote = 1.0 - s * abs(x - mu)
                        if vote > 0.0:
                            total += vote
                out[sample, k * b_bins + b] = total / (h * w)
    return out


@pytest.mark.parametrize("h, w", [(1, 1), (1, 5), (4, 1), (3, 4)])
def test_oracle_bit_equal_to_indexed_reference(h, w, rng):
    for _ in range(20):
        K = int(rng.integers(1, 4))
        B = int(rng.integers(2, 7))
        n = int(rng.integers(1, 3))
        centers = rng.uniform(-0.5, 1.5, size=(K, B))
        slopes = rng.uniform(0.5, 8.0, size=(K, B))
        x = rng.uniform(-1.0, 2.0, size=(n, K, h, w))   # also outside [0, 1]
        x.flat[0] = centers[0, 0]                        # a vote of exactly 1
        np.testing.assert_array_equal(hist_oracle(x, centers, slopes),
                                      oracle_by_index(x, centers, slopes))


def test_oracle_reads_float32_and_integer_inputs_as_float64(rng):
    x = rng.uniform(-0.2, 1.2, size=(2, 2, 3, 3)).astype(np.float32)
    centers = np.array([[0, 1], [1, 2]])
    slopes = rng.uniform(0.5, 8.0, size=(2, 2)).astype(np.float32)
    np.testing.assert_array_equal(hist_oracle(x, centers, slopes),
                                  oracle_by_index(x, centers, slopes))


@pytest.mark.parametrize("centers, slopes", [((3, 4), (3, 4)), ((2, 4), (2, 5))],
                         ids=["classes", "slopes-shape"])
def test_oracle_rejects_parameters_that_disagree_with_the_input(centers, slopes):
    with pytest.raises(ValueError, match="must both be"):
        hist_oracle(np.zeros((1, 2, 2, 2)), np.zeros(centers), np.ones(slopes))


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

    xd = Parameter(x.copy())
    ad.reset_tape()
    ad.backward(hist_forward_direct(xd, p), upstream)

    xc = Parameter(x.copy())
    ad.reset_tape()
    ad.backward(layer.forward(xc), upstream)

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
        ad.backward(out, rng.standard_normal(out.shape))
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
