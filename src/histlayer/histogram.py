"""Trainable histogram layer with per-class, per-bin centers and slopes.

Each bin is a triangular basis psi(x) = max(0, 1 - s*|x - mu|) with peak at
the center mu and support half-width 1/s. Two equivalent realizations are
provided:

* a direct vectorized forward/backward (`hist_forward_direct`), the layer
  of the histnet and fix_hist networks, and
* a composed pipeline of generic primitives (`ComposedHistogram`):
  conv1x1 (unit selectors, bias -mu) -> abs -> conv1x1 (diagonal -s,
  bias 1) -> relu -> global average pool, with lock masks freezing the
  selector weights, the off-diagonal entries and the fixed bias so the
  layer keeps its histogram meaning under SGD. It is the reference the
  direct form is verified against; unlocked, it is the free_all ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    ShapeError,
    _accumulate,
    _node,
    _record_hinge,
    _records,
    abs_elem,
    conv1x1,
    global_avg_pool,
    relu,
)

S_MIN = 1e-3
_WORK = 1 << 16   # elements (512 KiB) in each chunk work array


@dataclass
class HistogramParams:
    """Per-class, per-bin centers and slopes, each stored (K, B, 1, 1)."""

    centers: Parameter
    slopes: Parameter

    @property
    def K(self) -> int:
        return self.centers.shape[0]

    @property
    def B(self) -> int:
        return self.centers.shape[1]

    def forward(self, likelihood: Tensor) -> Tensor:
        return hist_forward_direct(likelihood, self)

    def parameters(self) -> list[Parameter]:
        return [self.centers, self.slopes]

    def clamp_slopes(self) -> None:
        np.maximum(self.slopes.data, S_MIN, out=self.slopes.data)


def init_params(K: int, B: int) -> HistogramParams:
    """Centers evenly spaced on [0,1], slopes B-1 everywhere.

    For B=6 this is centers {0, 0.2, ..., 1.0} with half-width 0.2; adjacent
    unit triangles then form a partition of unity on [0,1].
    """
    if B < 2:
        raise ValueError(f"need at least 2 bins, got B={B}")
    grid = np.linspace(0.0, 1.0, B)
    centers = np.tile(grid, (K, 1)).reshape(K, B, 1, 1)
    slopes = np.full((K, B, 1, 1), float(B - 1))
    return HistogramParams(
        centers=Parameter(centers, name="hist.centers"),
        slopes=Parameter(slopes, name="hist.slopes"),
    )


def basis_eval(x: float, mu: float, s: float) -> float:
    """Single triangular basis value max(0, 1 - s*|x - mu|)."""
    return max(0.0, 1.0 - s * abs(x - mu))


def hist_forward_direct(likelihood: Tensor, params: HistogramParams) -> Tensor:
    """Soft histogram of a likelihood map, normalized by pixel count.

    Input (N,K,H,W) -> output (N, K*B, 1, 1) with layout index k*B + b.
    A likelihood vector is simply the H=W=1 case. Gradients flow to the
    centers, the slopes and, when it takes one, the input.
    """
    n, k, h, w = likelihood.shape
    K, B = params.K, params.B
    if k != K:
        raise ShapeError(f"likelihood has {k} channels but histogram expects K={K}")
    if h * w < 1:
        raise ShapeError(f"likelihood needs a nonempty spatial extent, got {likelihood.shape}")

    mu = params.centers.data.reshape(1, K, B, 1, 1)
    s = params.slopes.data.reshape(1, K, B, 1, 1)
    x = likelihood.data.reshape(n, K, 1, h, w)
    # Both passes work in chunks of `step` images, each image alike, so every
    # bit is the whole-batch one. The forward turns each chunk's offsets
    # d = x - mu into t = 1 - s*|d| in one work array. A recorded forward
    # also keeps, as int8, sign(d) where t > 0 (the support) and 0 elsewhere;
    # the backward reads that state instead of testing |d| again.
    step = max(1, _WORK // (K * B * h * w))
    work = np.empty((min(n, step), K, B, h, w))
    feats = np.empty((n, K, B))
    state = None
    if _records(likelihood, params.centers, params.slopes):
        state = np.empty((n, K, B, h, w), dtype=np.int8)
        mask = np.empty(work.shape, dtype=bool)
    for i in range(0, n, step):
        t = np.subtract(x[i:i + step], mu, out=work[:n - i])
        _record_hinge(t)
        if state is not None:
            # (d > 0) - (d < 0) through bool views of int8: np.sign costs more
            st, m = state[i:i + step], mask[:n - i]
            np.greater(t, 0.0, out=st.view(bool))
            st -= np.less(t, 0.0, out=m).view(np.int8)
        np.abs(t, out=t)
        t *= s
        np.subtract(1.0, t, out=t)    # rounds as |d|*(-s) + 1, with no -s array
        _record_hinge(t)
        if state is not None:
            st *= np.greater(t, 0.0, out=m).view(np.int8)   # t > 0 is |d|*s < 1
        np.maximum(t, 0.0, out=t)
        np.add.reduce(t, axis=(3, 4), out=feats[i:i + step])
    feats /= h * w                    # the division `mean` makes after its sum
    out = feats.reshape(n, K * B, 1, 1)

    def _bw():
        gg = node.grad.reshape(n, K, B, 1, 1) / (h * w)
        ggs = gg * s
        # per-image sums over (h,w) for the slopes [0] and the centers [1],
        # then one sum over the images: the order of a whole-batch sum over
        # axes (0,3,4), so the bits are its bits
        sums = np.empty((2, n, K, B))
        gx = np.empty((n, K, h, w)) if likelihood.requires_grad else None
        q = np.empty(work.shape)
        for i in range(0, n, step):
            # on the support d(out)/d(mu) = s*sign(d) = -d(out)/d(x) and
            # d(out)/d(s) = -|d|; negating a sum is exact, so one product
            # serves both the centers and the likelihood
            qi = q[:n - i]
            qi[...] = state[i:i + step]
            v = np.multiply(qi, ggs[i:i + step], out=work[:n - i])
            np.add.reduce(v, axis=(3, 4), out=sums[1, i:i + step])
            if gx is not None:
                np.add.reduce(v, axis=2, out=gx[i:i + step])
            # d*sign(d) is |d| exactly, so d*q is |d| on the support, 0 off it
            np.subtract(x[i:i + step], mu, out=v)
            v *= qi
            v *= gg[i:i + step]
            np.add.reduce(v, axis=(3, 4), out=sums[0, i:i + step])
        slopes, centers = np.add.reduce(sums, axis=1).reshape(2, K, B, 1, 1)
        params.slopes.grad -= slopes
        params.centers.grad += centers
        if gx is not None:
            np.negative(gx, out=gx)     # a - b and a + (-b) round alike
            _accumulate(likelihood, gx)

    node = _node(out, _bw, likelihood, params.centers, params.slopes)
    return node


class ComposedHistogram:
    """The histogram layer stacked from generic primitives.

    With `unlocked=True` every entry of both kernels and biases becomes
    trainable and the layer no longer means a histogram (the free-all
    ablation).
    """

    def __init__(self, params: HistogramParams, unlocked: bool = False):
        K, B = params.K, params.B
        self.K, self.B = K, B
        self.unlocked = unlocked

        diag = np.arange(K * B)
        w1 = np.zeros((K * B, K, 1, 1))
        w1[diag, diag // B] = 1.0     # row k*B + b selects class k
        b1 = -params.centers.data.reshape(K * B, 1, 1, 1)

        w2 = np.zeros((K * B, K * B, 1, 1))
        w2[diag, diag, 0, 0] = -params.slopes.data.reshape(K * B)
        b2 = np.ones((K * B, 1, 1, 1))

        # the centers (b1) and slopes (w2 diagonal) always train; the
        # structural entries train only when unlocked
        structural = float(unlocked)
        w2_lock = np.full(w2.shape, structural)
        w2_lock[diag, diag] = 1.0

        self.w1 = Parameter(w1, np.full(w1.shape, structural), name="hist.w1")
        self.b1 = Parameter(b1, name="hist.b1")
        self.w2 = Parameter(w2, w2_lock, name="hist.w2")
        self.b2 = Parameter(b2, np.full(b2.shape, structural), name="hist.b2")

    def forward(self, likelihood: Tensor) -> Tensor:
        shifted = conv1x1(likelihood, self.w1, self.b1)
        scaled = conv1x1(abs_elem(shifted), self.w2, self.b2)
        return global_avg_pool(relu(scaled))

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]

    def clamp_slopes(self) -> None:
        # slope s >= S_MIN means the stored diagonal entry -s stays <= -S_MIN
        if self.unlocked:
            return
        diag = np.arange(self.K * self.B)
        vals = self.w2.data[diag, diag, 0, 0]
        self.w2.data[diag, diag, 0, 0] = np.minimum(vals, -S_MIN)


def histogram_table(centers: np.ndarray, slopes: np.ndarray):
    """Rows (class, bin, center, slope, effective_width, drifted) for CSV dumps.

    A bin is flagged as drifted when its support [mu - 1/s, mu + 1/s]
    leaves [-0.5, 1.5].
    """
    rows = []
    K, B = centers.shape
    for k in range(K):
        for b in range(B):
            mu = float(centers[k, b])
            s = float(slopes[k, b])
            width = 1.0 / s if s != 0 else float("inf")
            drifted = int(mu - width < -0.5 or mu + width > 1.5)
            rows.append((k, b, mu, s, width, drifted))
    return rows
