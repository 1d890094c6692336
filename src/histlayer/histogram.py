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
    _node,
    _record_hinge,
    abs_elem,
    conv1x1,
    global_avg_pool,
    relu,
)

S_MIN = 1e-3


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


def init_params(K: int, B: int, name: str = "hist") -> HistogramParams:
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
        centers=Parameter(centers, name=f"{name}.centers"),
        slopes=Parameter(slopes, name=f"{name}.slopes"),
    )


def basis_eval(x: float, mu: float, s: float) -> float:
    """Single triangular basis value max(0, 1 - s*|x - mu|)."""
    return max(0.0, 1.0 - s * abs(x - mu))


def hist_forward_direct(likelihood: Tensor, params: HistogramParams) -> Tensor:
    """Soft histogram of a likelihood map, normalized by pixel count.

    Input (N,K,H,W) -> output (N, K*B, 1, 1) with layout index k*B + b.
    A likelihood vector is simply the H=W=1 case. Gradients flow to the
    input, the centers and the slopes.
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
    d = x - mu
    _record_hinge(d)
    # t = 1 - s*|d| computed in place, so the pass holds d and one work array
    t = np.abs(d)
    t *= -s
    t += 1.0
    _record_hinge(t)
    active = t > 0
    np.maximum(t, 0.0, out=t)
    out = t.mean(axis=(3, 4)).reshape(n, K * B, 1, 1)

    def _bw():
        gg = node.grad.reshape(n, K, B, 1, 1) / (h * w)
        sgn = np.sign(d)
        common = np.where(active, gg, 0.0)
        params.slopes.grad += (common * -np.abs(d)).sum(axis=(0, 3, 4)).reshape(K, B, 1, 1)
        params.centers.grad += (common * s * sgn).sum(axis=(0, 3, 4)).reshape(K, B, 1, 1)
        likelihood.grad += (common * -s * sgn).sum(axis=2).reshape(n, K, h, w)

    node = _node(out, _bw)
    return node


class ComposedHistogram:
    """The histogram layer stacked from generic primitives.

    With `unlocked=True` every entry of both kernels and biases becomes
    trainable and the layer no longer means a histogram (the free-all
    ablation).
    """

    def __init__(self, params: HistogramParams, unlocked: bool = False,
                 name: str = "hist"):
        K, B = params.K, params.B
        self.K, self.B = K, B
        self.unlocked = unlocked

        w1 = np.zeros((K * B, K, 1, 1))
        for k in range(K):
            w1[k * B:(k + 1) * B, k] = 1.0
        b1 = -params.centers.data.reshape(K * B, 1, 1, 1)

        w2 = np.zeros((K * B, K * B, 1, 1))
        diag = np.arange(K * B)
        w2[diag, diag, 0, 0] = -params.slopes.data.reshape(K * B)
        b2 = np.ones((K * B, 1, 1, 1))

        # the centers (b1) and slopes (w2 diagonal) always train; the
        # structural entries train only when unlocked
        structural = float(unlocked)
        w1_lock = np.full_like(w1, structural)
        b1_lock = np.ones_like(b1)
        w2_lock = np.full_like(w2, structural)
        w2_lock[diag, diag] = 1.0
        b2_lock = np.full_like(b2, structural)

        self.w1 = Parameter(w1, w1_lock, name=f"{name}.w1")
        self.b1 = Parameter(b1, b1_lock, name=f"{name}.b1")
        self.w2 = Parameter(w2, w2_lock, name=f"{name}.w2")
        self.b2 = Parameter(b2, b2_lock, name=f"{name}.b2")

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
