"""Minimal reverse-mode autodiff over dense rank-4 float64 tensors.

Only the primitives needed by the histogram networks are provided: 1x1
convolution, also of features concatenated with a per-image context,
elementwise abs/relu, global average pooling, fully connected layers, a
softmax cross-entropy head and SGD with momentum and per-entry update
locks.

All tensors are (N, C, H, W) float64 arrays. Ops are recorded on a global
tape in forward order; `backward` replays the tape in exact reverse order,
so gradient accumulation order is deterministic. A `Parameter` is the one
leaf that takes a gradient: it holds a zero-filled buffer for its whole
life. `Tensor(x)` is data and holds none. An op records a node only when
at least one of its inputs takes a gradient, and its closure writes every
parameter and each other input that takes one. A recorded node gets its
buffer on the first write into it (`_accumulate`), and `backward` skips
the closure of a node whose gradient was never written, since the output
it was called on does not depend on that node. Under `no_grad` ops record
nothing, for forward-only passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor shapes do not satisfy an op's contract."""


# --------------------------------------------------------------------------
# tape

class _TapeState:
    """The op tape and the switches that govern what ops record."""

    def __init__(self):
        self.tape: list["Tensor"] = []
        self.grad_enabled = True
        # When not None, abs/relu/histogram hinges append their pre-hinge
        # values here so a finite-difference checker can detect kink crossings.
        self.hinges: list[np.ndarray] | None = None


_STATE = _TapeState()


def reset_tape() -> None:
    """Forget the recorded graph. Dropping each node's closure breaks its
    node<->closure reference cycle, so refcounting frees the graph."""
    for t in _STATE.tape:
        t._backward = None
    _STATE.tape.clear()


def _record_hinge(pre: np.ndarray) -> None:
    if _STATE.hinges is not None:
        _STATE.hinges.append(pre.flatten())


class hinge_trace:
    """Context manager collecting pre-hinge values of abs/relu/histogram ops."""

    def __enter__(self) -> list[np.ndarray]:
        self._prev = _STATE.hinges
        _STATE.hinges = []
        return _STATE.hinges

    def __exit__(self, *exc) -> None:
        _STATE.hinges = self._prev


class no_grad:
    """Context manager for forward-only passes: ops neither record on the tape
    nor keep a backward closure nor allocate a gradient buffer."""

    def __enter__(self) -> None:
        self._prev = _STATE.grad_enabled
        _STATE.grad_enabled = False

    def __exit__(self, *exc) -> None:
        _STATE.grad_enabled = self._prev


def backward(out: "Tensor", grad: np.ndarray | None = None) -> None:
    """Seed `out` with the upstream gradient `grad` (1 for a scalar output
    when omitted) and replay the tape in reverse.

    A node whose gradient was never written feeds nothing that needs one,
    so its closure is skipped. Each node drops its closure once passed, so
    the graph is freed by refcounting as soon as the caller lets go of it.
    """
    if not out.requires_grad:
        raise ValueError("backward needs an output recorded with gradients on")
    if grad is None:
        if out.data.size != 1:
            raise ShapeError(f"backward expects a scalar tensor, got shape {out.shape}")
        grad = 1.0
    elif np.shape(grad) != out.shape:
        raise ShapeError(f"upstream gradient shape {np.shape(grad)} does not match "
                         f"output {out.shape}")
    out.grad = np.empty(out.shape)
    out.grad[...] = grad
    for t in reversed(_STATE.tape):
        if t.grad is not None:
            t._backward()
        t._backward = None
    _STATE.tape.clear()


# --------------------------------------------------------------------------
# tensors

class Tensor:
    """Dense rank-4 float64 array; `grad` stays None until a gradient is written."""

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ShapeError(f"tensors are rank-4 (N,C,H,W), got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self._backward = None

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        """True for a `Parameter` and for a recorded node, whose buffer is
        allocated on its first gradient write."""
        return self.grad is not None or self._backward is not None

    def item(self) -> float:
        return float(self.data.item(0))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Parameter(Tensor):
    """Tensor with a gradient buffer, an update-lock mask and a momentum
    buffer: the one leaf that takes a gradient.

    Entries where lock_mask == 0 are structurally frozen: the optimizer
    never writes them, whatever the gradient says.
    """

    def __init__(self, value, lock_mask=None, name: str = ""):
        super().__init__(value)
        shape = self.data.shape
        # np.zeros(shape) rather than zeros_like, which dispatches through
        # __array_function__ at several times the cost on tiny tensors
        self.grad = np.zeros(shape)
        if lock_mask is None:
            self.lock_mask = np.ones(shape)
        else:
            self.lock_mask = np.array(lock_mask, dtype=np.float64, order="C").reshape(shape)
        self.momentum_buf = np.zeros(shape)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.shape})"


def _records(*inputs: Tensor) -> bool:
    """True when an op on `inputs` is recorded: gradients are on and an
    input takes one."""
    if _STATE.grad_enabled:
        for t in inputs:   # a plain loop: `any` over a generator costs more per op
            if t.requires_grad:
                return True
    return False


def _node(data: np.ndarray, backward_fn, *inputs: Tensor) -> Tensor:
    """The output of an op on `inputs`. It is recorded, with `backward_fn`
    as its closure, when `_records(*inputs)`."""
    out = Tensor(data)
    if _records(*inputs):
        out._backward = backward_fn
        _STATE.tape.append(out)
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add the gradient contribution `g` into `t.grad`.

    The first write takes `g` itself as the buffer, so `g` must have t's
    shape and be an array no other tensor holds: never a view of another
    node's gradient, nor one array handed to several tensors.
    """
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


# --------------------------------------------------------------------------
# primitives

def conv1x1(x: Tensor, weight: Parameter, bias: Parameter) -> Tensor:
    """Channel-mixing 1x1 convolution: out[n,o,i,j] = sum_c w[o,c] x[n,c,i,j] + b[o]."""
    n, cin, h, w = x.shape
    cout, cin_w = weight.shape[0], weight.shape[1]
    if cin_w != cin:
        raise ShapeError(
            f"conv1x1 weight expects {cin_w} input channels, input has {cin} "
            f"(input {x.shape}, weight {weight.shape})"
        )
    if bias.shape[0] != cout:
        raise ShapeError(f"conv1x1 bias has {bias.shape[0]} entries, weight has {cout} outputs")
    # one BLAS matmul per image over (n, c, h*w) views keeps every
    # activation and gradient C-contiguous (N, C, H, W)
    w2 = weight.data[:, :, 0, 0]
    xv = x.data.reshape(n, cin, h * w)
    out = np.matmul(w2, xv).reshape(n, cout, h, w)
    out += bias.data.reshape(1, cout, 1, 1)

    def _bw():
        gv = node.grad.reshape(n, cout, h * w)
        if x.requires_grad:  # data inputs take no gradient
            _accumulate(x, np.matmul(w2.T, gv).reshape(x.shape))
        weight.grad[:, :, 0, 0] += np.matmul(gv, xv.transpose(0, 2, 1)).sum(axis=0)
        bias.grad += node.grad.sum(axis=(0, 2, 3)).reshape(bias.shape)

    node = _node(out, _bw, x, weight, bias)
    return node


def fully_connected(x: Tensor, weight: Parameter, bias: Parameter) -> Tensor:
    """Affine map on (N, D, 1, 1) vectors; weight is (Dout, D, 1, 1)."""
    n, d, h, w = x.shape
    if (h, w) != (1, 1):
        raise ShapeError(f"fully_connected expects spatial 1x1 input, got {x.shape}")
    return conv1x1(x, weight, bias)


def abs_elem(x: Tensor) -> Tensor:
    """Elementwise |x|; subgradient at 0 is 0."""
    _record_hinge(x.data)

    def _bw():
        _accumulate(x, np.sign(x.data) * node.grad)

    node = _node(np.abs(x.data), _bw, x)
    return node


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at 0 is 0."""
    _record_hinge(x.data)

    def _bw():
        _accumulate(x, (x.data > 0) * node.grad)

    node = _node(np.maximum(x.data, 0.0), _bw, x)
    return node


def global_avg_pool(x: Tensor) -> Tensor:
    """Channel-wise spatial mean, (N,C,H,W) -> (N,C,1,1)."""
    n, c, h, w = x.shape
    if h * w < 1:
        raise ShapeError(f"global_avg_pool needs a nonempty spatial extent, got {x.shape}")
    out = np.add.reduce(x.data, axis=(2, 3), keepdims=True)
    out /= h * w   # the division `mean` makes after its sum, without mean's wrapper

    def _bw():
        g = np.empty(x.shape)   # broadcast by assignment: broadcast_to costs more
        g[...] = node.grad / (h * w)
        _accumulate(x, g)

    node = _node(out, _bw, x)
    return node


def concat_conv1x1(features: Tensor, context: Tensor, weight: Parameter,
                   bias: Parameter) -> Tensor:
    """`conv1x1` of the channel concat of (N,C,H,W) features with a (N,D,1,1)
    context tiled to every position, without building the tile:
    out[n,o,i,j] = sum_c w[o,c] f[n,c,i,j] + sum_d w[o,C+d] ctx[n,d] + b[o].
    The backward sums the output gradient over the positions once, for the
    context, the bias and the context columns of the weight."""
    n, c, h, w = features.shape
    d = context.shape[1]
    cout = weight.shape[0]
    if context.shape != (n, d, 1, 1):
        raise ShapeError(f"context must be (N,D,1,1) with the features' batch N={n}, "
                         f"got {context.shape} for features {features.shape}")
    if weight.shape[1] != c + d:
        raise ShapeError(f"concat_conv1x1 weight expects {weight.shape[1]} input channels, "
                         f"features and context have {c} + {d} (weight {weight.shape})")
    if bias.shape[0] != cout:
        raise ShapeError(f"concat_conv1x1 bias has {bias.shape[0]} entries, weight has "
                         f"{cout} outputs")
    w_feat = weight.data[:, :c, 0, 0]
    w_ctx = weight.data[:, c:, 0, 0]
    ctx = context.data.reshape(n, d)
    fv = features.data.reshape(n, c, h * w)
    out = np.matmul(w_feat, fv).reshape(n, cout, h, w)
    out += (ctx @ w_ctx.T + bias.data.reshape(1, cout)).reshape(n, cout, 1, 1)

    def _bw():
        gv = node.grad.reshape(n, cout, h * w)
        g_sum = gv.sum(axis=2)   # (n, cout): what every per-image term receives
        if features.requires_grad:
            _accumulate(features, np.matmul(w_feat.T, gv).reshape(features.shape))
        if context.requires_grad:
            _accumulate(context, (g_sum @ w_ctx).reshape(context.shape))
        weight.grad[:, :c, 0, 0] += np.matmul(gv, fv.transpose(0, 2, 1)).sum(axis=0)
        weight.grad[:, c:, 0, 0] += g_sum.T @ ctx
        bias.grad += g_sum.sum(axis=0).reshape(bias.shape)

    node = _node(out, _bw, features, context, weight, bias)
    return node


def _softmax_channels(logits: np.ndarray) -> np.ndarray:
    # one fresh array: exp and the division run in place on the shifted logits
    e = logits - logits.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def softmax(logits: Tensor) -> Tensor:
    """Channel softmax at every spatial position."""
    p = _softmax_channels(logits.data)

    def _bw():
        g = node.grad
        _accumulate(logits, p * (g - (g * p).sum(axis=1, keepdims=True)))

    node = _node(p, _bw, logits)
    return node


def softmax_xent(logits: Tensor, labels: np.ndarray):
    """Per-position softmax cross-entropy.

    labels is an integer (N,H,W) map, every label in [0, K), the contract
    `data.read_dataset` holds its files to. Returns (scalar loss,
    probability tensor); both are graph nodes, so gradients flow into the
    logits from either. The loss is the mean of -log p over the positions,
    p the probability of each position's label. It is inf when some p
    underflowed to 0, a logit gap above 745 that only a diverging network
    reaches, and NaN when some p is NaN, as overflowing logits make it;
    the gradient stays finite either way.
    """
    n, k, h, w = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n, h, w):
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    if labels.size == 0:
        raise ValueError("empty label map")
    if labels.min() < 0 or labels.max() >= k:
        bad = labels[(labels < 0) | (labels >= k)]
        raise ValueError(f"labels out of range [0,{k}): {np.unique(bad)}")

    probs = softmax(logits)
    p = probs.data
    flat, loss = _xent(p, labels)

    def _bw():
        g = loss_node.grad.reshape(-1)[0]
        d = p.copy()
        d.reshape(-1)[flat] -= 1.0
        d *= g / flat.size
        _accumulate(logits, d)

    loss_node = _node(loss, _bw, logits)
    return loss_node, probs


def _xent(p: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat index of each position's label probability in `p` and the
    (1,1,1,1) mean of -log of those probabilities. log 0 is -inf without a
    warning: the loss that holds it reports the divergence."""
    n, k, h, w = p.shape
    # flat index of (image, label, row, col) in p; uint8 labels would
    # overflow the products, so widen them first
    flat = ((np.arange(n).reshape(n, 1, 1) * k + labels.astype(np.intp)) * (h * w)
            + np.arange(h * w).reshape(h, w))
    with np.errstate(divide="ignore"):
        log_picked = np.log(p.reshape(-1)[flat])
    return flat, np.full((1, 1, 1, 1), -log_picked.sum() / log_picked.size)


def xent_from_probs(p: np.ndarray, labels: np.ndarray) -> Tensor:
    """The loss `softmax_xent` gives for the probabilities `p` and `labels`,
    unrecorded: the same expression on the same values, so the same bits."""
    return Tensor(_xent(p, labels)[1])


def mean_tensors(terms: list[Tensor]) -> Tensor:
    """Elementwise mean of same-shape tensors (stage probabilities or losses)."""
    if not terms:
        raise ValueError("mean_tensors of an empty list")
    out = terms[0].data.copy()
    for t in terms[1:]:
        out += t.data
    out /= len(terms)

    def _bw():
        for t in terms:  # a fresh quotient per term: no two share a buffer
            if t.requires_grad:
                _accumulate(t, node.grad / len(terms))

    node = _node(out, _bw, *terms)
    return node


# --------------------------------------------------------------------------
# optimization

def sgd_step(params: list[Parameter], lr: float, momentum: float = 0.0) -> None:
    """buf <- momentum*buf + grad; value <- value - lr*(buf * lock_mask).

    Locked entries (lock_mask == 0) are bit-identical before and after.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must lie in [0,1), got {momentum}")
    for p in params:
        p.momentum_buf *= momentum
        p.momentum_buf += p.grad
        step = p.momentum_buf * p.lock_mask
        step *= lr
        p.data -= step


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


# --------------------------------------------------------------------------
# finite-difference checking

@dataclass
class GradCheckResult:
    name: str
    max_rel_err: float
    n_checked: int
    skipped: list = field(default_factory=list)


def _hinge_crossed(trace_a, trace_b, margin: float) -> bool:
    """True if the +-eps passes straddle a hinge anywhere the wiggled entry
    actually influences: a side flip, or a moving pre-hinge value inside the
    margin. Hinge inputs identical in both passes are unaffected and safe.

    The test is elementwise, so it runs once over each pass's traces laid
    end to end; that needs both passes to have recorded the same traces.
    Where one side is NaN, `fmin` takes the other, so that side alone
    decides whether the value is within the margin.
    """
    sizes_a, sizes_b = [p.size for p in trace_a], [p.size for p in trace_b]
    if sizes_a != sizes_b:
        raise ValueError("the +-eps passes recorded different hinge traces, of sizes "
                         f"{sizes_a} and {sizes_b}")
    if not trace_a:
        return False
    a, b = np.concatenate(trace_a), np.concatenate(trace_b)
    crossed = (a > 0) != (b > 0)
    near = np.fmin(np.abs(a), np.abs(b)) < margin
    near &= a != b
    crossed |= near
    return bool(crossed.any())


def grad_check(loss_fn, wiggle: Parameter, eps: float = 1e-4,
               kink_margin: float = 1e-3, max_entries: int | None = None,
               rng: np.random.Generator | None = None) -> GradCheckResult:
    """Compare the analytic gradient of `loss_fn` w.r.t. `wiggle` against
    central finite differences, entry by entry.

    Entries whose +-eps forward passes land near or across an abs/relu/
    histogram hinge are skipped and reported rather than failed. Relative
    error uses a 1e-3 denominator floor so near-zero gradients compare
    absolutely.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")

    reset_tape()
    wiggle.zero_grad()
    loss = loss_fn()
    backward(loss)
    analytic = wiggle.grad.copy()

    indices = list(np.ndindex(wiggle.data.shape))
    if max_entries is not None and len(indices) > max_entries:
        if rng is None:
            rng = np.random.default_rng(0)
        chosen = rng.choice(len(indices), size=max_entries, replace=False)
        indices = [indices[i] for i in sorted(chosen)]

    max_rel = 0.0
    skipped = []
    checked = 0
    with no_grad():
        for idx in indices:
            orig = wiggle.data[idx]
            wiggle.data[idx] = orig + eps
            with hinge_trace() as tr_plus:
                f_plus = loss_fn().item()
            wiggle.data[idx] = orig - eps
            with hinge_trace() as tr_minus:
                f_minus = loss_fn().item()
            wiggle.data[idx] = orig

            if _hinge_crossed(tr_plus, tr_minus, kink_margin):
                skipped.append(idx)
                continue
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            max_rel = max(max_rel, rel)
            checked += 1
    return GradCheckResult(wiggle.name or "param", max_rel, checked, skipped)
