"""Desk-scale context-refinement networks and their ablation baselines.

Stage 1 is a pixelwise classifier (1x1 convolutions on per-pixel features).
Stage 2 summarizes stage 1's likelihood map into a global context vector
and reclassifies every position from its features and that vector. The
network and its training read one `RunConfig`; its `mode` selects the
context branch:

* histnet    — trainable histogram of the likelihood map (direct form)
* fix_hist   — same histogram but with centers/slopes frozen
* free_all   — composed histogram pipeline with every lock removed
* score_global — global average of the likelihood map (no histogram)
* feat_global  — global average of the topmost feature maps
* base_only    — stage 1 alone, no context branch
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .config import RunConfig, check_network
from .histogram import ComposedHistogram, HistogramParams, init_params

HIST_MODES = ("histnet", "fix_hist", "free_all")


@dataclass
class Prefix:
    """A batch's pass up to the context fc layer: the top features, stage 1
    and the context summary. Phase 1 of `two_phase_train` cannot change any
    of it, so `PrefixCache` keeps it per image."""
    feats: Tensor
    probs: Tensor           # stage-1 probabilities
    loss: Tensor            # stage-1 loss, with its `clamped` and `logp`
    summary: Tensor | None  # the context fc layer's input; None for base_only


@dataclass
class StageOutputs:
    stage_probs: list
    final_probs: Tensor
    clamped: int    # positions whose loss clamped log 0 (see ad.softmax_xent)


def _gauss(rng, shape, std):
    return rng.standard_normal(shape) * std


class Network:
    """A built network: named parameters plus the loss pass."""

    def __init__(self, cfg: RunConfig):
        check_network(cfg)
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        K, C, D, mode = cfg.K, cfg.C_feat, cfg.D, cfg.mode

        # base: two feature layers (He init) and a stage-1 classifier
        self.f1_w = Parameter(_gauss(rng, (C, D, 1, 1), np.sqrt(2.0 / D)), name="base.f1.w")
        self.f1_b = Parameter(np.zeros((C, 1, 1, 1)), name="base.f1.b")
        self.f2_w = Parameter(_gauss(rng, (C, C, 1, 1), np.sqrt(2.0 / C)), name="base.f2.w")
        self.f2_b = Parameter(np.zeros((C, 1, 1, 1)), name="base.f2.b")
        self.cls_w = Parameter(_gauss(rng, (K, C, 1, 1), 0.01), name="base.cls.w")
        self.cls_b = Parameter(np.zeros((K, 1, 1, 1)), name="base.cls.b")

        # stage 2: context branch (histogram in HIST_MODES, then fc) and head
        self.hist: HistogramParams | ComposedHistogram | None = None
        self.fc: tuple[Parameter, Parameter] | None = None
        self.head: tuple[Parameter, Parameter] | None = None
        if mode == "free_all":
            self.hist = ComposedHistogram(init_params(K, cfg.B), unlocked=True)
        elif mode in HIST_MODES:
            self.hist = init_params(K, cfg.B)
            if mode == "fix_hist":
                for p in self.hist.parameters():
                    p.lock_mask[...] = 0.0
        if mode != "base_only":
            KB = K * cfg.B
            summary_dim = {"score_global": K, "feat_global": C}.get(mode, KB)
            self.fc = (Parameter(_gauss(rng, (KB, summary_dim, 1, 1), 0.01), name="fc.w"),
                       Parameter(np.zeros((KB, 1, 1, 1)), name="fc.b"))
            self.head = (Parameter(_gauss(rng, (K, C + KB, 1, 1), 0.01), name="head2.w"),
                         Parameter(np.zeros((K, 1, 1, 1)), name="head2.b"))

        params = [self.f1_w, self.f1_b, self.f2_w, self.f2_b, self.cls_w, self.cls_b]
        if self.hist is not None:
            params += self.hist.parameters()
        if self.fc is not None:
            params += [*self.fc, *self.head]
        self.params: dict[str, Parameter] = {p.name: p for p in params}
        self.base_param_names = [p.name for p in params[:6]]
        self.new_param_names = [p.name for p in params[6:]]

    def prefix(self, features: Tensor, labels: np.ndarray) -> Prefix:
        """Stage 1 and the context summary of a batch; starts a new graph."""
        mode = self.cfg.mode
        ad.reset_tape()
        # the first activation is dropped once the second layer has read it,
        # so an unrecorded pass holds at most two (N,C_feat,H,W) arrays; a
        # recorded one keeps it through its graph
        x = ad.relu(ad.conv1x1(features, self.f1_w, self.f1_b))
        x = ad.conv1x1(x, self.f2_w, self.f2_b)
        feats = ad.relu(x)
        del x
        logits = ad.conv1x1(feats, self.cls_w, self.cls_b)
        loss, probs = ad.softmax_xent(logits, labels)
        summary = None
        if mode in HIST_MODES:
            summary = self.hist.forward(probs)
        elif mode == "score_global":
            summary = ad.global_avg_pool(probs)
        elif mode == "feat_global":
            summary = ad.global_avg_pool(feats)
        return Prefix(feats, probs, loss, summary)

    def refine(self, pre: Prefix, labels: np.ndarray):
        """The rest of the pass on a batch's prefix, whether `prefix` computed
        it or `PrefixCache.take` gathered it: the context fc layer, the
        stage-2 head and loss, and the means. Returns (mean of the stage
        losses, StageOutputs)."""
        probs, losses = [pre.probs], [pre.loss]
        if self.fc is not None:
            ctx = ad.fully_connected(pre.summary, *self.fc)
            logits = ad.concat_conv1x1(pre.feats, ctx, *self.head)
            loss2, probs2 = ad.softmax_xent(logits, labels)
            losses.append(loss2)
            probs.append(probs2)
        outputs = StageOutputs(probs, ad.mean_tensors(probs),
                               sum(t.clamped for t in losses))
        return ad.mean_tensors(losses), outputs

    def loss(self, features: Tensor, labels: np.ndarray):
        """The network's one pass: (mean of the stage losses, StageOutputs)."""
        return self.refine(self.prefix(features, labels), labels)

    def clamp(self) -> None:
        if self.hist is not None:
            self.hist.clamp_slopes()


class PrefixCache:
    """Every image's `Prefix` under a context-mode network's current
    parameters, for a phase that cannot change them. Stage 1 and the
    summaries work per image, and the stage-1 loss of a batch is rebuilt
    from the gathered log probabilities by `ad.xent_from_logp`, so a
    gathered batch holds the bits its own `prefix` pass would give."""

    TENSORS = ("feats", "probs", "summary")

    def __init__(self, net: Network, dataset, batch_size: int):
        n = len(dataset)
        self.tensors: dict[str, np.ndarray] = {}
        self.logp: np.ndarray | None = None
        # filled in place: gathering per-batch parts first would hold the
        # cache twice at its peak
        with ad.no_grad():
            for start in range(0, n, batch_size):
                stop = min(start + batch_size, n)
                pre = net.prefix(Tensor(dataset.features[start:stop]),
                                 dataset.labels[start:stop])
                if self.logp is None:
                    self.logp = np.empty((n, *pre.loss.logp.shape[1:]))
                    for name in self.TENSORS:
                        part = getattr(pre, name).data
                        self.tensors[name] = np.empty((n, *part.shape[1:]))
                self.logp[start:stop] = pre.loss.logp
                for name, arr in self.tensors.items():
                    arr[start:stop] = getattr(pre, name).data

    def take(self, idx) -> Prefix:
        """The prefix of the images at `idx` (indices or a slice)."""
        return Prefix(loss=ad.xent_from_logp(self.logp[idx]),
                      **{name: Tensor(arr[idx]) for name, arr in self.tensors.items()})


def parameter_census(net: Network) -> dict:
    """Trainable-entry counts for the layers added on top of the base."""
    per_param = {n: int(net.params[n].lock_mask.sum()) for n in net.new_param_names}
    return {"per_param": per_param, "extra_trainable": sum(per_param.values())}


# --------------------------------------------------------------------------
# evaluation

EVAL_BATCH = 50
EVAL_THREAD_NAME = "histlayer-eval"


def _confusion(labels: np.ndarray, probs: Tensor, K: int) -> np.ndarray:
    pred = np.argmax(probs.data, axis=1)
    idx = labels.astype(np.int64) * K + pred
    return np.bincount(idx.ravel(), minlength=K * K).reshape(K, K)


def metrics_from_confusion(conf: np.ndarray) -> dict:
    total = conf.sum()
    per_pixel = conf.trace() / total if total else 0.0
    support = conf.sum(axis=1)
    present = support > 0
    recalls = np.divide(np.diag(conf), support, out=np.zeros(len(conf)), where=present)
    per_class = recalls[present].mean() if present.any() else 0.0
    return {"per_pixel": float(per_pixel), "per_class": float(per_class),
            "recalls": recalls, "confusion": conf}


def _batch_pass(net: Network, dataset, idx, labels: np.ndarray,
                cache: PrefixCache | None):
    """The loss pass on the images at `idx`, on their cached prefixes when
    a cache is given."""
    if cache is None:
        return net.loss(Tensor(dataset.features[idx]), labels)
    return net.refine(cache.take(idx), labels)


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # a platform without CPU affinity
        return os.cpu_count() or 1


def _batch_result(net: Network, dataset, start: int, stop: int,
                  cache: PrefixCache | None):
    """An evaluation batch's length-weighted loss, final and stage-1
    confusion matrices and clamped count."""
    labels = dataset.labels[start:stop]
    loss, out = _batch_pass(net, dataset, slice(start, stop), labels, cache)
    K = net.cfg.K
    return (loss.item() * (stop - start), _confusion(labels, out.final_probs, K),
            _confusion(labels, out.stage_probs[0], K), out.clamped)


def evaluate(net: Network, dataset, cache: PrefixCache | None = None) -> dict:
    """Mean loss, per-pixel accuracy and unweighted mean per-class recall,
    from one forward-only pass in EVAL_BATCH batches, plus the per-pixel
    accuracy of the stage-1 prediction (`stage1_per_pixel`) and the number
    of positions whose loss clamped log 0 (`clamped`, see `ad.softmax_xent`).
    The confusion matrix has rows = true class, columns = predicted class
    (argmax, ties to lowest). The loss is the batch losses weighted by batch
    length, summed in batch order, over the image count. `cache` holds the
    dataset's prefixes when they are known (see `PrefixCache`).

    The batches run at once on as many threads as there are usable cores
    and batches, each in a copy of the caller's context (numpy's error
    state lives there), and their results are summed in batch order, so
    every bit is the serial pass's whatever the core count. With one core
    or one batch they run in turn on the caller's thread.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot evaluate an empty dataset")
    K = net.cfg.K
    conf = np.zeros((K, K), dtype=np.int64)
    conf1 = np.zeros_like(conf)
    total = 0.0
    clamped = 0
    bounds = [(start, min(start + EVAL_BATCH, n)) for start in range(0, n, EVAL_BATCH)]
    workers = min(_usable_cores(), len(bounds))
    with ad.no_grad():
        if workers == 1:
            parts = (_batch_result(net, dataset, *b, cache) for b in bounds)
        else:
            # imported here: concurrent.futures imports logging, which costs
            # every process start about 10 ms and 0.5 MB of RSS
            from concurrent.futures import ThreadPoolExecutor
            pool = ThreadPoolExecutor(workers, thread_name_prefix=EVAL_THREAD_NAME)
            try:
                futures = [pool.submit(contextvars.copy_context().run, _batch_result,
                                       net, dataset, *b, cache) for b in bounds]
                parts = [f.result() for f in futures]
            finally:
                pool.shutdown(cancel_futures=True)
        for loss, c, c1, cl in parts:
            total += loss
            conf += c
            conf1 += c1
            clamped += cl
    return {**metrics_from_confusion(conf), "loss": total / n,
            "stage1_per_pixel": metrics_from_confusion(conf1)["per_pixel"],
            "clamped": clamped}


# --------------------------------------------------------------------------
# training

class TrainingDivergedError(ArithmeticError):
    """A parameter stopped being finite, or the loss clamped log 0, during
    training."""


@dataclass
class LogRow:
    phase: int
    epoch: int
    split: str
    loss: float
    per_pixel: float
    per_class: float
    stage1_per_pixel: float | None = None   # val rows only; not written to log.csv


def _check_finite(net: Network, phase: int, epoch: int) -> None:
    for p in net.params.values():
        if not np.isfinite(p.data).all():
            raise TrainingDivergedError(
                f"training diverged in phase {phase}, epoch {epoch}: parameter "
                f"{p.name} holds a non-finite value; lower lr")


def _check_clamped(net: Network, phase: int, epoch: int, clamped: int) -> None:
    if clamped:
        big = max(net.params.values(), key=lambda p: np.abs(p.data).max())
        raise TrainingDivergedError(
            f"training diverged in phase {phase}, epoch {epoch}: the loss clamped log 0 "
            f"at {clamped} positions, and parameter {big.name} reaches magnitude "
            f"{np.abs(big.data).max():.3g}; lower lr")


@np.errstate(over="ignore", invalid="ignore")
def train_phase(net: Network, train_ds, val_ds, trainable: list[Parameter],
                schedule: RunConfig, phase: int) -> list[LogRow]:
    """One SGD phase; returns one train and one val log row per epoch.

    `schedule` is the run's configuration: the phase reads its epochs,
    batch_size, lr, lr_decay, decay_epoch, momentum and, for the batch
    order, seed. Train-split metrics are accumulated from the minibatch
    forward passes, val metrics come from a full evaluation pass at each
    epoch end, so the last val row describes the parameters the phase ends
    with. Raises TrainingDivergedError after an epoch that leaves a
    parameter non-finite or whose train steps or val pass clamped log 0 in
    the loss: a picked probability underflowed to 0, so the logits are
    diverging even where every value stays finite. numpy's overflow and
    invalid-value warnings are off in the phase, so that error is the one
    report of a divergence.

    Each step zeroes and steps `trainable` alone, and `trainable` decides
    the cache: when every trainable parameter is one `refine` reads (the
    context fc layer and the stage-2 head), no step changes a prefix, so
    each train and val prefix is computed once, in batch_size chunks
    before the first step, and every pass runs `refine` alone. Otherwise
    every pass runs, and backpropagates through, the whole network.
    """
    train_cache = val_cache = None
    if net.fc is not None and set(trainable) <= {*net.fc, *net.head}:
        train_cache, val_cache = (PrefixCache(net, ds, schedule.batch_size)
                                  for ds in (train_ds, val_ds))
    rows = []
    rng = np.random.default_rng(schedule.seed * 1000003 + phase)
    n = len(train_ds)
    K = net.cfg.K
    for epoch in range(schedule.epochs):
        lr = schedule.lr * (schedule.lr_decay if epoch >= schedule.decay_epoch else 1.0)
        perm = rng.permutation(n)
        conf = np.zeros((K, K), dtype=np.int64)
        loss_sum, seen, clamped = 0.0, 0, 0
        for start in range(0, n, schedule.batch_size):
            idx = perm[start:start + schedule.batch_size]
            labels = train_ds.labels[idx]
            ad.zero_grads(trainable)
            loss, out = _batch_pass(net, train_ds, idx, labels, train_cache)
            ad.backward(loss)
            ad.sgd_step(trainable, lr, schedule.momentum)
            net.clamp()
            loss_sum += loss.item() * len(idx)
            seen += len(idx)
            conf += _confusion(labels, out.final_probs, K)
            clamped += out.clamped
        train_m = metrics_from_confusion(conf)
        rows.append(LogRow(phase, epoch, "train", loss_sum / seen,
                           train_m["per_pixel"], train_m["per_class"]))
        _check_finite(net, phase, epoch)
        val_m = evaluate(net, val_ds, val_cache)
        _check_clamped(net, phase, epoch, clamped + val_m["clamped"])
        rows.append(LogRow(phase, epoch, "val", val_m["loss"], val_m["per_pixel"],
                           val_m["per_class"], val_m["stage1_per_pixel"]))
    return rows


def train_base(net: Network, train_ds, val_ds, schedule: RunConfig) -> list[LogRow]:
    """Pretrain a base_only network; logged as phase 0."""
    trainable = list(net.params.values())
    return train_phase(net, train_ds, val_ds, trainable, schedule, phase=0)


def two_phase_train(net: Network, train_ds, val_ds, schedule: RunConfig):
    """Incremental training of a network whose base the caller has loaded:
    new layers first, then everything jointly.

    Phase 1 trains only the context FC layer and the stage-2 head; the base
    and the histogram bins stay fixed, so `train_phase` runs it on cached
    prefixes and its backward never writes a base or histogram gradient.
    Phase 2 trains every parameter, where its lock mask allows (fix_hist
    keeps its bins frozen), on full passes.
    """
    if net.cfg.mode == "base_only":
        raise ValueError("two_phase_train needs a context-refinement mode")
    rows = train_phase(net, train_ds, val_ds, [*net.fc, *net.head], schedule, phase=1)
    rows2 = train_phase(net, train_ds, val_ds, list(net.params.values()), schedule, phase=2)
    if rows2:
        before, after = rows[-1].stage1_per_pixel, rows2[-1].stage1_per_pixel
    else:  # no epochs: no epoch-end pass ran and no parameter moved
        before = after = evaluate(net, val_ds)["stage1_per_pixel"]
    return rows + rows2, {"stage1_before_phase2": before, "stage1_after_phase2": after}

