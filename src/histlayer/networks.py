"""Desk-scale context-refinement networks and their ablation baselines.

Stage 1 is a pixelwise classifier (1x1 convolutions on per-pixel features).
Later stages summarize the previous stage's likelihood map into a global
context vector, tile it back over the grid and reclassify. The context
branch is selected by `baseline_mode`:

* histnet    — trainable histogram of the likelihood map (direct form)
* fix_hist   — same histogram but with centers/slopes frozen
* free_all   — composed histogram pipeline with every lock removed
* score_global — global average of the likelihood map (no histogram)
* feat_global  — global average of the topmost feature maps
* base_only    — stage 1 alone, no context branch
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .config import eval_threads
from .histogram import ComposedHistogram, HistogramParams, init_params

BASELINE_MODES = ("histnet", "fix_hist", "free_all", "score_global",
                  "feat_global", "base_only")
HIST_MODES = ("histnet", "fix_hist", "free_all")


@dataclass
class HistNetConfig:
    K: int = 6
    B: int = 6
    D_in: int = 8
    C_feat: int = 16
    stages: int = 2
    baseline_mode: str = "histnet"
    share_stage_params: bool = True

    def validate(self) -> None:
        if self.baseline_mode not in BASELINE_MODES:
            raise ValueError(f"unknown baseline_mode {self.baseline_mode!r}, "
                             f"expected one of {BASELINE_MODES}")
        if self.baseline_mode != "base_only" and self.stages < 2:
            raise ValueError(f"mode {self.baseline_mode!r} needs stages >= 2, "
                             f"got {self.stages}")
        if min(self.K, self.B, self.D_in, self.C_feat) < 1:
            raise ValueError("K, B, D_in and C_feat must all be positive")

    def context_input_dim(self) -> int:
        if self.baseline_mode in HIST_MODES:
            return self.K * self.B
        if self.baseline_mode == "score_global":
            return self.K
        if self.baseline_mode == "feat_global":
            return self.C_feat
        return 0


@dataclass
class StageOutputs:
    stage_logits: list
    stage_probs: list
    final_probs: Tensor


def _gauss(rng, shape, std):
    return rng.standard_normal(shape) * std


class Network:
    """A built network: named parameters plus forward/loss passes."""

    def __init__(self, cfg: HistNetConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        K, C, D = cfg.K, cfg.C_feat, cfg.D_in

        # base: two feature layers (He init) and a stage-1 classifier
        self.f1_w = Parameter(_gauss(rng, (C, D, 1, 1), np.sqrt(2.0 / D)), name="base.f1.w")
        self.f1_b = Parameter(np.zeros((C, 1, 1, 1)), name="base.f1.b")
        self.f2_w = Parameter(_gauss(rng, (C, C, 1, 1), np.sqrt(2.0 / C)), name="base.f2.w")
        self.f2_b = Parameter(np.zeros((C, 1, 1, 1)), name="base.f2.b")
        self.cls_w = Parameter(_gauss(rng, (K, C, 1, 1), 0.01), name="base.cls.w")
        self.cls_b = Parameter(np.zeros((K, 1, 1, 1)), name="base.cls.b")

        self.hists: list[HistogramParams | ComposedHistogram] = []
        self.fcs: list[tuple[Parameter, Parameter]] = []
        self.heads: list[tuple[Parameter, Parameter]] = []

        if cfg.baseline_mode != "base_only":
            n_branches = 1 if cfg.share_stage_params else cfg.stages - 1
            d_ctx = cfg.context_input_dim()
            for i in range(n_branches):
                tag = "" if n_branches == 1 else f".{i}"
                if cfg.baseline_mode == "free_all":
                    self.hists.append(ComposedHistogram(
                        init_params(K, cfg.B), unlocked=True, name=f"hist{tag}"))
                elif cfg.baseline_mode in HIST_MODES:
                    hp = init_params(K, cfg.B, name=f"hist{tag}")
                    if cfg.baseline_mode == "fix_hist":
                        for p in hp.parameters():
                            p.lock_mask[...] = 0.0
                    self.hists.append(hp)
                fc_w = Parameter(_gauss(rng, (K * cfg.B, d_ctx, 1, 1), 0.01),
                                 name=f"fc{tag}.w")
                fc_b = Parameter(np.zeros((K * cfg.B, 1, 1, 1)), name=f"fc{tag}.b")
                self.fcs.append((fc_w, fc_b))
            for t in range(2, cfg.stages + 1):
                hw = Parameter(_gauss(rng, (K, C + K * cfg.B, 1, 1), 0.01),
                               name=f"head{t}.w")
                hb = Parameter(np.zeros((K, 1, 1, 1)), name=f"head{t}.b")
                self.heads.append((hw, hb))

        self.params: dict[str, Parameter] = {}
        for p in self._all_params():
            self.params[p.name] = p
        self.base_param_names = ["base.f1.w", "base.f1.b", "base.f2.w", "base.f2.b",
                                 "base.cls.w", "base.cls.b"]
        self.new_param_names = [n for n in self.params if n not in self.base_param_names]

    def _all_params(self):
        ps = [self.f1_w, self.f1_b, self.f2_w, self.f2_b, self.cls_w, self.cls_b]
        for h in self.hists:
            ps.extend(h.parameters())
        for w, b in self.fcs:
            ps.extend([w, b])
        for w, b in self.heads:
            ps.extend([w, b])
        return ps

    def _branch(self, t: int):
        """Context branch (histogram, fc) used by stage t (t >= 2)."""
        i = 0 if self.cfg.share_stage_params else t - 2
        hist = self.hists[i] if self.hists else None
        return hist, self.fcs[i]

    def _run(self, features: Tensor, labels=None):
        cfg = self.cfg
        ad.reset_tape()
        x = ad.relu(ad.conv1x1(features, self.f1_w, self.f1_b))
        feats = ad.relu(ad.conv1x1(x, self.f2_w, self.f2_b))
        logits = [ad.conv1x1(feats, self.cls_w, self.cls_b)]
        losses, probs = [], []

        def head_probs(lg):
            if labels is None:
                probs.append(ad.softmax(lg))
            else:
                loss_t, p_t = ad.softmax_xent(lg, labels)
                losses.append(loss_t)
                probs.append(p_t)

        head_probs(logits[0])
        if cfg.baseline_mode != "base_only":
            for t in range(2, cfg.stages + 1):
                hist, (fc_w, fc_b) = self._branch(t)
                if cfg.baseline_mode in HIST_MODES:
                    summary = hist.forward(probs[-1])
                elif cfg.baseline_mode == "score_global":
                    summary = ad.global_avg_pool(probs[-1])
                else:  # feat_global
                    summary = ad.global_avg_pool(feats)
                ctx = ad.fully_connected(summary, fc_w, fc_b)
                cat = ad.broadcast_concat(feats, ctx)
                hw, hb = self.heads[t - 2]
                logits.append(ad.conv1x1(cat, hw, hb))
                head_probs(logits[-1])

        final = ad.mean_tensors(probs)
        outputs = StageOutputs(logits, probs, final)
        if labels is None:
            return outputs
        return ad.scalar_mean(losses), outputs

    def forward(self, features: Tensor) -> StageOutputs:
        return self._run(features)

    def loss(self, features: Tensor, labels: np.ndarray):
        return self._run(features, labels)

    def clamp(self) -> None:
        for h in self.hists:
            h.clamp_slopes()

    def zero_grads(self) -> None:
        ad.zero_grads(self.params.values())

    def state(self) -> dict[str, Parameter]:
        return self.params


def parameter_census(net: Network) -> dict:
    """Trainable-entry counts for the layers added on top of the base."""
    per_param = {n: int(net.params[n].lock_mask.sum()) for n in net.new_param_names}
    return {"per_param": per_param, "extra_trainable": sum(per_param.values())}


# --------------------------------------------------------------------------
# evaluation

EVAL_BATCH = 50


def _evaluate_range(net: Network, dataset, lo: int, hi: int, stage: int | None):
    """Confusion counts and per-batch loss terms (batch loss * batch length)
    of images [lo, hi), one forward-only pass in EVAL_BATCH batches."""
    K = net.cfg.K
    conf = np.zeros((K, K), dtype=np.int64)
    terms = []
    with ad.no_grad():
        for start in range(lo, hi, EVAL_BATCH):
            stop = min(start + EVAL_BATCH, hi)
            labels = dataset.labels[start:stop]
            loss, out = net.loss(Tensor(dataset.features[start:stop]), labels)
            terms.append(loss.item() * (stop - start))
            probs = out.final_probs if stage is None else out.stage_probs[stage]
            pred = np.argmax(probs.data, axis=1)
            idx = labels.astype(np.int64) * K + pred
            conf += np.bincount(idx.ravel(), minlength=K * K).reshape(K, K)
    return conf, terms


def metrics_from_confusion(conf: np.ndarray) -> dict:
    total = conf.sum()
    per_pixel = conf.trace() / total if total else 0.0
    support = conf.sum(axis=1)
    present = support > 0
    recalls = np.divide(np.diag(conf), support, out=np.zeros(len(conf)), where=present)
    per_class = recalls[present].mean() if present.any() else 0.0
    return {"per_pixel": float(per_pixel), "per_class": float(per_class),
            "recalls": recalls, "confusion": conf}


def evaluate(net: Network, dataset, stage: int | None = None) -> dict:
    """Mean loss, per-pixel accuracy and unweighted mean per-class recall,
    from one forward-only pass. The confusion matrix has rows = true class,
    columns = predicted class (argmax, ties to lowest).

    HISTLAYER_THREADS shards the pass on whole EVAL_BATCH batches, with at
    most one thread per batch, and the loss terms are summed in batch order,
    so every thread count gives the same batches and the same float sums.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot evaluate an empty dataset")
    n_batches = -(-n // EVAL_BATCH)
    workers = min(eval_threads(), n_batches)
    if workers <= 1:
        parts = [_evaluate_range(net, dataset, 0, n, stage)]
    else:
        cuts = np.linspace(0, n_batches, workers + 1).astype(int) * EVAL_BATCH
        cuts = np.minimum(cuts, n).tolist()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda ab: _evaluate_range(net, dataset, ab[0], ab[1], stage),
                zip(cuts[:-1], cuts[1:])))
    conf = np.zeros((net.cfg.K, net.cfg.K), dtype=np.int64)
    total = 0.0
    for part_conf, terms in parts:
        conf += part_conf
        for term in terms:  # a plain loop: sum() of floats is compensated on 3.12+
            total += term
    return {**metrics_from_confusion(conf), "loss": total / n}


# --------------------------------------------------------------------------
# training

@dataclass
class TrainSchedule:
    epochs: int = 30
    batch_size: int = 10
    lr: float = 1e-2
    momentum: float = 0.9
    lr_decay: float = 0.1
    decay_epoch: int = 20
    seed: int = 0


@dataclass
class LogRow:
    phase: int
    epoch: int
    split: str
    loss: float
    per_pixel: float
    per_class: float


def train_phase(net: Network, train_ds, val_ds, trainable: list[Parameter],
                schedule: TrainSchedule, phase: int) -> list[LogRow]:
    """One SGD phase; returns one train and one val log row per epoch.

    Train-split metrics are accumulated from the minibatch forward passes,
    val metrics come from a full evaluation pass at each epoch end.
    """
    rows = []
    rng = np.random.default_rng(schedule.seed * 1000003 + phase)
    n = len(train_ds)
    K = net.cfg.K
    for epoch in range(schedule.epochs):
        lr = schedule.lr * (schedule.lr_decay if epoch >= schedule.decay_epoch else 1.0)
        perm = rng.permutation(n)
        conf = np.zeros((K, K), dtype=np.int64)
        loss_sum, seen = 0.0, 0
        for start in range(0, n, schedule.batch_size):
            idx = perm[start:start + schedule.batch_size]
            feats = Tensor(train_ds.features[idx])
            labels = train_ds.labels[idx]
            net.zero_grads()
            loss, out = net.loss(feats, labels)
            ad.backward(loss)
            ad.sgd_step(trainable, lr, schedule.momentum)
            net.clamp()
            loss_sum += loss.item() * len(idx)
            seen += len(idx)
            pred = np.argmax(out.final_probs.data, axis=1)
            flat = labels.astype(np.int64) * K + pred
            conf += np.bincount(flat.ravel(), minlength=K * K).reshape(K, K)
        train_m = metrics_from_confusion(conf)
        rows.append(LogRow(phase, epoch, "train", loss_sum / seen,
                           train_m["per_pixel"], train_m["per_class"]))
        val_m = evaluate(net, val_ds)
        rows.append(LogRow(phase, epoch, "val", val_m["loss"],
                           val_m["per_pixel"], val_m["per_class"]))
    return rows


def train_base(net: Network, train_ds, val_ds, schedule: TrainSchedule) -> list[LogRow]:
    """Pretrain a base_only network; logged as phase 0."""
    trainable = list(net.params.values())
    return train_phase(net, train_ds, val_ds, trainable, schedule, phase=0)


def load_base(net: Network, base_params: dict[str, Parameter]) -> None:
    for name in net.base_param_names:
        if name not in base_params:
            raise ValueError(f"base checkpoint is missing parameter {name}")
        src = base_params[name]
        dst = net.params[name]
        if src.shape != dst.shape:
            raise ValueError(f"base parameter {name}: checkpoint shape {src.shape} "
                             f"vs model shape {dst.shape}")
        dst.data[...] = src.data


def two_phase_train(net: Network, base_params: dict[str, Parameter],
                    train_ds, val_ds, schedule: TrainSchedule):
    """Incremental training: new layers first, then everything jointly.

    Phase 1 updates only the context FC layers and the stage heads; the
    base and the histogram bins stay fixed. Phase 2 updates all parameters
    whose lock masks allow it (fix_hist keeps its bins frozen).
    """
    if net.cfg.baseline_mode == "base_only":
        raise ValueError("two_phase_train needs a context-refinement mode")
    if base_params is None:
        raise ValueError("two_phase_train requires a pretrained base checkpoint")
    load_base(net, base_params)

    hist_names = {p.name for h in net.hists for p in h.parameters()}
    phase1 = [p for n, p in net.params.items()
              if n in net.new_param_names and n not in hist_names]
    rows = train_phase(net, train_ds, val_ds, phase1, schedule, phase=1)
    stage1_before = evaluate(net, val_ds, stage=0)
    phase2 = list(net.params.values())
    rows += train_phase(net, train_ds, val_ds, phase2, schedule, phase=2)
    stage1_after = evaluate(net, val_ds, stage=0)
    return rows, {"stage1_before_phase2": stage1_before["per_pixel"],
                  "stage1_after_phase2": stage1_after["per_pixel"]}

