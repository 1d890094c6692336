"""Cross-module property battery: the executable definition of correctness.

Each property runs on seeded random instances and yields a PropertyReport;
failures are reported, not raised, so the whole battery always completes.
Tolerances live in one table so tests and acceptance cannot drift apart.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .data import default_spec, generate, read_dataset, write_dataset
from .histogram import ComposedHistogram, HistogramParams, hist_forward_direct, init_params
from .networks import metrics_from_confusion
from .oracle import hist_oracle

TOL_STRUCTURAL = 1e-12
TOL_FINITE_DIFF = 1e-5
FD_EPS = 1e-4
KINK_MARGIN = 1e-3

# the autodiff primitives, each with one finite-difference report
PRIMITIVES = ("conv1x1", "fully_connected", "abs_elem", "relu", "global_avg_pool",
              "broadcast_concat", "softmax", "softmax_xent", "scalar_mean",
              "mean_tensors")


@dataclass
class PropertyReport:
    name: str
    trials: int
    max_error: float
    skipped: int = 0
    passed: bool = True
    seed: int = 0
    detail: str = ""

    def to_json(self) -> str:
        return json.dumps({
            "property": self.name, "trials": int(self.trials),
            "max_error": float(self.max_error), "skipped": int(self.skipped),
            "passed": bool(self.passed), "seed": int(self.seed),
            "detail": self.detail,
        }, sort_keys=True)


def _rand_params(rng, K, B) -> HistogramParams:
    centers = rng.uniform(-0.2, 1.2, size=(K, B, 1, 1))
    slopes = rng.uniform(0.5, 8.0, size=(K, B, 1, 1))
    return HistogramParams(Parameter(centers, name="hist.centers"),
                           Parameter(slopes, name="hist.slopes"))


def _hist_pair(rng, K, B):
    """Matching direct-form params and composed layer at a random point."""
    hp = _rand_params(rng, K, B)
    layer = ComposedHistogram(hp)
    return hp, layer


def check_primitive_gradients(seed: int, trials: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    skipped = 0
    for _ in range(trials):
        n, cin, cout, h, w = 2, 3, 4, 2, 3
        x = Parameter(rng.standard_normal((n, cin, h, w)), name="x")
        wgt = Parameter(rng.standard_normal((cout, cin, 1, 1)), name="w")
        b = Parameter(rng.standard_normal((cout, 1, 1, 1)), name="b")
        labels = rng.integers(0, cout, size=(n, h, w))
        head_w = Parameter(rng.standard_normal((cout, 2 * cout, 1, 1)) * 0.5,
                           name="head.w")
        head_b = Parameter(rng.standard_normal((cout, 1, 1, 1)), name="head.b")

        def loss_fn():
            y = ad.abs_elem(ad.relu(ad.conv1x1(x, wgt, b)))
            pooled = ad.global_avg_pool(y)
            cat = ad.broadcast_concat(y, pooled)
            logits = ad.conv1x1(cat, head_w, head_b)
            loss, _ = ad.softmax_xent(logits, labels)
            return loss
        for p in (x, wgt, b, head_w, head_b):
            res = ad.grad_check(loss_fn, p, eps=FD_EPS, kink_margin=KINK_MARGIN,
                                max_entries=8, rng=rng)
            worst = max(worst, res.max_rel_err)
            skipped += len(res.skipped)
    return PropertyReport("primitive_finite_differences", trials, worst, skipped,
                          worst < TOL_FINITE_DIFF, seed)


def primitive_reports(seed: int) -> list[PropertyReport]:
    """One finite-difference report per primitive, so a failure names the op."""
    rng = np.random.default_rng(seed)
    n, cin, cout, h, w = 2, 3, 4, 2, 2
    x = Parameter(rng.standard_normal((n, cin, h, w)), name="x")
    wgt = Parameter(rng.standard_normal((cout, cin, 1, 1)), name="w")
    b = Parameter(rng.standard_normal((cout, 1, 1, 1)), name="b")
    vec = Parameter(rng.standard_normal((n, cin, 1, 1)), name="vec")
    fc_w = Parameter(rng.standard_normal((cout, cin, 1, 1)), name="fc.w")
    labels = rng.integers(0, cin, size=(n, h, w))
    y = Parameter(rng.standard_normal((n, cin, h, w)), name="y")

    def quadratic(t):
        # smooth scalar readout sum(t^2)/2 so every op's output is exercised
        def _bw():
            t.grad += t.data * out.grad.reshape(-1)[0]
        out = ad._node(np.full((1, 1, 1, 1), 0.5 * (t.data ** 2).sum()), _bw)
        return out

    cases = {
        "conv1x1": (lambda: quadratic(ad.conv1x1(x, wgt, b)), [x, wgt, b]),
        "fully_connected": (lambda: quadratic(ad.fully_connected(vec, fc_w, b)),
                            [vec, fc_w, b]),
        "abs_elem": (lambda: quadratic(ad.abs_elem(x)), [x]),
        "relu": (lambda: quadratic(ad.relu(x)), [x]),
        "global_avg_pool": (lambda: quadratic(ad.global_avg_pool(x)), [x]),
        "broadcast_concat": (lambda: quadratic(ad.broadcast_concat(x, vec)), [x, vec]),
        "softmax": (lambda: quadratic(ad.softmax(x)), [x]),
        "softmax_xent": (lambda: ad.softmax_xent(ad.conv1x1(x, wgt, b), labels)[0],
                         [x, wgt, b]),
        "scalar_mean": (lambda: ad.scalar_mean([quadratic(x), quadratic(vec)]), [x, vec]),
        "mean_tensors": (lambda: quadratic(ad.mean_tensors([x, y])), [x, y]),
    }
    reports = []
    for op in PRIMITIVES:
        loss_fn, wiggles = cases[op]
        worst, skipped = 0.0, 0
        for p in wiggles:
            res = ad.grad_check(loss_fn, p, eps=FD_EPS, kink_margin=KINK_MARGIN)
            worst = max(worst, res.max_rel_err)
            skipped += len(res.skipped)
        reports.append(PropertyReport(f"gradcheck_{op}", len(wiggles), worst,
                                      skipped, worst < TOL_FINITE_DIFF, seed))
    return reports


def check_histogram_gradients(seed: int, trials: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    skipped = 0
    for _ in range(trials):
        K, B, n, h, w = 2, 4, 2, 3, 3
        hp = _rand_params(rng, K, B)
        x = Parameter(rng.uniform(0, 1, size=(n, K, h, w)), name="hist.x")
        upstream = rng.standard_normal((n, K * B, 1, 1))

        def loss_fn():
            # scalar projection <feature, upstream> as the loss
            feat = hist_forward_direct(x, hp)
            s = (feat.data * upstream).sum()

            def _bw():
                feat.grad += upstream * out.grad.reshape(-1)[0]

            out = ad._node(np.full((1, 1, 1, 1), s), _bw)
            return out

        for p in (x, hp.centers, hp.slopes):
            res = ad.grad_check(loss_fn, p, eps=FD_EPS, kink_margin=KINK_MARGIN,
                                max_entries=10, rng=rng)
            worst = max(worst, res.max_rel_err)
            skipped += len(res.skipped)
    return PropertyReport("histogram_finite_differences", trials, worst, skipped,
                          worst < TOL_FINITE_DIFF, seed)


def check_equivalence(seed: int, trials: int) -> PropertyReport:
    """Direct form vs composed pipeline: outputs and all gradients."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        K = int(rng.integers(1, 4))
        B = int(rng.integers(2, 7))
        n = int(rng.integers(1, 3))
        if trial % 2 == 0:
            h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        else:
            h, w = 1, 1  # vector-input mode
        hp, layer = _hist_pair(rng, K, B)
        xdata = rng.uniform(-0.2, 1.2, size=(n, K, h, w))
        upstream = rng.standard_normal((n, K * B, 1, 1))

        ad.reset_tape()
        x_d = Tensor(xdata.copy())
        direct = hist_forward_direct(x_d, hp)
        ad.backward(direct, upstream)

        x_c = Tensor(xdata.copy())
        composed = layer.forward(x_c)
        ad.backward(composed, upstream)

        diag = np.arange(K * B)
        worst = max(
            worst,
            np.abs(direct.data - composed.data).max(),
            np.abs(x_d.grad - x_c.grad).max(),
            np.abs(hp.centers.grad.reshape(K * B) + layer.b1.grad.reshape(K * B)).max(),
            np.abs(hp.slopes.grad.reshape(K * B) + layer.w2.grad[diag, diag, 0, 0]).max(),
        )
    return PropertyReport("direct_vs_composed_equivalence", trials, worst, 0,
                          worst < TOL_STRUCTURAL, seed)


def check_oracle_agreement(seed: int, trials: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        K = int(rng.integers(1, 4))
        B = int(rng.integers(2, 7))
        n = int(rng.integers(1, 3))
        h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        hp = _rand_params(rng, K, B)
        x = rng.uniform(-0.2, 1.2, size=(n, K, h, w))
        with ad.no_grad():
            got = hist_forward_direct(Tensor(x), hp).data.reshape(n, K * B)
        want = hist_oracle(x, hp.centers.data.reshape(K, B), hp.slopes.data.reshape(K, B))
        worst = max(worst, np.abs(got - want).max())
    return PropertyReport("oracle_agreement", trials, worst, 0,
                          worst < TOL_STRUCTURAL, seed)


def check_partition_of_unity(seed: int, trials: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        B = int(rng.integers(2, 9))
        hp = init_params(1, B)
        xs = rng.uniform(0, 1, size=64)
        mu = hp.centers.data.reshape(B)
        s = hp.slopes.data.reshape(B)
        votes = np.maximum(0.0, 1.0 - s[None] * np.abs(xs[:, None] - mu[None]))
        worst = max(worst, np.abs(votes.sum(axis=1) - 1.0).max())
    return PropertyReport("partition_of_unity_at_init", trials, worst, 0,
                          worst < TOL_STRUCTURAL, seed)


def _random_training_steps(layer: ComposedHistogram, rng, steps: int, n=2, h=3, w=3):
    K = layer.K
    for _ in range(steps):
        x = Tensor(rng.uniform(0, 1, size=(n, K, h, w)))
        ad.reset_tape()
        out = layer.forward(x)
        ad.zero_grads(layer.parameters())
        ad.backward(out, rng.standard_normal(out.shape))
        ad.sgd_step(layer.parameters(), lr=1e-2, momentum=0.9)
        layer.clamp_slopes()


def check_lock_immutability(seed: int, steps: int = 100) -> PropertyReport:
    rng = np.random.default_rng(seed)
    hp = init_params(3, 6)
    layer = ComposedHistogram(hp)
    snap = {p.name: p.data.copy() for p in layer.parameters()}
    _random_training_steps(layer, rng, steps)
    diag = np.arange(layer.K * layer.B)
    off = np.ones_like(layer.w2.data, dtype=bool)
    off[diag, diag] = False
    violations = 0.0
    if not np.array_equal(layer.w1.data, snap["hist.w1"]):
        violations += 1
    if not np.array_equal(layer.w2.data[off], snap["hist.w2"][off]):
        violations += 1
    if not np.array_equal(layer.b2.data, snap["hist.b2"]):
        violations += 1
    moved = not np.array_equal(layer.b1.data, snap["hist.b1"])
    detail = "centers moved" if moved else "centers did not move"
    return PropertyReport("lock_mask_immutability", steps, violations, 0,
                          violations == 0, seed, detail)


def check_free_all_unlock(seed: int, steps: int = 100) -> PropertyReport:
    """free_all abandons the structure: off-diagonals must be able to move.

    Diagonal preservation is expected to FAIL for this mode; the property
    passes when that expected failure is observed.
    """
    rng = np.random.default_rng(seed)
    hp = init_params(2, 4)
    layer = ComposedHistogram(hp, unlocked=True)
    before = layer.w2.data.copy()
    _random_training_steps(layer, rng, steps)
    diag = np.arange(layer.K * layer.B)
    off = np.ones_like(layer.w2.data, dtype=bool)
    off[diag, diag] = False
    changed = float(np.abs(layer.w2.data[off] - before[off]).max())
    return PropertyReport("free_all_diagonal_expected_fail", steps, changed, 0,
                          changed > 0.0, seed,
                          "off-diagonal drift confirms the unlock")


def check_feature_range(seed: int, trials: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        K = int(rng.integers(1, 4))
        B = int(rng.integers(2, 7))
        hp = _rand_params(rng, K, B)
        x = rng.uniform(-1.0, 2.0, size=(2, K, 4, 4))
        with ad.no_grad():
            feat = hist_forward_direct(Tensor(x), hp).data
        worst = max(worst, float(max(-feat.min(), feat.max() - 1.0, 0.0)))
    return PropertyReport("feature_range_bounds", trials, worst, 0,
                          worst <= TOL_STRUCTURAL, seed)


def check_dataset_roundtrip(seed: int) -> PropertyReport:
    spec = default_spec()
    a = generate(spec, 8, 6, 6, seed)
    b = generate(spec, 8, 6, 6, seed)
    deterministic = (np.array_equal(a.features, b.features)
                     and np.array_equal(a.labels, b.labels)
                     and np.array_equal(a.scene_ids, b.scene_ids))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.hctx"
        write_dataset(a, path)
        c = read_dataset(path)
        roundtrip = (np.array_equal(a.features, c.features)
                     and np.array_equal(a.labels, c.labels)
                     and np.array_equal(a.scene_ids, c.scene_ids)
                     and a.spec.to_json() == c.spec.to_json()
                     and a.seed == c.seed)
    ok = deterministic and roundtrip
    return PropertyReport("dataset_determinism_roundtrip", 2, 0.0 if ok else 1.0,
                          0, ok, seed)


def check_metric_fixtures(seed: int = 0) -> PropertyReport:
    conf = np.array([[2, 0], [1, 1]])
    m = metrics_from_confusion(conf)
    err = max(abs(m["per_pixel"] - 0.75), abs(m["per_class"] - 0.75))
    return PropertyReport("metric_fixtures", 1, err, 0, err < 1e-15, seed)


def run_all(seed: int = 0, trials: int = 50) -> list[PropertyReport]:
    return [
        check_primitive_gradients(seed, max(2, trials // 10)),
        check_histogram_gradients(seed + 1, max(3, trials // 10)),
        check_equivalence(seed + 2, trials),
        check_oracle_agreement(seed + 3, trials),
        check_partition_of_unity(seed + 4, trials),
        check_lock_immutability(seed + 5),
        check_free_all_unlock(seed + 6),
        check_feature_range(seed + 7, trials),
        check_dataset_roundtrip(seed + 8),
        check_metric_fixtures(seed + 9),
    ]
