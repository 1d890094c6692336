"""Per-layer tracing of histlayer from outside the program.

`Tracer.install()` replaces public functions of the histlayer modules with
timing wrappers, at every module attribute that holds the original object,
so each caller's own name lookup reaches the wrapper (`networks` calls
`ad.<op>`, while `histogram`, `verify` and `cli` import names directly).
The nodes an autodiff op returns get a timed `_backward`, and `gc.callbacks`
records collector pauses. `uninstall()` puts every original object back.

Spans nest on one stack: a span's self time is its duration minus the time
covered by its traced children. Autodiff ops called inside another autodiff
op (`fully_connected` -> `conv1x1`, `softmax_xent` -> `softmax`) count
towards the outer op only; the histogram layer counts inclusively, so the
autodiff ops its composed form calls are counted both there and under their
own names.
"""

from __future__ import annotations

import gc
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

AUTODIFF_OPS = ("conv1x1", "fully_connected", "abs_elem", "relu", "global_avg_pool",
                "broadcast_concat", "softmax", "softmax_xent", "scalar_mean",
                "mean_tensors")

# (defining module, attribute, span key)
FUNCTIONS = (
    [("autodiff", op, f"autodiff.{op}") for op in AUTODIFF_OPS]
    + [
        ("autodiff", "backward", "autodiff.backward"),
        ("autodiff", "sgd_step", "autodiff.sgd_step"),
        ("autodiff", "grad_check", "autodiff.grad_check"),
        ("histogram", "hist_forward_direct", "histogram"),
        ("oracle", "hist_oracle", "oracle"),
        ("checkpoint", "save_checkpoint", "checkpoint.save"),
        ("checkpoint", "load_checkpoint", "checkpoint.load"),
        ("checkpoint", "load_into", "checkpoint.load"),
        ("data", "generate", "data.generate"),
        ("data", "write_dataset", "data.write_dataset"),
        ("data", "read_dataset", "data.read_dataset"),
        ("data", "local_bayes_ceiling", "data.local_bayes_ceiling"),
        ("networks", "train_phase", "networks.train_phase"),
        ("networks", "evaluate", "networks.evaluate"),
        ("networks", "evaluate_loss", "networks.evaluate_loss"),
        ("verify", "check_equivalence", "verify.check_equivalence"),
        ("verify", "check_oracle_agreement", "verify.check_oracle_agreement"),
        ("verify", "check_histogram_gradients", "verify.check_histogram_gradients"),
        ("verify", "run_all", "verify.run_all"),
        ("cli", "train_run", "cli.train_run"),
        ("cli", "cmd_eval", "cli.cmd_eval"),
    ]
)

# (defining module, class, method, span key)
METHODS = (
    ("networks", "Network", "loss", "networks.loss"),
    ("networks", "Network", "forward", "networks.forward"),
    ("histogram", "ComposedHistogram", "forward", "histogram"),
)


def _group(key: str) -> str:
    """Spans of one group do not nest: an inner call passes straight through.
    All autodiff ops form one group; every other span key is its own."""
    return "autodiff.op" if key.removeprefix("autodiff.") in AUTODIFF_OPS else key


VAL_KEYS = ("networks.evaluate", "networks.evaluate_loss")


def histlayer_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "histlayer" or name.startswith("histlayer."))]


_MISSING = object()


def attribute_snapshot() -> list:
    """Every attribute of the histlayer modules and of the classes they define."""
    snap = []
    for m in histlayer_modules():
        for name, value in vars(m).items():
            snap.append((m, name, value))
            if isinstance(value, type) and value.__module__ == m.__name__:
                snap.extend((value, n, v) for n, v in vars(value).items())
    return snap


def changed_attributes(snap: list) -> list[str]:
    """Names in `snap` that no longer hold the identical object."""
    return [f"{owner.__name__}.{name}" for owner, name, value in snap
            if vars(owner).get(name, _MISSING) is not value]


_SIGNATURES: dict = {}


def _bind(fn, args, kwargs) -> dict:
    """Arguments by parameter name, whether passed by position or keyword."""
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    try:
        return sig.bind(*args, **kwargs).arguments
    except TypeError:
        return {}


def _tensors(out):
    items = out if isinstance(out, tuple) else (out,)
    return [t for t in items if hasattr(t, "_backward") and hasattr(t, "data")]


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except (OSError, TypeError):
        return 0.0


class _Frame:
    __slots__ = ("group", "child", "dt")

    def __init__(self, group):
        self.group, self.child, self.dt = group, 0.0, 0.0


class Tracer:
    """Accumulates per-layer counters while installed; see `per_op_metrics`."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.bwd_s = defaultdict(float)
        self.samples = defaultdict(list)
        self.count = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = None

    # ------------------------------------------------------------------
    # install / uninstall

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in histlayer_modules()}
        every = list(mods.values())
        for modname, attr, key in FUNCTIONS:
            orig = getattr(mods.get(modname), attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(orig, key)
            for m in every:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, name, orig))
                        setattr(m, name, wrapper)
        for modname, clsname, attr, key in METHODS:
            cls = getattr(mods.get(modname), clsname, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                continue
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, key))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.total_s["gc"] += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.count["gc.gen2"] += 1

    # ------------------------------------------------------------------
    # spans

    def _in_group(self, group) -> bool:
        return any(f.group == group for f in self.stack)

    def _call(self, frame, fn, args, kwargs):
        """Call fn as a span: its duration goes to frame.dt and counts as
        child time of the enclosing span."""
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            frame.dt = time.perf_counter() - t0
            self.stack.pop()
            if self.stack:
                self.stack[-1].child += frame.dt

    def _wrap(self, orig, key):
        tracer = self
        group = _group(key)

        def traced(*args, **kwargs):
            if tracer._in_group(group):
                return orig(*args, **kwargs)
            frame = _Frame(group)
            tracer._before(key, orig, args, kwargs)
            out = tracer._call(frame, orig, args, kwargs)
            tracer._record(key, frame.dt, frame.dt - frame.child)
            tracer._after(key, group, orig, args, kwargs, out)
            return out

        traced.__wrapped__ = orig
        return traced

    def _record(self, key, dt, self_dt) -> None:
        self.calls[key] += 1
        self.total_s[key] += dt
        self.self_s[key] += self_dt
        if key in ("networks.loss", "networks.forward"):
            self.samples[key].append(dt)
        if key in VAL_KEYS and self._in_group("networks.train_phase"):
            self.count["val_passes"] += 1
            self.total_s["val_in_train_phase"] += dt

    def _flops(self, key, args) -> float:
        op = key.rsplit(".", 1)[-1]
        if op in ("conv1x1", "fully_connected"):
            n, cin, h, w = args[0].shape
            return 2.0 * n * args[1].shape[0] * cin * h * w
        if op in ("abs_elem", "relu", "global_avg_pool"):
            return float(args[0].data.size)
        return 0.0

    def _before(self, key, orig, args, kwargs) -> None:
        in_hist = self._in_group("histogram")
        if key == "autodiff.conv1x1":
            self.count["conv1x1.flop"] += self._flops(key, args)
        if key.startswith("autodiff.") and in_hist:
            self.count["histogram.flop"] += self._flops(key, args)
        if key == "histogram":
            if hasattr(args[0], "parameters"):  # composed layer: kernels and biases
                params = args[0].parameters()
            else:  # direct form: (likelihood, HistogramParams)
                hp = args[1]
                params = [hp.centers, hp.slopes]
                n, k, h, w = args[0].shape
                self.count["histogram.flop"] += 6.0 * n * k * hp.B * h * w
            self.count["histogram.entries"] += sum(p.data.size for p in params)
            self.count["histogram.trainable"] += sum(float(p.lock_mask.sum())
                                                     for p in params)
        elif key == "autodiff.sgd_step":
            params = list(_bind(orig, args, kwargs).get("params", ()))
            self.count["sgd.entries"] += sum(p.data.size for p in params)
            self.count["sgd.trainable"] += sum(float(p.lock_mask.sum()) for p in params)
            if self._in_group("networks.train_phase"):
                self.count["train_steps"] += 1
        elif key == "networks.train_phase":
            schedule = _bind(orig, args, kwargs).get("schedule")
            self.count["epochs"] += getattr(schedule, "epochs", 0)
        elif key in ("checkpoint.load", "data.read_dataset"):
            path = _bind(orig, args, kwargs).get("path")
            self.count[f"{key}.mb"] += _file_mb(path)

    def _after(self, key, group, orig, args, kwargs, out) -> None:
        if key == "checkpoint.save":
            self.count["checkpoint.save.mb"] += _file_mb(_bind(orig, args, kwargs).get("path"))
        elif key == "autodiff.grad_check":
            self.count["grad_check.checked"] += out.n_checked
            self.count["grad_check.skipped"] += len(out.skipped)
        if group in ("autodiff.op", "histogram"):
            in_hist = group == "histogram" or self._in_group("histogram")
            for t in _tensors(out):
                self._wrap_node(t, key, in_hist)

    def _wrap_node(self, node, key, in_hist) -> None:
        inner = node._backward
        if inner is None or getattr(inner, "_traced", False):
            return
        self.count["nodes"] += 1
        grad = vars(node).get("grad")
        if isinstance(grad, np.ndarray):
            self.count["node_bytes"] += grad.nbytes
        tracer = self
        ran = False

        def timed(*args, **kwargs):
            nonlocal ran
            frame = _Frame(f"{key}.bwd")
            try:
                return tracer._call(frame, inner, args, kwargs)
            finally:
                tracer.bwd_s[key] += frame.dt
                if in_hist and key != "histogram":
                    tracer.bwd_s["histogram"] += frame.dt
                if not ran:
                    ran = True
                    tracer.count["nodes_backward"] += 1

        timed._traced = True
        node._backward = timed

    # ------------------------------------------------------------------
    # results

    def per_op_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics, as totals per op over `n_ops` traced ops."""
        n = max(n_ops, 1)
        ms = 1e3 / n
        c, tot, bwd = self.count, self.total_s, self.bwd_s

        def ratio(a, b):
            return a / b if b else 0.0

        def pct(key, q):
            s = self.samples.get(key)
            return float(np.percentile(s, q)) * 1e3 if s else 0.0

        m = {
            "histogram.calls": self.calls["histogram"] / n,
            "histogram.fwd_ms": tot["histogram"] * ms,
            "histogram.bwd_ms": bwd["histogram"] * ms,
            "histogram.gflop": c["histogram.flop"] / 1e9 / n,
            "histogram.param_entries": ratio(c["histogram.entries"], self.calls["histogram"]),
            "histogram.trainable_ratio": ratio(c["histogram.trainable"],
                                               c["histogram.entries"]),
            "autodiff.sgd_step_ms": tot["autodiff.sgd_step"] * ms,
            "autodiff.sgd_entries": c["sgd.entries"] / n,
            "autodiff.sgd_trainable_ratio": ratio(c["sgd.trainable"], c["sgd.entries"]),
            "checkpoint.save_ms": tot["checkpoint.save"] * ms,
            "checkpoint.load_ms": tot["checkpoint.load"] * ms,
            "checkpoint.mb": (c["checkpoint.save.mb"] + c["checkpoint.load.mb"]) / n,
        }
        for op in AUTODIFF_OPS:
            key = f"autodiff.{op}"
            m[f"{key}.calls"] = self.calls[key] / n
            m[f"{key}.fwd_ms"] = self.self_s[key] * ms
            m[f"{key}.bwd_ms"] = bwd[key] * ms
        val_s = tot["val_in_train_phase"]
        phase_s = tot["networks.train_phase"]
        m.update({
            "autodiff.conv1x1.gflop": c["conv1x1.flop"] / 1e9 / n,
            "autodiff.backward_ms": tot["autodiff.backward"] * ms,
            "autodiff.nodes": c["nodes"] / n,
            "autodiff.node_mb": c["node_bytes"] / 1e6 / n,
            "autodiff.grad_used_ratio": ratio(c["nodes_backward"], c["nodes"]),
            "autodiff.gc_pause_ms": tot["gc"] * ms,
            "autodiff.gc_gen2_collections": c["gc.gen2"] / n,
            "networks.loss_ms_p50": pct("networks.loss", 50),
            "networks.loss_ms_p99": pct("networks.loss", 99),
            "networks.forward_ms_p50": pct("networks.forward", 50),
            "networks.forward_ms_p99": pct("networks.forward", 99),
            "networks.train_phase_s": phase_s / n,
            "networks.evaluate_s": tot["networks.evaluate"] / n,
            "networks.evaluate_loss_s": tot["networks.evaluate_loss"] / n,
            "networks.val_passes_per_epoch": ratio(c["val_passes"], c["epochs"]),
            "networks.train_steps_per_s": ratio(c["train_steps"], phase_s - val_s),
            "networks.eval_share": ratio(val_s, phase_s),
            "autodiff.grad_check_ms": tot["autodiff.grad_check"] * ms,
            "autodiff.grad_check_skipped_ratio": ratio(
                c["grad_check.skipped"], c["grad_check.skipped"] + c["grad_check.checked"]),
            "oracle.calls": self.calls["oracle"] / n,
            "oracle.ms": tot["oracle"] * ms,
            "verify.check_equivalence_s": tot["verify.check_equivalence"] / n,
            "verify.check_oracle_agreement_s": tot["verify.check_oracle_agreement"] / n,
            "verify.check_histogram_gradients_s": tot["verify.check_histogram_gradients"] / n,
            "verify.run_all_s": tot["verify.run_all"] / n,
            "data.read_dataset_s": tot["data.read_dataset"] / n,
            "data.read_mb": c["data.read_dataset.mb"] / n,
            "cli.train_run_self_ms": self.self_s["cli.train_run"] * ms,
            "cli.cmd_eval_self_ms": self.self_s["cli.cmd_eval"] * ms,
        })
        return m

    def setup_metrics(self) -> dict[str, float]:
        """Data-layer metrics of one traced set-up."""
        return {
            "data.generate_s": self.total_s["data.generate"],
            "data.write_dataset_s": self.total_s["data.write_dataset"],
            "data.local_bayes_ceiling_s": self.total_s["data.local_bayes_ceiling"],
        }
