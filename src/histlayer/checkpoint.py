"""HPRM checkpoint files: named parameters with momentum and lock masks.

Fields in the `binfile` container: parameter count u32, then per parameter a
UTF-8 name blob, 4 x u32 shape, float64 values and momentum, u8 lock mask.
"""

from __future__ import annotations

import struct

import numpy as np

from . import binfile
from .autodiff import Parameter

HPRM_MAGIC = b"HPRM"
HPRM_VERSION = 1


class CheckpointFormatError(ValueError):
    """Bad magic, unsupported version, truncated or malformed checkpoint file."""


def save_checkpoint(params: dict[str, Parameter], path) -> None:
    parts = [struct.pack("<I", len(params))]
    for name, p in params.items():
        parts += [binfile.blob(name.encode("utf-8")), struct.pack("<4I", *p.shape),
                  np.ascontiguousarray(p.data, dtype="<f8"),
                  np.ascontiguousarray(p.momentum_buf, dtype="<f8"),
                  p.lock_mask.astype(np.uint8).tobytes()]
    binfile.write(path, HPRM_MAGIC, HPRM_VERSION, parts)


def load_checkpoint(path) -> dict[str, Parameter]:
    params: dict[str, Parameter] = {}
    with binfile.reader(path, HPRM_MAGIC, HPRM_VERSION, "checkpoint",
                        CheckpointFormatError) as f:
        (count,) = f.unpack("<I", "parameter count")
        for _ in range(count):
            try:
                name = f.blob("name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointFormatError(f"parameter name is not UTF-8: {e}") from e
            if name in params:
                raise CheckpointFormatError(f"parameter {name} appears twice")
            shape = f.unpack("<4I", "shape")
            value = f.array("<f8", shape, f"{name} values")
            momentum = f.array("<f8", shape, f"{name} momentum")
            if not (np.isfinite(value).all() and np.isfinite(momentum).all()):
                raise CheckpointFormatError(f"{name} holds non-finite values")
            lock = f.array(np.uint8, shape, f"{name} lock mask")
            if lock.max(initial=0) > 1:
                raise CheckpointFormatError(f"{name} lock mask holds values other than 0/1")
            p = Parameter(value, lock.astype(np.float64), name=name)
            p.momentum_buf = momentum
            params[name] = p
    return params


def load_into(params: dict[str, Parameter], path) -> None:
    """Load a checkpoint into an existing parameter dict, matching by name."""
    loaded = load_checkpoint(path)
    missing = set(params) - set(loaded)
    extra = set(loaded) - set(params)
    if missing or extra:
        raise CheckpointFormatError(
            f"checkpoint/model parameter mismatch: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}")
    for name, p in params.items():
        src = loaded[name]
        if src.shape != p.shape:
            raise CheckpointFormatError(
                f"parameter {name}: checkpoint shape {src.shape} vs model shape {p.shape}")
        if not np.array_equal(src.lock_mask, p.lock_mask):
            raise CheckpointFormatError(
                f"parameter {name}: checkpoint lock mask differs from the model's")
        p.data[...] = src.data
        p.momentum_buf[...] = src.momentum_buf
