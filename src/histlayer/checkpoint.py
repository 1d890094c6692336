"""HPRM checkpoint files: named parameters with momentum and lock masks.

Little-endian layout: magic "HPRM", version u32, parameter count u32, then
per parameter: name length u32 + UTF-8 name, 4 x u32 shape, float64 values,
float64 momentum buffer, u8 lock mask.
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np

from .autodiff import Parameter
from .binfile import expect_end, read_exact

HPRM_MAGIC = b"HPRM"
HPRM_VERSION = 1


class CheckpointFormatError(ValueError):
    """Bad magic or malformed checkpoint file."""


class CheckpointVersionError(CheckpointFormatError):
    """Unsupported checkpoint version."""


class CheckpointTruncationError(CheckpointFormatError):
    """Checkpoint file ended before the declared payload."""


def save_checkpoint(params: dict[str, Parameter], path) -> None:
    buf = io.BytesIO()
    buf.write(HPRM_MAGIC)
    buf.write(struct.pack("<2I", HPRM_VERSION, len(params)))
    for name, p in params.items():
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<4I", *p.shape))
        buf.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
        buf.write(np.ascontiguousarray(p.momentum_buf, dtype="<f8").tobytes())
        buf.write(p.lock_mask.astype(np.uint8).tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def _read_exact(f, n: int, what: str) -> bytes:
    return read_exact(f, n, what, CheckpointTruncationError)


def load_checkpoint(path) -> dict[str, Parameter]:
    params: dict[str, Parameter] = {}
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != HPRM_MAGIC:
            raise CheckpointFormatError(f"bad magic {magic!r}, expected {HPRM_MAGIC!r}")
        version, count = struct.unpack("<2I", _read_exact(f, 8, "header"))
        if version != HPRM_VERSION:
            raise CheckpointVersionError(
                f"unsupported HPRM version {version}, expected {HPRM_VERSION}")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(f, 4, "name length"))
            try:
                name = _read_exact(f, name_len, "name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointFormatError(f"parameter name is not UTF-8: {e}") from e
            if name in params:
                raise CheckpointFormatError(f"parameter {name} appears twice")
            shape = struct.unpack("<4I", _read_exact(f, 16, "shape"))
            size = math.prod(shape)
            value = np.frombuffer(_read_exact(f, size * 8, f"{name} values"),
                                  dtype="<f8").reshape(shape).copy()
            momentum = np.frombuffer(_read_exact(f, size * 8, f"{name} momentum"),
                                     dtype="<f8").reshape(shape).copy()
            lock = np.frombuffer(_read_exact(f, size, f"{name} lock mask"),
                                 dtype=np.uint8).reshape(shape)
            if lock.max(initial=0) > 1:
                raise CheckpointFormatError(f"{name} lock mask holds values other than 0/1")
            p = Parameter(value, lock.astype(np.float64), name=name)
            p.momentum_buf = momentum
            params[name] = p
        expect_end(f, "checkpoint", CheckpointFormatError)
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
