"""HPRM checkpoint files: the values of named parameters.

Fields in the `binfile` container: parameter count u32, then per parameter a
UTF-8 name blob, 4 x u32 shape and float64 values. A file holds no lock mask
and no momentum: those come from the network that loads it, so a file cannot
change which entries a network may train.
"""

from __future__ import annotations

import struct

import numpy as np

from . import binfile
from .autodiff import Parameter

HPRM_MAGIC = b"HPRM"
HPRM_VERSION = 2


class CheckpointFormatError(ValueError):
    """Bad magic, unsupported version, truncated or malformed checkpoint file."""


def save_checkpoint(params: dict[str, Parameter], path) -> None:
    parts = [struct.pack("<I", len(params))]
    for name, p in params.items():
        parts += [binfile.blob(name.encode("utf-8")), struct.pack("<4I", *p.shape),
                  np.ascontiguousarray(p.data, dtype="<f8")]
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
            if not np.isfinite(value).all():
                raise CheckpointFormatError(f"{name} holds non-finite values")
            params[name] = Parameter(value, name=name)
    return params


def load_into(params: dict[str, Parameter], path) -> None:
    """Copy a checkpoint's values into an existing parameter dict, matching
    by name; each parameter keeps its own lock mask and momentum."""
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
        p.data[...] = src.data
