"""HPRM checkpoint files: the values of named parameters.

Fields in the `binfile` container: parameter count u32, then per parameter a
UTF-8 name blob, 4 x u32 shape and float64 values. A file holds no lock mask
and no momentum: those come from the network that loads it, so a file cannot
change which entries a network may train. `load_checkpoint` returns float64
arrays by name, and `load_into` is the one way they enter a network.
"""

from __future__ import annotations

import struct

import numpy as np

from . import binfile

HPRM_MAGIC = b"HPRM"
HPRM_VERSION = 2


class CheckpointFormatError(ValueError):
    """Bad magic, unsupported version, truncated or malformed checkpoint file."""


def save_checkpoint(values: dict[str, np.ndarray], path) -> None:
    parts = [struct.pack("<I", len(values))]
    for name, value in values.items():
        parts += [binfile.blob(name.encode("utf-8")), struct.pack("<4I", *value.shape),
                  np.ascontiguousarray(value, dtype="<f8")]
    binfile.write(path, HPRM_MAGIC, HPRM_VERSION, parts)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    values: dict[str, np.ndarray] = {}
    with binfile.reader(path, HPRM_MAGIC, HPRM_VERSION, "checkpoint",
                        CheckpointFormatError) as f:
        (count,) = f.unpack("<I", "parameter count")
        for _ in range(count):
            try:
                name = f.blob("name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointFormatError(f"parameter name is not UTF-8: {e}") from e
            if name in values:
                raise CheckpointFormatError(f"parameter {name} appears twice")
            shape = f.unpack("<4I", "shape")
            value = f.array("<f8", shape, f"{name} values")
            if not np.isfinite(value).all():
                raise CheckpointFormatError(f"{name} holds non-finite values")
            values[name] = value
    return values


def load_into(params: dict, values: dict[str, np.ndarray]) -> None:
    """Copy `values` into the parameters of the same names once every name
    and shape matches; each parameter keeps its lock mask and momentum."""
    missing = params.keys() - values.keys()
    extra = values.keys() - params.keys()
    if missing or extra:
        raise CheckpointFormatError(
            f"checkpoint/model parameter mismatch: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}")
    for name, p in params.items():
        if (shape := values[name].shape) != p.shape:
            raise CheckpointFormatError(
                f"parameter {name}: checkpoint shape {shape} vs model shape {p.shape}")
    for name, p in params.items():
        p.data[...] = values[name]
