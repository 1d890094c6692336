"""The container of HCTX dataset and HPRM checkpoint files: a 4-byte magic, a
u32 version, then the format's fields in order and nothing after them, all
little-endian. A field is a struct, a blob (u32 byte count, then the bytes) or
a raw C-order array. A read past the end of the file raises before reading, so
a hostile length cannot make the reader allocate, and a read that returns
fewer bytes than asked, from a file that shrank while open, raises the same
truncation error. The writer writes the fields one by one and the reader reads
an array straight into its buffer, so neither holds a second copy of a
file."""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np


def blob(data: bytes) -> bytes:
    """Encode `data` as a blob field."""
    return struct.pack("<I", len(data)) + data


def write(path, magic: bytes, version: int, parts) -> None:
    """Write `magic`, `version` and the encoded fields `parts` (bytes, or
    C-contiguous arrays of the field's dtype) to `path`, one at a time, so no
    joined copy of the file is made."""
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<I", version))
        for part in parts:
            f.write(part)


class Reader:
    """Bounded reads of the fields of an open file; made by `reader`."""

    def __init__(self, f, error: type[Exception]):
        self._f = f
        self._error = error
        self.left = os.fstat(f.fileno()).st_size

    def _claim(self, n: int, what: str) -> None:
        if n > self.left:
            raise self._error(f"file truncated while reading {what}: "
                              f"wanted {n} bytes, {self.left} left")
        self.left -= n

    def _check(self, got: int, n: int, what: str) -> None:
        # the file may have shrunk since its size was taken
        if got != n:
            raise self._error(f"file truncated while reading {what}: "
                              f"wanted {n} bytes, read {got}")

    def read(self, n: int, what: str) -> bytes:
        self._claim(n, what)
        data = self._f.read(n)
        self._check(len(data), n, what)
        return data

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def blob(self, what: str) -> bytes:
        (n,) = self.unpack("<I", f"{what} length")
        return self.read(n, what)

    def array(self, dtype, shape, what: str) -> np.ndarray:
        n = math.prod(shape) * np.dtype(dtype).itemsize
        self._claim(n, what)
        out = np.empty(shape, dtype=dtype)
        self._check(self._f.readinto(out), n, what)   # read once, into place
        return out


@contextlib.contextmanager
def reader(path, magic: bytes, version: int, what: str, error: type[Exception]):
    """Check the magic and version of the `what` file at `path`, then yield a
    `Reader`; every format fault raises `error`."""
    with open(path, "rb") as f:
        r = Reader(f, error)
        found = r.read(len(magic), "magic")
        if found != magic:
            raise error(f"bad magic {found!r}, expected {magic!r}")
        (found,) = r.unpack("<I", "version")
        if found != version:
            raise error(f"unsupported {magic.decode()} version {found}, "
                        f"expected {version}")
        yield r
        if r.left:
            raise error(f"{r.left} unexpected bytes after the end of the {what}")
