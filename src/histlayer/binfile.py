"""Bounded reads and the end-of-file check shared by the HCTX dataset and
HPRM checkpoint readers."""

from __future__ import annotations

import os


def read_exact(f, n: int, what: str, error: type[Exception]) -> bytes:
    """Read exactly `n` bytes of `what` from the open binary file `f`.

    A declared length beyond the end of the file raises `error` before
    anything is read, so a hostile header cannot make the reader allocate.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise error(f"file truncated while reading {what}: "
                    f"wanted {n} bytes, {left} left")
    return f.read(n)


def expect_end(f, what: str, error: type[Exception]) -> None:
    """Raise `error` unless the open binary file `f` is fully consumed."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left:
        raise error(f"{left} unexpected bytes after the end of the {what}")
