"""Atomic text output: a reader of an output file sees the previous file
or the complete new one, never a partial write."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path):
    """Open `path` for writing UTF-8 text through a temporary file in the
    same directory, which os.replace moves onto `path` when the block
    ends normally. If the block raises, the temporary file is removed
    and a previous file at `path` stays as it was."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
