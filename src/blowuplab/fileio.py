"""Atomic text output: a reader of an output file sees the previous file
or the complete new one, never a partial write. The one CSV format: `# `
comment lines, a header, comma-joined cells, floats by repr (read back
bit for bit by float())."""

from __future__ import annotations

import contextlib
import os

import numpy as np


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


def cell(v) -> str:
    """A CSV cell: any float, numpy's too, as repr(float(v)), else str(v)."""
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def write_csv(path, columns, rows, comments=()):
    """Write the `comments`, the header and `rows` through atomic_open.
    `rows` holds sequences of cells, or is a 2D numeric array, whose
    .tolist() values fill a `%r` template with no per-cell type test, so a
    large field costs what per-row f-strings cost. Blocks of 1024 rows keep
    each string small: one string for a 119 x 119 field was slower."""
    with atomic_open(path) as fh:
        fh.write("".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n")
        if not isinstance(rows, np.ndarray):
            fh.write("".join([",".join(map(cell, row)) + "\n" for row in rows]))
            return
        line = ",".join(["%r"] * len(columns)) + "\n"
        for i in range(0, len(rows), 1024):
            block = rows[i:i + 1024]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def read_csv(path):
    """(comments without their `# `, header, rows as dicts of cell strings)
    of a file in the format of write_csv. Blank lines are skipped; a row
    whose length differs from the header's raises ValueError."""
    comments, header, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if line.startswith("#"):
                comments.append(line[2:] if line.startswith("# ") else line[1:])
            elif not line.strip():
                continue
            elif header is None:
                header = line.split(",")
            elif len(cells := line.split(",")) == len(header):
                rows.append(dict(zip(header, cells)))
            else:
                raise ValueError(f"line {n}: {len(cells)} cells, not {len(header)}")
    return comments, header or [], rows
