"""Atomic CSV and summary artifacts.

:func:`write_csv` is the one place where values become CSV text: callers
name the columns, and every cell goes through :func:`fmt`.  All floats
are written with 17 significant digits so reruns of a deterministic
experiment produce byte-identical files; writes go through a temporary
file in the target directory followed by an atomic rename, so an
interrupted run never leaves a partial file at the final path.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, columns: dict) -> None:
    """The CSV of ``columns``: column name -> its values, one per row, in dict order.

    A numpy array goes out through ``.tolist()``: Python floats format
    faster than numpy scalars, and to the same text.  The final empty
    line ends the text with a newline without copying it.
    """
    values = [v.tolist() if isinstance(v, np.ndarray) else v for v in columns.values()]
    rows = (",".join(map(fmt, row)) for row in zip(*values, strict=True))
    atomic_write_text(path, "\n".join([",".join(columns), *rows, ""]))


def verdict_block(title: str, verdicts: dict) -> str:
    lines = [title]
    for name, passed in verdicts.items():
        lines.append(f"  [{'PASS' if passed else 'FAIL'}] {name}")
    overall = all(verdicts.values()) if verdicts else True
    lines.append(f"overall: {'PASS' if overall else 'FAIL'}")
    return "\n".join(lines) + "\n"
