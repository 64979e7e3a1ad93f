"""Atomic CSV and summary artifacts.

All floats are written with 17 significant digits so reruns of a
deterministic experiment produce byte-identical files; writes go through
a temporary file in the target directory followed by an atomic rename,
so an interrupted run never leaves a partial file at the final path.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable


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


def write_csv(path: str, header: list[str], rows: Iterable[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def verdict_block(title: str, verdicts: dict) -> str:
    lines = [title]
    for name, passed in verdicts.items():
        lines.append(f"  [{'PASS' if passed else 'FAIL'}] {name}")
    overall = all(verdicts.values()) if verdicts else True
    lines.append(f"overall: {'PASS' if overall else 'FAIL'}")
    return "\n".join(lines) + "\n"
