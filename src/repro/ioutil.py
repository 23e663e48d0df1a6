"""Atomic artifact writes (temp file + ``os.replace``), checked reads.

Every artifact the repo persists (``BENCH_*.json``,
flight-recorder dumps, reference baselines, markdown reports) goes through
these helpers so an interrupted or killed run can never leave a
truncated file behind: the content lands in a temp file in the target
directory, is flushed and fsynced, and only then renamed over the
destination — a single atomic step on POSIX filesystems. On any
failure the temp file is removed and the previous artifact (if one
existed) is untouched. Reading a file the user named goes through
:func:`read_json`, which turns "missing" and "not JSON" into a
:class:`UsageError`.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, TextIO

__all__ = ["UsageError", "read_json", "atomic_open", "atomic_write_text",
           "atomic_write_json"]


class UsageError(Exception):
    """A flag value, scenario name or file from the command line is
    unusable; ``python -m repro`` prints the message and exits 2."""


def read_json(path: str | Path) -> Any:
    """The JSON document in a file the user named."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """Open a temp file for writing; rename it over ``path`` on success.

    The temp file lives in the destination directory (``os.replace``
    must not cross filesystems). If the body raises, the temp file is
    deleted and ``path`` keeps its previous content.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(target) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Atomically write ``text`` to ``path``."""
    with atomic_open(path) as fh:
        fh.write(text)


def atomic_write_json(path: str | Path, doc: Any, *, indent: int | None = 2,
                      sort_keys: bool = True) -> None:
    """Atomically write ``doc`` as JSON (trailing newline included);
    what JSON cannot hold is written as its ``str``."""
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=indent, sort_keys=sort_keys, default=str)
        fh.write("\n")
