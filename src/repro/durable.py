"""Crash-safe file primitives under every on-disk store.

The sweep result store, the persistent layer cache and search checkpoints
keep only their formats; their durability rules are written once, here:

* :func:`append` writes whole lines as one ``write`` on an ``O_APPEND``
  descriptor, so concurrent writers never interleave bytes within a line.
  A file left mid-line by a writer that died is first closed with a
  newline, so one crash never corrupts two records.  A writer that looks
  while another's multi-page write is landing may close a line that was
  not partial: readers skip the blank line this leaves.
* :func:`replace` writes ``<name>.<pid>.tmp``, fsyncs it and renames it
  over the file, so readers and crashes see the old or the new content,
  and processes replacing one file at once never share a temp file.
* :func:`quarantine` renames a damaged file to ``<name><suffix>``, or to
  ``.1``, ``.2``, ... after it when that is taken: no copy is overwritten.

Every write loops until all bytes are taken: a short write never truncates
a record.  ``os`` calls are looked up at call time, so tests can wrap them.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Tuple, Union


def _write_all(descriptor: int, data) -> None:
    """Write every byte of ``data``, looping over short writes."""
    view = memoryview(data)
    while view:
        view = view[os.write(descriptor, view) :]


def open_log(path: Union[str, Path]) -> int:
    """Create and open ``path`` for :func:`append`: read-write, as it preads."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)


def append(descriptor: int, data: bytes, fsync: bool = False) -> Tuple[int, int, bool]:
    """Append whole lines to an :func:`open_log` descriptor in one ``write``.

    Returns the offset the write landed at, the length (0 or 1) of the
    newline written ahead of ``data`` to close a partial last line, and
    whether the first ``write`` took every byte: only then can no other
    writer's bytes sit inside the appended range.
    """
    size = os.fstat(descriptor).st_size
    newline = int(size > 0 and os.pread(descriptor, 1, size - 1) != b"\n")
    if newline:
        data = b"\n" + data
    written = os.write(descriptor, data)
    # O_APPEND placed the write at the end of the file as it stood then,
    # past anything another writer appended since the fstat; the offset
    # now sits right after the bytes written.
    start = os.lseek(descriptor, 0, os.SEEK_CUR) - written
    _write_all(descriptor, memoryview(data)[written:])
    if fsync:
        os.fsync(descriptor)
    return start, newline, written == len(data)


def replace(path: Union[str, Path], data: bytes) -> None:
    """Atomically make ``data`` the whole content of ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    descriptor = os.open(staging, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        _write_all(descriptor, data)
        os.fsync(descriptor)
    finally:
        os.close(descriptor)
    os.replace(staging, path)


def quarantine(path: Union[str, Path], suffix: str) -> Path:
    """Rename ``path`` to its first free quarantine name, and return it."""
    path = Path(path)
    target = path.with_name(path.name + suffix)
    number = 0
    while target.exists():
        number += 1
        target = path.with_name(f"{path.name}{suffix}.{number}")
    os.replace(path, target)
    return target
