"""File output shared by every writer in the package: the atomic writer and
the canonical JSON rendering.

A file is written under a unique temporary name in its target directory and
renamed over the target, so readers see the old file or the whole new one,
and two runs writing into one directory never share a temporary file.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from collections.abc import Iterator
from typing import BinaryIO


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def atomic_file(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """Yield a binary file whose contents replace `path` when the block ends.

    The file gets the mode a plain open() would give it (0o666 less the
    umask). If the block or the rename raises, the temporary file is removed
    and the target is left as it was.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(dir=directory or ".", prefix=f".{name}.", suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            yield fh
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def write_atomic(path: str | os.PathLike, payload: bytes) -> None:
    """Write `payload` to `path` atomically (see atomic_file)."""
    with atomic_file(path) as fh:
        fh.write(payload)


def canonical_json(obj) -> bytes:
    """`obj` as compact ASCII JSON: no spaces after separators, non-ASCII
    characters escaped, keys in insertion order."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True).encode("ascii")
