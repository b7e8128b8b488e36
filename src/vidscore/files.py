"""File I/O policy shared by every stage.

An unreadable input raises the caller's error class, so each stage exits with
its own code. Artifacts are written to a temp file beside the target and
renamed over it once complete, so a failed stage leaves no half-written file.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager, suppress
from typing import Optional, Tuple

from .errors import ConfigError

NUMBER = (int, float)  # the kinds of a JSON number: a bool is neither


def read_input(path: str, error: type, what: str, binary: bool = False):
    """Return the file's bytes, or its UTF-8 text with universal newlines."""
    try:
        with open(path, "rb" if binary else "r", encoding=None if binary else "utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_json(path: str, error: type, what: str, kind: type = dict):
    """Parse a JSON file whose top-level value must be a ``kind``."""
    try:
        doc = json.loads(read_input(path, error, what))
    except (RecursionError, ValueError) as exc:
        # JSONDecodeError, an integer too long to convert, or nesting too deep
        raise error(f"bad {what} {path}: {exc}") from exc
    if not isinstance(doc, kind):
        raise error(f"{what} {path} must hold a JSON {kind.__name__}")
    return doc


def typed(value, kind: type, length: Optional[int] = None):
    """``value`` if its type is exactly ``kind`` (so a JSON float or bool is
    no int) and, when ``length`` is given, it has that many items. The error
    quotes at most 80 characters of a value, which may be a whole document."""
    if type(value) is not kind or (length is not None and len(value) != length):
        size = "" if length is None else f" of {length}"
        raise TypeError(f"expected a {kind.__name__}{size}, got {value!r:.80}")
    return value


def ints(value, length: Optional[int] = None) -> Tuple[int, ...]:
    return tuple(typed(item, int) for item in typed(value, list, length))


def artifact_record(path: str) -> dict:
    """An artifact's path, byte size and sha256, read in 1 MB chunks."""
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    return {"path": path, "bytes": os.path.getsize(path), "sha256": sha.hexdigest()}


@contextmanager
def staged(path: str, tmp: str):
    """Yield ``tmp`` and rename it over ``path`` when the block completes. On
    any failure the temp file is removed and ``path`` keeps its previous
    contents; OSError becomes ConfigError."""
    try:
        yield tmp
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        with suppress(OSError):
            os.remove(tmp)  # gone already after a successful replace


@contextmanager
def publish(path: str, binary: bool = False):
    """Yield a file open on ``<path>.tmp``, staged over ``path``. A binary
    file is open for reading too, so a writer can read back what it wrote."""
    with staged(path, path + ".tmp") as tmp:
        with open(tmp, "w+b" if binary else "w", encoding=None if binary else "utf-8") as fh:
            yield fh


@contextmanager
def publish_after(path: str, text: str):
    """Write ``text`` to ``<path>.tmp`` before the block and rename it over
    ``path`` once the block completes, so a file the block publishes and
    this one are both written before either is renamed."""
    with staged(path, path + ".tmp") as tmp:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        yield
