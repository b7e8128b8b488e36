"""File I/O policy shared by every stage.

An unreadable input raises the caller's error class, so each stage exits with
its own code. Artifacts are written to a temp file beside the target and
renamed over it once complete, so a failed stage leaves no half-written file.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress

from .errors import ConfigError


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
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise error(f"bad {what} {path}: {exc}") from exc
    if not isinstance(doc, kind):
        raise error(f"{what} {path} must hold a JSON {kind.__name__}")
    return doc


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
    """Yield a file open on ``<path>.tmp``, staged over ``path``."""
    with staged(path, path + ".tmp") as tmp:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            yield fh
