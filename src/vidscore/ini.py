"""Line-level scanner for the INI dialect used by plans and config files.

The dialect is deliberately small: UTF-8 text, ``[section]`` headers,
``key = value`` pairs, blank lines, and comments starting with ``#`` or ``;``.
The scanner keeps line numbers so callers can report exactly where a document
went wrong.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .errors import PlanParseError

# (line_number, section_or_None, key_or_None, value_or_None); a header line
# yields (lineno, section, None, None), a pair yields (lineno, section, k, v)
IniItem = Tuple[int, Optional[str], Optional[str], Optional[str]]


def iter_ini(text: str) -> Iterator[IniItem]:
    """Scan ``text`` into IniItems. A key given twice in one block, counting
    every header with that block's name, raises at its second line."""
    section = None
    seen = set()  # (section, key) pairs already given
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise PlanParseError(f"malformed section header {raw!r}", line=lineno)
            section = line[1:-1].strip()
            yield (lineno, section, None, None)
            continue
        if "=" not in line:
            raise PlanParseError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise PlanParseError(f"missing key in {raw!r}", line=lineno)
        if section is None:
            raise PlanParseError(
                f"key {key!r} appears before any [section] header", line=lineno
            )
        if (section, key) in seen:
            raise PlanParseError(f"key {key!r} given twice in [{section}]", line=lineno)
        seen.add((section, key))
        yield (lineno, section, key, value)
