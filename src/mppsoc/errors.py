"""Common exception base for the toolkit.

Every module-specific error derives from MppSocError so callers (notably
the CLI) can map failures to exit codes without enumerating modules.
"""

from __future__ import annotations

from pathlib import Path


class MppSocError(Exception):
    """Base class for all toolkit errors."""


def int_text(value: int) -> str:
    """``value`` in decimal for a message, or its size where Python
    refuses so long a decimal conversion (over 4300 digits by default)."""
    try:
        return str(value)
    except ValueError:
        return ("-" if value < 0 else "") + f"<{value.bit_length()}-bit integer>"


def read_text(path: Path, error: type[Exception]) -> str:
    """The UTF-8 text of ``path``; ``error`` saying ``PATH: cannot
    read: …`` when it does not decode."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeError as err:
        raise error(f"{path}: cannot read: {err}") from err
