"""Common exception base and text front end for the toolkit.

Every module-specific error derives from MppSocError so callers (notably
the CLI) can map failures to exit codes without enumerating modules.
Text inputs break into lines by ``split_lines`` and, templates aside,
are read through ``content_lines``.  Config, cost-model and assembly
integers are read through ``decimal_int``.
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


def decimal_int(token: str) -> int:
    """The integer that ``token`` spells as an optional sign and ASCII
    digits, the one integer form of config, cost-model and assembly
    text; ValueError for anything else, such as the ``_`` separators and
    non-ASCII digits that ``int`` also takes."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if digits.isascii() and digits.isdigit():
        try:
            return int(token)
        except ValueError:  # past Python's limit on decimal digits
            pass
    raise ValueError("expected an integer")


def read_text(path: Path, error: type[Exception]) -> str:
    """The UTF-8 text of ``path``, read whole by ``read_blocks``."""
    return "".join(read_blocks(path, error, -1))


def read_blocks(path: Path, error: type[Exception], size: int):
    """The UTF-8 text of ``path`` in blocks of ``size`` characters, or
    whole if ``size`` is negative; ``error`` saying ``PATH: cannot read:
    …`` when it cannot be opened or a block does not decode."""
    try:
        with path.open(encoding="utf-8") as file:
            yield from iter(lambda: file.read(size), "")
    except (OSError, UnicodeError) as err:
        raise error(f"{path}: cannot read: {err}") from err


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, broken only at ``\\n``, ``\\r\\n`` and
    ``\\r``, as an editor numbers them (unlike ``str.splitlines``)."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def content_lines(text: str):
    """Yield ``(lineno, content)`` for every line of ``text`` that holds
    more than a comment: a ``#`` starts a comment that runs to the end
    of its line, and the rest is stripped of surrounding whitespace."""
    for lineno, line in enumerate(split_lines(text), 1):
        content = line.partition("#")[0].strip()
        if content:
            yield lineno, content
