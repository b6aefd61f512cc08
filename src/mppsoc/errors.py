"""Common exception base for the toolkit.

Every module-specific error derives from MppSocError so callers (notably
the CLI) can map failures to exit codes without enumerating modules.
"""


class MppSocError(Exception):
    """Base class for all toolkit errors."""


def int_text(value: int) -> str:
    """``value`` in decimal for a message, or its size where Python
    refuses so long a decimal conversion (over 4300 digits by default)."""
    try:
        return str(value)
    except ValueError:
        return ("-" if value < 0 else "") + f"<{value.bit_length()}-bit integer>"
