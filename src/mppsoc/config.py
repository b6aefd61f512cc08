"""Machine configuration model.

Defines the architecture description (PE grid, memory sizes, network
choices), the per-operation cycle charges (CostModel), the line-oriented
``key = value`` file format both are read from, and memory geometry
derivation (word count and address width).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from mppsoc.errors import MppSocError

if TYPE_CHECKING:
    from mppsoc.mpnoc import MpNocNetwork

# All supported processor IPs are 32-bit machines.
WORD_BYTES = 4


class Processor(enum.Enum):
    """Processor IP used for the ACU and PEs (metadata only)."""

    MINIMIPS = "minimips"
    MIPS = "mips"
    NIOS = "nios"


class Methodology(enum.Enum):
    """How PEs are derived from the main processor."""

    REDUCTION = "reduction"
    REPLICATION = "replication"


class Neighborhood(enum.Enum):
    """Compile-time neighbourhood network topology."""

    LINEAR = "linear"
    RING = "ring"
    MESH2D = "mesh2d"
    TORUS2D = "torus2d"
    XNET = "xnet"


class MpNocKind(enum.Enum):
    """Internal network of the global router."""

    SHARED_BUS = "sharedbus"
    CROSSBAR = "crossbar"
    DELTA_OMEGA = "delta-omega"
    DELTA_BASELINE = "delta-baseline"
    DELTA_BUTTERFLY = "delta-butterfly"


DELTA_KINDS = frozenset(
    {MpNocKind.DELTA_OMEGA, MpNocKind.DELTA_BASELINE, MpNocKind.DELTA_BUTTERFLY}
)

ONE_D_NEIGHBORHOODS = frozenset({Neighborhood.LINEAR, Neighborhood.RING})
TWO_D_NEIGHBORHOODS = frozenset(
    {Neighborhood.MESH2D, Neighborhood.TORUS2D, Neighborhood.XNET}
)


class ConfigError(MppSocError):
    """Problem in a configuration file or value."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class UnknownKey(ConfigError):
    def __init__(self, name: str, line: int):
        super().__init__(f"unknown key '{name}'", line)
        self.name = name


class BadValue(ConfigError):
    def __init__(self, key: str, token: str, line: int | None = None, why: str = ""):
        detail = f" ({why})" if why else ""
        super().__init__(f"bad value for '{key}': {token!r}{detail}", line)
        self.key = key
        self.token = token


class MissingRequiredKey(ConfigError):
    def __init__(self, key: str):
        super().__init__(f"missing required key '{key}'")
        self.key = key


class NoNetworkSelected(ConfigError):
    def __init__(self):
        super().__init__(
            "no network selected: at least one of 'neighborhood' and 'mpnoc' "
            "must be set"
        )


class NotDivisible(ConfigError):
    def __init__(self, nbytes: int, word_bytes: int):
        super().__init__(f"{nbytes} bytes is not a multiple of the {word_bytes}-byte word")
        self.nbytes = nbytes
        self.word_bytes = word_bytes


def _is_vhdl_file_name(name: str) -> bool:
    """Whether ``name`` can be spliced into a VHDL string literal that a
    rerun of generate reads back as one whitespace token: printable and
    free of ``"`` and spaces (every other whitespace is unprintable)."""
    return '"' not in name and " " not in name and name.isprintable()


@dataclass(frozen=True)
class MppSoCConfig:
    """One fully specified machine configuration.

    ``rows``/``cols`` give the PE grid; memory sizes are in bytes.  Both
    networks are optional at the type level; the file parser rejects
    configurations that select neither (an unrunnable machine).
    """

    rows: int
    cols: int
    acu_mem_bytes: int
    pe_mem_bytes: int
    processor: Processor = Processor.MINIMIPS
    methodology: Methodology = Methodology.REDUCTION
    neighborhood: Neighborhood | None = None
    mpnoc: MpNocKind | None = None
    mem_init: str | None = None

    def __post_init__(self):
        for name in ("rows", "cols", "acu_mem_bytes", "pe_mem_bytes"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.mem_init is not None and not _is_vhdl_file_name(self.mem_init):
            raise ValueError("mem_init must not hold '\"', whitespace or "
                             f"unprintable characters, got {self.mem_init!r}")

    @property
    def n_pes(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class MemoryGeometry:
    """Word count and address width of one memory."""

    words: int
    addr_width: int

    def __post_init__(self):
        if self.words < 1:
            raise ValueError("words must be >= 1")
        if self.addr_width < 1 or (1 << self.addr_width) < self.words:
            raise ValueError("addr_width cannot address all words")


def derive_geometry(nbytes: int, word_bytes: int = WORD_BYTES) -> MemoryGeometry:
    """Turn a byte size into (words, addr_width).

    ``addr_width`` is ceil(log2(words)), clamped to 1 so a one-word memory
    still gets a non-empty address vector.  Raises NotDivisible when the
    byte size is not a whole number of words.
    """
    if word_bytes < 1 or nbytes < 1:
        raise ValueError("sizes must be positive")
    if nbytes % word_bytes != 0:
        raise NotDivisible(nbytes, word_bytes)
    words = nbytes // word_bytes
    addr_width = max(1, (words - 1).bit_length())
    return MemoryGeometry(words=words, addr_width=addr_width)


_REQUIRED_KEYS = ("rows", "cols", "acu_mem_bytes", "pe_mem_bytes")
_INT_KEYS = frozenset(_REQUIRED_KEYS)
_ENUM_KEYS = {
    "processor": Processor,
    "methodology": Methodology,
    "neighborhood": Neighborhood,
    "mpnoc": MpNocKind,
}


def _kv_lines(text: str):
    """Yield (lineno, key, value) for each ``key = value`` line.

    Blank lines and ``#`` comments are skipped; whitespace around key and
    value is dropped.  Raises BadValue for a line without ``=`` or with an
    empty key.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise BadValue(line.split()[0], line, lineno,
                           "expected 'key = value'")
        yield lineno, key, value.strip()


def _parse_int(key: str, token: str, line: int) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise BadValue(key, token, line, "expected an integer") from None


def _parse_enum(key: str, token: str, line: int, enum_cls):
    try:
        return enum_cls(token)
    except ValueError:
        valid = ", ".join(member.value for member in enum_cls)
        raise BadValue(key, token, line, f"expected one of: {valid}") from None


def parse_config(text: str) -> MppSoCConfig:
    """Parse configuration file text into an MppSoCConfig.

    Grammar: each line is blank, a ``#`` comment, or ``key = value`` with
    optional surrounding whitespace.  Unset optional keys take their
    defaults.  When the same key appears twice the last occurrence wins.

    ``mem_init`` must be printable and free of ``"`` and whitespace.

    Raises UnknownKey, BadValue, MissingRequiredKey or NoNetworkSelected.
    """
    seen: dict[str, object] = {}
    for lineno, key, value in _kv_lines(text):
        if key in _INT_KEYS:
            seen[key] = _parse_int(key, value, lineno)
            if seen[key] < 1:
                raise BadValue(key, value, lineno, "must be >= 1")
        elif key in _ENUM_KEYS:
            seen[key] = _parse_enum(key, value, lineno, _ENUM_KEYS[key])
        elif key == "mem_init":
            if not value:
                raise BadValue(key, value, lineno, "empty file name")
            if not _is_vhdl_file_name(value):
                raise BadValue(key, value, lineno, "must not hold '\"', "
                               "whitespace or unprintable characters")
            seen[key] = value
        else:
            raise UnknownKey(key, lineno)

    for key in _REQUIRED_KEYS:
        if key not in seen:
            raise MissingRequiredKey(key)
    if "neighborhood" not in seen and "mpnoc" not in seen:
        raise NoNetworkSelected()
    return MppSoCConfig(**seen)  # type: ignore[arg-type]


@dataclass
class CostModel:
    """Per-operation cycle charges.  Every field is overridable through a
    ``key = value`` file (see from_text)."""

    issue_cycles: int = 1        # every broadcast instruction
    op_cycles: int = 1           # ADD / LD / ST execute stage
    hop_cycles: int = 1          # one parallel neighbour hop
    noc_pass_base: int = 4       # per routing stage of one router pass
    bus_pass_cycles: int = 1     # one shared-bus grant
    noc_config_cycles: int = 1   # router mode switch per transfer
    boundary_value: int = 0      # received at array edges on non-wrapping nets

    def __post_init__(self):
        # A negative charge would run the clock backwards, and a charge
        # past 32 bits could make ``cycles`` too long to print.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "boundary_value" and not 0 <= value < 1 << 32:
                raise ValueError(f"{f.name} must be in 0..{(1 << 32) - 1}")

    @classmethod
    def from_text(cls, text: str) -> "CostModel":
        """Parse ``key = value`` lines; unset keys keep their defaults.

        Raises UnknownKey or BadValue, both with the line number.
        """
        names = {f.name for f in fields(cls)}
        values = {}
        for lineno, key, token in _kv_lines(text):
            if key not in names:
                raise UnknownKey(key, lineno)
            value = _parse_int(key, token, lineno)
            try:
                cls(**{key: value})  # __post_init__ holds the range rule
            except ValueError as err:
                raise BadValue(key, token, lineno, str(err)) from None
            values[key] = value
        return cls(**values)

    def noc_pass_cycles(self, net: MpNocNetwork) -> int:
        """Transit cycles of one router pass: noc_pass_base per routing
        stage (delta stage count, or the equivalent arbitration depth of
        the crossbar).  The shared bus charges per grant instead."""
        if net.kind is MpNocKind.SHARED_BUS:
            return self.bus_pass_cycles
        depth = max(1, (net.ports - 1).bit_length())
        return self.noc_pass_base * depth

    def noc_cycles(self, net: MpNocNetwork, passes: int) -> int:
        """Cycles of one router transfer that took ``passes`` passes:
        each pass's transit plus one configuration charge, so an empty
        transfer still pays the mode switch."""
        return passes * self.noc_pass_cycles(net) + self.noc_config_cycles


def serialize_config(config: MppSoCConfig) -> str:
    """Emit the canonical file form of a configuration.

    parse_config(serialize_config(c)) == c for every parseable config.
    """
    lines = [
        f"processor = {config.processor.value}",
        f"methodology = {config.methodology.value}",
        f"rows = {config.rows}",
        f"cols = {config.cols}",
        f"acu_mem_bytes = {config.acu_mem_bytes}",
        f"pe_mem_bytes = {config.pe_mem_bytes}",
    ]
    if config.neighborhood is not None:
        lines.append(f"neighborhood = {config.neighborhood.value}")
    if config.mpnoc is not None:
        lines.append(f"mpnoc = {config.mpnoc.value}")
    if config.mem_init is not None:
        lines.append(f"mem_init = {config.mem_init}")
    return "\n".join(lines) + "\n"
