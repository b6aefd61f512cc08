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

from mppsoc.errors import MppSocError, content_lines

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
    def __init__(self, key: str, token: str, line: int, why: str):
        super().__init__(f"bad value for '{key}': {token!r} ({why})", line)
        self.key = key
        self.token = token
        self.why = why


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


def _positive(value: int):
    if not isinstance(value, int) or value < 1:
        raise ValueError("must be an integer >= 1")


def _file_name(name: str):
    """The rule of ``mem_init``: a name that a config line holds whole
    (no ``#``) and a rerun of generate reads back from a VHDL string
    literal as one token (printable, no ``"`` or space)."""
    if not name:
        raise ValueError("must not be empty")
    if "#" in name or '"' in name or " " in name or not name.isprintable():
        raise ValueError("must not hold '#', '\"', whitespace or "
                         "unprintable characters")


def _charge(value: int):
    # A negative charge would run the clock backwards, and a charge
    # past 32 bits could make ``cycles`` too long to print.
    if not 0 <= value < 1 << 32:
        raise ValueError(f"must be in 0..{(1 << 32) - 1}")


def _check_fields(instance, rules: dict):
    """Apply each field's rule to its set value, naming the field."""
    for name, rule in rules.items():
        value = getattr(instance, name)
        if value is not None:
            try:
                rule(value)
            except ValueError as err:
                raise ValueError(f"{name} {err}") from None


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
        _check_fields(self, _CONFIG_RULES)

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
# One rule per checked field, which the constructor and the file reader
# both apply.
_CONFIG_RULES = {**dict.fromkeys(_REQUIRED_KEYS, _positive),
                 "mem_init": _file_name}


def _integer(token: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ValueError("expected an integer") from None


def _member(enum_cls):
    def parse(token: str):
        try:
            return enum_cls(token)
        except ValueError:
            valid = ", ".join(member.value for member in enum_cls)
            raise ValueError(f"expected one of: {valid}") from None
    return parse


# Key -> token parser, in the order serialize_config writes the keys.
_CONFIG_PARSERS = {
    "processor": _member(Processor),
    "methodology": _member(Methodology),
    **dict.fromkeys(_REQUIRED_KEYS, _integer),
    "neighborhood": _member(Neighborhood),
    "mpnoc": _member(MpNocKind),
    "mem_init": str,
}


def _read_kv(text: str, parsers: dict, rules: dict) -> dict:
    """The ``key = value`` lines of ``text``, each value parsed by its
    key's entry in ``parsers`` and checked by its rule, if it has one; a
    key set twice keeps its last value.  Raises UnknownKey or BadValue,
    both with the line number."""
    values = {}
    for lineno, line in content_lines(text):
        key, eq, token = line.partition("=")
        key, token = key.strip(), token.strip()
        if not eq or not key:
            raise BadValue(line.split()[0], line, lineno,
                           "expected 'key = value'")
        parse = parsers.get(key)
        if parse is None:
            raise UnknownKey(key, lineno)
        try:
            values[key] = parse(token)
            if key in rules:
                rules[key](values[key])
        except ValueError as err:
            raise BadValue(key, token, lineno, str(err)) from None
    return values


def parse_config(text: str) -> MppSoCConfig:
    """Parse configuration file text into an MppSoCConfig.

    Grammar: each line that ``content_lines`` keeps is ``key = value``
    with optional surrounding whitespace.  Unset optional keys take
    their defaults.  Each value meets its field's rule in MppSoCConfig.

    Raises UnknownKey, BadValue, MissingRequiredKey or NoNetworkSelected.
    """
    seen = _read_kv(text, _CONFIG_PARSERS, _CONFIG_RULES)
    for key in _REQUIRED_KEYS:
        if key not in seen:
            raise MissingRequiredKey(key)
    if "neighborhood" not in seen and "mpnoc" not in seen:
        raise NoNetworkSelected()
    return MppSoCConfig(**seen)


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
        _check_fields(self, _COST_RULES)

    @classmethod
    def from_text(cls, text: str) -> "CostModel":
        """Parse ``key = value`` lines; unset keys keep their defaults.

        Raises UnknownKey or BadValue, both with the line number.
        """
        return cls(**_read_kv(text, _COST_PARSERS, _COST_RULES))

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


# Every charge is in 0..2^32-1; boundary_value is any integer.
_COST_RULES = {f.name: _charge for f in fields(CostModel)
               if f.name != "boundary_value"}
_COST_PARSERS = {f.name: _integer for f in fields(CostModel)}


def serialize_config(config: MppSoCConfig) -> str:
    """Emit the canonical file form of a configuration: one line per set
    key, in the order of _CONFIG_PARSERS.

    parse_config(serialize_config(c)) == c for every config.
    """
    lines = []
    for key in _CONFIG_PARSERS:
        value = getattr(config, key)
        if value is not None:
            text = value.value if isinstance(value, enum.Enum) else value
            lines.append(f"{key} = {text}\n")
    return "".join(lines)
