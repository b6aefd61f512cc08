"""VHDL template rewriting and output generation.

The generator never parses VHDL properly.  It tokenizes each template
line on whitespace, finds lines whose first token is a known anchor
(``constant``, ``init_file``, ``numwords_a``, ``widthad_a``,
``address``), and splices a new value into the token right after the
line's delimiter token (``:=``, ``=>``, or ``STD_LOGIC_VECTOR`` for the
address port range).  Every byte outside the replaced value is
preserved, so regenerating over generated output is a no-op.

A template compiles once into value slots: on first use of an (anchor,
delimiter) pair it indexes the lines the anchor starts and keeps, for
each, its second token and the text before and after the value core.
The first action to select a line then writes it as head + value +
tail, with no tokenizing; a later action on a line already changed runs
``rewrite_line`` on it.  The bundled templates are read once per
process, so a process compiles each of their slots once.
"""

from __future__ import annotations

import functools
import re
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from mppsoc.config import (
    WORD_BYTES,
    MppSoCConfig,
    Neighborhood,
    derive_geometry,
)
from mppsoc.errors import (
    MppSocError,
    content_lines,
    int_text,
    read_text,
    split_lines,
)

TEMPLATE_FILES = (
    "user_library.vhd",
    "pack_mppsoc.vhd",
    "mapping_mppsoc.vhd",
    "mem_acu.vhd",
    "mem_pe.vhd",
)

# VHDL spelling of each neighbourhood selector; the template default is NONE.
TOPOLOGY_CONSTANTS = {
    Neighborhood.LINEAR: "LINEAR",
    Neighborhood.RING: "RING",
    Neighborhood.MESH2D: "MESH",
    Neighborhood.TORUS2D: "TORUS",
    Neighborhood.XNET: "XNET",
}

_TOKEN_RE = re.compile(r"[^ \t\r\n]+")
# A value token may carry an opening-paren prefix (vector ranges) and a
# punctuation suffix (trailing ";", "," or ")"), both preserved verbatim.
_VALUE_TOKEN_RE = re.compile(r"^(\(*)(.*?)([;,)]*)$")

_ALLOWED_DELIMITERS = (":=", "=>", "STD_LOGIC_VECTOR")

# The largest value a VHDL ``integer`` is guaranteed to hold (IEEE 1076).
VHDL_INTEGER_MAX = (1 << 31) - 1


class RewriteError(MppSocError):
    pass


class DelimiterNotFound(RewriteError):
    def __init__(self, action: "RewriteAction", line: str):
        super().__init__(
            f"anchor '{action.anchor}' matched but no '{action.delimiter}' "
            f"delimiter (or no value after it) on line: {line.strip()!r}")
        self.action = action
        self.line = line


class AnchorNeverMatched(RewriteError):
    def __init__(self, action: "RewriteAction", file_name: str):
        name = f" '{action.target_name}'" if action.target_name else ""
        super().__init__(
            f"no line in {file_name} matched anchor '{action.anchor}'{name}")
        self.action = action
        self.file_name = file_name


class TemplateMissing(RewriteError):
    def __init__(self, file_name: str, directory: Path):
        super().__init__(f"template {file_name} not found in {directory}")
        self.file_name = file_name


class MemoryImageError(RewriteError):
    pass


class IntegerOutOfRange(RewriteError):
    def __init__(self, name: str, value: int):
        super().__init__(f"{name} = {int_text(value)} does not fit a VHDL "
                         f"integer (at most {VHDL_INTEGER_MAX})")
        self.name = name
        self.value = value


def tokenize_line(line: str) -> list[str]:
    """Split a line into whitespace-delimited tokens.

    Tokens are maximal runs of non-whitespace characters; the delimiter
    set is space, tab, newline and carriage return.  Empty input gives
    an empty list.
    """
    return _TOKEN_RE.findall(line)


@dataclass(frozen=True)
class RewriteAction:
    """One anchored substitution.

    ``anchor`` must equal the line's first token.  For ``constant``
    lines ``target_name`` selects which constant (compared
    case-insensitively, the way the templates' VHDL reads).  The value
    spliced in replaces the token right after ``delimiter``.
    """

    anchor: str
    delimiter: str
    new_value: str
    target_name: str | None = None

    def __post_init__(self):
        if self.delimiter not in _ALLOWED_DELIMITERS:
            raise ValueError(f"unsupported delimiter {self.delimiter!r}")
        if not self.new_value:
            raise ValueError("new_value must be non-empty")


@dataclass(frozen=True)
class TemplateFile:
    """A template's lines, newline-normalized on load (CRLF -> LF)."""

    name: str
    lines: tuple[str, ...]

    @functools.cached_property
    def lines_by_first_token(self) -> dict[str, list[int]]:
        """First token -> numbers of the lines it starts, in file order;
        built on first use, so a cached template pays for it once."""
        index: dict[str, list[int]] = {}
        for number, line in enumerate(self.lines):
            first = _TOKEN_RE.search(line)
            if first:
                index.setdefault(first.group(), []).append(number)
        return index

    @functools.cached_property
    def value_slots(self) -> dict[tuple[str, str], tuple]:
        """(anchor, delimiter) -> a ``(line number, second token in lower
        case, value slot)`` per line the anchor starts, in file order;
        ``slots`` fills it on first use of a pair, so a cached template
        works out each slot once."""
        return {}

    def slots(self, anchor: str, delimiter: str) -> tuple:
        """The value slots of ``anchor``'s lines (see ``value_slots``); a
        slot is None on a line with no value after ``delimiter``."""
        slots = self.value_slots.get((anchor, delimiter))
        if slots is None:
            slots = self.value_slots[anchor, delimiter] = tuple(
                (number, _second_token(self.lines[number]),
                 _value_slot(self.lines[number], delimiter))
                for number in self.lines_by_first_token.get(anchor, ()))
        return slots

    @classmethod
    def from_text(cls, name: str, text: str) -> "TemplateFile":
        return cls(name=name, lines=tuple(split_lines(text)))

    def to_text(self) -> str:
        return "\n".join(self.lines)


@dataclass(frozen=True)
class GenReport:
    """Generation metrics; ``elapsed_seconds`` stays off the serialized
    forms so reruns produce byte-identical reports."""

    files_written: int
    lines_generated: int
    lines_rewritten: int
    elapsed_seconds: float

    def lines(self, kv: bool = False) -> tuple[str, ...]:
        """The text form, or with ``kv`` the kv form, a line per piece."""
        if kv:
            return (f"files_written={self.files_written}",
                    f"lines_generated={self.lines_generated}",
                    f"lines_rewritten={self.lines_rewritten}")
        return (f"{self.files_written} files written, "
                f"{self.lines_generated} lines generated, "
                f"{self.lines_rewritten} lines rewritten",)


def _second_token(line: str) -> str | None:
    """The second token of ``line`` in lower case, or None."""
    tokens = _TOKEN_RE.finditer(line)
    next(tokens, None)
    second = next(tokens, None)
    return second and second.group().lower()


def _value_slot(line: str, delimiter: str) -> tuple[str, str] | None:
    """The text of ``line`` before and after the value core of the token
    after its first ``delimiter`` token, the paren prefix ending the
    head and the ``;``/``,``/``)`` suffix starting the tail; None when
    the line has no such token."""
    tokens = _TOKEN_RE.finditer(line)
    for token in tokens:
        if token.group() == delimiter:
            value = next(tokens, None)
            if value is None:
                return None
            prefix, _core, suffix = _VALUE_TOKEN_RE.match(value.group()).groups()
            return line[:value.start()] + prefix, suffix + line[value.end():]
    return None


def rewrite_line(line: str, action: RewriteAction) -> tuple[str, bool]:
    """Apply one action to one line.

    Returns (line, False) untouched when the first token is not the
    anchor or the constant name does not match.  Otherwise replaces the
    value part of the token after the delimiter, keeping any paren
    prefix and ``;``/``,``/``)`` suffix, and returns (new line, True).
    Raises DelimiterNotFound when the anchor matched but the line has no
    delimiter token or nothing after it.
    """
    first = _TOKEN_RE.search(line)
    if first is None or first.group() != action.anchor:
        return line, False
    target = action.target_name
    if target is not None and _second_token(line) != target.lower():
        return line, False
    slot = _value_slot(line, action.delimiter)
    if slot is None:
        raise DelimiterNotFound(action, line)
    return slot[0] + action.new_value + slot[1], True


def apply_to_file(template: TemplateFile,
                  actions: list[RewriteAction]) -> tuple[TemplateFile, list[int]]:
    """Apply each action to the lines whose first token is its anchor
    (and whose second token is its target name, when it has one).

    A line's actions run in plan order, each on the previous one's
    output; lines no action selects are kept as they are.  Returns the
    rewritten file and the per-action applied counts.  Raises
    AnchorNeverMatched when an action applied zero times (the template
    and the plan disagree, which is fatal for generation).
    """
    targets = [None if action.target_name is None else action.target_name.lower()
               for action in actions]
    # line number -> (position, second token, slot) of the first action
    # to select the line, which finds it as the template holds it.
    first: dict[int, tuple] = {}
    for position, action in enumerate(actions):
        target = targets[position]
        for number, second, slot in template.slots(action.anchor, action.delimiter):
            if number not in first and (target is None or second == target):
                first[number] = position, second, slot
    counts = [0] * len(actions)
    new_lines = list(template.lines)
    # Lines are visited in file order, so the first failing line is the
    # one a full scan meets first.
    for number in sorted(first):
        position, second, slot = first[number]
        action = actions[position]
        if slot is None:
            raise DelimiterNotFound(action, new_lines[number])
        line = slot[0] + action.new_value + slot[1]
        counts[position] += 1
        anchor = action.anchor
        # A value spliced right after the anchor (the anchor is also the
        # delimiter) replaces the second token.
        if action.delimiter == anchor:
            second = _second_token(line)
        for later in range(position + 1, len(actions)):
            other = actions[later]
            if other.anchor == anchor and targets[later] in (None, second):
                line = rewrite_line(line, other)[0]
                counts[later] += 1
                second = _second_token(line)
        new_lines[number] = line
    for action, count in zip(actions, counts):
        if count == 0:
            raise AnchorNeverMatched(action, template.name)
    return TemplateFile(name=template.name, lines=tuple(new_lines)), counts


def plan_actions_by_file(config: MppSoCConfig) -> dict[str, list[RewriteAction]]:
    """Map each rewritable template to its substitutions for ``config``.

    Files absent from the result (user_library, mapping_mppsoc) are
    copied through untouched.  Raises IntegerOutOfRange when a number
    the files hold as a VHDL ``integer`` exceeds VHDL_INTEGER_MAX.
    """
    acu_geometry = derive_geometry(config.acu_mem_bytes, WORD_BYTES)
    pe_geometry = derive_geometry(config.pe_mem_bytes, WORD_BYTES)
    # The address widths and vector ranges are at most 31 once the word
    # counts fit; mapping_mppsoc.vhd computes sl_nb_rows * sl_nb_column - 1.
    for name, value in (("sl_nb_rows", config.rows),
                        ("sl_nb_column", config.cols),
                        ("sl_nb_rows * sl_nb_column", config.rows * config.cols),
                        ("numwords_a of mem_acu.vhd", acu_geometry.words),
                        ("numwords_a of mem_pe.vhd", pe_geometry.words)):
        if value > VHDL_INTEGER_MAX:
            raise IntegerOutOfRange(name, value)

    pack = [
        RewriteAction("constant", ":=", str(config.rows), target_name="sl_nb_rows"),
        RewriteAction("constant", ":=", str(config.cols), target_name="sl_nb_column"),
        RewriteAction("constant", ":=", str(acu_geometry.addr_width),
                      target_name="MS_add_width"),
        RewriteAction("constant", ":=", str(pe_geometry.addr_width),
                      target_name="SL_add_width"),
    ]
    if config.neighborhood is not None:
        pack.append(RewriteAction("constant", ":=",
                                  TOPOLOGY_CONSTANTS[config.neighborhood],
                                  target_name="topology"))

    def memory_actions(geometry) -> list[RewriteAction]:
        actions = []
        if config.mem_init is not None:
            actions.append(RewriteAction("init_file", "=>", f'"{config.mem_init}"'))
        actions += [
            RewriteAction("numwords_a", "=>", str(geometry.words)),
            RewriteAction("widthad_a", "=>", str(geometry.addr_width)),
            # Port is declared (addr_width-1 downto 0); the spliced token
            # is the range's top index.
            RewriteAction("address", "STD_LOGIC_VECTOR",
                          str(geometry.addr_width - 1)),
        ]
        return actions

    return {
        "pack_mppsoc.vhd": pack,
        "mem_acu.vhd": memory_actions(acu_geometry),
        "mem_pe.vhd": memory_actions(pe_geometry),
    }


def plan_actions(config: MppSoCConfig) -> list[RewriteAction]:
    """Flat list of every substitution generation will perform."""
    plan = plan_actions_by_file(config)
    out = []
    for name in TEMPLATE_FILES:
        out.extend(plan.get(name, []))
    return out


@functools.cache
def bundled_template_dir() -> Path:
    """Directory holding the templates shipped with the package."""
    return Path(str(resources.files("mppsoc") / "templates"))


@functools.cache
def _bundled_template(name: str) -> TemplateFile:
    """A bundled template, read once per process (a failed read is retried)."""
    return _load_template(bundled_template_dir(), name)


def _load_template(directory: Path, name: str) -> TemplateFile:
    path = directory / name
    if not path.is_file():
        raise TemplateMissing(name, directory)
    return TemplateFile.from_text(name, read_text(path, RewriteError))


def check_memory_image(path: Path, max_words: int) -> int:
    """Validate a memory image file: one hex 32-bit word per line, read
    by ``content_lines``, word count within the memory.  Returns the
    word count."""
    if not path.is_file():
        raise MemoryImageError(f"memory image {path} does not exist")
    words = 0
    for lineno, line in content_lines(read_text(path, MemoryImageError)):
        if not re.fullmatch(r"[0-9a-fA-F]{1,8}", line):
            raise MemoryImageError(
                f"{path}:{lineno}: {line!r} is not a 32-bit hex word")
        words += 1
    if words > max_words:
        raise MemoryImageError(
            f"{path} holds {words} words but the memory has only {max_words}")
    return words


def generate_in_memory(config: MppSoCConfig,
                       template_dir: Path | None = None,
                       mem_search_dir: Path | None = None) -> tuple[dict[str, str], int]:
    """Produce the output file set without touching the filesystem.

    The bundled templates are read once per process; a ``template_dir``
    is read on every call.  Returns (name -> file text, rewritten line
    count).  Raises IntegerOutOfRange, TemplateMissing, MemoryImageError
    or AnchorNeverMatched, or RewriteError for a template that is not
    UTF-8; nothing is ever partially emitted.
    """
    plan = plan_actions_by_file(config)

    if config.mem_init is not None:
        image = Path(config.mem_init)
        if not image.is_absolute():
            image = (Path(mem_search_dir) if mem_search_dir else Path.cwd()) / image
        acu_words = derive_geometry(config.acu_mem_bytes, WORD_BYTES).words
        pe_words = derive_geometry(config.pe_mem_bytes, WORD_BYTES).words
        check_memory_image(image, min(acu_words, pe_words))

    outputs: dict[str, str] = {}
    rewritten = 0
    for name in TEMPLATE_FILES:
        template = (_load_template(Path(template_dir), name) if template_dir
                    else _bundled_template(name))
        actions = plan.get(name)
        if actions:
            result, counts = apply_to_file(template, actions)
            # Exact line count: no plan repeats an (anchor, target) pair
            # and a rewrite keeps a line's first two tokens, so at most
            # one action applies to any line.
            rewritten += sum(counts)
            outputs[name] = result.to_text()
        else:
            outputs[name] = template.to_text()
    return outputs, rewritten


def generate(config: MppSoCConfig, out_dir: Path,
             template_dir: Path | None = None,
             mem_search_dir: Path | None = None) -> GenReport:
    """Write the full output file set for a validated configuration.

    Emits user_library.vhd and mapping_mppsoc.vhd untouched, plus
    pack_mppsoc.vhd and the two memory files with their parameters
    rewritten.  Output newlines are LF.  Generation is idempotent:
    rerunning over its own output with the same configuration produces
    byte-identical files.  The bundled templates are read once per
    process; a ``template_dir`` is read on every call.
    """
    started = time.perf_counter()
    outputs, rewritten = generate_in_memory(config, template_dir, mem_search_dir)
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    lines_generated = 0
    for name in TEMPLATE_FILES:
        text = outputs[name]
        (out_path / name).write_bytes(text.encode())
        lines_generated += text.count("\n")
    elapsed = time.perf_counter() - started
    return GenReport(files_written=len(TEMPLATE_FILES),
                     lines_generated=lines_generated,
                     lines_rewritten=rewritten,
                     elapsed_seconds=elapsed)
