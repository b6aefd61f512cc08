"""The one line and comment rule of every text input: configuration,
cost model, assembly, ``--values @FILE`` and memory image."""

import re
from typing import Callable, NamedTuple

import pytest

from mppsoc.cli import _parse_values
from mppsoc.config import ConfigError, CostModel, parse_config
from mppsoc.rewrite import MemoryImageError, check_memory_image
from mppsoc.simulator import SimulationError, load_program


class TextFormat(NamedTuple):
    name: str
    read: Callable  # (path of a scratch file, text) -> what was read
    lines: list     # the lines of a good input
    bad: str        # a line the reader refuses
    error: type
    line_of: Callable | None  # the line an error names, if it names one


def _in_file(reader):
    def read(path, text):
        path.write_bytes(text.encode("utf-8"))
        return reader(path)
    return read


def _image_line(err):
    return int(re.search(r":(\d+): ", str(err)).group(1))


FORMATS = [
    TextFormat("config", lambda path, text: parse_config(text),
               ["rows = 4", "cols = 4", "acu_mem_bytes = 64",
                "pe_mem_bytes = 64", "mpnoc = crossbar", "mem_init = a.hex"],
               "warp = 9", ConfigError, lambda err: err.line),
    TextFormat("cost-model", lambda path, text: CostModel.from_text(text),
               ["op_cycles = 2", "noc_pass_base = 3", "boundary_value = -1"],
               "warp_speed = 1", ConfigError, lambda err: err.line),
    TextFormat("assembly",
               lambda path, text: [(i.op, i.args) for i in
                                   load_program(text).instructions],
               ["LDI r0, 1", "MASK mod:2:1", "ADD r1, r0, r0", "HALT"],
               "FOO r0", SimulationError, lambda err: err.line),
    TextFormat("values", _in_file(lambda path: _parse_values(f"@{path}", 4)),
               ["1 2", "0x3", "-4"], "five", SimulationError, None),
    TextFormat("memory-image", _in_file(lambda path: check_memory_image(path, 8)),
               ["cafef00d", "0", "FFFF"], "xyz", MemoryImageError, _image_line),
]


@pytest.mark.parametrize("fmt", FORMATS, ids=[f.name for f in FORMATS])
def test_every_text_input_reads_lines_and_comments_alike(fmt, tmp_path):
    """Trailing comments, comment-only lines and any of the three line
    breaks read as the plain file does, and a form feed inside a line is
    whitespace, not a line break that would shift later line numbers."""
    def read(text):
        return fmt.read(tmp_path / "input.txt", text)

    plain = read("\n".join(fmt.lines) + "\n")
    noted = "# heading\n" + "".join(f"{line}  # note\n\t# aside\n"
                                    for line in fmt.lines)
    assert read(noted) == plain
    for eol in ("\r\n", "\r"):
        assert read(eol.join(fmt.lines)) == plain
    first, *rest = fmt.lines
    assert read("\n".join([f"{first}\x0c# note", *rest])) == plain
    with pytest.raises(fmt.error) as err:
        read("\n".join([f"{first}\x0c# note", fmt.bad, *rest]))
    if fmt.line_of is not None:
        assert fmt.line_of(err.value) == 2
