"""The one line and comment rule of every text input: configuration,
cost model, assembly, ``--values @FILE`` and memory image."""

import re
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from mppsoc.cli import _parse_values
from mppsoc.config import ConfigError, CostModel, parse_config
from mppsoc.errors import read_blocks, read_text, split_lines
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


# -- the whole-file read ----------------------------------------------------


def _text_mode_read(path, error):
    """A file read as text: universal newlines, strict UTF-8."""
    return "".join(read_blocks(path, error, -1))


@pytest.mark.parametrize("data", [
    b"a = 1\nb\n", b"a\r\nb\r\n", b"a\rb\r", b"\xef\xbb\xbfrows = 4\r\ncols",
    b"", b"\n", b"x\r\n\r\r\n\n\ry", "caf\u00e9 \u0663\r".encode()],
    ids=["lf", "crlf", "cr", "bom", "empty", "newline", "mixed", "non-ascii"])
def test_read_text_splits_into_the_lines_a_text_mode_read_gives(tmp_path, data):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    assert (split_lines(read_text(path, ConfigError))
            == split_lines(_text_mode_read(path, ConfigError)))


@pytest.mark.parametrize("make", [
    lambda path: path.write_bytes(b"rows = 4\n\xff\n"),
    lambda path: path.write_bytes(b"a\r\nb \xe2\x82"),
    lambda path: path.mkdir(),
    lambda path: None,
], ids=["invalid-byte", "truncated", "directory", "missing"])
def test_read_text_fails_as_a_text_mode_read_does(tmp_path, make):
    path = tmp_path / "input.txt"
    make(path)
    with pytest.raises(ConfigError) as got:
        read_text(path, ConfigError)
    with pytest.raises(ConfigError) as want:
        _text_mode_read(path, ConfigError)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{path}: cannot read: ")
    assert len(str(got.value).splitlines()) == 1


# -- --values @FILE: split whole, or line by line ---------------------------

VALUE_PIECES = (
    "0", "1", "42", "-7", "+3", "0x1f", "0XfF", "0o17", "0b101", "1_000",
    "0x_1", "_", "1__0", "x", "0x", "12a", "99999999999", "-", " ", "  ", "\t",
    "\x0b", "\x0c", "\x1c", "\n", "\n\n", "\r", "\r\n", "#", "# 9 x", "#\n",
    "\u0663", "\uff14", "\u00a0", "\u2028", "\x85", "\u00e9")


@pytest.fixture(scope="module")
def values_file(tmp_path_factory):
    return tmp_path_factory.mktemp("values") / "values.txt"


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(VALUE_PIECES), max_size=24).map("".join))
def test_a_values_file_reads_alike_split_whole_or_line_by_line(values_file, text):
    """An ASCII ``--values`` file with no ``#`` is split whole; any other
    is read line by line.  A ``#`` appended to the text adds only an
    empty comment and sends it down the line-by-line path, so the values
    or the error must not change."""
    count = max(len(text.split()), 1)
    outcomes = []
    for variant in (text, text + "#"):
        values_file.write_bytes(variant.encode())
        try:
            outcomes.append(_parse_values(f"@{values_file}", count))
        except SimulationError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]
