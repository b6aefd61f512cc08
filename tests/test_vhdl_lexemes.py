"""Lexeme oracle for generated VHDL: every value ``generate`` splices
into a line is one well-formed VHDL lexeme of the kind its slot takes.

The lexer below is a small VHDL tokenizer written for this test, with
nothing taken from ``mppsoc.rewrite``: it splits a line into string
literals, comments, identifiers, abstract literals and delimiters, and
refuses any character VHDL has no lexeme for.  A rewritten line must lex
into as many lexemes as its template line, differ from it in at most the
value lexeme (the one after ``:=``, ``=>`` or, on a port range, ``(``),
and that value must be a decimal literal of at most 2^31-1, a
``TOPOLOGY_CONSTANTS`` identifier or a well-formed string literal.  A
configuration whose numbers pass 2^31-1 must be refused instead.
"""

import re
from dataclasses import replace
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings

from mppsoc.config import MpNocKind, MppSoCConfig, Neighborhood
from mppsoc.rewrite import (
    TEMPLATE_FILES,
    TOPOLOGY_CONSTANTS,
    IntegerOutOfRange,
    TemplateFile,
    bundled_template_dir,
    generate_in_memory,
    plan_actions_by_file,
)
from sampling import planned_line_indices, valid_configs

INTEGER_MAX = (1 << 31) - 1

_LEXEME = re.compile(r"""
    (?P<space>[ \t]+)
  | (?P<comment>--.*)
  | (?P<string>"(?:[^"\n]|"")*")
  | (?P<identifier>[A-Za-z](?:_?[A-Za-z0-9])*)
  | (?P<number>[0-9](?:_?[0-9])*(?:\.[0-9](?:_?[0-9])*)?(?:[Ee][+-]?[0-9]+)?)
  | (?P<delimiter>:=|=>|<=|>=|/=|\*\*|<>|[&'()*+,\-./:;<=>|\[\]])
""", re.VERBOSE)


def lex(line):
    """(kind, text) lexemes of one VHDL line; ValueError on a character
    that starts no lexeme (a stray quote, say)."""
    lexemes, at = [], 0
    while at < len(line):
        match = _LEXEME.match(line, at)
        if match is None:
            raise ValueError(f"no VHDL lexeme at column {at} of {line!r}")
        if match.lastgroup != "space":
            lexemes.append((match.lastgroup, match.group()))
        at = match.end()
    return lexemes


def is_spliceable(kind, text):
    """A decimal literal that fits a VHDL integer, a topology identifier
    or a string literal of printable characters."""
    if kind == "number":
        return text.isdigit() and int(text) <= INTEGER_MAX
    if kind == "identifier":
        return text in TOPOLOGY_CONSTANTS.values()
    return kind == "string" and text[1:-1].isprintable()


def value_position(lexemes):
    texts = [text for _kind, text in lexemes]
    for delimiter in (":=", "=>", "("):
        if delimiter in texts:
            return texts.index(delimiter) + 1
    raise AssertionError(f"no value slot in {texts}")


@cache
def bundled_template(name):
    return TemplateFile.from_text(
        name, (bundled_template_dir() / name).read_text(encoding="utf-8"))


def assert_rewrites_are_lexemes(config, image_dir):
    """Generation either refuses a value past 2^31-1 or writes lexemes."""
    try:
        outputs, _rewritten = generate_in_memory(config,
                                                 mem_search_dir=image_dir)
    except IntegerOutOfRange:
        return
    plan = plan_actions_by_file(config)
    for name in TEMPLATE_FILES:
        template = bundled_template(name)
        emitted = outputs[name].split("\n")
        assert len(emitted) == len(template.lines)
        planned = planned_line_indices(template, plan.get(name, []))
        changed = {i for i, (old, new) in enumerate(zip(template.lines, emitted))
                   if old != new}
        assert changed <= planned
        for i in planned:
            before, after = lex(template.lines[i]), lex(emitted[i])
            position = value_position(before)
            assert len(after) == len(before), (name, emitted[i])
            assert [j for j, pair in enumerate(zip(before, after))
                    if pair[0] != pair[1]] in ([], [position]), emitted[i]
            assert is_spliceable(*after[position]), (name, emitted[i])


def test_the_lexer_refuses_what_vhdl_cannot_read():
    assert lex('  init_file => "a b.hex", -- c "') == [
        ("identifier", "init_file"), ("delimiter", "=>"),
        ("string", '"a b.hex"'), ("delimiter", ","), ("comment", '-- c "')]
    assert lex('x := "a""b";')[2] == ("string", '"a""b"')
    for line in ('init_file => "a"b.hex",', "x := 1 $", 'x := "open'):
        with pytest.raises(ValueError):
            lex(line)
    assert not is_spliceable("number", str(INTEGER_MAX + 1))
    assert not is_spliceable("identifier", "NONE")
    assert not is_spliceable("number", "1_000")


# The last shape and size lie just past 2^31-1, which generate refuses.
SHAPES = ((1, 1), (1, 5), (4, 4), (8, 8), (46340, 46341),
          (1, INTEGER_MAX + 1))
MEMORY_BYTES = (4, 4096, 65536 * 4, 4 * INTEGER_MAX, 4 * (INTEGER_MAX + 1))


@pytest.fixture(scope="module")
def image_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("images")
    for name in ("image.hex", "image.mif"):
        (directory / name).write_text("0\n", encoding="utf-8")
    return directory


def test_generated_values_are_lexemes_over_a_grid(image_dir):
    for (rows, cols), neighborhood, mpnoc, memory, image in product(
            SHAPES, [None, *Neighborhood], [None, *MpNocKind], MEMORY_BYTES,
            (None, "image.hex")):
        if neighborhood is None and mpnoc is None:
            continue
        config = MppSoCConfig(rows=rows, cols=cols, acu_mem_bytes=memory,
                              pe_mem_bytes=memory, neighborhood=neighborhood,
                              mpnoc=mpnoc, mem_init=image)
        assert_rewrites_are_lexemes(config, image_dir)


@settings(max_examples=100, deadline=None)
@given(config=valid_configs.map(lambda config: replace(
    config, acu_mem_bytes=4 * config.acu_mem_bytes,
    pe_mem_bytes=4 * config.pe_mem_bytes,
    mem_init=config.mem_init and "image.mif")))
def test_generated_values_are_lexemes_for_drawn_configs(image_dir, config):
    assert_rewrites_are_lexemes(config, image_dir)
