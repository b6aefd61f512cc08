import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mppsoc.cli as cli_module
from mppsoc.cli import _build_parser, main
from mppsoc.config import ConfigError, CostModel, MpNocKind, parse_config
from mppsoc.mpnoc import build_network
from mppsoc.rewrite import TEMPLATE_FILES, VHDL_INTEGER_MAX, bundled_template_dir
from mppsoc.simulator import (
    MAX_COLUMN_BYTES,
    MAX_PES,
    SimulationError,
    check_columns,
    load_program,
)
from mppsoc.topology import WORD_MASK, spread

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

VALID_CFG = """\
rows = 4
cols = 4
acu_mem_bytes = 4096
pe_mem_bytes = 1024
neighborhood = mesh2d
mpnoc = crossbar
"""

INVALID_CFG = """\
rows = 1
cols = 4
acu_mem_bytes = 4096
pe_mem_bytes = 1024
neighborhood = torus2d
"""


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "machine.cfg"
    path.write_text(VALID_CFG)
    return path


def test_validate_valid_config(cfg, capsys):
    assert main(["validate", str(cfg)]) == 0
    assert capsys.readouterr().out.strip() == "VALID"


def test_validate_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(INVALID_CFG)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "R2" in out


def test_validate_unreadable_config(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_parse_error_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("rows = 4\nbogus_key = 1\n")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:2" in err


def test_generate_writes_files_and_reports(cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["generate", str(cfg), "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert "5 files written" in captured.out
    assert "took" in captured.err  # timing only on the diagnostic stream
    for name in TEMPLATE_FILES:
        assert (out / name).is_file()
    assert (out / "generation-report.kv").is_file()


def test_generate_refuses_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(INVALID_CFG)
    out = tmp_path / "out"
    assert main(["generate", str(path), "-o", str(out)]) == 1
    assert not out.exists()  # nothing written on invalid input


def test_generate_force_report_only(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(INVALID_CFG)
    out = tmp_path / "out"
    assert main(["generate", str(path), "-o", str(out),
                 "--force-report-only"]) == 0
    assert "nothing written" in capsys.readouterr().out
    assert not out.exists()


def test_generate_manifest(cfg, tmp_path):
    out = tmp_path / "out"
    manifest = tmp_path / "files.lst"
    assert main(["generate", str(cfg), "-o", str(out),
                 "--manifest", str(manifest)]) == 0
    listed = manifest.read_text().splitlines()
    assert len(listed) == 5
    assert all(Path(p).is_file() for p in listed)


def test_generate_is_reproducible(cfg, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["generate", str(cfg), "-o", str(out_a)])
    first = capsys.readouterr().out
    main(["generate", str(cfg), "-o", str(out_b)])
    second = capsys.readouterr().out
    assert first == second
    for name in TEMPLATE_FILES:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_generate_missing_template_dir(cfg, tmp_path, capsys):
    empty = tmp_path / "templates"
    empty.mkdir()
    assert main(["generate", str(cfg), "-o", str(tmp_path / "out"),
                 "--templates", str(empty)]) == 2


def test_generate_non_utf8_input_is_io_error(cfg, tmp_path, capsys):
    """A template or memory image that is not UTF-8 ends in one
    ``error:`` line with exit 2, and no traceback."""
    templates = tmp_path / "templates"
    templates.mkdir()
    for name in TEMPLATE_FILES:
        (templates / name).write_bytes(
            (bundled_template_dir() / name).read_bytes() + b"-- \xff\xfe\n")
    image_cfg = tmp_path / "image.cfg"
    image_cfg.write_text(VALID_CFG + "mem_init = data.hex\n")
    (tmp_path / "data.hex").write_bytes(b"cafef00d\n\xff\n")
    for argv in (["generate", str(cfg), "--templates", str(templates)],
                 ["generate", str(image_cfg)]):
        assert main(argv + ["-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot read" in err
        assert len(err.splitlines()) == 1


def test_generate_resolves_mem_init_next_to_config(tmp_path):
    path = tmp_path / "machine.cfg"
    path.write_text(VALID_CFG + "mem_init = data.hex\n")
    (tmp_path / "data.hex").write_text("cafef00d\n1\n2\n")
    out = tmp_path / "out"
    assert main(["generate", str(path), "-o", str(out)]) == 0
    assert 'init_file => "data.hex",' in (out / "mem_pe.vhd").read_text()


def test_simulate_reduce(cfg, tmp_path, capsys):
    assert main(["simulate", str(cfg), "--app", "reduce",
                 "--values", "0..15", "-o", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "sum=120 steps=4" in out


def test_simulate_default_values_cover_array(cfg, tmp_path, capsys):
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "out")]) == 0
    assert "sum=120" in capsys.readouterr().out


def test_simulate_values_from_file_and_kv_report(cfg, tmp_path, capsys):
    values = tmp_path / "values.txt"
    values.write_text("\n".join(str(i) for i in range(16)) + "\n")
    assert main(["simulate", str(cfg), "--values", f"@{values}",
                 "--report", "kv", "-o", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "sum=120" in out and "steps=4" in out


def test_values_file_comments_run_to_the_end_of_their_line(cfg, tmp_path,
                                                          capsys):
    """A whole-line and a trailing ``#`` comment in a values file leave
    the same values, in the same order, as ``--values 0..15``."""
    program = tmp_path / "prog.asm"
    program.write_text("HALT\n")
    values = tmp_path / "values.txt"
    values.write_text("# sixteen values\n0 1 2 3 4 5 6 7  # first half\n"
                      "8 9 10 11 12 13 14 15#\n")
    stdouts = []
    for spec in ("0..15", f"@{values}"):
        assert main(["simulate", str(cfg), "--app", f"asm:{program}",
                     "--values", spec, "-o", str(tmp_path / "out")]) == 0
        stdouts.append(capsys.readouterr().out)
    assert stdouts[1] == stdouts[0]
    assert "pe15: r0=15 " in stdouts[0]


def test_simulate_value_count_mismatch(cfg, tmp_path, capsys):
    assert main(["simulate", str(cfg), "--values", "0..3",
                 "-o", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("spec, supplied", [("0..2000000", 2000001),
                                            (f"0..{10**30}", 10**30 + 1),
                                            ("5..1", 0)])
def test_simulate_wide_value_range_is_counted_before_it_is_built(
        cfg, tmp_path, capsys, spec, supplied):
    main(["validate", str(cfg)])  # builds the cached parser outside the trace
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["simulate", str(cfg), "--values", spec,
                     "-o", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 1 << 20
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: --values supplied {supplied} values, the array has 16 PEs"]


@pytest.mark.parametrize("spec", [
    "0x" + "f" * 5000 + ",1,1,1,1,1,1,1",  # too wide to print in decimal
    "4294967296,1,1,1,1,1,1,1", "1,1,1,1,1,1,1,-2147483649",
    "-2147483649..-2147483642", "4294967289..4294967296",
], ids=["5000-hex-digits", "2^32", "-2^31-1", "range-low", "range-high"])
def test_simulate_values_outside_32_bits_are_refused(tmp_path, capsys,
                                                     monkeypatch, spec):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prog.asm").write_text("HALT\n")
    for app in ("reduce", "asm:prog.asm"):
        assert main(["simulate", str(DEMOS / "delta8.cfg"), "--app", app,
                     f"--values={spec}", "-o", "out"]) == 3
        assert single_error_line(capsys) == (
            "error: --values: every value must be a 32-bit word, "
            "from -2147483648 to 4294967295")


def test_simulate_values_at_the_32_bit_limits_are_accepted(tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", str(DEMOS / "delta8.cfg"),
                 "--values=-2147483648,4294967295,0,0,0,0,0,0",
                 "-o", "out"]) == 0
    assert capsys.readouterr().out.startswith("sum=2147483647 ")
    assert main(["simulate", str(DEMOS / "delta8.cfg"),
                 "--values=4294967288..4294967295", "-o", "out"]) == 0


def test_simulate_range_too_wide_to_print_is_counted(cfg, tmp_path, capsys):
    end = "9" * 4300  # the count, 2 * 10**4300 - 1, has 4301 digits
    assert main(["simulate", str(cfg), f"--values=-{end}..{end}",
                 "-o", str(tmp_path / "out")]) == 3
    assert single_error_line(capsys) == (
        "error: --values supplied <14286-bit integer> values, "
        "the array has 16 PEs")


def test_simulate_asm_program(cfg, tmp_path, capsys):
    program = tmp_path / "prog.asm"
    program.write_text("LDI r0,7\nADD r1,r0,r0\nHALT\n")
    assert main(["simulate", str(cfg), "--app", f"asm:{program}",
                 "-o", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "pe0: r0=7 r1=14" in out


def test_simulate_asm_runtime_error(cfg, tmp_path, capsys):
    program = tmp_path / "prog.asm"
    program.write_text("NOCSEND pe,idx,r0\nHALT\n")
    bare = tmp_path / "bare.cfg"
    bare.write_text("rows = 1\ncols = 4\nacu_mem_bytes = 64\n"
                    "pe_mem_bytes = 64\nneighborhood = linear\n")
    assert main(["simulate", str(bare), "--app", f"asm:{program}",
                 "-o", str(tmp_path / "out")]) == 3


def test_simulate_cost_model_override(cfg, tmp_path, capsys):
    costs = tmp_path / "costs.cfg"
    costs.write_text("hop_cycles = 10\n")
    assert main(["simulate", str(cfg), "--cost-model", str(costs),
                 "-o", str(tmp_path / "out")]) == 0
    base = capsys.readouterr().out
    assert "cycles=" in base


def single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err, err
    return lines[0]


@pytest.mark.parametrize("text", ["hop_cycles = -1\n", "warp_speed = 9\n",
                                  "# costs\n = 5\n"])
def test_simulate_bad_cost_file_is_config_error(cfg, tmp_path, capsys, text):
    costs = tmp_path / "costs.cfg"
    costs.write_text(text)
    line = text.count("\n")
    assert main(["simulate", str(cfg), "--cost-model", str(costs),
                 "-o", str(tmp_path / "out")]) == 1
    assert single_error_line(capsys).startswith(f"error: {costs}:{line}: ")


@pytest.mark.parametrize("content", [None, b"hop_cycles = \xff\n"])
def test_simulate_unreadable_cost_file_is_config_error(cfg, tmp_path, capsys,
                                                       content):
    costs = tmp_path / "costs.cfg"
    if content is not None:
        costs.write_bytes(content)
    assert main(["simulate", str(cfg), "--cost-model", str(costs),
                 "-o", str(tmp_path / "out")]) == 1
    assert single_error_line(capsys).startswith(f"error: {costs}: cannot read")


def test_simulate_mask_modulus_zero_is_load_error(cfg, tmp_path, capsys):
    program = tmp_path / "prog.asm"
    program.write_text("MASK mod:0:1\nHALT\n")
    assert main(["simulate", str(cfg), "--app", f"asm:{program}",
                 "-o", str(tmp_path / "out")]) == 3
    assert single_error_line(capsys).endswith("(line 1)")


HUGE = "9" * 4301  # more digits than int() converts by default


@pytest.mark.parametrize("operand", [
    f"MASK lt:{HUGE}", f"MASK ge:{HUGE}", f"MASK mod:{HUGE}:1",
    f"MASK mod:3:{HUGE}", f"NOCSEND pe,idx+{HUGE},r0",
    f"NOCSEND pe,idx-{HUGE},r0", f"NOCSEND pe,{HUGE},r0",
])
def test_simulate_huge_operand_is_load_error(cfg, tmp_path, capsys, operand):
    program = tmp_path / "prog.asm"
    program.write_text(f"LDI r0,1\n{operand}\nHALT\n")
    assert main(["simulate", str(cfg), "--app", f"asm:{program}",
                 "-o", str(tmp_path / "out")]) == 3
    line = single_error_line(capsys)
    assert line.startswith("error: bad operand: expected an integer")
    assert line.endswith("(line 2)")


@pytest.mark.parametrize("token", ["1_6", "\uff14", "\u0663", "0x10", "+-4"])
@pytest.mark.parametrize("where, code", [("config", 1), ("cost", 1),
                                         ("program", 3)])
def test_integers_are_a_sign_and_ascii_digits(cfg, tmp_path, capsys, token,
                                               where, code):
    """Config, cost-model and assembly integers are an optional sign and
    ASCII digits: ``_`` separators, a fullwidth or Arabic-Indic digit or
    a prefix, all of which ``int`` takes or half takes, end in one
    ``error:`` line and the file's exit code."""
    texts = {"config": VALID_CFG, "cost": "hop_cycles = +2\n",
             "program": "LDI r0, -7\nHALT\n"}
    texts[where] = {"config": VALID_CFG.replace("rows = 4", f"rows = {token}"),
                    "cost": f"hop_cycles = {token}\n",
                    "program": f"LDI r0, {token}\nHALT\n"}[where]
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(["simulate", str(tmp_path / "config"), "--cost-model",
                 str(tmp_path / "cost"), "--app", f"asm:{tmp_path / 'program'}",
                 "-o", str(tmp_path / "out")]) == code
    assert "expected an integer" in single_error_line(capsys)


@pytest.mark.parametrize("spec", ["0..\u0661\u0665", "\u0663" + ",1" * 15,
                                  "@values.txt"])
def test_values_are_ascii(cfg, tmp_path, capsys, monkeypatch, spec):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "values.txt").write_text("0x3 " * 15 + "\uff14\n",
                                         encoding="utf-8")
    assert main(["simulate", str(cfg), "--values", spec,
                 "-o", str(tmp_path / "out")]) == 3
    assert "not an ASCII integer" in single_error_line(capsys)


@pytest.mark.parametrize("source, message", [
    ("NOCSEND pe,idx+1,r0\nHALT\n", "message 15->16 outside 0..15 (line 1)"),
    ("LDI r0,1\nMOVD r0,NE\nHALT\n",
     "direction NE does not exist on mesh2d (line 2)"),
    ("LDI r0,1\n\nLD r0,1024\nHALT\n",
     "PE 0: illegal word access at byte address 1024 (line 3)"),
    # Negative destinations are outside the ports too.
    ("NOCSEND pe,idx-1,r0\nHALT\n", "message 0->-1 outside 0..15 (line 1)"),
    ("NOCSEND pe,-2,r0\nHALT\n", "message 0->-2 outside 0..15 (line 1)"),
])
def test_simulate_runtime_error_names_line(cfg, tmp_path, capsys, source,
                                           message):
    program = tmp_path / "prog.asm"
    program.write_text(source)
    assert main(["simulate", str(cfg), "--app", f"asm:{program}",
                 "-o", str(tmp_path / "out")]) == 3
    assert single_error_line(capsys) == f"error: {message}"


def test_simulate_send_too_far_to_print_is_runtime_error(cfg, tmp_path,
                                                         capsys):
    """PE 1's destination has 4301 digits, one more than the operand
    and more than Python prints in decimal.  The program loads, and
    only the executed send fails."""
    program = tmp_path / "prog.asm"
    operand = "idx+" + "9" * 4300
    program.write_text(f"MASK ge:1\nNOCSEND pe,{operand},r0\nHALT\n")
    assert main(["simulate", str(cfg), "--app", f"asm:{program}",
                 "-o", str(tmp_path / "out")]) == 3
    assert single_error_line(capsys) == (
        "error: message 1-><14285-bit integer> outside 0..15 (line 2)")
    program.write_text(f"MASK none\nNOCSEND pe,{operand},r0\nHALT\n")
    assert main(["simulate", str(cfg), "--app", f"asm:{program}",
                 "-o", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("option, prefix, data", [
    ("--app", "asm:", b"LDI r0,\xff\nHALT\n"),
    ("--values", "@", b"\xff\xfe 1 2\n"),
    ("--app", "asm:", None),
    ("--values", "@", None),
])
def test_simulate_non_utf8_program_is_io_error(cfg, tmp_path, capsys,
                                               option, prefix, data):
    """A program or values file that is not UTF-8 (or, with no data,
    cannot be opened) is I/O trouble: exit 2 and one ``cannot read``
    line."""
    path = tmp_path / "input.txt"
    if data is not None:
        path.write_bytes(data)
    assert main(["simulate", str(cfg), option, f"{prefix}{path}",
                 "-o", str(tmp_path / "out")]) == 2
    assert single_error_line(capsys).startswith(f"error: {path}: cannot read")


@pytest.mark.parametrize("spec", ["abc", "0..x", "@values.txt"])
def test_simulate_malformed_values(cfg, tmp_path, capsys, monkeypatch, spec):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "values.txt").write_text("1 2 three\n")
    assert main(["simulate", str(cfg), "--values", spec,
                 "-o", str(tmp_path / "out")]) == 3
    assert single_error_line(capsys).startswith(f"error: --values {spec!r}")


def test_report_reprints_last_runs(cfg, tmp_path, capsys):
    out = tmp_path / "out"
    main(["generate", str(cfg), "-o", str(out)])
    main(["simulate", str(cfg), "-o", str(out)])
    capsys.readouterr()
    assert main(["report", "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "files_written=5" in text
    assert "sum=120" in text
    # ``report`` prints the saved kv files as they are; it takes no
    # ``--report`` format.
    with pytest.raises(SystemExit) as exit_:
        main(["report", "-o", str(out), "--report", "text"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --report text" in capsys.readouterr().err


def test_report_empty_directory(tmp_path, capsys):
    assert main(["report", "-o", str(tmp_path)]) == 2
    assert single_error_line(capsys) == f"error: no reports in {tmp_path}"


def test_report_non_utf8_report_is_io_error(tmp_path, capsys):
    """A saved report that does not decode is I/O trouble, as any other
    input is: exit 2 and one ``cannot read`` line, no traceback."""
    path = tmp_path / "generation-report.kv"
    path.write_bytes(b"files_written=\xff\n")
    assert main(["report", "-o", str(tmp_path)]) == 2
    assert single_error_line(capsys).startswith(f"error: {path}: cannot read")


def test_simulate_unbuildable_topology_is_runtime_error(tmp_path, capsys):
    # A 1x2 ring passes the configuration rules but cannot be built.
    path = tmp_path / "tiny_ring.cfg"
    path.write_text("rows = 1\ncols = 2\nacu_mem_bytes = 64\n"
                    "pe_mem_bytes = 64\nneighborhood = ring\n")
    assert main(["validate", str(path)]) == 0
    assert main(["simulate", str(path), "-o", str(tmp_path / "out")]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [
    "rows = 1\ncols = 2\nneighborhood = ring\n",
    "rows = 2\ncols = 2\nneighborhood = torus2d\n",
], ids=["ring1x2", "torus2x2"])
def test_generate_unbuildable_topology_is_runtime_error(tmp_path, capsys,
                                                        shape):
    # Both pass R1-R3; generate refuses them as simulate does.
    path = tmp_path / "unbuildable.cfg"
    path.write_text(shape + "acu_mem_bytes = 64\npe_mem_bytes = 64\n")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["simulate", str(path), "-o", str(tmp_path / "sim")]) == 3
    simulate_error = single_error_line(capsys)
    out = tmp_path / "out"
    manifest = tmp_path / "files.lst"
    assert main(["generate", str(path), "-o", str(out),
                 "--manifest", str(manifest)]) == 3
    assert single_error_line(capsys) == simulate_error
    assert not out.exists() and not manifest.exists()


def test_generate_at_the_vhdl_integer_limit(tmp_path, capsys):
    """Every VHDL integer the files hold, and sl_nb_rows * sl_nb_column,
    at 2^31-1: the largest value IEEE 1076 guarantees."""
    path = tmp_path / "limit.cfg"
    path.write_text(f"rows = 1\ncols = {VHDL_INTEGER_MAX}\n"
                    f"acu_mem_bytes = {4 * VHDL_INTEGER_MAX}\n"
                    f"pe_mem_bytes = {4 * VHDL_INTEGER_MAX}\n"
                    "neighborhood = linear\n")
    out = tmp_path / "out"
    assert main(["generate", str(path), "--force-report-only"]) == 0
    assert main(["generate", str(path), "-o", str(out)]) == 0
    assert f"sl_nb_column : integer := {VHDL_INTEGER_MAX};" in (
        out / "pack_mppsoc.vhd").read_text()
    for name in ("mem_acu.vhd", "mem_pe.vhd"):
        assert f"numwords_a => {VHDL_INTEGER_MAX}," in (out / name).read_text()


LONG_SIDE = "1" + "0" * 4000


@pytest.mark.parametrize("shape, constant, value", [
    (f"rows = 1\ncols = {2**31}\nneighborhood = linear\n",
     "sl_nb_column", 2**31),
    (f"rows = 2\ncols = {2**30}\nneighborhood = mesh2d\n",
     "sl_nb_rows * sl_nb_column", 2**31),
    ("rows = 3000000000\ncols = 2\nneighborhood = mesh2d\n",
     "sl_nb_rows", 3000000000),
    (f"rows = {LONG_SIDE}\ncols = {LONG_SIDE}\nmpnoc = crossbar\n",
     "sl_nb_rows", int(LONG_SIDE)),
    (f"rows = 2\ncols = 2\nneighborhood = mesh2d\nacu_mem_bytes = {2**33}\n",
     "numwords_a of mem_acu.vhd", 2**31),
    (f"rows = 2\ncols = 2\nneighborhood = mesh2d\npe_mem_bytes = {2**36}\n",
     "numwords_a of mem_pe.vhd", 2**34),
], ids=["cols", "product", "rows3e9", "rows4001digits", "acu_words", "pe_words"])
def test_generate_refuses_values_past_the_vhdl_integer_range(
        tmp_path, capsys, shape, constant, value):
    """R1-R3 pass these shapes, but a VHDL integer in the files would be
    out of range: generate and --force-report-only refuse them with one
    error line that names the constant, and write nothing."""
    path = tmp_path / "huge.cfg"
    memory = "".join(f"{key} = 64\n" for key in ("acu_mem_bytes", "pe_mem_bytes")
                     if key not in shape)
    path.write_text(shape + memory)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    want = (f"error: {constant} = {value} does not fit a VHDL integer "
            f"(at most {VHDL_INTEGER_MAX})")
    assert main(["generate", str(path), "--force-report-only"]) == 2
    assert single_error_line(capsys) == want
    out = tmp_path / "out"
    manifest = tmp_path / "files.lst"
    assert main(["generate", str(path), "-o", str(out),
                 "--manifest", str(manifest)]) == 2
    assert single_error_line(capsys) == want
    assert not out.exists() and not manifest.exists()


@pytest.mark.parametrize("shape", [
    "rows = 1024\ncols = 2048\nneighborhood = mesh2d\n",
    "rows = 2048\ncols = 2048\nmpnoc = delta-omega\n",
], ids=["mesh1024x2048", "omega2048x2048"])
@pytest.mark.parametrize("extra", [[], ["--values", "0..3"],
                                   ["--app", "asm:prog.asm"]],
                         ids=["reduce", "values", "asm"])
def test_simulate_refuses_arrays_above_the_pe_ceiling(tmp_path, capsys,
                                                      monkeypatch, shape,
                                                      extra):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prog.asm").write_text("HALT\n")
    path = tmp_path / "huge.cfg"
    path.write_text(shape + "acu_mem_bytes = 64\npe_mem_bytes = 64\n")
    n_pes = 1024 * 2048 if "mesh2d" in shape else 2048 * 2048
    assert main(["validate", str(path)]) == 0
    assert main(["generate", str(path), "--force-report-only"]) == 0
    capsys.readouterr()
    started = time.perf_counter()
    assert main(["simulate", str(path), *extra, "-o", "out"]) == 3
    assert time.perf_counter() - started < 1.0
    assert single_error_line(capsys) == (
        f"error: {n_pes} PEs exceed the simulator's limit of {MAX_PES} PEs")


def test_pe_count_too_long_to_print_is_reported(tmp_path, capsys):
    """rows and cols of 4001 digits: the PE count, 10**8000, has more
    digits than Python prints in decimal."""
    side = "1" + "0" * 4000
    shape = f"rows = {side}\ncols = {side}\nacu_mem_bytes = 64\npe_mem_bytes = 64\n"
    path = tmp_path / "huge.cfg"
    path.write_text(shape + "mpnoc = delta-omega\n")
    r1 = (f"  R1: delta router 'delta-omega' needs a power-of-two PE count, "
          f"got {side}x{side} = <26576-bit integer>")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == f"INVALID\n{r1}\n"
    assert main(["generate", str(path), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"INVALID\n{r1}\n"
    path.write_text(shape + "mpnoc = crossbar\n")
    assert main(["simulate", str(path), "-o", str(tmp_path / "out")]) == 3
    assert single_error_line(capsys) == (
        f"error: <26576-bit integer> PEs exceed the simulator's limit of "
        f"{MAX_PES} PEs")


# A column of 65536 40-bit lanes is an int of ceil(40 * 65536 / bits)
# digits of ``bits`` bits each.
COLUMN_BYTES = sys.int_info.sizeof_digit * -(
    -40 * 65536 // sys.int_info.bits_per_digit)
BUDGET_CFG = ("rows = 256\ncols = 256\nacu_mem_bytes = 64\n"
              "pe_mem_bytes = 65536\nneighborhood = mesh2d\n")


def test_simulate_refuses_a_run_over_the_column_budget(tmp_path):
    """3000 distinct STs on 256x256 PEs would hold ~1 GiB of columns.
    The run is refused before anything is allocated, so a child limited
    to 600 MiB of address space exits 3 with one ``error:`` line and no
    traceback, where running it would end in a MemoryError."""
    resource = pytest.importorskip("resource")
    (tmp_path / "big.cfg").write_text(BUDGET_CFG)
    (tmp_path / "prog.asm").write_text("\n".join(
        ["LDI r0, 1", *(f"ST r0, {4 * i}" for i in range(3000)), "HALT"]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    done = subprocess.run(
        [sys.executable, "-m", "mppsoc.cli", "simulate", "big.cfg",
         "--app", "asm:prog.asm", "-o", "out"], capture_output=True,
        text=True, env=env, cwd=tmp_path, timeout=60, preexec_fn=limit)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        f"error: 3008 columns of 65536 PEs take {3008 * COLUMN_BYTES} bytes, "
        f"over the simulator's budget of {MAX_COLUMN_BYTES} bytes\n")


def test_simulate_writes_its_reports_without_building_them_whole(tmp_path):
    """On 512x512 PEs the report forms hold 2^18 text lines and 2^21 kv
    lines.  The CLI writes them a PE at a time, so a child limited to
    128 MiB of address space finishes the run; rendering either form
    whole peaks at ~224 MiB RSS."""
    resource = pytest.importorskip("resource")
    (tmp_path / "big.cfg").write_text(
        "rows = 512\ncols = 512\nacu_mem_bytes = 64\n"
        "pe_mem_bytes = 8\nneighborhood = mesh2d\n")
    (tmp_path / "prog.asm").write_text("LDI r0, 1\nHALT\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

    done = subprocess.run(
        [sys.executable, "-m", "mppsoc.cli", "simulate", "big.cfg",
         "--app", "asm:prog.asm", "-o", "out"], capture_output=True,
        text=True, env=env, cwd=tmp_path, timeout=60, preexec_fn=limit)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.count("\n") == 1 + (1 << 18)
    assert done.stdout.endswith("\npe262143: r0=1 r1=0 r2=0 r3=0 r4=0 r5=0 "
                                "r6=0 r7=0\n")
    kv = (tmp_path / "out" / "simulation-report.kv").read_bytes()
    assert kv.count(b"\n") == 2 + 8 * (1 << 18)
    assert kv.endswith(b"\npe262143.r0=1\npe262143.r1=0\npe262143.r2=0\n"
                       b"pe262143.r3=0\npe262143.r4=0\npe262143.r5=0\n"
                       b"pe262143.r6=0\npe262143.r7=0\n")


def _child_cli(resource, cwd, *args, stdout):
    """``python -m mppsoc.cli ARGS`` in a child limited to 128 MiB of
    address space, its stdout to the binary file ``stdout``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

    with stdout.open("wb") as out:
        return subprocess.run(
            [sys.executable, "-m", "mppsoc.cli", *args], stdout=out,
            stderr=subprocess.PIPE, text=True, env=env, cwd=cwd, timeout=60,
            preexec_fn=limit)


def test_a_send_to_one_port_fits_the_budget(tmp_path):
    """``NOCSEND acu, 0, r0`` on 512x512 PEs is 2^18 messages to port 0.
    The router schedules them on that one column, one pass each, so a
    child limited to 128 MiB of address space finishes the run; building
    the 18 stage columns of a delta network for them peaks at ~226 MiB."""
    resource = pytest.importorskip("resource")
    (tmp_path / "big.cfg").write_text(
        "rows = 512\ncols = 512\nacu_mem_bytes = 64\n"
        "pe_mem_bytes = 8\nmpnoc = delta-omega\n")
    (tmp_path / "prog.asm").write_text("NOCSEND acu, 0, r0\nHALT\n")
    stdout = tmp_path / "stdout"
    done = _child_cli(resource, tmp_path, "simulate", "big.cfg",
                      "--app", "asm:prog.asm", "-o", "out", stdout=stdout)
    assert (done.returncode, done.stderr) == (0, "")
    cost, n = CostModel(), 1 << 18
    cycles = 2 * cost.issue_cycles + cost.noc_cycles(
        build_network(MpNocKind.DELTA_OMEGA, n), n)
    with stdout.open() as text:
        assert next(text) == f"cycles={cycles} instructions=2\n"


def test_report_prints_a_saved_file_a_block_at_a_time(tmp_path):
    """``report`` prints a ~96 MiB saved kv file back unchanged, a block
    at a time, in a child limited to 128 MiB of address space; reading
    it whole holds its bytes and its text at once."""
    resource = pytest.importorskip("resource")
    saved = tmp_path / "simulation-report.kv"
    chunk = "".join(f"pe{pe}.r{pe % 8}={pe * 2654435761 % (1 << 32)}\n"
                    for pe in range(1 << 15)).encode()
    with saved.open("wb") as file:
        file.write(b"cycles=1\ninstructions=2\n")
        while file.tell() < 96 << 20:
            file.write(chunk)
    stdout = tmp_path / "stdout"
    done = _child_cli(resource, tmp_path, "report", "-o", ".", stdout=stdout)
    assert (done.returncode, done.stderr) == (0, "")

    def digest(path):
        sha = hashlib.sha256()
        with path.open("rb") as file:
            for block in iter(lambda: file.read(1 << 20), b""):
                sha.update(block)
        return sha.hexdigest()
    assert digest(stdout) == digest(saved)


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
@pytest.mark.parametrize("data", [
    b"", b"\n", b"\n\n", b"a", b"a\n", b"a\n\n\n", b"\n\na\n\n\nbc\n\n",
    b"a\r\nb\r\n\r\n", b"x\ry\r\r", b"\xc3\xa9t\xc3\xa9\n\n"])
def test_report_prints_the_text_with_one_final_newline(tmp_path, capsys,
                                                        block, data):
    """Whatever the block size, a saved file prints as its text with its
    trailing newlines cut to one."""
    path = tmp_path / "generation-report.kv"
    path.write_bytes(data)
    cli_module._print_saved(path, block)
    want = path.read_text(encoding="utf-8").rstrip("\n") + "\n"
    assert capsys.readouterr().out == want


def test_the_column_budget_counts_registers_and_legal_stores():
    """On 65536 PEs 767 columns of 40-bit lanes fit the budget and 768
    do not: 8 registers, each distinct legal ST address once, and
    address 0 once more unless a ST already counts it.  An illegal
    address never makes a column."""
    config = parse_config(BUDGET_CFG)
    assert 767 * COLUMN_BYTES <= MAX_COLUMN_BYTES < 768 * COLUMN_BYTES
    # The count is the int's digits; its header is the rest.
    assert 0 < sys.getsizeof(spread(WORD_MASK, 65536)) - COLUMN_BYTES <= 32
    illegal = ["ST r0, -4", "ST r0, 2", "ST r0, 65536", "ST r1, 2"]

    def program(addresses):
        return load_program("\n".join(
            [*(f"ST r0, {a}" for a in addresses), *illegal, "HALT"]))

    fits = program(range(4, 4 * 760, 4))  # 759 columns
    check_columns(config, fits)
    check_columns(config, program([*range(4, 4 * 760, 4), 4]), preloaded=False)
    with pytest.raises(SimulationError, match="^768 columns of 65536 PEs"):
        check_columns(config, fits, preloaded=True)
    check_columns(config, program(range(0, 4 * 759, 4)), preloaded=True)
    with pytest.raises(SimulationError, match="^768 columns"):
        check_columns(config, program(range(4, 4 * 761, 4)))


def test_simulate_cost_past_32_bits_is_refused(tmp_path, capsys):
    """A router pass charge of 4299 digits would make ``cycles`` too
    long to print; the largest 32-bit charge is accepted."""
    path = tmp_path / "omega.cfg"
    path.write_text("rows = 4\ncols = 8\nacu_mem_bytes = 64\npe_mem_bytes = 64\n"
                    "mpnoc = delta-omega\n")
    costs = tmp_path / "costs.cfg"
    costs.write_text("noc_pass_base = " + "9" * 4299 + "\n")
    args = ["simulate", str(path), "--cost-model", str(costs),
            "-o", str(tmp_path / "out")]
    assert main(args) == 1
    assert single_error_line(capsys).startswith(
        f"error: {costs}:1: bad value for 'noc_pass_base': ")
    costs.write_text(f"noc_pass_base = {(1 << 32) - 1}\n")
    assert main(args) == 0
    # Five steps of one pass through five stages, one mode switch, one add.
    cycles = 5 * (5 * ((1 << 32) - 1) + 1 + 1)
    assert capsys.readouterr().out == (
        f"sum=496 steps=5 cycles={cycles}\nhops_per_step=1,1,1,1,1\n")


def test_parser_carries_no_state_between_calls(cfg, tmp_path, capsys):
    out = tmp_path / "out"
    manifest = tmp_path / "files.lst"
    generate = ["generate", str(cfg), "-o", str(out)]
    calls = [
        generate + ["--force-report-only"], generate,
        generate + ["--report", "kv"], generate,
        generate + ["--manifest", str(manifest)], generate,
        generate + ["--report", "xml"], ["simulate"], ["simulate"],
    ]

    def call(argv):
        shutil.rmtree(out, ignore_errors=True)
        manifest.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse's usage error
            code = exit_.code
        stdout, stderr = capsys.readouterr()
        written = {path.relative_to(tmp_path): path.read_bytes()
                   for path in (*out.glob("*"), manifest) if path.is_file()}
        if code == 2:
            assert stderr.startswith("usage: mppsoc")
            return code, stdout, stderr, written
        # The timing on stderr differs from run to run.
        return code, stdout, written

    first = []
    for argv in calls:
        _build_parser.cache_clear()
        first.append(call(argv))
    assert [entry[0] for entry in first] == [0] * 6 + [2] * 3
    _build_parser.cache_clear()
    assert [call(argv) for argv in calls] == first
    assert _build_parser.cache_info().misses == 1


def test_shipped_demo_configs_are_usable(tmp_path, capsys):
    assert main(["validate", str(DEMOS / "mesh16.cfg")]) == 0
    assert main(["validate", str(DEMOS / "linear64.cfg")]) == 0
    assert main(["validate", str(DEMOS / "delta8.cfg")]) == 0
    assert main(["validate", str(DEMOS / "bad_mesh1x4.cfg")]) == 1
    assert main(["simulate", str(DEMOS / "mesh16.cfg"), "--values", "0..15",
                 "-o", str(tmp_path / "out")]) == 0
    assert "sum=120 steps=4" in capsys.readouterr().out


# -- error contract of ``simulate --app asm:FILE`` ---------------------------

FUZZ_CONFIGS = {
    "omega_ring_1x8": (1, 8, "ring", "delta-omega"),
    "butterfly_torus_4x4": (4, 4, "torus2d", "delta-butterfly"),
    "sharedbus_xnet_2x3": (2, 3, "xnet", "sharedbus"),
    "crossbar_1x5": (1, 5, "linear", "crossbar"),
}

# Small numbers and edge ones: wider than any port or address, 2^32,
# negative.
_numbers = st.sampled_from(["0", "1", "2", "3", "4", "5", "7", "8", "12",
                            "64", "4294967296", "9" * 30, "-1", "-8",
                            "-" + "9" * 30])
_registers = st.sampled_from(["r0", "r1", "r7", "r8"])
_destinations = st.one_of(
    _numbers, st.just("idx"), st.just("idx+-1"),
    st.tuples(st.sampled_from(["idx+", "idx-"]), _numbers).map("".join))
_predicates = st.one_of(
    st.sampled_from(["all", "none", "even", "odd"]),
    st.tuples(st.sampled_from(["lt:", "ge:"]), _numbers).map("".join),
    st.tuples(_numbers, _numbers).map(lambda mr: f"mod:{mr[0]}:{mr[1]}"))
_instructions = st.one_of(
    st.tuples(st.sampled_from(["pe", "acu", "dev"]), _destinations,
              _registers).map(lambda a: "NOCSEND {},{},{}".format(*a)),
    _predicates.map("MASK {}".format),
    st.tuples(_registers, st.sampled_from(["N", "S", "E", "W", "NE", "X"]))
    .map(lambda a: "MOVD {},{}".format(*a)),
    st.tuples(st.sampled_from(["LD", "ST"]), _registers, _numbers)
    .map(lambda a: "{} {},{}".format(*a)),
    st.just("UNMASK"))


def value_specs(n):
    """``--values`` specs for n PEs: ranges inside and just outside the
    32-bit words, lists of edge words, and one value too many."""
    top = 1 << 32
    return st.one_of(
        st.none(),
        st.sampled_from([f"0..{n - 1}", f"-3..{n - 4}", f"{top - n}..{top - 1}",
                         f"{top - n + 1}..{top}", f"0..{n}"]),
        st.lists(_numbers, min_size=n, max_size=n + 1).map(",".join))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, (rows, cols, neighborhood, mpnoc) in FUZZ_CONFIGS.items():
        (root / f"{name}.cfg").write_text(
            f"rows = {rows}\ncols = {cols}\nacu_mem_bytes = 64\n"
            f"pe_mem_bytes = 64\nneighborhood = {neighborhood}\n"
            f"mpnoc = {mpnoc}\n")
    return root


@settings(max_examples=150, deadline=None)
@given(config=st.sampled_from(sorted(FUZZ_CONFIGS)),
       lines=st.lists(_instructions, max_size=6),
       halt=st.sampled_from([True] * 9 + [False]), data=st.data())
def test_simulate_asm_keeps_the_error_contract(fuzz_dir, config, lines, halt,
                                               data):
    """Random programs of NOCSEND, MASK, MOVD, LD and ST with edge
    operands: every run exits 0-3 without a traceback, a failure prints
    exactly one ``error:`` line, and a rerun prints the same."""
    program = fuzz_dir / "prog.asm"
    program.write_text("\n".join(lines + ["HALT"] * halt) + "\n")
    rows, cols = FUZZ_CONFIGS[config][:2]
    values = data.draw(value_specs(rows * cols))
    argv = ["simulate", str(fuzz_dir / f"{config}.cfg"),
            "--app", f"asm:{program}", "-o", str(fuzz_dir / "out")]
    if values is not None:  # ``=`` keeps a leading '-' from parsing as a flag
        argv.append(f"--values={values}")

    def call():
        with redirect_stdout(io.StringIO()) as out, \
                redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    code, out, err = call()
    assert code in (0, 1, 2, 3)
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    else:
        assert err == ""
    assert call() == (code, out, err)


_COMMANDS = ["validate", "generate", "simulate", "report"]
_ARGV_WORDS = _COMMANDS + [
    "-o", "--out=x", "--out", "--report", "--rep", "kv", "xml", "text",
    "--force-report-only", "--force", "--f", "--templates", "--app",
    "--values=-1..2", "-h", "--help", "--", "--bogus", "-", "a.cfg",
    "dir/b.cfg"]


@pytest.fixture
def recording_commands(monkeypatch):
    """Every command's function replaced by one that records the
    namespace it is given and returns 0; the parser is rebuilt around
    them and again, with the real ones, afterwards."""
    seen = []
    for name in ("_cmd_validate", "_cmd_generate", "_cmd_simulate",
                 "_cmd_report"):
        monkeypatch.setattr(cli_module, name,
                            lambda args: seen.append(args) or 0)
    _build_parser.cache_clear()
    yield seen
    _build_parser.cache_clear()


def _parse_outcome(parse, argv):
    """(result or exit code, stdout, stderr) of one parse or ``main``
    call; argparse's usage error exits."""
    with redirect_stdout(io.StringIO()) as out, \
            redirect_stderr(io.StringIO()) as err:
        try:
            result = parse(argv)
        except SystemExit as exit_:
            result = exit_.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.lists(st.sampled_from(_ARGV_WORDS), max_size=6)
       | st.builds(lambda command, rest: [command, *rest],
                   st.sampled_from(_COMMANDS),
                   st.lists(st.sampled_from(_ARGV_WORDS), max_size=5)))
def test_main_parses_exactly_like_the_root_parser(recording_commands, argv):
    """``main`` hands a named command's arguments to that command's own
    parser; the exit code, stdout, stderr and namespace are those of the
    root parser's ``parse_args``, help and usage errors included."""
    def via_main(argv):
        recording_commands.clear()
        return main(list(argv)), *recording_commands

    def via_root(argv):
        return 0, _build_parser().parse_args(list(argv))

    assert _parse_outcome(via_main, argv) == _parse_outcome(via_root, argv)


def test_module_entry_point_reads_sys_argv(tmp_path):
    """``python -m mppsoc.cli`` parses ``sys.argv`` (``main(None)``).
    Every command, and each of its write paths, also runs clean under
    ``-X dev -W error``: an unclosed file or a deprecated call would
    turn its warning into a failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def run(*args, dev=False):
        flags = ["-X", "dev", "-W", "error"] if dev else []
        return subprocess.run([sys.executable, *flags, "-m", "mppsoc.cli",
                               *args], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=60)

    bare = run()
    assert (bare.returncode, bare.stdout) == (2, "")
    usage, error = bare.stderr.splitlines()
    assert usage.startswith("usage: mppsoc ")
    assert error.startswith("mppsoc: error: ")
    valid = run("validate", "demos/mesh16.cfg")
    assert (valid.returncode, valid.stdout, valid.stderr) == (0, "VALID\n", "")

    out, program = tmp_path / "out", tmp_path / "send.asm"
    program.write_text("LDI r0,5\nMASK mod:2:0\nNOCSEND pe,idx+1,r0\nUNMASK\n"
                       "NOCSEND acu,0,r0\nHALT\n")
    for args in (["validate", "demos/mesh16.cfg"],
                 ["generate", "demos/mesh16.cfg", "-o", str(out),
                  "--manifest", str(tmp_path / "manifest.txt"), "--report", "kv"],
                 ["generate", "demos/mesh16.cfg", "--force-report-only"],
                 ["simulate", "demos/mesh16.cfg", "-o", str(out)],
                 ["simulate", "demos/delta8.cfg", "--app", f"asm:{program}",
                  "-o", str(out)],
                 ["report", "-o", str(out)]):
        done = run(*args, dev=True)
        assert done.returncode == 0, (args, done.stderr)


def _quiet_main(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


# Printable names, biased towards the characters a VHDL string literal
# or a whitespace tokenizer treats specially.
_IMAGE_NAMES = st.text(
    st.sampled_from('ab.x"# =\\-') | st.characters(
        blacklist_categories=("Cs",), blacklist_characters="/\x00"),
    min_size=1, max_size=12).filter(str.isprintable)


@settings(max_examples=60, deadline=None)
@given(name=_IMAGE_NAMES)
def test_regenerating_over_the_output_is_a_no_op(name):
    """For every printable ``mem_init`` name that parses, generate and
    then generate again from the first output as ``--templates`` give
    byte-identical files; a name that does not parse is refused."""
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        config = root / "machine.cfg"
        config.write_text(VALID_CFG + f"mem_init = {name}\n", encoding="utf-8")
        try:
            image = parse_config(config.read_text(encoding="utf-8")).mem_init
        except ConfigError:
            assert _quiet_main(["validate", str(config)]) == 1
            return
        if image in (".", ".."):
            return
        (root / image).write_text("cafef00d\n", encoding="utf-8")
        first, second = root / "first", root / "second"
        assert _quiet_main(["generate", str(config), "-o", str(first)]) == 0
        assert _quiet_main(["generate", str(config), "-o", str(second),
                            "--templates", str(first)]) == 0
        for file_name in TEMPLATE_FILES:
            assert ((first / file_name).read_bytes()
                    == (second / file_name).read_bytes())
        # The spliced name is one well-formed VHDL string literal.
        for file_name in ("mem_acu.vhd", "mem_pe.vhd"):
            line, = [line for line in (first / file_name).read_text(
                encoding="utf-8").splitlines() if "init_file" in line]
            assert line == f'      init_file => "{image}",'
            assert line.count('"') == 2


# -- error contract of every command over drawn inputs -----------------------

# Per required key: values that parse and build, then values that do
# not (refused words, sizes that are no whole word, a shape past 2^31-1
# or past the simulator's PE ceiling).
_CONFIG_VALUES = {
    "rows": (["2", "4", "1"], ["0", "-1", "0x4", "1048577", "9" * 30, "two"]),
    "cols": (["2", "4", "8"], ["3", "0", "2147483648"]),
    "acu_mem_bytes": (["64", "4096"], ["6", "0", "8589934592"]),
    "pe_mem_bytes": (["64", "1024"], ["10", "8589934596"]),
    "neighborhood": (["mesh2d", "torus2d", "xnet", "ring", "linear"],
                     ["hex", ""]),
    "mpnoc": (["crossbar", "sharedbus", "delta-omega", "delta-butterfly",
               "delta-baseline"], ["ring"]),
}
_EXTRA_LINES = st.sampled_from([
    "# comment", "", "rows", "= 4", "warp = 9", "rows = 4 4",
    "processor = minimips", "processor = nios", "methodology = reduction",
    "methodology = other", "mem_init = image.hex", "mem_init = missing.hex",
    'mem_init = a"b.hex', "rows = 4  # grid", "mpnoc = crossbar#bus",
    "mem_init = image.hex # words", "mem_init = # none", "= 4 # four",
    "warp = 9 # speed"])


@st.composite
def _config_texts(draw):
    """A config file's bytes: each required key with a good value, most
    of the time, a bad one or none; a few extra lines; a stray byte."""
    lines = []
    for key, (good, bad) in _CONFIG_VALUES.items():
        choice = draw(st.integers(0, 15))
        if choice == 15:
            continue
        lines.append(f"{key} = "
                     + draw(st.sampled_from(bad if choice == 14 else good)))
    if draw(st.integers(0, 2)) == 2:
        lines.append(draw(_EXTRA_LINES))
    tail = draw(st.sampled_from([b"\n"] * 14 + [b"", b"\xff"]))
    return "\n".join(lines).encode() + tail


_COST_LINES = st.tuples(
    st.sampled_from([f.name for f in fields(CostModel)] * 3
                    + ["warp_speed", "# c", ""]),
    st.sampled_from(["0", "1", "2", "3"] * 3 + ["-1", "4294967296", "x"]),
    st.sampled_from(["", "", "  # note", "#"]),
).map(lambda parts: " = ".join(parts[:2]) + parts[2])


@st.composite
def _template_edits(draw):
    """One bundled template with one line dropped, doubled or cut short,
    or one byte put in."""
    name = draw(st.sampled_from(TEMPLATE_FILES))
    lines = (bundled_template_dir() / name).read_bytes().split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["drop", "double", "cut", "byte"]))
    if edit == "drop":
        del lines[i]
    elif edit == "double":
        lines.insert(i, lines[i])
    else:
        at = draw(st.integers(0, len(lines[i])))
        byte = draw(st.sampled_from([b"\xff", b'"', b";", b" ", b"\t"]))
        lines[i] = lines[i][:at] + (byte + lines[i][at:] if edit == "byte"
                                    else b"")
    return name, b"\n".join(lines)


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    (root / "image.hex").write_text("cafef00d\n", encoding="utf-8")
    return root


def _rules_report(text):
    """Whether ``text`` is the rule checker's INVALID report."""
    first, *rest = text.splitlines() or [""]
    return first == "INVALID" and all(line.startswith("  R") for line in rest)


@settings(max_examples=120, deadline=None)
@given(command=st.sampled_from(["validate", "generate", "generate-templates",
                                "generate-report-only", "simulate", "report",
                                "usage-error"]),
       config=_config_texts(),
       costs=st.none() | st.lists(_COST_LINES, max_size=3).map(
           lambda lines: "\n".join(lines).encode()),
       values=st.none() | value_specs(4), template=_template_edits(),
       out_is_a_file=st.booleans())
def test_every_command_keeps_the_error_contract(contract_dir, command, config,
                                                costs, values, template,
                                                out_is_a_file):
    """Drawn config text, cost-model text, ``--values`` specs, template
    bytes and an output path that may be a file: every call exits 0-3
    without raising, a failure prints exactly
    one ``error:`` line (argparse's usage text above its own; the rules'
    INVALID report beside it or in its place), and a rerun prints the
    same stdout."""
    config_path = contract_dir / "machine.cfg"
    config_path.write_bytes(config)
    templates = contract_dir / "templates"
    templates.mkdir(exist_ok=True)
    for name in TEMPLATE_FILES:
        shutil.copyfile(bundled_template_dir() / name, templates / name)
    (templates / template[0]).write_bytes(template[1])
    out = str(config_path if out_is_a_file else contract_dir / "out")
    argv = {
        "validate": ["validate", str(config_path)],
        "generate": ["generate", str(config_path), "-o", out],
        "generate-templates": ["generate", str(config_path), "-o", out,
                               "--templates", str(templates)],
        "generate-report-only": ["generate", str(config_path),
                                 "--force-report-only", "--templates",
                                 str(templates)],
        "simulate": ["simulate", str(config_path), "-o", out],
        "report": ["report", "-o", out],
        "usage-error": ["generate", str(config_path), "--report", "xml"],
    }[command]
    if command == "simulate":
        if costs is not None:
            (contract_dir / "costs.txt").write_bytes(costs)
            argv += ["--cost-model", str(contract_dir / "costs.txt")]
        if values is not None:
            argv.append(f"--values={values}")

    code, stdout, stderr = _parse_outcome(main, argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in stderr
    lines = stderr.splitlines()
    errors = [line for line in lines if "error:" in line]
    if code == 2 and stderr.startswith("usage: mppsoc"):
        # argparse's case: the usage text, wrapped, then its error line.
        assert errors == lines[-1:] and errors[0].startswith("mppsoc"), stderr
    elif code and not (code == 1 and not errors
                       and _rules_report(stdout or stderr)):
        assert len(errors) == 1 and errors[0].startswith("error: "), stderr
        rest = "\n".join(line for line in lines if line != errors[0])
        assert not rest or _rules_report(rest), stderr
    else:
        assert not errors, stderr
    assert _parse_outcome(main, argv)[:2] == (code, stdout)
