import shutil
import time
import tracemalloc
from pathlib import Path

import pytest

from mppsoc.cli import _build_parser, main
from mppsoc.rewrite import TEMPLATE_FILES, bundled_template_dir
from mppsoc.simulator import MAX_PES

DEMOS = Path(__file__).resolve().parent.parent / "demos"

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


@pytest.mark.parametrize("source, message", [
    ("NOCSEND pe,idx+1,r0\nHALT\n", "message 15->16 outside 0..15 (line 1)"),
    ("LDI r0,1\nMOVD r0,NE\nHALT\n",
     "direction NE does not exist on mesh2d (line 2)"),
    ("LDI r0,1\n\nLD r0,1024\nHALT\n",
     "PE 0: illegal word access at byte address 1024 (line 3)"),
    # -1 and -2 are also the ACU and device sentinel ports.
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


def test_simulate_non_utf8_program_is_io_error(cfg, tmp_path, capsys):
    program = tmp_path / "prog.asm"
    program.write_bytes(b"LDI r0,\xff\nHALT\n")
    assert main(["simulate", str(cfg), "--app", f"asm:{program}",
                 "-o", str(tmp_path / "out")]) == 2
    assert single_error_line(capsys).startswith(f"error: {program}: cannot read")


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


def test_report_empty_directory(tmp_path, capsys):
    assert main(["report", "-o", str(tmp_path)]) == 2


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
