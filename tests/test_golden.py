"""Behaviour lock: the demos' stdout, the files `generate` writes and what
`simulate` prints and saves must match goldens byte for byte.

The goldens were captured from the code before the one-definition
refactor.  Demo 02 takes its output directory as an argument, so the test
gives it a temporary one and replaces that path with ``<OUT>``; its
timing goes to stderr and is not compared.  The simulate goldens were
captured from the code that rendered each report whole, before reports
were written a piece at a time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mppsoc.cli import main
from mppsoc.rewrite import TEMPLATE_FILES

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden"

DEMO_SCRIPTS = sorted(p.name for p in DEMOS.glob("0*.py"))


def _run_demo(name: str, *args: str) -> str:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # Development mode with warnings as errors: a ResourceWarning or a
    # DeprecationWarning raised by the runtime code fails the demo.
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error",
                           str(DEMOS / name), *args],
                          capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_demo_has_a_golden():
    assert len(DEMO_SCRIPTS) == 5
    for name in DEMO_SCRIPTS:
        assert (GOLDEN / "demos" / f"{Path(name).stem}.out").is_file()


@pytest.mark.parametrize("name", DEMO_SCRIPTS)
def test_demo_stdout_matches_golden(name, tmp_path):
    args = ()
    if name.startswith("02_"):
        args = (str(tmp_path / "out"),)
    stdout = _run_demo(name, *args)
    if args:
        stdout = stdout.replace(args[0], "<OUT>")
    golden = GOLDEN / "demos" / f"{Path(name).stem}.out"
    assert stdout == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("config", ["mesh16", "delta8", "linear64"])
def test_generate_matches_golden(config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["generate", str(DEMOS / f"{config}.cfg"), "-o", str(out)]) == 0
    expected = GOLDEN / "generate" / config
    assert capsys.readouterr().out == (expected / "stdout.txt").read_text(
        encoding="utf-8")
    for name in TEMPLATE_FILES:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


SIMULATE_RUNS = {
    "asm": ["--app", f"asm:{GOLDEN / 'simulate' / 'asm' / 'prog.asm'}"],
    "reduce": ["--app", "reduce", "--values", "0..15"],
}


@pytest.mark.parametrize("form", ["text", "kv"])
@pytest.mark.parametrize("run", sorted(SIMULATE_RUNS))
def test_simulate_matches_golden(run, form, tmp_path, capsys):
    """Both ``--report`` forms print their golden stdout, and both save
    the same kv file, which ``report`` prints back unchanged."""
    out = tmp_path / "out"
    assert main(["simulate", str(DEMOS / "mesh16.cfg"), *SIMULATE_RUNS[run],
                 "-o", str(out), "--report", form]) == 0
    expected = GOLDEN / "simulate" / run
    assert capsys.readouterr().out.encode() == (
        expected / f"{form}.stdout").read_bytes()
    saved = (out / "simulation-report.kv").read_bytes()
    assert saved == (expected / "simulation-report.kv").read_bytes()
    assert main(["report", "-o", str(out)]) == 0
    assert capsys.readouterr().out.encode() == saved
