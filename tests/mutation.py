"""Mutation check: does some test fail when the code is wrong?

Each mutant below names a file, an exact string in it, the string that
replaces it, the test files to run and why a test should fail.  The
script copies the repository to a temporary directory once, then for
each mutant writes the mutated file, runs

    pytest -x -q -p no:cacheprovider --hypothesis-seed=0
           --hypothesis-profile=noshrink TESTS

on the copy, and restores the file.  A mutant is *killed* when pytest
fails and *survived* when it passes.  A survivor is a missing test, or
an equivalent mutant, listed with ``equivalent=True`` and a one-line
proof as its reason, which prints as *equivalent*.

Run it from anywhere, with pytest and hypothesis installed; name
mutants by their number to run only those:

    python tests/mutation.py [NUMBER ...]

It prints a Markdown table and exits 1 when a mutant not listed as
equivalent survives, or when a mutant's string is not found exactly
once.  Pytest does not collect this file: its name does not start with
``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    reason: str
    equivalent: bool = False


SIM = "src/mppsoc/simulator.py"
REWRITE = "src/mppsoc/rewrite.py"
CLI = "src/mppsoc/cli.py"
SIM_TESTS = ("tests/test_simulator.py", "tests/test_sim_differential.py")

MUTANTS = (
    Mutant(SIM, "span = senders[-1] - senders.start + 1 if senders else 0",
           "span = senders[-1] - senders.start if senders else 0", SIM_TESTS,
           "an acu or dev send drops its highest sender's word"),
    Mutant(SIM, "columns = _REGISTER_COUNT + sum(",
           "columns = _REGISTER_COUNT - 1 + sum(", ("tests/test_cli.py",),
           "the column budget counts one register column too few"),
    Mutant(SIM, "total_cycles += hops * cost.hop_cycles",
           "total_cycles += hops",
           ("tests/test_simulator.py", "tests/test_acceptance.py"),
           "reduce_sum charges one cycle per hop whatever the cost model"),
    Mutant("src/mppsoc/mpnoc.py", "conflicts += p\n", "conflicts += p > 0\n",
           ("tests/test_mpnoc.py", "tests/test_router_differential.py"),
           "a conflict counts once per message, not once per skipped pass"),
    Mutant("src/mppsoc/topology.py",
           "if kind is Neighborhood.TORUS2D and (rows < 3 or cols < 3):",
           "if kind is Neighborhood.TORUS2D and (rows < 3 and cols < 3):",
           ("tests/test_topology.py",),
           "a torus with one axis under 3 PEs is built"),
    Mutant(SIM, "high, low = LANE_BITS * senders[-1], LANE_BITS * number",
           "high, low = LANE_BITS * senders.start, LANE_BITS * number",
           SIM_TESTS,
           "a send to one PE keeps the lowest sender's word, not the highest"),
    Mutant(SIM, "if len(plans) >= _PLAN_MEMO:", "if len(plans) > _PLAN_MEMO:",
           ("tests/test_simulator.py",),
           "a program keeps 9 plans where it promises 8"),
    Mutant("src/mppsoc/rules.py", "return n > 0 and (n & (n - 1)) == 0",
           "return (n & (n - 1)) == 0",
           ("tests/test_rules.py", "tests/test_config.py"),
           "0 counts as a power of two, but every config has rows, cols >= 1, "
           "so no config has 0 PEs", equivalent=True),
    Mutant(SIM, "total = regs[dst] & m.full if settle else regs[dst]",
           "total = regs[dst]", ("tests/test_sim_differential.py",),
           "a masked accumulate leaves a carry in the guard bits"),
    Mutant(SIM, "elif full:  # under a partial mask, zero only if it was",
           "else:  # under a partial mask, zero only if it was",
           ("tests/test_sim_differential.py", "tests/test_simulator.py"),
           "LDI r, 0 under a partial mask marks r zero in every lane"),
    Mutant(SIM, "edge = start + number if number > 0 else last + number + 1",
           "edge = start + number + 1 if number > 0 else last + number + 1",
           ("tests/test_sim_differential.py",),
           "an idx+K send's receivers start one PE too high"),
    Mutant(SIM, "edge = start + number if number > 0 else last + number + 1",
           "edge = start + number if number > 0 else last + number",
           ("tests/test_sim_differential.py",),
           "an idx-K send's receivers end one PE too low"),
    Mutant(SIM, "if not (senders and number and number % step == 0",
           "if not (senders and number",
           ("tests/test_sim_differential.py",),
           "an idx±K send off the mask's stride shifts words into idle PEs"),
    Mutant(SIM, "@lru_cache(maxsize=20)\ndef _lanes(",
           "@lru_cache(maxsize=8)\ndef _lanes(", ("tests/test_simulator.py",),
           "a noc-program-shaped run rebuilds its lane masks on every run"),
    Mutant("src/mppsoc/topology.py", "@lru_cache(maxsize=32)\ndef _move_masks(",
           "@lru_cache(maxsize=None)\ndef _move_masks(",
           ("tests/test_simulator.py",),
           "the move masks have no bound"),
    Mutant("src/mppsoc/mpnoc.py", "columns = [dsts]", "columns = [srcs]",
           ("tests/test_mpnoc.py", "tests/test_simulator.py"),
           "m messages to one port take one pass"),
    Mutant("src/mppsoc/topology.py",
           "hops = hops % extent if self._wraps else min(hops, extent)",
           "hops = hops % extent if self._wraps else hops",
           ("tests/test_topology.py",),
           "moves past the axis of a grid that does not wrap are not clamped"),
    Mutant(SIM, "m.regs[reg], moves, word and _lanes(range(n), word))",
           "m.regs[reg], moves, 0)", SIM_TESTS,
           "a full-mask MOVD fills with 0 whatever the boundary word"),
    Mutant(SIM, "apply, fill = m.topology.apply, word and _lanes(range(n), word)",
           "apply, fill = m.topology.apply, 0", SIM_TESTS,
           "a masked MOVD fills with 0 whatever the boundary word"),
    Mutant(SIM, "m.regs[reg], moves, word and",
           "m.regs[reg], m.topology.moves(direction, hops), word and",
           ("tests/test_simulator.py",),
           "a full-mask MOVD asks the graph for its moves on every run"),
    Mutant(SIM, "merge, word, full = ctx.merge, _wrap(imm), ctx.full",
           "merge, word, full = ctx.merge, _wrap(imm), bool(ctx.active)",
           SIM_TESTS, "an LDI under a partial mask stores with no merge"),
    Mutant(SIM, "if not isinstance(words, Sequence):  # a sequence is read",
           "if True:  # a sequence is read", ("tests/test_simulator.py",),
           "set_values copies a list before it packs it"),
    Mutant(SIM, "_CARRY_ROOM = 255", "_CARRY_ROOM = 256",
           ("tests/test_sim_differential.py",),
           "the guard bits are taken to hold 256 carries, one past a lane"),
    Mutant(SIM, "settle_a, settle_b, count = _addends(carries[a], carries[b])",
           "settle_a, settle_b, count = _addends(carries[a], carries[b]) "
           "if full else (False, False, 0)",
           ("tests/test_sim_differential.py",),
           "a partial-mask add of two columns with carries overflows a lane"),
    Mutant(SIM, "ctx.write(dst, carries[src])", "ctx.write(dst, 0)",
           ("tests/test_sim_differential.py",),
           "a move drops the carries of its source"),
    Mutant(SIM, "ctx.write(reg)  # the merge keeps the old guard bits",
           "ctx.write(reg, 0)", ("tests/test_sim_differential.py",),
           "a masked MOVD drops the carries of its register"),
    Mutant(SIM, "regs[reg] &= full", "regs[reg] = regs[reg]", SIM_TESTS,
           "a run leaves carries in the guard bits at its HALT"),
    Mutant(SIM,
           "        machine.regs[:] = [column & full for column in machine.regs]\n",
           "", ("tests/test_sim_differential.py",),
           "a run that fails leaves carries in the guard bits"),
    Mutant(SIM, "m.regs[reg] = (m.mem.get(addr, 0) if full",
           "m.regs[reg] = (m.mem.get(addr, 0) if True", SIM_TESTS,
           "an LD under a partial mask stores with no merge"),
    Mutant(SIM, "        if not full:\n            m.mem[addr]",
           "        if False:\n            m.mem[addr]", SIM_TESTS,
           "an ST under a partial mask stores with no merge"),
    Mutant(SIM, "m.regs[reg] = m.mem[addr] = m.regs[reg] & m.full",
           "m.mem[addr] = m.regs[reg]", ("tests/test_sim_differential.py",),
           "an ST of a column with carries stores them in memory"),
    Mutant("src/mppsoc/mpnoc.py",
           "\n            and 0 <= srcs.start and srcs[-1] < ports"
           "\n            and 0 <= dsts.start and dsts[-1] < ports):",
           "):", ("tests/test_mpnoc.py", "tests/test_router_differential.py"),
           "the omega exit answers one pass for ports outside 0..N-1"),
    Mutant(REWRITE, "+ prefix, suffix + line[value.end():]",
           "+ prefix, line[value.end():]", ("tests/test_rewrite.py",),
           "a value slot drops the value's suffix"),
    Mutant(REWRITE, "line = rewrite_line(line, other)[0]",
           "line = slot[0] + other.new_value + slot[1]",
           ("tests/test_rewrite.py",),
           "a later action on a changed line reuses the stale slot"),
    Mutant(REWRITE, "        if action.delimiter == anchor:\n"
           "            second = _second_token(line)\n", "",
           ("tests/test_rewrite.py",),
           "a value spliced after the anchor leaves the second token stale"),
    Mutant(CLI, 'if text.isascii() and "#" not in text else',
           "if text.isascii() else", ("tests/test_text_inputs.py",),
           "a --values file with a comment is split whole"),
    Mutant(CLI, "search_dir = (Path(args.config).resolve().parent",
           "search_dir = (Path(args.config).parent", ("tests/test_cli.py",),
           "a memory image is looked up next to a symlink to the config"),
)


def _copy_tree(target: Path) -> Path:
    tree = target / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-run",
        "out"))
    return tree


def _run(tree: Path, mutant: Mutant, env: dict) -> str:
    path = tree / mutant.file
    source = path.read_text(encoding="utf-8")
    if source.count(mutant.old) != 1:
        return "not found once"
    path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "--hypothesis-profile=noshrink",
             *mutant.tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    finally:
        path.write_text(source, encoding="utf-8")
    if done.returncode in (1, 2):  # a test failed, or the code broke
        return "killed"
    if done.returncode == 0:
        return "equivalent" if mutant.equivalent else "survived"
    return f"pytest exit {done.returncode}"


def main(argv: list[str]) -> int:
    numbers = [int(arg) for arg in argv] or range(1, len(MUTANTS) + 1)
    bad = 0
    print("| # | file | mutant | tests | result |")
    print("|--:|:--|:--|:--|:--|")
    with tempfile.TemporaryDirectory() as scratch:
        tree = _copy_tree(Path(scratch))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=str(tree / "src"))
        for number in numbers:
            mutant = MUTANTS[number - 1]
            result = _run(tree, mutant, env)
            bad += result not in ("killed", "killed (timeout)", "equivalent")
            tests = ", ".join(Path(test).name for test in mutant.tests)
            print(f"| {number} | {Path(mutant.file).name} | {mutant.reason} "
                  f"| {tests} | {result} |", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
