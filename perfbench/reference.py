"""A fixed pure-Python kernel that measures the host's current speed.

The benchmark shares a small machine with other work, and host speed
drifts by 15-25% over tens of seconds; every toolkit op slows down with
it.  The runner times this kernel between ops and divides op times by
it, which cancels most of that drift.  The kernel mixes the kinds of
work the toolkit does: per-PE list and bytearray updates, dict inserts,
string formatting, tokenising, and a small file written and read back.
It never changes, so a change to the toolkit moves only the numerator.
"""

from __future__ import annotations

import re
import time
from pathlib import Path

_TOKEN = re.compile(r"[^ \t\r\n]+")
_PES = 2048
_PASSES = 6
_TEXT_LINES = 400


def run_kernel(scratch: Path) -> None:
    regs = [[0] * 8 for _ in range(_PES)]
    mem = [bytearray(64) for _ in range(_PES)]
    for step in range(_PASSES):
        for pe in range(_PES):
            r = regs[pe]
            r[1] = (r[0] + r[1] + pe + step) & 0xFFFFFFFF
            mem[pe][0:4] = r[1].to_bytes(4, "little")
    table = {}
    for i in range(10_000):
        table[(i, i & 7)] = i * 3
    lines = [f"  constant c{i} : integer := {table[(i, i & 7)]};"
             for i in range(_TEXT_LINES)]
    scratch.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in scratch.read_text(encoding="utf-8").splitlines():
        tokens = _TOKEN.findall(line)
        int(tokens[-1].rstrip(";"))


def time_kernel(scratch: Path) -> float:
    begin = time.perf_counter()
    run_kernel(scratch)
    return time.perf_counter() - begin
