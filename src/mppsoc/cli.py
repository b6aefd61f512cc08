"""Command-line driver: validate -> generate -> simulate -> report.

Exit codes: 0 success, 1 invalid configuration (or config/cost file
problem), 2 I/O or template trouble, or a configuration whose generated
VHDL would hold an ``integer`` over 2^31-1, 3 simulation runtime errors
or a neighbourhood that cannot be built on the grid.
Diagnostics, including timings, go to stderr; everything printed to
stdout is reproducible across identical runs.  A report is written a PE
at a time as it renders, to stdout and then its kv file, never whole.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from mppsoc.config import ConfigError, CostModel, parse_config
from mppsoc.errors import (
    MppSocError,
    content_lines,
    int_text,
    read_blocks,
    read_text,
)
from mppsoc.rewrite import (
    TEMPLATE_FILES,
    RewriteError,
    generate,
    generate_in_memory,
)
from mppsoc.rules import validate
from mppsoc.simulator import (
    SimMachine,
    SimulationError,
    check_columns,
    check_pe_count,
    load_program,
    reduce_sum,
    run,
)
from mppsoc.topology import check_dimensions

_GEN_REPORT_NAME = "generation-report.kv"
_SIM_REPORT_NAME = "simulation-report.kv"


def _load(path_text: str, parse):
    """Read a ``key = value`` file (configuration or cost model) and parse
    it, prefixing every problem with ``path:line``."""
    path = Path(path_text)
    text = read_text(path, ConfigError)
    try:
        return parse(text)
    except ConfigError as err:
        location = f"{path}:{err.line}" if err.line else str(path)
        raise ConfigError(f"{location}: {err}") from err


def _value(token: str, base: int = 0) -> int:
    """One ``--values`` integer: Python's integer literal (``0x``, ``0o``
    and ``0b`` prefixes too) in ASCII."""
    if not token.isascii():
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(token, base)


def _parse_values(spec: str, count: int) -> list[int]:
    """The values of ``--values``: ``A..B`` in decimal, a comma list, or
    ``@FILE`` with whitespace-separated values on the lines
    ``content_lines`` keeps."""
    try:
        if spec.startswith("@"):
            text = read_text(Path(spec[1:]), OSError)
            # With no comment and no non-ASCII character, the lines'
            # tokens are the whole text's, in the same order.
            values = ([int(t, 0) for t in text.split()]
                      if text.isascii() and "#" not in text else
                      [_value(t) for _, line in content_lines(text)
                       for t in line.split()])
        elif ".." in spec:
            lo, hi = spec.split("..", 1)
            values = range(_value(lo, 10), _value(hi, 10) + 1)
        else:
            values = [_value(t) for t in spec.split(",") if t.strip()]
    except ValueError as err:
        raise SimulationError(f"--values {spec!r}: {err}") from None
    # A range is counted before it is listed, so a wide one costs nothing
    # (and ``len`` would overflow past sys.maxsize).
    supplied = (max(values.stop - values.start, 0)
                if isinstance(values, range) else len(values))
    if supplied != count:
        raise SimulationError(f"--values supplied {int_text(supplied)} "
                              f"values, the array has {count} PEs")
    # The array has at least one PE; a range is checked at its two ends.
    ends = (values[0], values[-1]) if isinstance(values, range) else values
    if not -(1 << 31) <= min(ends) <= max(ends) < 1 << 32:
        raise SimulationError("--values: every value must be a 32-bit word, "
                              "from -2147483648 to 4294967295")
    return list(values)


def _write_report(args, report, path: Path, note: str = "") -> None:
    """Print ``report`` in the ``--report`` form, then ``note`` on stderr,
    then save the kv form at ``path``, each a piece at a time."""
    sys.stdout.writelines(f"{p}\n" for p in report.lines(args.report == "kv"))
    sys.stderr.write(note)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as file:
        file.writelines(f"{p}\n" for p in report.lines(kv=True))


def _cmd_validate(args) -> int:
    config = _load(args.config, parse_config)
    report = validate(config)
    print(report)
    return 0 if report.is_valid else 1


def _cmd_generate(args) -> int:
    config = _load(args.config, parse_config)
    report = validate(config)
    if not report.is_valid:
        print(report, file=sys.stderr)
        if not args.force_report_only:
            return 1
    template_dir = Path(args.templates) if args.templates else None
    # Only a memory image is looked up next to the configuration.
    search_dir = (Path(args.config).resolve().parent
                  if config.mem_init is not None else None)

    if args.force_report_only:
        outputs, rewritten = generate_in_memory(config, template_dir, search_dir)
        lines = sum(text.count("\n") for text in outputs.values())
        print(f"{len(outputs)} files planned, {lines} lines, "
              f"{rewritten} lines rewritten (report only, nothing written)")
        return 0

    if config.neighborhood is not None:
        # R1-R3 pass some shapes the neighbourhood cannot be built on.
        check_dimensions(config.neighborhood, config.rows, config.cols)
    out_dir = Path(args.out)
    gen_report = generate(config, out_dir, template_dir, search_dir)
    _write_report(args, gen_report, out_dir / _GEN_REPORT_NAME,
                  f"generation took {gen_report.elapsed_seconds:.3f}s\n")
    if args.manifest:
        manifest = "".join(f"{out_dir / name}\n" for name in TEMPLATE_FILES)
        Path(args.manifest).write_text(manifest, encoding="utf-8")
    return 0


def _cmd_simulate(args) -> int:
    config = _load(args.config, parse_config)
    report = validate(config)
    if not report.is_valid:
        print(report, file=sys.stderr)
        return 1
    cost = (_load(args.cost_model, CostModel.from_text) if args.cost_model
            else CostModel())
    check_pe_count(config.n_pes)

    if args.app == "reduce":
        values = (_parse_values(args.values, config.n_pes) if args.values
                  else list(range(config.n_pes)))
        outcome = reduce_sum(config, values, cost)
    elif args.app.startswith("asm:"):
        program = load_program(read_text(Path(args.app[4:]), OSError))
        check_columns(config, program, preloaded=bool(args.values))
        machine = SimMachine(config, cost)
        if args.values:
            machine.set_values(_parse_values(args.values, config.n_pes))
        outcome = run(machine, program)
    else:
        raise SimulationError(f"unknown app {args.app!r} (reduce or asm:FILE)")
    _write_report(args, outcome, Path(args.out) / _SIM_REPORT_NAME)
    return 0


def _print_saved(path: Path, block: int = 1 << 16) -> None:
    """Print the text of ``path``, its trailing newlines cut to one, a
    block at a time: a block that does not decode fails after the blocks
    before it are printed."""
    tail = ""  # the newlines read last, printed only before more text
    for piece in read_blocks(path, OSError, block):
        piece = tail + piece
        text = piece.rstrip("\n")
        sys.stdout.write(text)
        tail = piece[len(text):]
    sys.stdout.write("\n")


def _cmd_report(args) -> int:
    out_dir = Path(args.out)
    found = False
    for name in (_GEN_REPORT_NAME, _SIM_REPORT_NAME):
        path = out_dir / name
        if path.is_file():
            found = True
            _print_saved(path)
    if not found:
        print(f"error: no reports in {out_dir}", file=sys.stderr)
        return 2
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``mppsoc`` parser, built on the first ``main`` call and reused
    by later ones in the same process: parsing leaves it unchanged.
    ``commands`` maps each command name to its own subparser.  (The
    bundled templates are likewise read once per process; a
    ``--templates`` directory is read on every call.)"""
    parser = argparse.ArgumentParser(
        prog="mppsoc",
        description="Validate, generate and simulate parametric SIMD SoC "
                    "configurations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a configuration file")
    p_validate.add_argument("config")
    p_validate.set_defaults(func=_cmd_validate)

    p_generate = sub.add_parser("generate", help="emit the VHDL file set")
    p_generate.add_argument("config")
    p_generate.add_argument("-o", "--out", default="./out")
    p_generate.add_argument("--templates", default=None,
                            help="template directory (default: bundled)")
    p_generate.add_argument("--manifest", default=None,
                            help="write the generated file list here")
    p_generate.add_argument("--force-report-only", action="store_true",
                            help="report what would be generated, write nothing")
    p_generate.add_argument("--report", choices=("text", "kv"), default="text")
    p_generate.set_defaults(func=_cmd_generate)

    p_simulate = sub.add_parser("simulate", help="run a program on the array")
    p_simulate.add_argument("config")
    p_simulate.add_argument("--app", default="reduce",
                            help="'reduce' (default) or 'asm:FILE'")
    p_simulate.add_argument("--values", default=None,
                            help="A..B range, comma list, or @FILE")
    p_simulate.add_argument("--cost-model", default=None,
                            help="cycle-cost override file (key = value lines)")
    p_simulate.add_argument("-o", "--out", default="./out")
    p_simulate.add_argument("--report", choices=("text", "kv"), default="text")
    p_simulate.set_defaults(func=_cmd_simulate)

    p_report = sub.add_parser("report", help="re-print reports from a run directory")
    p_report.add_argument("-o", "--out", default="./out")
    p_report.set_defaults(func=_cmd_report)

    parser.commands = {"validate": p_validate, "generate": p_generate,
                       "simulate": p_simulate, "report": p_report}
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    # A named command's own parser skips the root's subcommand layer;
    # anything else (no command, or arguments the command leaves over)
    # goes through the root, which prints every help and error text.
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        args.command = argv[0]
    if command is None or extras:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (RewriteError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SimulationError as err:
        location = f" (line {err.line})" if err.line else ""
        print(f"error: {err}{location}", file=sys.stderr)
        return 3
    except MppSocError as err:
        # Topology/router errors surface while building or driving the
        # machine (e.g. a 1x2 ring passes the rules but cannot be built).
        print(f"error: {err}", file=sys.stderr)
        return 3


def script():
    raise SystemExit(main())


if __name__ == "__main__":
    script()
