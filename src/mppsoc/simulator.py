"""Lock-step SIMD machine simulator.

One ACU broadcasts instructions to an array of PEs; an activity mask
gates which PEs take effect.  Programs use a small assembly: register
moves, local loads/stores, adds, single-hop neighbour shifts (MOVD) and
global-router sends (NOCSEND).  reduce_sum ships the recursive-doubling
reduction as the built-in application.

The machine state is stored as columns (one list of N words per
register and per touched memory word), so each instruction is one
whole-column operation over the array, the way the SIMD hardware
applies it, rather than a loop over PEs.  Every MASK predicate selects
one slice of the PE indices, so the activity mask is a ``range`` and an
instruction reads and writes only that slice of its columns.  MOVD is
the topology's grid shift of one column.

Cycle accounting is additive per instruction: issue plus an op-specific
charge from the CostModel.  Nothing else advances the clock.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from operator import add

from mppsoc.config import CostModel, MppSoCConfig
from mppsoc.errors import MppSocError
from mppsoc.mpnoc import (
    ACU_PORT,
    DEVICE_PORT,
    ModeMismatch,
    MpNocMode,
    MpNocNetwork,
    PortOutOfRange,
    build_network,
    transfer,
)
from mppsoc.topology import OPPOSITE, TopologyGraph, build_topology

_WORD_MASK = 0xFFFFFFFF
_REGISTER_COUNT = 8
MAX_PES = 1 << 20  # eight register columns of 2^20 words: ~64 MiB


def _wrap(value: int) -> int:
    return value & _WORD_MASK


class SimulationError(MppSocError):
    """A program that cannot be loaded or run; ``line`` is the source
    line of the instruction at fault, when there is one."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ProgramError(SimulationError):
    pass


class UnknownMnemonic(ProgramError):
    def __init__(self, mnemonic: str, line: int):
        super().__init__(f"unknown mnemonic '{mnemonic}'", line)


class BadOperand(ProgramError):
    def __init__(self, detail: str, line: int):
        super().__init__(f"bad operand: {detail}", line)


class MissingHalt(ProgramError):
    def __init__(self):
        super().__init__("program does not end with HALT")


class DirectionUnavailable(SimulationError):
    def __init__(self, direction: str, kind):
        super().__init__(f"direction {direction} does not exist on {kind}")


class NocUnavailable(SimulationError):
    def __init__(self):
        super().__init__("NOCSEND needs a global router but none is configured")


class MemoryOutOfBounds(SimulationError):
    def __init__(self, pe: int, addr: int):
        super().__init__(f"PE {pe}: illegal word access at byte address {addr}")
        self.pe = pe
        self.addr = addr


class NotPowerOfTwo(SimulationError):
    def __init__(self, n: int):
        super().__init__(f"reduction needs a power-of-two PE count, got {n}")


def check_pe_count(n: int):  # called before anything is allocated
    if n > MAX_PES:
        raise SimulationError(
            f"{n} PEs exceed the simulator's limit of {MAX_PES} PEs")


class NoTransportAvailable(SimulationError):
    def __init__(self):
        super().__init__("reduction needs a neighbourhood network or a "
                         "global router, the configuration has neither")


@dataclass(frozen=True)
class Instruction:
    op: str
    args: tuple
    line: int


@dataclass(frozen=True)
class SimProgram:
    instructions: tuple[Instruction, ...]

    def __len__(self) -> int:
        return len(self.instructions)


_REG_RE = re.compile(r"^r([0-7])$", re.IGNORECASE)
_DST_EXPR_RE = re.compile(r"^idx([+-]\d+)?$|^-?\d+$", re.IGNORECASE)
_PREDICATE_RE = re.compile(r"^(all|none|even|odd|(lt|ge):\d+|mod:(\d+):\d+)$")


def _parse_register(token: str, line: int) -> int:
    match = _REG_RE.match(token)
    if not match:
        raise BadOperand(f"expected a register r0..r7, got {token!r}", line)
    return int(match.group(1))


def _parse_int(token: str, line: int) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise BadOperand(f"expected an integer, got {token!r}", line) from None


def _parse_direction(token: str, line: int) -> str:
    direction = token.upper()
    if direction not in OPPOSITE:
        raise BadOperand(f"unknown direction {direction!r}", line)
    return direction


def _parse_mode(token: str, line: int) -> MpNocMode:
    try:
        return MpNocMode(token.lower())
    except ValueError:
        raise BadOperand(f"unknown mode {token!r} (pe, acu or dev)",
                         line) from None


def _parse_dst_expr(token: str, line: int) -> str:
    if not _DST_EXPR_RE.match(token):
        raise BadOperand(f"bad destination expression {token!r}", line)
    return token.lower()


def _parse_predicate(token: str, line: int) -> str:
    pred = token.lower()
    match = _PREDICATE_RE.match(pred)
    if not match:
        raise BadOperand(f"bad predicate {token!r}", line)
    if match.group(3) is not None and int(match.group(3)) < 1:
        raise BadOperand(f"bad predicate {token!r} (modulus must be >= 1)", line)
    return pred


# Mnemonic -> one parser per comma-separated operand, in order.
_OPERAND_PARSERS = {
    "HALT": (),
    "UNMASK": (),
    "LDI": (_parse_register, _parse_int),
    "LD": (_parse_register, _parse_int),
    "ST": (_parse_register, _parse_int),
    "ADD": (_parse_register, _parse_register, _parse_register),
    "MOVD": (_parse_register, _parse_direction),
    "NOCSEND": (_parse_mode, _parse_dst_expr, _parse_register),
    "MASK": (_parse_predicate,),
}


def load_program(text: str) -> SimProgram:
    """Parse assembly text: one instruction per line, ``#`` comments.

    Direction and router availability are checked at execution, not
    here, so one program can target several machine shapes.
    """
    instructions: list[Instruction] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        mnemonic, _, rest = line.partition(" ")
        op = mnemonic.upper()
        parsers = _OPERAND_PARSERS.get(op)
        if parsers is None:
            raise UnknownMnemonic(mnemonic, lineno)
        rest = rest.strip()
        tokens = [t.strip() for t in rest.split(",")] if rest else []
        if len(tokens) != len(parsers) or not all(tokens):
            raise BadOperand(f"{op} takes {len(parsers)} comma-separated "
                             f"operands, got {rest!r}", lineno)
        args = tuple(parse(token, lineno) for parse, token in zip(parsers, tokens))
        instructions.append(Instruction(op, args, lineno))

    if not instructions or instructions[-1].op != "HALT":
        raise MissingHalt()
    return SimProgram(instructions=tuple(instructions))


# MASK predicates that are spelled as another one.
_PREDICATE_ALIASES = {"all": "ge:0", "none": "lt:0",
                      "even": "mod:2:0", "odd": "mod:2:1"}


def _active_range(pred: str, n: int) -> range:
    """The PEs that one MASK predicate makes active.  Every predicate
    selects one slice of the PE indices: a prefix, a suffix or every
    m-th PE from r on."""
    head, _, rest = _PREDICATE_ALIASES.get(pred, pred).partition(":")
    if head == "mod":
        modulus, remainder = map(int, rest.split(":"))
        return range(remainder, n, modulus) if remainder < modulus else range(0)
    split = min(int(rest), n)
    return range(split) if head == "lt" else range(split, n)


def _lanes(active: range) -> slice:
    """The slice of a column that ``active`` selects."""
    return slice(active.start, active.stop, active.step)


def _signed_column(column: list[int]) -> list[int]:
    if max(column) >> 31 == 0:
        return column
    return [v - (1 << 32) if v >> 31 else v for v in column]


class SimMachine:
    """Mutable machine state, stored as one column per register and per
    memory word, plus the configured networks.

    ``regs[r][pe]`` is register r of PE pe.  ``mem[addr][pe]`` is the
    word at byte address ``addr`` of PE pe's local memory; a column is
    created by the first store to its address and absent words read 0,
    so memory costs nothing until it is used.  ``active`` is the range
    of PE indices that the last MASK made active; instructions touch
    only that slice of a column.
    """

    def __init__(self, config: MppSoCConfig, cost: CostModel | None = None):
        check_pe_count(config.n_pes)
        self.config = config
        self.cost = cost or CostModel()
        self.n_pes = config.n_pes
        self.topology: TopologyGraph | None = None
        if config.neighborhood is not None:
            self.topology = build_topology(config.neighborhood,
                                           config.rows, config.cols)
        self.mpnoc: MpNocNetwork | None = None
        if config.mpnoc is not None:
            self.mpnoc = build_network(config.mpnoc, self.n_pes)
        self.reset()

    def reset(self):
        self.regs = [[0] * self.n_pes for _ in range(_REGISTER_COUNT)]
        self.mem: dict[int, list[int]] = {}
        self.set_mask("all")
        self.acu_mailbox: list[int] = []
        self.device_sink: list[int] = []
        self.cycles = 0

    def set_mask(self, pred: str):
        """Make the PEs that satisfy a (loaded) MASK predicate active."""
        self.active = _active_range(pred, self.n_pes)

    # -- PE memory (word-aligned byte addressing) -------------------------

    def read_word(self, pe: int, addr: int) -> int:
        self._check_addr(pe, addr)
        column = self.mem.get(addr)
        return column[pe] if column is not None else 0

    def write_word(self, pe: int, addr: int, value: int):
        self._check_addr(pe, addr)
        column = self.mem.get(addr)
        if column is None:
            column = self.mem[addr] = [0] * self.n_pes
        column[pe] = _wrap(value)

    def _check_addr(self, pe: int, addr: int):
        if addr < 0 or addr % 4 != 0 or addr + 4 > self.config.pe_mem_bytes:
            raise MemoryOutOfBounds(pe, addr)

    def _word_access(self, addr: int) -> bool:
        """Whether the active PEs access the word at ``addr``: False when
        no PE is active; an illegal address raises for the first active
        PE."""
        if not self.active:
            return False
        self._check_addr(self.active[0], addr)
        return True

    def set_values(self, values):
        """Preload r0 and local word 0 of each PE, one value per PE."""
        values = list(values)
        if len(values) != self.n_pes:
            raise ValueError(f"expected {self.n_pes} values, got {len(values)}")
        self._check_addr(0, 0)
        self.regs[0] = [_wrap(v) for v in values]
        self.mem[0] = list(self.regs[0])


@dataclass(frozen=True)
class SimReport:
    """Final state of one program run (registers as signed words)."""

    cycles: int
    instructions: int
    registers: tuple[tuple[int, ...], ...]
    memory_words: tuple[tuple[int, ...], ...] | None = None

    def to_text(self) -> str:
        lines = [f"cycles={self.cycles} instructions={self.instructions}"]
        for pe, regs in enumerate(self.registers):
            rendered = " ".join(f"r{i}={v}" for i, v in enumerate(regs))
            lines.append(f"pe{pe}: {rendered}")
        return "\n".join(lines)

    def to_kv(self) -> str:
        lines = [f"cycles={self.cycles}", f"instructions={self.instructions}"]
        for pe, regs in enumerate(self.registers):
            for i, v in enumerate(regs):
                lines.append(f"pe{pe}.r{i}={v}")
        return "\n".join(lines) + "\n"


# -- one whole-column body per opcode ------------------------------------


def _op_mask(machine: SimMachine, pred: str = "all"):
    machine.set_mask(pred)


def _op_ldi(machine: SimMachine, reg: int, imm: int):
    machine.regs[reg][_lanes(machine.active)] = [_wrap(imm)] * len(machine.active)


def _op_ld(machine: SimMachine, reg: int, addr: int):
    machine.cycles += machine.cost.op_cycles
    if machine._word_access(addr):
        lanes, column = _lanes(machine.active), machine.mem.get(addr)
        machine.regs[reg][lanes] = (column[lanes] if column is not None
                                    else [0] * len(machine.active))


def _op_st(machine: SimMachine, reg: int, addr: int):
    machine.cycles += machine.cost.op_cycles
    if machine._word_access(addr):
        column = machine.mem.get(addr)
        if column is None:
            column = machine.mem[addr] = [0] * machine.n_pes
        lanes = _lanes(machine.active)
        column[lanes] = machine.regs[reg][lanes]


def _op_add(machine: SimMachine, dst: int, a: int, b: int):
    machine.cycles += machine.cost.op_cycles
    regs, lanes = machine.regs, _lanes(machine.active)
    sums = list(map(add, regs[a][lanes], regs[b][lanes]))
    if max(sums, default=0) > _WORD_MASK:
        sums = [v & _WORD_MASK for v in sums]
    regs[dst][lanes] = sums


def _op_movd(machine: SimMachine, reg: int, direction: str):
    """Active PEs take their sender's word, or the boundary value when
    the sender is missing or inactive; inactive PEs keep their own."""
    graph = machine.topology
    if graph is None or direction not in graph.directions:
        kind = graph.kind.value if graph else "a machine with no neighbourhood"
        raise DirectionUnavailable(direction, kind)
    machine.cycles += machine.cost.hop_cycles
    boundary = _wrap(machine.cost.boundary_value)
    column, n = machine.regs[reg], machine.n_pes
    if len(machine.active) == n:  # no lane to keep: skip both masked copies
        machine.regs[reg] = graph.shift(column, direction, boundary)
        return
    lanes = _lanes(machine.active)
    source = [boundary] * n
    source[lanes] = column[lanes]
    column[lanes] = graph.shift(source, direction, boundary)[lanes]


def _op_nocsend(machine: SimMachine, mode: MpNocMode, dst_expr: str, reg: int):
    """Send every active PE's word over the router and charge the
    transfer's latency.  An active PE-mode receiver keeps the word of the
    highest active sender aimed at it; the ACU mailbox and the device
    sink take the words in PE order.  (The router puts messages to one
    port in successive passes, lowest source first, so this is their
    arrival order.)"""
    net = machine.mpnoc
    if net is None:
        raise NocUnavailable()
    senders, column = machine.active, machine.regs[reg]
    words = column[_lanes(senders)]
    if mode is MpNocMode.ACU_TO_PE:
        destinations = repeat(ACU_PORT)
    elif mode is MpNocMode.DEVICE_TO_PE:
        destinations = repeat(DEVICE_PORT)
    elif dst_expr.startswith("idx"):
        offset = int(dst_expr[3:] or 0)
        destinations = range(senders.start + offset, senders.stop + offset,
                             senders.step)
    else:
        target = int(dst_expr)
        destinations = [target] * len(senders)
    # Checked here because -1 and -2 double as the sentinel ports; the
    # router checks the top end.  Both destination kinds ascend.
    if mode is MpNocMode.PE_TO_PE and senders and destinations[0] < 0:
        raise PortOutOfRange(senders[0], destinations[0], machine.n_pes)
    result = transfer(net, mode, list(zip(senders, destinations, words)),
                      pass_cycles=machine.cost.noc_pass_cycles(net),
                      config_cycles=machine.cost.noc_config_cycles)
    machine.cycles += result.latency
    if mode is MpNocMode.ACU_TO_PE:
        machine.acu_mailbox.extend(words)
    elif mode is MpNocMode.DEVICE_TO_PE:
        machine.device_sink.extend(words)
    elif isinstance(destinations, range):
        # Distinct destinations: each active one gets exactly one word.
        # There are none unless the offset is a multiple of the step.
        step = senders.step
        receivers = range(max(senders.start, destinations.start),
                          min(senders.stop, destinations.stop), step)
        if receivers and offset % step == 0:
            column[_lanes(receivers)] = column[
                receivers.start - offset:receivers.stop - offset:step]
    elif target in senders:
        column[target] = words[-1]


_EXECUTE = {
    "MASK": _op_mask,
    "UNMASK": _op_mask,
    "LDI": _op_ldi,
    "LD": _op_ld,
    "ST": _op_st,
    "ADD": _op_add,
    "MOVD": _op_movd,
    "NOCSEND": _op_nocsend,
}


def run(machine: SimMachine, program: SimProgram,
        snapshot_memory: bool = False) -> SimReport:
    """Execute a program to its HALT in lock-step broadcast semantics.

    Every instruction applies simultaneously to all active PEs; inactive
    PEs keep their state, including dropped router deliveries.  An error
    raised while an instruction executes is a ``SimulationError`` whose
    ``line`` is that instruction's source line.  ``snapshot_memory``
    adds every whole word of each PE's local memory to the report.
    """
    cost = machine.cost
    executed = 0
    for instr in program.instructions:
        machine.cycles += cost.issue_cycles
        executed += 1
        if instr.op == "HALT":
            break
        try:
            _EXECUTE[instr.op](machine, *instr.args)
        except SimulationError as err:
            err.line = instr.line
            raise
        except (PortOutOfRange, ModeMismatch) as err:
            raise SimulationError(str(err), instr.line) from err
    memory_words = None
    if snapshot_memory:
        zeros = [0] * machine.n_pes
        columns = [machine.mem.get(addr, zeros)
                   for addr in range(0, machine.config.pe_mem_bytes - 3, 4)]
        memory_words = (tuple(zip(*columns)) if columns
                        else ((),) * machine.n_pes)
    return SimReport(
        cycles=machine.cycles,
        instructions=executed,
        registers=tuple(zip(*map(_signed_column, machine.regs))),
        memory_words=memory_words,
    )


@dataclass(frozen=True)
class ReductionReport:
    """Result of the built-in recursive-doubling sum.

    ``result`` is the exact arithmetic sum (64-bit range for 32-bit
    inputs at supported array sizes); the PE-visible partials wrap at 32
    bits.  ``per_step_hop_counts`` records neighbour hops per step, or
    router passes when the transport is the global router.
    """

    result: int
    transfer_add_steps: int
    total_cycles: int
    per_step_hop_counts: tuple[int, ...]

    def to_text(self) -> str:
        hops = ",".join(str(h) for h in self.per_step_hop_counts)
        return (f"sum={self.result} steps={self.transfer_add_steps} "
                f"cycles={self.total_cycles}\nhops_per_step={hops or '-'}")

    def to_kv(self) -> str:
        hops = ",".join(str(h) for h in self.per_step_hop_counts)
        return (f"sum={self.result}\nsteps={self.transfer_add_steps}\n"
                f"cycles={self.total_cycles}\nhops_per_step={hops}\n")


def reduce_sum(config: MppSoCConfig, values,
               cost: CostModel | None = None) -> ReductionReport:
    """Recursive-doubling sum of one value per PE; the total lands on PE 0.

    Step s pairs each PE whose index is a multiple of 2^(s+1) with the
    PE 2^s above it; the partial sum transfers over and is added, so
    log2(N) transfer-add steps finish the job.

    Transport: with a neighbourhood network the partials advance one PE
    position per hop cycle along the row-major chain, so step s costs
    2^s hops on every topology (the regular networks are equivalent for
    this schedule; a point-to-point router pays its per-pass setup
    instead).  Without one, the global router carries the step's
    messages in PE-PE mode.
    """
    check_pe_count(config.n_pes)
    cost = cost or CostModel()
    values = [int(v) for v in values]
    n = config.n_pes
    if len(values) != n:
        raise ValueError(f"expected {n} values for a {config.rows}x"
                         f"{config.cols} array, got {len(values)}")
    if n & (n - 1):
        raise NotPowerOfTwo(n)
    steps = n.bit_length() - 1

    graph = None
    net = None
    if steps > 0:
        if config.neighborhood is not None:
            graph = build_topology(config.neighborhood, config.rows, config.cols)
        elif config.mpnoc is not None:
            net = build_network(config.mpnoc, n)
        else:
            raise NoTransportAvailable()

    partial = list(values)
    total_cycles = 0
    hop_counts = []
    for step in range(steps):
        stride = 1 << step
        receivers = range(0, n, stride * 2)
        if graph is not None:
            hops = stride  # one chain position per hop cycle
            total_cycles += hops * cost.hop_cycles
            hop_counts.append(hops)
        else:
            messages = [(i + stride, i, _wrap(partial[i + stride]))
                        for i in receivers]
            outcome = transfer(net, MpNocMode.PE_TO_PE, messages,
                               pass_cycles=cost.noc_pass_cycles(net),
                               config_cycles=cost.noc_config_cycles)
            total_cycles += outcome.latency
            hop_counts.append(outcome.passes)
        for i in receivers:
            partial[i] += partial[i + stride]
        total_cycles += cost.op_cycles

    return ReductionReport(result=partial[0],
                           transfer_add_steps=steps,
                           total_cycles=total_cycles,
                           per_step_hop_counts=tuple(hop_counts))
