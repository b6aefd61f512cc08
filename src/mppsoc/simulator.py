"""Lock-step SIMD machine simulator.

One ACU broadcasts instructions to an array of PEs; an activity mask
gates which PEs take effect.  Programs use a small assembly: register
moves, local loads/stores, adds, single-hop neighbour shifts (MOVD) and
global-router sends (NOCSEND).  reduce_sum ships the recursive-doubling
reduction as the built-in application.

The machine state is stored as packed columns: each register and each
touched memory word is one int with a 40-bit lane per PE, the word and
8 guard bits (SIMD within a register; Fisher & Dietz, LCPC 1998, and
``mppsoc.topology``).  Each instruction is then a few whole-int
operations over the array, the way the SIMD hardware applies it, rather
than a loop over PEs.  Every MASK predicate selects one slice of the PE
indices, a ``range``; its lane mask holds 0xFFFFFFFF in each active lane
and 0 in each idle one.  A masked write is ``old ^ (old ^ new) & lanes``,
or ``new & lanes`` under the full mask; either truncates the new words
to 32 bits.  MOVD is the topology's packed shift of one column, and
under the full mask a run of k identical MOVDs is one k-hop shift (a
shift over a distance, as the MasPar X-Net issues it; Blank, COMPCON
1990), still charged and counted as k instructions.

Cycle accounting is additive per instruction: issue plus an op-specific
charge from the CostModel.  Nothing else advances the clock.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import repeat

from mppsoc.config import CostModel, MppSoCConfig
from mppsoc.errors import MppSocError, content_lines, decimal_int, int_text
from mppsoc.mpnoc import MpNocNetwork, PortOutOfRange, build_network, transfer
from mppsoc.topology import (
    LANE_BITS,
    OPPOSITE,
    WORD_MASK,
    TopologyGraph,
    build_topology,
    pack,
    shift_lanes,
    spread,
    unpack,
)

_SIGN_FILL = (1 << LANE_BITS) - 1 ^ WORD_MASK  # a lane's guard bits
_REGISTER_COUNT = 8
MAX_PES = 1 << 20  # eight register columns of 2^20 40-bit lanes: ~40 MiB


def _wrap(value: int) -> int:
    return value & WORD_MASK


class SimulationError(MppSocError):
    """A program that cannot be loaded or run; ``line`` is the source
    line of the instruction at fault, when there is one."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class UnknownMnemonic(SimulationError):
    def __init__(self, mnemonic: str, line: int):
        super().__init__(f"unknown mnemonic '{mnemonic}'", line)


class BadOperand(SimulationError):
    def __init__(self, detail: str, line: int):
        super().__init__(f"bad operand: {detail}", line)


class MissingHalt(SimulationError):
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
            f"{int_text(n)} PEs exceed the simulator's limit of {MAX_PES} PEs")


class NoTransportAvailable(SimulationError):
    def __init__(self):
        super().__init__("reduction needs a neighbourhood network or a "
                         "global router, the configuration has neither")


class MpNocMode(enum.Enum):
    """NOCSEND's first operand: who receives the words."""

    PE_TO_PE = "pe"
    ACU_TO_PE = "acu"
    DEVICE_TO_PE = "dev"


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

    @cached_property
    def runs(self) -> tuple[tuple[Instruction, int], ...]:
        """The instructions as ``(instruction, count)`` pairs: a run of
        ``count`` > 1 identical MOVDs is its first line with the run
        length as a third operand, every other instruction stands alone."""
        runs: list[list] = []
        for instr in self.instructions:
            first = runs[-1][0] if runs else None
            if instr.op == "MOVD" and first is not None and (
                    first.op, first.args) == ("MOVD", instr.args):
                runs[-1][1] += 1
            else:
                runs.append([instr, 1])
        return tuple((replace(instr, args=(*instr.args, count)) if count > 1
                      else instr, count) for instr, count in runs)


_REG_RE = re.compile(r"^r([0-7])$", re.IGNORECASE)
_DST_EXPR_RE = re.compile(r"^(?:(idx)([+-][0-9]+)?|(-?[0-9]+))$", re.IGNORECASE)
_PREDICATE_RE = re.compile(r"^(?:(lt|ge):([0-9]+)|(mod):([0-9]+):([0-9]+))$")


def _parse_register(token: str) -> int:
    match = _REG_RE.match(token)
    if not match:
        raise ValueError(f"expected a register r0..r7, got {token!r}")
    return int(match.group(1))


def _parse_int(token: str) -> int:
    try:
        return decimal_int(token)
    except ValueError:
        raise ValueError(f"expected an integer, got {token!r}") from None


def _parse_direction(token: str) -> str:
    direction = token.upper()
    if direction not in OPPOSITE:
        raise ValueError(f"unknown direction {direction!r}")
    return direction


def _parse_mode(token: str) -> MpNocMode:
    try:
        return MpNocMode(token.lower())
    except ValueError:
        raise ValueError(f"unknown mode {token!r} (pe, acu or dev)") from None


# The next two parsers return an operand as its kind and its numbers,
# each read by ``_parse_int`` (one too long for ``int`` is a bad operand).


def _parse_dst_expr(token: str) -> tuple[str, int]:
    """``("idx", K)`` for ``idx±K`` (K = 0 for ``idx``), ``("pe", P)``
    for PE P."""
    match = _DST_EXPR_RE.match(token)
    if not match:
        raise ValueError(f"bad destination expression {token!r}")
    relative, offset, target = match.groups()
    if relative:
        return "idx", _parse_int(offset) if offset else 0
    return "pe", _parse_int(target)


# MASK predicates that are spelled as another one.
_ALL = ("ge", 0)
_PREDICATE_ALIASES = {"all": _ALL, "none": ("lt", 0),
                      "even": ("mod", 2, 0), "odd": ("mod", 2, 1)}


def _parse_predicate(token: str) -> tuple:
    """``("lt", K)``, ``("ge", K)`` or ``("mod", M, R)``, with the
    aliases spelled out."""
    pred = token.lower()
    if pred in _PREDICATE_ALIASES:
        return _PREDICATE_ALIASES[pred]
    match = _PREDICATE_RE.match(pred)
    if not match:
        raise ValueError(f"bad predicate {token!r}")
    kind, *fields = filter(None, match.groups())
    numbers = tuple(map(_parse_int, fields))
    if kind == "mod" and numbers[0] < 1:
        raise ValueError(f"bad predicate {token!r} (modulus must be >= 1)")
    return (kind, *numbers)


# Mnemonic -> one parser per comma-separated operand, in order; a
# parser raises ValueError, which load_program reports as BadOperand.
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
    """Parse assembly text: one instruction per line that
    ``content_lines`` keeps, a mnemonic then comma-separated operands.

    Direction and router availability are checked at execution, not
    here, so one program can target several machine shapes.
    """
    instructions: list[Instruction] = []
    for lineno, line in content_lines(text):
        mnemonic = line.split(None, 1)[0]
        op = mnemonic.upper()
        parsers = _OPERAND_PARSERS.get(op)
        if parsers is None:
            raise UnknownMnemonic(mnemonic, lineno)
        rest = line[len(mnemonic):].strip()
        tokens = [t.strip() for t in rest.split(",")] if rest else []
        try:
            if len(tokens) != len(parsers) or not all(tokens):
                raise ValueError(f"{op} takes {len(parsers)} comma-separated "
                                 f"operands, got {rest!r}")
            args = tuple(parse(token) for parse, token in zip(parsers, tokens))
        except ValueError as err:
            raise BadOperand(str(err), lineno) from None
        instructions.append(Instruction(op, args, lineno))

    if not instructions or instructions[-1].op != "HALT":
        raise MissingHalt()
    return SimProgram(instructions=tuple(instructions))


def _active_range(pred: tuple, n: int) -> range:
    """The PEs that one loaded MASK predicate makes active.  Every
    predicate selects one slice of the PE indices: a prefix, a suffix or
    every m-th PE from r on."""
    kind = pred[0]
    if kind == "lt":
        return range(min(pred[1], n))
    if kind == "ge":
        return range(min(pred[1], n), n)
    _, modulus, remainder = pred
    start = min(remainder, n)  # the lane mask shifts by the start
    return range(start, n, modulus) if remainder < modulus else range(0)


@lru_cache(maxsize=8)
def _all_lanes(n: int) -> tuple[int, int]:
    """1, and 0xFFFFFFFF, in each of n lanes."""
    ones = spread(1, n)
    return ones, ones * WORD_MASK


@lru_cache(maxsize=16)
def _range_lanes(count: int, step: int, start: int) -> int:
    """The lane mask of ``count`` PEs ``step`` apart from ``start`` on:
    one MASK range, built once for the last 16 ranges used."""
    return spread(WORD_MASK, count, step) << LANE_BITS * start


class SimMachine:
    """Mutable machine state, stored as one packed column per register
    and per memory word, plus the configured networks.

    ``regs[r]`` is register r of every PE, PE pe's word in lane pe;
    ``column(r)`` and ``set_column(r, words)`` read and write it as one
    word per PE.  ``mem[addr]`` is the word at byte address ``addr`` of
    every PE's local memory; a column is created by the first store to
    its address and absent words read 0, so memory costs nothing until
    it is used.  ``active`` is the range of PE indices that the last
    MASK made active, ``lanes`` its lane mask and ``partial`` whether
    any PE is idle; instructions write only the active lanes.
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
        self.ones, self.full = _all_lanes(self.n_pes)
        self.boundary = self.ones * _wrap(self.cost.boundary_value)
        self.reset()

    def reset(self):
        self.regs = [0] * _REGISTER_COUNT
        self.mem: dict[int, int] = {}
        self.set_mask(_ALL)
        self.acu_mailbox: list[int] = []
        self.device_sink: list[int] = []
        self.cycles = 0

    def set_mask(self, pred: tuple):
        """Make the PEs that satisfy a loaded MASK predicate active.  The
        full mask (UNMASK and its like) is not ``partial``, which a MOVD
        run reads; any other range takes its lanes from
        ``_range_lanes``."""
        active = self.active = _active_range(pred, self.n_pes)
        self.partial = len(active) != self.n_pes
        self.lanes = (_range_lanes(len(active), active.step, active.start)
                      if self.partial else self.full)

    def masked(self, old: int, new: int) -> int:
        """``new``'s 32-bit words in the active lanes, ``old``'s in the
        others; under the full mask ``old`` is not read."""
        if self.partial:
            return old ^ (old ^ new) & self.lanes
        return new & self.lanes

    def column(self, reg: int) -> list[int]:
        """Register ``reg`` of every PE, in PE order."""
        return unpack(self.regs[reg], self.n_pes).tolist()

    def set_column(self, reg: int, words):
        """Set register ``reg`` of every PE, one word per PE in PE order."""
        self.regs[reg] = self._pack(words)

    def _pack(self, words) -> int:
        words = list(words)
        if len(words) != self.n_pes:
            raise ValueError(f"expected {self.n_pes} values, got {len(words)}")
        try:
            return pack(words) & self.full
        except OverflowError:  # a word beyond int64
            return pack(map(_wrap, words)) & self.full

    # -- PE memory (word-aligned byte addressing) -------------------------

    def read_word(self, pe: int, addr: int) -> int:
        self._check_addr(pe, addr)
        return self.mem.get(addr, 0) >> LANE_BITS * pe & WORD_MASK

    def write_word(self, pe: int, addr: int, value: int):
        self._check_addr(pe, addr)
        column = self.mem.get(addr, 0)
        old = column >> LANE_BITS * pe & WORD_MASK
        self.mem[addr] = column ^ (old ^ _wrap(value)) << LANE_BITS * pe

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
        column = self._pack(values)
        self._check_addr(0, 0)
        self.regs[0] = self.mem[0] = column


class _LaneRows(Sequence):
    """A read-only sequence of n rows over packed columns: row i holds
    lane i of each column, as a signed word if ``signed``.  A row is
    unpacked only when it is read; iteration unpacks each non-zero
    column once, so iterate rather than index to read every row.  Equal
    to, and hashed like, the tuple of its rows; not a tuple itself.

    The columns are ints, so a later run or reset of the machine they
    came from cannot change them."""

    __slots__ = ("_columns", "_n", "_signed")

    def __init__(self, columns: tuple[int, ...], n: int, signed: bool):
        self._columns, self._n, self._signed = columns, n, signed

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        shift = LANE_BITS * range(self._n)[index]  # negative i, IndexError
        words = [column >> shift & WORD_MASK for column in self._columns]
        if self._signed:
            return tuple(word - (word >> 31 << 32) for word in words)
        return tuple(words)

    def __iter__(self):
        n = self._n
        if not self._columns:
            return iter(((),) * n)
        if self._signed:  # bit 31 fills the guard bits of its lane
            ones = _all_lanes(n)[0]
            lanes = [unpack(col | (col >> 31 & ones) * _SIGN_FILL, n, signed=True)
                     if col else repeat(0, n) for col in self._columns]
        else:
            lanes = [unpack(col, n) if col else repeat(0, n)
                     for col in self._columns]
        return zip(*lanes)

    def __eq__(self, other):
        if isinstance(other, (tuple, _LaneRows)):
            return len(other) == self._n and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class SimReport:
    """Final state of one program run.

    ``registers[pe]`` is PE pe's eight registers as signed words and
    ``memory_words[pe]`` its local memory as unsigned words.  ``run``
    gives both as read-only sequences over the machine's packed
    columns, unpacked only as they are read; they compare equal to, and
    hash like, the tuples of tuples that the constructor also takes.
    """

    cycles: int
    instructions: int
    registers: Sequence[tuple[int, ...]]
    memory_words: Sequence[tuple[int, ...]] | None = None

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


def _op_mask(machine: SimMachine, pred: tuple = _ALL):
    machine.set_mask(pred)


def _op_ldi(machine: SimMachine, reg: int, imm: int):
    machine.regs[reg] = machine.masked(machine.regs[reg],
                                       machine.ones * _wrap(imm))


def _op_ld(machine: SimMachine, reg: int, addr: int):
    machine.cycles += machine.cost.op_cycles
    if machine._word_access(addr):
        machine.regs[reg] = machine.masked(machine.regs[reg],
                                           machine.mem.get(addr, 0))


def _op_st(machine: SimMachine, reg: int, addr: int):
    machine.cycles += machine.cost.op_cycles
    if machine._word_access(addr):
        machine.mem[addr] = machine.masked(machine.mem.get(addr, 0),
                                           machine.regs[reg])


def _op_add(machine: SimMachine, dst: int, a: int, b: int):
    machine.cycles += machine.cost.op_cycles
    regs = machine.regs
    regs[dst] = machine.masked(regs[dst], regs[a] + regs[b])


def _op_movd(machine: SimMachine, reg: int, direction: str, hops: int = 1):
    """Active PEs take their sender's word, or the boundary value when
    the sender is missing or inactive; inactive PEs keep their own.
    ``hops`` > 1 executes a run of that many identical MOVDs: one
    ``hops``-hop shift under the full mask.  Under any other mask an
    inactive PE sends the boundary value between hops, so the hops go
    one at a time."""
    graph = machine.topology
    if graph is None or direction not in graph.directions:
        kind = graph.kind.value if graph else "a machine with no neighbourhood"
        raise DirectionUnavailable(direction, kind)
    machine.cycles += hops * machine.cost.hop_cycles
    fill, column = machine.boundary, machine.regs[reg]
    if not machine.partial:  # every sender active, every lane written
        machine.regs[reg] = graph.shift(column, direction, fill, hops)
        return
    for _ in range(hops):
        # An inactive sender sends the boundary value.
        source = machine.masked(fill, column)
        column = machine.masked(column, graph.shift(source, direction, fill))
    machine.regs[reg] = column


def _op_nocsend(machine: SimMachine, mode: MpNocMode, dst: tuple, reg: int):
    """Send every active PE's word over the router and charge its
    passes through ``CostModel.noc_cycles``.  The router gets the
    senders and destinations as columns of ports: the active range and,
    for ``idx±K``, that range moved by K, so it schedules a translation
    on omega without a message list.  The ACU and the device reach the
    router through port 0, so an ``acu`` or ``dev`` send is scheduled as
    the same senders sending to port 0; a destination outside 0..N-1 is
    the router's ``PortOutOfRange``.  An active PE-mode receiver keeps
    the word of the highest active sender aimed at it; the ACU mailbox
    and the device sink take the words in PE order.  (The router puts
    messages to one port in successive passes, lowest source first, so
    this is their arrival order.)"""
    net = machine.mpnoc
    if net is None:
        raise NocUnavailable()
    senders, column = machine.active, machine.regs[reg]
    kind, number = dst
    if mode is not MpNocMode.PE_TO_PE:
        destinations = [0] * len(senders)
    elif kind == "idx":
        destinations = range(senders.start + number, senders.stop + number,
                             senders.step)
    else:
        destinations = [number] * len(senders)
    result = transfer(net, senders, destinations)
    machine.cycles += machine.cost.noc_cycles(net, result.passes)
    if mode is not MpNocMode.PE_TO_PE:
        sink = (machine.acu_mailbox if mode is MpNocMode.ACU_TO_PE
                else machine.device_sink)
        if senders:  # unpack only the lanes from the first sender to the last
            span = senders[-1] - senders.start + 1
            lanes = column >> LANE_BITS * senders.start & (1 << LANE_BITS * span) - 1
            sink.extend(unpack(lanes, span)[::senders.step])
    elif isinstance(destinations, range):
        # Distinct destinations: each active one gets exactly one word,
        # from the lane K = ``number`` below it.  The router has checked
        # that every destination is a PE, so the shift is under N lanes.
        if senders:
            receivers = machine.lanes & shift_lanes(machine.lanes, number)
            machine.regs[reg] = column ^ (
                column ^ shift_lanes(column, number)) & receivers
    elif number in senders:
        word = column >> LANE_BITS * senders[-1] ^ column >> LANE_BITS * number
        machine.regs[reg] = column ^ (word & WORD_MASK) << LANE_BITS * number


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
    The report holds the final register and memory columns and unpacks
    none of them: ``SimReport.registers`` and ``memory_words`` unpack a
    lane as it is read.

    A run of identical MOVDs (``SimProgram.runs``) executes as one MOVD
    of that many hops.  It is charged and counted as that many
    instructions, and a run that cannot execute fails on its first line
    with only that line's issue charged, as one line at a time would.
    """
    cost = machine.cost
    executed = 0
    for instr, count in program.runs:
        machine.cycles += cost.issue_cycles
        executed += 1
        if instr.op == "HALT":
            break
        try:
            _EXECUTE[instr.op](machine, *instr.args)
        except SimulationError as err:
            err.line = instr.line
            raise
        except PortOutOfRange as err:
            raise SimulationError(str(err), instr.line) from err
        if count > 1:  # the issue of the run's other lines
            machine.cycles += (count - 1) * cost.issue_cycles
            executed += count - 1
    n = machine.n_pes
    memory_words = None
    if snapshot_memory:
        memory_words = _LaneRows(
            tuple(machine.mem.get(addr, 0)
                  for addr in range(0, machine.config.pe_mem_bytes - 3, 4)),
            n, signed=False)
    return SimReport(
        cycles=machine.cycles,
        instructions=executed,
        registers=_LaneRows(tuple(machine.regs), n, signed=True),
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
    instead).  Without one, the global router schedules the step's
    PE-to-PE messages and ``cost.noc_cycles`` charges its passes.  The
    steps are timed, not executed: the exact sum they leave on PE 0 is
    ``sum(values)``.
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

    total_cycles = 0
    hop_counts = []
    for step in range(steps):
        stride = 1 << step
        if graph is not None:
            hops = stride  # one chain position per hop cycle
            total_cycles += hops * cost.hop_cycles
            hop_counts.append(hops)
        else:
            outcome = transfer(net, range(stride, n, 2 * stride),
                               range(0, n, 2 * stride))
            total_cycles += cost.noc_cycles(net, outcome.passes)
            hop_counts.append(outcome.passes)
        total_cycles += cost.op_cycles

    return ReductionReport(result=sum(values),
                           transfer_add_steps=steps,
                           total_cycles=total_cycles,
                           per_step_hop_counts=tuple(hop_counts))
