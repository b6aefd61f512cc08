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
indices and loads as that slice's ``(start, stop, step)``; slicing
``range(N)`` with it gives the active PEs, whose lane mask holds
0xFFFFFFFF in each active lane and 0 in each idle one.  A masked write
is ``old ^ (old ^ new) & lanes``: the new words in the active lanes,
the old guard bits in every lane; under the full mask a line stores
its new column with no merge.  An add leaves its carry in the guard
bits, and the compiler counts, per register, the carries they may
hold: an add normalises an addend (``& full``) only when one more
carry could overflow a lane, an ST stores its words normalised, and
``run`` normalises every register with carries when it stops, so
columns are normalised between runs.  MOVD is the topology's packed
shift of one column, and under the full mask a run of k identical
MOVDs is one k-hop shift (a shift over a distance, as the MasPar X-Net
issues it; Blank, COMPCON 1990), still charged and counted as k
instructions.

The ACU broadcasts every instruction and every operand, MASK
predicates included, is an immediate, so no control decision depends
on the data.  ``run`` therefore compiles a program once per machine key
(configuration, cost model field values, and the active range the run
starts under) into a plan of column steps, threaded code (Bell, CACM
1973) with every mask, address check, MOVD run and static charge
resolved, and keeps the last few plans on the ``SimProgram``: a MOVD
step holds the graph's moves, small ints, and applies them.  A run
replays the plan on the data; a NOCSEND step still has the router
schedule its send on every run.  The compiler knows which registers
hold zero (constant propagation; Kildall, POPL 1973), so the ISA's copy
idiom, ``LDI r, 0`` then ``ADD d, r, x``, compiles to a move, and how
many carries each register's guard bits may hold.

Cycle accounting is additive per instruction: issue plus an op-specific
charge from the CostModel.  ``run`` adds every charge in one place: the
static ones from the plan and, after each NOCSEND step, the
``CostModel.noc_cycles`` of the passes its router took, which the step
returns.  Nothing else advances the clock.
"""

from __future__ import annotations

import enum
import re
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import NamedTuple

from mppsoc.config import WORD_BYTES, CostModel, MppSoCConfig
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

_REGISTER_COUNT = 8
MAX_PES = 1 << 20  # eight register columns of 2^20 40-bit lanes: ~43 MiB
MAX_COLUMN_BYTES = 1 << 28  # 256 MiB of packed lanes, registers and memory


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


def _legal_address(addr: int, mem_bytes: int) -> bool:
    """Whether a PE's word at byte address ``addr`` is in its memory."""
    return addr >= 0 and not addr % WORD_BYTES and addr + WORD_BYTES <= mem_bytes


def check_columns(config: MppSoCConfig, program: SimProgram,
                  preloaded: bool = False):
    """Refuse, before anything is allocated, a run whose register and
    memory columns could take over ``MAX_COLUMN_BYTES``: the 8 registers
    and one column per legal address that the program stores to, with
    address 0 among them when ``set_values`` preloads it.  A column is
    an int of one ``LANE_BITS`` lane per PE, counted in the digits that
    this interpreter stores it in (``sys.int_info``)."""
    addresses = program.store_addresses | ({0} if preloaded else set())
    columns = _REGISTER_COUNT + sum(
        _legal_address(addr, config.pe_mem_bytes) for addr in addresses)
    digit = sys.int_info
    need = columns * digit.sizeof_digit * -(
        -LANE_BITS * config.n_pes // digit.bits_per_digit)
    if need > MAX_COLUMN_BYTES:
        raise SimulationError(
            f"{columns} columns of {config.n_pes} PEs take {need} bytes, over "
            f"the simulator's budget of {MAX_COLUMN_BYTES} bytes")


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
        return tuple((Instruction(instr.op, (*instr.args, count), instr.line)
                      if count > 1 else instr, count) for instr, count in runs)

    @cached_property
    def store_addresses(self) -> frozenset[int]:
        """The distinct addresses of the program's STs: each is one
        memory column once stored to."""
        return frozenset(instr.args[1] for instr in self.instructions
                         if instr.op == "ST")

    @cached_property
    def _plans(self) -> dict:
        """The last ``_PLAN_MEMO`` plans that ``run`` compiled, by
        machine key."""
        return {}

    def __getstate__(self) -> dict:
        # A plan's steps are closures, which do not pickle; an unpickled
        # program compiles its own.
        return {key: value for key, value in vars(self).items()
                if key != "_plans"}


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


# A loaded MASK predicate is the ``(start, stop, step)`` of the slice of
# the PE indices it selects, ``stop`` None for "to the end" (a tuple, as
# a ``slice`` is unhashable before Python 3.12).
_ALL = (0, None, 1)
_NONE = (0, 0, 1)
_PREDICATE_ALIASES = {"all": _ALL, "none": _NONE,
                      "even": (0, None, 2), "odd": (1, None, 2)}


def _parse_predicate(token: str) -> tuple:
    """``lt:K`` as ``(0, K, 1)``, ``ge:K`` as ``(K, None, 1)`` and
    ``mod:M:R`` as ``(R, None, M)``, or as no PE when R >= M."""
    pred = token.lower()
    if pred in _PREDICATE_ALIASES:
        return _PREDICATE_ALIASES[pred]
    match = _PREDICATE_RE.match(pred)
    if not match:
        raise ValueError(f"bad predicate {token!r}")
    kind, *fields = filter(None, match.groups())
    numbers = tuple(map(_parse_int, fields))
    if kind == "lt":
        return 0, numbers[0], 1
    if kind == "ge":
        return numbers[0], None, 1
    modulus, remainder = numbers
    if modulus < 1:
        raise ValueError(f"bad predicate {token!r} (modulus must be >= 1)")
    return (remainder, None, modulus) if remainder < modulus else _NONE


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


@lru_cache(maxsize=20)
def _lanes(pes: range, word: int) -> int:
    """``word`` in the lanes of the PEs in ``pes``, 0 in the others: a
    MASK range's lane mask, the full mask, the ones or a MOVD's boundary
    column, kept for the last 20 (range, word) pairs.  Every caller
    names ``word``, so each mask has one key."""
    return spread(word, len(pes), pes.step) << LANE_BITS * pes.start


class SimMachine:
    """Mutable machine state, stored as one packed column per register
    and per memory word, plus the configured networks.

    ``regs[r]`` is register r of every PE, PE pe's word in lane pe;
    ``column(r)`` and ``set_column(r, words)`` read and write it as one
    word per PE.  ``mem[addr]`` is the word at byte address ``addr`` of
    every PE's local memory; a column is created by the first store to
    its address and absent words read 0, so memory costs nothing until
    it is used.  ``active`` is the range of PE indices that were active
    where the last run stopped, at its HALT or at the line that failed;
    the next run starts under it.  A MOVD's boundary value and every
    charge come from ``cost`` as it is when a run starts.
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
        pes = range(self.n_pes)
        self.ones, self.full = _lanes(pes, 1), _lanes(pes, WORD_MASK)
        self.reset()

    def reset(self):
        self.regs = [0] * _REGISTER_COUNT
        self.mem: dict[int, int] = {}
        self.active = range(self.n_pes)
        self.acu_mailbox: list[int] = []
        self.device_sink: list[int] = []
        self.cycles = 0

    def column(self, reg: int) -> list[int]:
        """Register ``reg`` of every PE, in PE order."""
        return unpack(self.regs[reg], self.n_pes).tolist()

    def set_column(self, reg: int, words):
        """Set register ``reg`` of every PE, one word per PE in PE order."""
        self.regs[reg] = self._pack(words)

    def _pack(self, words) -> int:
        if not isinstance(words, Sequence):  # a sequence is read, not copied
            words = list(words)
        if len(words) != self.n_pes:
            raise ValueError(f"expected {self.n_pes} values, got {len(words)}")
        return pack(words)

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
        if not _legal_address(addr, self.config.pe_mem_bytes):
            raise MemoryOutOfBounds(pe, addr)

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
        return zip(*(unpack(col, n, self._signed) if col else repeat(0, n)
                     for col in self._columns))

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

    def lines(self, kv: bool = False) -> Iterator[str]:
        """The text form, or with ``kv`` the kv form, in pieces joined by
        newlines: the header, then one per PE (a line, or eight kv lines)."""
        fields = range(_REGISTER_COUNT)
        if kv:
            yield f"cycles={self.cycles}\ninstructions={self.instructions}"
            row = "\n".join(f"pe{{0}}.r{i}={{{i + 1}}}" for i in fields)
        else:
            yield f"cycles={self.cycles} instructions={self.instructions}"
            row = "pe{0}: " + " ".join(f"r{i}={{{i + 1}}}" for i in fields)
        for pe, regs in enumerate(self.registers):
            yield row.format(pe, *regs)


# -- the compiler: a program becomes a plan of column steps ----------------


class _Raise:
    """A step that fails the same way on every run: it raises a new
    ``error(*args)`` each time, never a stored one."""

    __slots__ = ("error", "args")

    def __init__(self, error, *args):
        self.error, self.args = error, args

    def __call__(self, machine: SimMachine):
        raise self.error(*self.args)


_HALT = object()  # no step: the plan ends at this line


class _Plan(NamedTuple):
    """A program compiled for one machine key.  ``entries`` holds one
    ``(charge, step, line, active)`` per line that acts on the machine
    (a fused MOVD run is one): its static charge, which takes in the
    issue of the MASK, UNMASK and no-op lines before it, the step that
    applies it, its source line and the active range it runs under.
    ``tail`` is the charge of the lines after the last step, the HALT's
    issue among them, ``executed`` the instructions run to the HALT,
    ``final`` the active range there and ``unsettled`` the registers
    that may hold carries there.  A plan holds no column: a step takes
    its lane masks from the bounded ``_lanes`` when it runs."""

    entries: tuple
    tail: int
    executed: int
    final: range
    unsettled: tuple


class _Context:
    """What a line compiles against: the machine, its cost model and the
    two terms of its ``noc_cycles`` (None with no router), the active
    range that the MASKs before the line leave, with its ``_merger``,
    ``zero``, the registers known to hold 0 in every lane, and
    ``carries``, per register the carries its guard bits may hold: a
    column of c carries has every lane below (c+1)*2^32, and one of 0
    is normalised.  Every register is normalised at the plan's entry."""

    def __init__(self, machine: SimMachine):
        self.machine, self.cost, self.n = machine, machine.cost, machine.n_pes
        net = machine.mpnoc
        self.noc = net and (self.cost.noc_pass_cycles(net),
                            self.cost.noc_config_cycles)
        self.zero: set[int] = set()
        self.carries = [0] * _REGISTER_COUNT
        self.set_active(machine.active)

    def set_active(self, active: range):
        self.active, self.merge = active, _merger(active)
        self.full = len(active) == self.n

    def write(self, reg: int, carries: int | None = None):
        """The line writes ``reg`` in the active lanes: no longer known
        zero, unless no lane is active, and holding ``carries`` carries,
        or (None) as many as before, as a merge keeps the old guard
        bits."""
        if self.active:
            self.zero.discard(reg)
            if carries is not None:
                self.carries[reg] = carries


_CARRY_ROOM = 255  # carries a lane's 8 guard bits hold: it stays below 2^40


def _addends(a_carries: int, b_carries: int) -> tuple[bool, bool, int]:
    """Whether an add normalises its first and its second addend, of
    ``a_carries`` and ``b_carries`` carries, before it adds them, and
    the carries of the sum.  A sum holds one carry more than its two
    addends together; while that stays at most ``_CARRY_ROOM``, no lane
    carries into the next and nothing is normalised.  Past it the add
    normalises the addend with more carries, and then, if the sum would
    still overflow, the other one too."""
    settle_a = settle_b = False
    if a_carries + b_carries + 1 > _CARRY_ROOM:
        if a_carries >= b_carries:
            settle_a, a_carries = True, 0
        else:
            settle_b, b_carries = True, 0
        if a_carries + b_carries + 1 > _CARRY_ROOM:
            settle_a = settle_b = True
            a_carries = b_carries = 0
    return settle_a, settle_b, a_carries + b_carries + 1


def _merger(active: range):
    """``merge(machine, old, new)``: ``new``'s 32-bit words in the lanes
    of ``active``, ``old``'s words in the others and ``old``'s guard
    bits in every lane, so the merge holds as many carries as ``old``.
    Only a line under a partial mask merges."""
    return lambda machine, old, new: old ^ (old ^ new) & _lanes(active, WORD_MASK)


# One compiler per mnemonic: ``compile(context, *operands)`` returns the
# line's charge beyond its issue and its step; no step (None) when the
# line leaves every column as it is, ``_HALT`` at the HALT and a
# ``_Raise`` when the line cannot execute.  A step charges nothing: it
# returns None, or a NOCSEND's router cycles for ``run`` to add.


def _compile_halt(ctx: _Context):
    return 0, _HALT


def _compile_mask(ctx: _Context, pred: tuple = _ALL):
    ctx.set_active(range(ctx.n)[slice(*pred)])  # slicing clamps to the N PEs
    return 0, None


def _compile_ldi(ctx: _Context, reg: int, imm: int):
    """Under the full mask the step stores ``ones * word``, which is
    normalised already, with no merge."""
    merge, word, full = ctx.merge, _wrap(imm), ctx.full
    if word:
        ctx.write(reg, 0 if full else None)
    elif full:  # under a partial mask, zero only if it was
        ctx.zero.add(reg)
        ctx.carries[reg] = 0

    def ldi(m: SimMachine):
        m.regs[reg] = (m.ones * word if full
                       else merge(m, m.regs[reg], m.ones * word))
    return 0, ldi if ctx.active else None


def _compile_add(ctx: _Context, dst: int, a: int, b: int):
    """The move shares the source's int, and its carries.  An add leaves
    its carries in the guard bits until ``_addends`` finds that the
    next one could overflow a lane: columns are normalised between
    runs only."""
    charge, merge, full, carries = (ctx.cost.op_cycles, ctx.merge, ctx.full,
                                    ctx.carries)
    if not ctx.active:
        return charge, None
    src = b if a in ctx.zero else a if b in ctx.zero else None
    if src is not None and full:
        ctx.write(dst, carries[src])

        def move(m: SimMachine):
            m.regs[dst] = m.regs[src]
        return charge, move
    if dst in (a, b) and not full:
        x, active = b if a == dst else a, ctx.active
        settle, _, count = _addends(carries[dst], 0)  # x's active words
        ctx.write(dst, count)

        def accumulate(m: SimMachine):
            regs = m.regs
            total = regs[dst] & m.full if settle else regs[dst]
            regs[dst] = total + (regs[x] & _lanes(active, WORD_MASK))
        return charge, accumulate
    settle_a, settle_b, count = _addends(carries[a], carries[b])
    # Under a partial mask the sum is merged: d keeps its guard bits.
    ctx.write(dst, count if full else None)

    def add(m: SimMachine):
        regs = m.regs
        total = ((regs[a] & m.full if settle_a else regs[a])
                 + (regs[b] & m.full if settle_b else regs[b]))
        regs[dst] = total if full else merge(m, regs[dst], total)
    return charge, add


def _word_access(ctx: _Context, addr: int, step):
    """LD's or ST's charge and step: the op is charged before the
    address is checked, no step runs when no PE is active, and an
    illegal address fails for the first active PE."""
    if ctx.active and not _legal_address(addr, ctx.machine.config.pe_mem_bytes):
        step = _Raise(MemoryOutOfBounds, ctx.active[0], addr)
    return ctx.cost.op_cycles, step if ctx.active else None


def _compile_ld(ctx: _Context, reg: int, addr: int):
    """Memory is normalised, so under the full mask the step stores the
    memory column itself, with no merge."""
    merge, full = ctx.merge, ctx.full
    ctx.write(reg, 0 if full else None)

    def ld(m: SimMachine):
        m.regs[reg] = (m.mem.get(addr, 0) if full
                       else merge(m, m.regs[reg], m.mem.get(addr, 0)))
    return _word_access(ctx, addr, ld)


def _compile_st(ctx: _Context, reg: int, addr: int):
    """Memory stays normalised.  Under the full mask the step stores the
    register column with no merge; a column that holds carries is
    normalised first, in the register too, which then holds none.  A
    merge takes only the register's words."""
    merge, full, settle = ctx.merge, ctx.full, ctx.carries[reg] > 0
    if full:
        ctx.carries[reg] = 0

    def st(m: SimMachine):
        if not full:
            m.mem[addr] = merge(m, m.mem.get(addr, 0), m.regs[reg])
        elif settle:
            m.regs[reg] = m.mem[addr] = m.regs[reg] & m.full
        else:
            m.mem[addr] = m.regs[reg]
    return _word_access(ctx, addr, st)


def _compile_movd(ctx: _Context, reg: int, direction: str, hops: int = 1):
    """Active PEs take their sender's word, or the boundary value when
    the sender is missing or inactive; inactive PEs keep their own.
    ``hops`` > 1 is a run of that many identical MOVDs, charged as that
    many: one ``hops``-hop shift under the full mask.  Under any other
    mask an inactive PE sends the boundary value between hops, so the
    hops go one at a time.  A run that cannot execute fails on its first
    line with only that line's issue charged.

    The graph's ``moves`` are fixed here, once: a step only applies them,
    and with a boundary word of 0 it looks up no fill column."""
    graph = ctx.machine.topology
    if graph is None or direction not in graph.directions:
        kind = graph.kind.value if graph else "a machine with no neighbourhood"
        return 0, _Raise(DirectionUnavailable, direction, kind)
    cost, n, active = ctx.cost, ctx.n, ctx.active
    charge = (hops - 1) * cost.issue_cycles + hops * cost.hop_cycles
    word = _wrap(cost.boundary_value)
    if not active:
        return charge, None
    if ctx.full:  # every sender active, every lane written
        moves = graph.moves(direction, hops)
        # ``apply`` moves words only, and no move leaves the column.
        ctx.write(reg, 0 if moves else None)

        def movd(m: SimMachine):
            m.regs[reg] = m.topology.apply(
                m.regs[reg], moves, word and _lanes(range(n), word))
        return charge, movd
    ctx.write(reg)  # the merge keeps the old guard bits
    moves = graph.moves(direction)

    def masked_movd(m: SimMachine):
        apply, fill = m.topology.apply, word and _lanes(range(n), word)
        lanes, column = _lanes(active, WORD_MASK), m.regs[reg]
        for _ in range(hops):
            # An inactive sender sends the boundary value.
            source = fill ^ (fill ^ column) & lanes
            column ^= (column ^ apply(source, moves, fill)) & lanes
        m.regs[reg] = column
    return charge, masked_movd


def _compile_nocsend(ctx: _Context, mode: MpNocMode, dst: tuple, reg: int):
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
    this is their arrival order.)

    The step schedules the send anew on every run through ``transfer``
    and returns the cycles of its passes for ``run`` to charge; nothing
    is built from a destination before ``transfer`` has accepted it.
    A step calls ``transfer`` itself, as this module's name, with the
    destinations as its third argument, so that a tracer that wraps
    that name sees every send.  A PE-mode send writes words only, so
    the register keeps its guard bits and carries.

    An ``idx±K`` send's receivers are the senders that are also
    destinations, fixed here with integers only: none when K is 0 (each
    word stays home), is not a multiple of the mask's step or spans more
    than the senders do; else the senders from PE ``start+K`` up (K > 0)
    or up to PE ``last+K`` (K < 0).  With none, the step only routes.
    Otherwise it cuts the receivers from the senders' own lane mask at
    that edge PE, with a mask of the lanes below the edge and one
    whole-column XOR, and shifts the data column once."""
    if ctx.noc is None:
        return 0, _Raise(NocUnavailable)
    senders, (per_pass, config) = ctx.active, ctx.noc
    kind, number = dst
    if mode is MpNocMode.PE_TO_PE:
        ctx.write(reg)
    else:
        sink = "acu_mailbox" if mode is MpNocMode.ACU_TO_PE else "device_sink"
        span = senders[-1] - senders.start + 1 if senders else 0

        def send_out(m: SimMachine) -> int:
            cycles = transfer(m.mpnoc, senders, [0] * len(senders)
                              ).passes * per_pass + config
            if span:  # unpack only the lanes from the first sender to the last
                lanes = (m.regs[reg] >> LANE_BITS * senders.start
                         & (1 << LANE_BITS * span) - 1)
                getattr(m, sink).extend(unpack(lanes, span)[::senders.step])
            return cycles
        return 0, send_out
    if kind == "idx":
        start, step = senders.start, senders.step
        last = senders[-1] if senders else start
        destinations = range(start + number, senders.stop + number, step)
        # The receivers are the senders from the edge PE up (K > 0) or
        # below it (K < 0).
        edge = start + number if number > 0 else last + number + 1
        if not (senders and number and number % step == 0
                and start < edge <= last):
            def send(m: SimMachine) -> int:
                return transfer(m.mpnoc, senders,
                                destinations).passes * per_pass + config
            return 0, send
        cut, up = LANE_BITS * edge, number > 0

        def shift_send(m: SimMachine) -> int:
            cycles = transfer(m.mpnoc, senders,
                              destinations).passes * per_pass + config
            # The router has checked that every destination is a PE, so
            # the shift is under N lanes.  Each receiver gets the word
            # from the lane K = ``number`` below it.
            lanes = _lanes(senders, WORD_MASK)
            low = lanes & (1 << cut) - 1
            column = m.regs[reg]
            m.regs[reg] = column ^ (column ^ shift_lanes(column, number)) & (
                lanes ^ low if up else low)
            return cycles
        return 0, shift_send
    hit = number in senders
    if hit:
        high, low = LANE_BITS * senders[-1], LANE_BITS * number

    def send_to_one(m: SimMachine) -> int:
        cycles = transfer(m.mpnoc, senders, [number] * len(senders)
                          ).passes * per_pass + config
        if hit:  # the highest active sender's word
            column = m.regs[reg]
            word = column >> high ^ column >> low
            m.regs[reg] = column ^ (word & WORD_MASK) << low
        return cycles
    return 0, send_to_one


_COMPILERS = {
    "HALT": _compile_halt,
    "MASK": _compile_mask,
    "UNMASK": _compile_mask,
    "LDI": _compile_ldi,
    "LD": _compile_ld,
    "ST": _compile_st,
    "ADD": _compile_add,
    "MOVD": _compile_movd,
    "NOCSEND": _compile_nocsend,
}
_PLAN_MEMO = 8  # plans kept per program


def _compile(program: SimProgram, machine: SimMachine) -> _Plan:
    """The plan of ``program`` on ``machine`` from its current mask on,
    up to its first HALT or its first line that cannot execute."""
    ctx = _Context(machine)
    issue = ctx.cost.issue_cycles
    entries, charge, executed = [], 0, 0
    for instr, count in program.runs:
        extra, step = _COMPILERS[instr.op](ctx, *instr.args)
        charge += issue + extra
        executed += count
        if step is _HALT:
            break
        if step is not None:
            entries.append((charge, step, instr.line, ctx.active))
            charge = 0
            if isinstance(step, _Raise):
                break
    unsettled = tuple(reg for reg, count in enumerate(ctx.carries) if count)
    return _Plan(tuple(entries), charge, executed, ctx.active, unsettled)


def run(machine: SimMachine, program: SimProgram,
        snapshot_memory: bool = False) -> SimReport:
    """Execute a program to its HALT in lock-step broadcast semantics.

    Every instruction applies simultaneously to all active PEs; inactive
    PEs keep their state, including dropped router deliveries.  An error
    raised while an instruction executes is a ``SimulationError`` whose
    ``line`` is that instruction's source line; the machine then holds
    the state and the mask that line found, and the cycles charged up
    to it.  ``snapshot_memory`` adds every whole word of each PE's local
    memory to the report.  The report holds the final register and
    memory columns and unpacks none of them: ``SimReport.registers`` and
    ``memory_words`` unpack a lane as it is read.

    No line's effect on the control depends on the data, so the program
    is compiled into a plan of column steps (threaded code; Bell, CACM
    1973) once per machine key: the configuration, the cost model's
    field values and the active range the run starts under.  The
    program keeps its last ``_PLAN_MEMO`` plans.  A run adds each
    step's static charge, calls the step, then charges the tail, all
    here.  A NOCSEND step still has the router schedule its send on
    every run, and returns ``CostModel.noc_cycles`` of its passes, which
    is charged here too.

    The compile fixes everything that is integers only: each line's
    active range and charge, each address check, each send's endpoints
    and receivers, and each MOVD entry's ``TopologyGraph.moves``, its
    direction, extent and one move per binary digit of its run, so a
    MOVD step only applies them.  A step with a boundary word of 0
    passes no fill column.  Under the full mask an LDI stores ``ones *
    word``, an LD the memory column and an ST the register column, each
    with no merge.  A plan holds no column: a step takes its masks from
    the bounded ``_lanes`` and ``_move_masks``.

    The compiler also tracks the registers known to hold 0 in every
    lane, from an empty set at the plan's entry, since the key holds no
    data.  ``LDI r, 0`` (any immediate that wraps to 0) under the full
    mask puts r in the set, and under a partial mask keeps it there
    only if it was; any other write to r by a line with an active PE
    takes it out.  The ISA has no MOV, so ``LDI r, 0`` then
    ``ADD d, r, x`` is its copy: under the full mask an ADD with a
    source known zero is a move, ``regs[d] = regs[x]``, and no op runs.
    Under a partial mask, ``ADD d, d, x`` adds x's active lanes to d,
    two whole-column ops where the masked write takes four.

    Carries wait in the guard bits (``_Context.carries``).  Every
    register is normalised at the plan's entry; an add of columns of
    c_a and c_b carries holds c_a + c_b + 1, and while that is at most
    255 no lane reaches 2^40, so the add runs no ``& full``; past it,
    ``_addends`` normalises an addend first.  A full-mask LDI, LD or
    MOVD holds none, a merge, a masked MOVD and a PE send keep the old
    guard bits and so their count, and a move copies its source's.  An
    ST stores its words normalised, so memory always is, and under the
    full mask it normalises the register it stores too.  At the HALT a
    run normalises each register that may hold carries, and after an
    error every register column, so columns are normalised between
    runs, as the next plan's entry assumes.

    A run of identical MOVDs (``SimProgram.runs``) executes as one MOVD
    of that many hops.  It is charged and counted as that many
    instructions, and a run that cannot execute fails on its first line
    with only that line's issue charged, as one line at a time would.
    """
    key = machine.config, tuple(vars(machine.cost).values()), machine.active
    plans = program._plans
    plan = plans.get(key)
    if plan is None:
        if len(plans) >= _PLAN_MEMO:
            del plans[next(iter(plans))]
        plan = plans[key] = _compile(program, machine)
    try:
        for charge, step, line, active in plan.entries:
            machine.cycles += charge
            routed = step(machine)  # a NOCSEND's router cycles, else None
            if routed is not None:
                machine.cycles += routed
    except Exception as err:
        machine.active = active
        full = machine.full
        machine.regs[:] = [column & full for column in machine.regs]
        if isinstance(err, PortOutOfRange):
            raise SimulationError(str(err), line) from err
        if isinstance(err, SimulationError):
            err.line = line
        raise
    machine.cycles += plan.tail
    machine.active = plan.final
    regs, full = machine.regs, machine.full
    for reg in plan.unsettled:
        regs[reg] &= full
    n = machine.n_pes
    memory_words = None
    if snapshot_memory:
        memory_words = _LaneRows(
            tuple(machine.mem.get(addr, 0) for addr in range(
                0, machine.config.pe_mem_bytes - WORD_BYTES + 1, WORD_BYTES)),
            n, signed=False)
    return SimReport(
        cycles=machine.cycles,
        instructions=plan.executed,
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

    def lines(self, kv: bool = False) -> tuple[str, ...]:
        """The text form, or with ``kv`` the kv form, a line per piece."""
        hops = ",".join(str(h) for h in self.per_step_hop_counts)
        if kv:
            return (f"sum={self.result}", f"steps={self.transfer_add_steps}",
                    f"cycles={self.total_cycles}", f"hops_per_step={hops}")
        return (f"sum={self.result} steps={self.transfer_add_steps} "
                f"cycles={self.total_cycles}", f"hops_per_step={hops or '-'}")


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
