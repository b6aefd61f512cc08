"""Lock-step SIMD machine simulator.

One ACU broadcasts instructions to an array of PEs; an activity mask
gates which PEs take effect.  Programs use a small assembly: register
moves, local loads/stores, adds, single-hop neighbour shifts (MOVD) and
global-router sends (NOCSEND).  reduce_sum ships the recursive-doubling
reduction as the built-in application.

Cycle accounting is additive per instruction: issue plus an op-specific
charge from the CostModel.  Nothing else advances the clock.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from mppsoc.config import CostModel, MppSoCConfig
from mppsoc.errors import MppSocError
from mppsoc.mpnoc import (
    ACU_PORT,
    DEVICE_PORT,
    MpNocMode,
    MpNocNetwork,
    build_network,
    transfer,
)
from mppsoc.topology import OPPOSITE, TopologyGraph, build_topology

_WORD_MASK = 0xFFFFFFFF
_REGISTER_COUNT = 8


def _wrap(value: int) -> int:
    return value & _WORD_MASK


def _signed(value: int) -> int:
    value &= _WORD_MASK
    return value - (1 << 32) if value >> 31 else value


class SimulationError(MppSocError):
    pass


class ProgramError(SimulationError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


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


def _evaluate_mask(pred: str, idx: int) -> bool:
    if pred == "all":
        return True
    if pred == "none":
        return False
    if pred == "even":
        return idx % 2 == 0
    if pred == "odd":
        return idx % 2 == 1
    head, _, rest = pred.partition(":")
    if head == "lt":
        return idx < int(rest)
    if head == "ge":
        return idx >= int(rest)
    modulus, remainder = rest.split(":")
    return idx % int(modulus) == int(remainder)


def _evaluate_dst(expr: str, idx: int) -> int:
    if expr.startswith("idx"):
        return idx + (int(expr[3:]) if len(expr) > 3 else 0)
    return int(expr)


class SimMachine:
    """Mutable machine state: PE registers, local memories, activity
    flags, the ACU memory and the configured networks."""

    def __init__(self, config: MppSoCConfig, cost: CostModel | None = None):
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
        self.pe_regs = [[0] * _REGISTER_COUNT for _ in range(self.n_pes)]
        self.pe_mem = [bytearray(self.config.pe_mem_bytes)
                       for _ in range(self.n_pes)]
        self.pe_active = [True] * self.n_pes
        self.acu_mem = bytearray(self.config.acu_mem_bytes)
        self.acu_regs = [0] * _REGISTER_COUNT
        self.acu_mailbox: list[int] = []
        self.device_sink: list[int] = []
        self.cycles = 0

    # -- PE memory helpers (word-aligned byte addressing) ----------------

    def read_word(self, pe: int, addr: int) -> int:
        self._check_addr(pe, addr)
        return int.from_bytes(self.pe_mem[pe][addr:addr + 4], "little")

    def write_word(self, pe: int, addr: int, value: int):
        self._check_addr(pe, addr)
        self.pe_mem[pe][addr:addr + 4] = _wrap(value).to_bytes(4, "little")

    def _check_addr(self, pe: int, addr: int):
        if addr < 0 or addr % 4 != 0 or addr + 4 > self.config.pe_mem_bytes:
            raise MemoryOutOfBounds(pe, addr)

    def set_values(self, values):
        """Preload r0 and local word 0 of each PE, one value per PE."""
        values = list(values)
        if len(values) != self.n_pes:
            raise ValueError(f"expected {self.n_pes} values, got {len(values)}")
        for pe, value in enumerate(values):
            self.pe_regs[pe][0] = _wrap(value)
            self.write_word(pe, 0, value)


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


def run(machine: SimMachine, program: SimProgram,
        snapshot_memory: bool = False) -> SimReport:
    """Execute a program to its HALT in lock-step broadcast semantics.

    Every instruction applies simultaneously to all active PEs; inactive
    PEs keep their state, including dropped router deliveries.
    """
    cost = machine.cost
    executed = 0
    for instr in program.instructions:
        machine.cycles += cost.issue_cycles
        executed += 1
        op = instr.op
        if op == "HALT":
            break
        if op == "MASK":
            (pred,) = instr.args
            machine.pe_active = [_evaluate_mask(pred, idx)
                                 for idx in range(machine.n_pes)]
        elif op == "UNMASK":
            machine.pe_active = [True] * machine.n_pes
        elif op == "LDI":
            reg, imm = instr.args
            for pe in range(machine.n_pes):
                if machine.pe_active[pe]:
                    machine.pe_regs[pe][reg] = _wrap(imm)
        elif op == "LD":
            reg, addr = instr.args
            machine.cycles += cost.op_cycles
            for pe in range(machine.n_pes):
                if machine.pe_active[pe]:
                    machine.pe_regs[pe][reg] = machine.read_word(pe, addr)
        elif op == "ST":
            reg, addr = instr.args
            machine.cycles += cost.op_cycles
            for pe in range(machine.n_pes):
                if machine.pe_active[pe]:
                    machine.write_word(pe, addr, machine.pe_regs[pe][reg])
        elif op == "ADD":
            dst, a, b = instr.args
            machine.cycles += cost.op_cycles
            for pe in range(machine.n_pes):
                if machine.pe_active[pe]:
                    machine.pe_regs[pe][dst] = _wrap(
                        machine.pe_regs[pe][a] + machine.pe_regs[pe][b])
        elif op == "MOVD":
            _execute_movd(machine, instr)
        elif op == "NOCSEND":
            _execute_nocsend(machine, instr)
    report = SimReport(
        cycles=machine.cycles,
        instructions=executed,
        registers=tuple(tuple(_signed(v) for v in regs)
                        for regs in machine.pe_regs),
        memory_words=tuple(
            tuple(machine.read_word(pe, a)
                  for a in range(0, machine.config.pe_mem_bytes, 4))
            for pe in range(machine.n_pes)) if snapshot_memory else None,
    )
    return report


def _execute_movd(machine: SimMachine, instr: Instruction):
    reg, direction = instr.args
    graph = machine.topology
    if graph is None or direction not in graph.directions:
        kind = graph.kind.value if graph else "a machine with no neighbourhood"
        raise DirectionUnavailable(direction, kind)
    cost = machine.cost
    machine.cycles += cost.hop_cycles
    incoming_from = OPPOSITE[direction]
    updates = {}
    for pe in range(machine.n_pes):
        if not machine.pe_active[pe]:
            continue
        sender = graph.adjacency[pe].get(incoming_from)
        if sender is not None and machine.pe_active[sender]:
            updates[pe] = machine.pe_regs[sender][reg]
        else:
            updates[pe] = _wrap(cost.boundary_value)
    for pe, value in updates.items():
        machine.pe_regs[pe][reg] = value


def _execute_nocsend(machine: SimMachine, instr: Instruction):
    mode, dst_expr, reg = instr.args
    net = machine.mpnoc
    if net is None:
        raise NocUnavailable()
    messages = []
    for pe in range(machine.n_pes):
        if not machine.pe_active[pe]:
            continue
        if mode is MpNocMode.PE_TO_PE:
            dst = _evaluate_dst(dst_expr, pe)
        elif mode is MpNocMode.ACU_TO_PE:
            dst = ACU_PORT
        else:
            dst = DEVICE_PORT
        messages.append((pe, dst, machine.pe_regs[pe][reg]))
    result = transfer(net, mode, messages,
                      pass_cycles=machine.cost.noc_pass_cycles(net),
                      config_cycles=machine.cost.noc_config_cycles)
    machine.cycles += result.latency
    for dst, payloads in sorted(result.delivered.items(),
                                key=lambda item: item[0]):
        if dst == ACU_PORT:
            machine.acu_mailbox.extend(payloads)
        elif dst == DEVICE_PORT:
            machine.device_sink.extend(payloads)
        elif machine.pe_active[dst]:
            machine.pe_regs[dst][reg] = payloads[-1]


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
