"""Per-PE reference interpreter for the lock-step simulator (test-only).

This is the simulator's original execution core: one Python loop over
the PEs for every instruction, registers stored as one list per PE and
each PE's local memory as its own bytearray.  It is kept as the oracle
that ``tests/test_sim_differential.py`` compares the column-store
``mppsoc.simulator.run`` against.  Two changes since.  First, a PE-mode
``NOCSEND`` checks each active PE's destination against 0..N-1 before
routing, and an ``acu`` or ``dev`` send is routed as a send to port 0,
the port through which the ACU and the device reach the router.
Second, ``NOCSEND`` takes only the pass count from the router, charges
it as passes times the pass charge plus one configuration charge, and
delivers from its own message list in sender order: the mode names the
sink, the ACU mailbox and device sink append every word, and an active
PE-mode receiver keeps the last word aimed at it.  Program loading
(which reads a MASK predicate into the ``(start, stop, step)`` of the
PEs it selects, and a NOCSEND destination into a kind and its number),
the error types, the cost model and ``SimReport`` are
shared with the package; only the execution semantics are restated
here.
MOVD walks the per-PE adjacency dicts of ``topology_reference``, not
the package's grid shift, so the two share no neighbour arithmetic.

Known differences from ``mppsoc.simulator.run``, both intended:
router errors (``PortOutOfRange``) propagate as they
are instead of as a ``SimulationError`` with a source line, and
``snapshot_memory=True`` reads the partial word at the end of a memory
whose size is not a multiple of 4 (and so raises).
"""

from __future__ import annotations

from mppsoc.config import CostModel, MppSoCConfig
from mppsoc.mpnoc import MpNocNetwork, PortOutOfRange, build_network, transfer
from mppsoc.simulator import (
    DirectionUnavailable,
    Instruction,
    MemoryOutOfBounds,
    MpNocMode,
    NocUnavailable,
    SimProgram,
    SimReport,
)
from mppsoc.topology import OPPOSITE, TopologyGraph, build_topology
from topology_reference import reference_adjacency

_WORD_MASK = 0xFFFFFFFF
_REGISTER_COUNT = 8


def _wrap(value: int) -> int:
    return value & _WORD_MASK


def _signed(value: int) -> int:
    value &= _WORD_MASK
    return value - (1 << 32) if value >> 31 else value


def _evaluate_mask(pred: tuple, idx: int) -> bool:
    """Whether PE ``idx`` satisfies a loaded MASK predicate ``(start,
    stop, step)``: at or past ``start``, before ``stop`` (None for no
    end) and a whole number of steps from ``start``."""
    start, stop, step = pred
    return (start <= idx and (stop is None or idx < stop)
            and (idx - start) % step == 0)


def _evaluate_dst(dst: tuple, idx: int) -> int:
    """PE ``idx``'s destination under a loaded NOCSEND destination:
    ``("idx", K)`` or ``("pe", P)``."""
    kind, number = dst
    return idx + number if kind == "idx" else number


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
            self.adjacency = reference_adjacency(config.neighborhood,
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
        sender = machine.adjacency[pe].get(incoming_from)
        if sender is not None and machine.pe_active[sender]:
            updates[pe] = machine.pe_regs[sender][reg]
        else:
            updates[pe] = _wrap(cost.boundary_value)
    for pe, value in updates.items():
        machine.pe_regs[pe][reg] = value


def _execute_nocsend(machine: SimMachine, instr: Instruction):
    mode, dst_operand, reg = instr.args
    net = machine.mpnoc
    if net is None:
        raise NocUnavailable()
    messages = []
    for pe in range(machine.n_pes):
        if not machine.pe_active[pe]:
            continue
        if mode is MpNocMode.PE_TO_PE:
            dst = _evaluate_dst(dst_operand, pe)
            if not 0 <= dst < machine.n_pes:
                raise PortOutOfRange(pe, dst, machine.n_pes)
        else:
            dst = 0
        messages.append((pe, dst, machine.pe_regs[pe][reg]))
    srcs, dsts = ([m[k] for m in messages] for k in range(2))
    # The charge is restated here, not read from CostModel.noc_cycles,
    # so the differential checks that method too.
    passes = transfer(net, srcs, dsts).passes
    machine.cycles += (passes * machine.cost.noc_pass_cycles(net)
                       + machine.cost.noc_config_cycles)
    sink = {MpNocMode.ACU_TO_PE: machine.acu_mailbox,
            MpNocMode.DEVICE_TO_PE: machine.device_sink}.get(mode)
    # Messages are in sender order: a later sender's word overwrites.
    for _pe, dst, payload in messages:
        if sink is not None:
            sink.append(payload)
        elif machine.pe_active[dst]:
            machine.pe_regs[dst][reg] = payload
