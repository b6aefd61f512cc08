import inspect
import pickle
import random
import time
import tracemalloc

import pytest

import reference_sim as ref
from mppsoc import simulator, topology
from mppsoc.config import MpNocKind, MppSoCConfig, Neighborhood
from mppsoc.mpnoc import MpNocNetwork, build_network, transfer
from mppsoc.simulator import (
    MAX_PES,
    BadOperand,
    CostModel,
    DirectionUnavailable,
    MemoryOutOfBounds,
    MissingHalt,
    NocUnavailable,
    NoTransportAvailable,
    NotPowerOfTwo,
    SimMachine,
    SimulationError,
    UnknownMnemonic,
    _OPERAND_PARSERS,
    load_program,
    reduce_sum,
    run,
)
from mppsoc.topology import LANE_BITS


def machine_for(rows, cols, neighborhood=None, mpnoc=None, cost=None,
                pe_mem_bytes=256):
    config = MppSoCConfig(rows=rows, cols=cols, acu_mem_bytes=256,
                          pe_mem_bytes=pe_mem_bytes,
                          neighborhood=neighborhood, mpnoc=mpnoc)
    return SimMachine(config, cost)


# -- program loading ---------------------------------------------------------


def test_load_minimal_program():
    program = load_program("LDI r0,5\nHALT")
    assert len(program) == 2
    assert program.instructions[0].op == "LDI"


def test_load_unknown_mnemonic_reports_line():
    with pytest.raises(UnknownMnemonic) as err:
        load_program("FOO r0\nHALT")
    assert err.value.line == 1


def test_load_requires_halt():
    with pytest.raises(MissingHalt):
        load_program("LDI r0,5")


def test_load_bad_operands():
    with pytest.raises(BadOperand):
        load_program("LDI r9,5\nHALT")
    with pytest.raises(BadOperand):
        load_program("ADD r0,r1\nHALT")
    with pytest.raises(BadOperand):
        load_program("MOVD r0,Q\nHALT")
    with pytest.raises(BadOperand):
        load_program("MASK sometimes\nHALT")
    with pytest.raises(BadOperand):
        load_program("NOCSEND warp,idx,r0\nHALT")
    with pytest.raises(BadOperand) as err:
        load_program("LDI r0,1\nMASK mod:0:0\nHALT")
    assert err.value.line == 2


@pytest.mark.parametrize("op", sorted(_OPERAND_PARSERS))
def test_load_rejects_wrong_operand_count(op):
    count = len(_OPERAND_PARSERS[op])
    for wrong in {count + 1, max(count - 1, 0)} - {count}:
        operands = ",".join(["r0"] * wrong)
        with pytest.raises(BadOperand) as err:
            load_program(f"LDI r0,1\n{op} {operands}\nHALT")
        assert err.value.line == 2


def test_load_accepts_comments_and_case():
    program = load_program("# setup\nldi r0,1  # immediate\n\nhalt")
    assert [i.op for i in program.instructions] == ["LDI", "HALT"]


def test_load_splits_the_mnemonic_at_any_whitespace():
    program = load_program("LDI\tr0, 1\nADD\x0br1,r0,r0\nHALT")
    assert [(i.op, i.args) for i in program.instructions] == [
        ("LDI", (0, 1)), ("ADD", (1, 0, 0)), ("HALT", ())]


def test_movd_direction_binding_is_deferred_to_run():
    # Loading succeeds; execution on a linear machine fails.
    program = load_program("MOVD r0,NE\nHALT")
    machine = machine_for(1, 4, neighborhood=Neighborhood.LINEAR)
    with pytest.raises(DirectionUnavailable):
        run(machine, program)


# -- execution semantics -----------------------------------------------------


def test_broadcast_ldi_and_cycle_charge():
    machine = machine_for(1, 4, neighborhood=Neighborhood.LINEAR)
    report = run(machine, load_program("LDI r0,7\nHALT"))
    assert all(regs[0] == 7 for regs in report.registers)
    assert report.cycles == 2  # two instructions, issue cost only


def test_mask_gates_effects():
    machine = machine_for(1, 4, neighborhood=Neighborhood.LINEAR)
    report = run(machine, load_program("MASK even\nLDI r0,1\nUNMASK\nHALT"))
    assert [regs[0] for regs in report.registers] == [1, 0, 1, 0]


def test_mask_predicates():
    machine = machine_for(1, 8, neighborhood=Neighborhood.LINEAR)
    report = run(machine, load_program("MASK mod:4:1\nLDI r0,9\nHALT"))
    assert [regs[0] for regs in report.registers] == [0, 9, 0, 0, 0, 9, 0, 0]
    machine.reset()
    report = run(machine, load_program("MASK lt:3\nLDI r1,5\nHALT"))
    assert [regs[1] for regs in report.registers] == [5, 5, 5, 0, 0, 0, 0, 0]
    machine.reset()
    report = run(machine, load_program("MASK mod:3:5\nLDI r2,5\nHALT"))
    assert [regs[2] for regs in report.registers] == [0] * 8


def test_movd_east_on_ring_shifts_from_west_neighbor():
    machine = machine_for(1, 4, neighborhood=Neighborhood.RING)
    machine.set_column(0, range(4))
    report = run(machine, load_program("MOVD r0,E\nHALT"))
    # Every PE sends east and receives from its west neighbour.
    assert [regs[0] for regs in report.registers] == [3, 0, 1, 2]


def test_runs_fold_only_identical_movds_in_a_row():
    program = load_program("MOVD r1, W\nMOVD r1,w\nMOVD r1, E\nMOVD r2, E\n"
                           "MOVD r2, E\nMOVD r2, E\nADD r1, r1, r1\n"
                           "MOVD r2, E\nHALT")
    assert [(i.op, i.args, i.line, count) for i, count in program.runs] == [
        ("MOVD", (1, "W", 2), 1, 2), ("MOVD", (1, "E"), 3, 1),
        ("MOVD", (2, "E", 3), 4, 3), ("ADD", (1, 1, 1), 7, 1),
        ("MOVD", (2, "E"), 8, 1), ("HALT", (), 9, 1)]


def test_movd_run_under_the_full_mask_is_one_packed_shift(monkeypatch):
    """32 identical MOVDs on a fresh 64x64 mesh, whose mask is full, move
    the column once, and are charged and counted as 32 instructions."""
    cost = CostModel(issue_cycles=2, hop_cycles=3)
    machine = machine_for(64, 64, neighborhood=Neighborhood.MESH2D, cost=cost)
    machine.set_column(1, range(4096))
    moves = []
    real = topology.shift_lanes
    monkeypatch.setattr(topology, "shift_lanes",
                        lambda column, lanes: moves.append(lanes) or real(column, lanes))
    report = run(machine, load_program("MOVD r1, W\n" * 32 + "HALT"))
    assert len(moves) == 1
    assert report.instructions == 32 + 1
    assert report.cycles == 32 * (2 + 3) + 2
    # Each PE holds the word 32 PEs east of it, or 0 past the east edge.
    assert machine.column(1) == [pe + 32 if pe % 64 < 32 else 0
                                 for pe in range(4096)]


def test_machines_sharing_a_graph_keep_their_own_boundary_values():
    """Two machines of one shape share one graph through the
    ``build_topology`` memo.  Full-mask MOVD runs and partial-mask MOVDs,
    interleaved between the two machines, each fill with their own
    machine's boundary value, as the per-PE reference does."""
    config = MppSoCConfig(rows=4, cols=5, acu_mem_bytes=64, pe_mem_bytes=4,
                          neighborhood=Neighborhood.XNET)
    costs = (CostModel(boundary_value=7), CostModel(boundary_value=-(1 << 33) + 5))
    machines = [SimMachine(config, cost) for cost in costs]
    assert machines[0].topology is machines[1].topology
    oracles = [ref.SimMachine(config, cost) for cost in costs]
    values = [pe * 3 + 1 for pe in range(20)]
    for machine in machines + oracles:
        machine.set_values(values)
    programs = [load_program(text) for text in (
        "MOVD r0, E\nMOVD r0, E\nHALT", "MASK odd\nMOVD r0, S\nMOVD r0, S\nHALT",
        "UNMASK\nMOVD r0, NW\nMOVD r0, NW\nMOVD r0, NW\nHALT",
        "MASK lt:13\nMOVD r0, W\nUNMASK\nMOVD r0, N\nHALT")]
    for program in programs:
        for machine, oracle in zip(machines, oracles):
            assert run(machine, program) == ref.run(oracle, program)


def test_movd_boundary_value_on_linear_edge():
    cost = CostModel(boundary_value=-1)
    machine = machine_for(1, 3, neighborhood=Neighborhood.LINEAR, cost=cost)
    machine.set_column(0, [pe + 10 for pe in range(3)])
    report = run(machine, load_program("MOVD r0,E\nHALT"))
    assert [regs[0] for regs in report.registers] == [-1, 10, 11]


def test_movd_skips_inactive_senders_and_receivers():
    machine = machine_for(1, 4, neighborhood=Neighborhood.RING)
    machine.set_column(0, range(4))
    report = run(machine, load_program("MASK even\nMOVD r0,E\nHALT"))
    # Odd PEs keep their state; even PEs receive the boundary value because
    # their (inactive) west neighbours sent nothing.
    assert [regs[0] for regs in report.registers] == [0, 1, 0, 3]


def test_whole_run_inactive_pe_keeps_initial_state():
    machine = machine_for(1, 4, neighborhood=Neighborhood.RING)
    machine.set_column(2, [0, 0, 0, 77])
    machine.write_word(3, 8, 123)
    program = load_program(
        "MASK lt:3\nLDI r2,5\nST r2,8\nMOVD r2,E\nUNMASK\nHALT")
    run(machine, program)
    assert machine.column(2)[3] == 77
    assert machine.read_word(3, 8) == 123


def test_ld_st_add_roundtrip_and_wrap():
    machine = machine_for(1, 2, neighborhood=Neighborhood.LINEAR)
    program = load_program(
        "LDI r0,2147483647\nLDI r1,1\nADD r2,r0,r1\nST r2,4\nLD r3,4\nHALT")
    report = run(machine, program)
    assert report.registers[0][2] == -2147483648  # 32-bit wraparound
    assert report.registers[0][3] == -2147483648
    # issue 6 + op for ADD/ST/LD
    assert report.cycles == 6 + 3


def test_memory_bounds_checked():
    machine = machine_for(1, 2, neighborhood=Neighborhood.LINEAR, pe_mem_bytes=16)
    with pytest.raises(MemoryOutOfBounds):
        run(machine, load_program("LD r0,16\nHALT"))
    machine.reset()
    with pytest.raises(MemoryOutOfBounds):
        run(machine, load_program("ST r0,-4\nHALT"))
    machine.reset()
    with pytest.raises(MemoryOutOfBounds):
        run(machine, load_program("LD r0,2\nHALT"))  # misaligned


def test_pe_memory_is_allocated_on_first_store():
    top = (1 << 40) - 4
    machine = machine_for(1, 4, neighborhood=Neighborhood.LINEAR,
                          pe_mem_bytes=1 << 40)
    report = run(machine, load_program(
        f"LDI r1,-7\nST r1,{top}\nLD r2,{top}\nHALT"))
    assert [regs[2] for regs in report.registers] == [-7] * 4
    assert list(machine.mem) == [top]  # one column of N words, nothing else
    with pytest.raises(MemoryOutOfBounds) as err:
        run(machine, load_program(f"MASK ge:2\nLD r0,{top + 4}\nHALT"))
    assert str(err.value) == f"PE 2: illegal word access at byte address {top + 4}"


def test_nocsend_requires_router():
    machine = machine_for(1, 4, neighborhood=Neighborhood.LINEAR)
    with pytest.raises(NocUnavailable):
        run(machine, load_program("NOCSEND pe,idx,r0\nHALT"))


def test_nocsend_pe_mode_moves_registers():
    machine = machine_for(1, 4, mpnoc=MpNocKind.CROSSBAR)
    machine.set_column(0, [pe * 100 for pe in range(4)])
    program = load_program("MASK ge:1\nNOCSEND pe,idx-1,r0\nUNMASK\nHALT")
    report = run(machine, program)
    # PE0 is inactive, so the delivery aimed at it is dropped.
    assert [regs[0] for regs in report.registers] == [0, 200, 300, 300]


def test_nocsend_under_strided_mask_pairs_each_sender_with_its_destination():
    machine = machine_for(1, 8, mpnoc=MpNocKind.CROSSBAR)
    machine.set_column(0, [pe * 100 for pe in range(8)])
    program = load_program("MASK mod:2:0\nNOCSEND pe,idx,r0\n"
                           "NOCSEND pe,idx+1,r0\nUNMASK\nHALT")
    report = run(machine, program)
    # Each even PE sends to itself, then to the inactive odd PE above it.
    assert [regs[0] for regs in report.registers] == [pe * 100 for pe in range(8)]


def test_nocsend_acu_mode_fills_mailbox():
    machine = machine_for(1, 4, mpnoc=MpNocKind.CROSSBAR)
    machine.set_column(1, [4 - pe for pe in range(4)])
    run(machine, load_program("NOCSEND acu,0,r1\nHALT"))
    # The mailbox takes the words in PE order.
    assert machine.acu_mailbox == [4, 3, 2, 1]


@pytest.mark.parametrize("pred", ["all", "mod:4:1", "none"])
@pytest.mark.parametrize("pes", [8, 64])
@pytest.mark.parametrize("kind", list(MpNocKind))
def test_acu_and_device_sends_are_timed_as_sends_to_port_0(kind, pes, pred):
    """The ACU and the device reach the router through port 0: an acu or
    dev send charges exactly the cycles of the same senders' send to PE
    0, its words reach the mailbox or the sink in PE order, and no
    register changes."""
    values = [pe * 7 + 3 for pe in range(pes)]
    senders = {"all": range(pes), "mod:4:1": range(1, pes, 4),
               "none": range(0)}[pred]
    words = [values[pe] for pe in senders]
    cycles = {}
    for mode in ("pe", "acu", "dev"):
        machine = machine_for(1, pes, mpnoc=kind)
        machine.set_column(1, values)
        report = run(machine, load_program(
            f"MASK {pred}\nNOCSEND {mode},0,r1\nHALT"))
        cycles[mode] = report.cycles
        assert machine.acu_mailbox == (words if mode == "acu" else [])
        assert machine.device_sink == (words if mode == "dev" else [])
        if mode != "pe":
            assert machine.column(1) == values
    assert cycles["acu"] == cycles["dev"] == cycles["pe"]


@pytest.mark.parametrize("kind", list(MpNocKind))
def test_nocsend_to_one_pe_keeps_the_highest_active_senders_word(kind):
    machine = machine_for(1, 8, mpnoc=kind)
    machine.set_column(0, [pe * 100 for pe in range(8)])
    machine.set_column(1, [pe * 100 for pe in range(8)])
    report = run(machine, load_program(
        "MASK mod:3:1\nNOCSEND pe,4,r0\nNOCSEND pe,2,r1\nUNMASK\nHALT"))
    # Active PEs 1, 4 and 7 all send to PE 4, which keeps PE 7's word;
    # PE 2 is inactive, so the words sent to it are dropped.
    assert [regs[0] for regs in report.registers] == [
        0, 100, 200, 300, 700, 500, 600, 700]
    assert [regs[1] for regs in report.registers] == [
        pe * 100 for pe in range(8)]


@pytest.mark.parametrize("mode", ["acu", "dev", "pe"])
@pytest.mark.parametrize("kind", list(MpNocKind))
def test_nocsend_all_to_one_on_1024_pes_takes_one_pass_per_sender(kind, mode):
    machine = machine_for(1, 1024, mpnoc=kind)
    values = [pe * 3 + 1 for pe in range(1024)]
    machine.set_values(values)
    started = time.perf_counter()
    report = run(machine, load_program(f"NOCSEND {mode},0,r0\nHALT"))
    elapsed = time.perf_counter() - started
    # Every sender contends for the one destination: 1024 passes.
    assert report.cycles == (1027 if kind is MpNocKind.SHARED_BUS else 40963)
    sinks = {"acu": machine.acu_mailbox, "dev": machine.device_sink}
    for name, sink in sinks.items():
        assert sink == (values if name == mode else [])
    if mode == "pe":
        assert report.registers[0][0] == values[-1]
    assert elapsed < 1.0


def test_machine_and_reduction_refuse_arrays_above_the_pe_ceiling():
    config = MppSoCConfig(rows=1024, cols=1025, acu_mem_bytes=64,
                          pe_mem_bytes=64, mpnoc=MpNocKind.CROSSBAR)
    message = (f"{1024 * 1025} PEs exceed the simulator's limit of "
               f"{MAX_PES} PEs")
    with pytest.raises(SimulationError, match=message):
        SimMachine(config)

    def values():
        raise AssertionError("values read before the PE check")
        yield

    with pytest.raises(SimulationError, match=message):
        reduce_sum(config, values())


def test_run_is_deterministic():
    program = load_program("LDI r0,3\nMOVD r0,E\nADD r1,r0,r0\nHALT")
    first = run(machine_for(1, 4, neighborhood=Neighborhood.RING), program)
    second = run(machine_for(1, 4, neighborhood=Neighborhood.RING), program)
    assert first == second


def test_cycle_additivity_matches_hand_sum():
    cost = CostModel(issue_cycles=2, op_cycles=3, hop_cycles=5)
    machine = machine_for(1, 4, neighborhood=Neighborhood.RING, cost=cost)
    report = run(machine, load_program("LDI r0,1\nADD r0,r0,r0\nMOVD r0,E\nHALT"))
    assert report.cycles == 4 * 2 + 3 + 5


def test_set_values_and_snapshot():
    # 6 bytes: the snapshot covers whole words only, not the partial one.
    for pe_mem_bytes in (8, 6):
        machine = machine_for(1, 4, neighborhood=Neighborhood.RING,
                              pe_mem_bytes=pe_mem_bytes)
        machine.set_values([5, 6, 7, 8])
        report = run(machine, load_program("HALT"), snapshot_memory=True)
        assert [regs[0] for regs in report.registers] == [5, 6, 7, 8]
        assert report.memory_words[2][0] == 7
        assert [len(words) for words in report.memory_words] == [pe_mem_bytes // 4] * 4
        with pytest.raises(ValueError):
            machine.set_values([1, 2])


# -- cost model --------------------------------------------------------------


def test_cost_model_from_text():
    cost = CostModel.from_text("# overrides\nhop_cycles = 3\nboundary_value = -1\n")
    assert cost.hop_cycles == 3
    assert cost.boundary_value == -1
    assert cost.issue_cycles == 1


def test_cost_model_rejects_bad_keys_and_values():
    from mppsoc.config import BadValue, UnknownKey
    with pytest.raises(UnknownKey):
        CostModel.from_text("warp_speed = 9\n")
    with pytest.raises(BadValue):
        CostModel.from_text("hop_cycles = fast\n")
    with pytest.raises(BadValue) as err:
        CostModel.from_text("op_cycles = 2\nhop_cycles = -1\n")
    assert err.value.line == 2
    with pytest.raises(BadValue):
        CostModel.from_text(" = 5\n")
    with pytest.raises(ValueError):
        CostModel(hop_cycles=-1)
    # Every charge is bounded to 32 bits, so ``cycles`` stays printable.
    assert CostModel.from_text(f"noc_pass_base = {(1 << 32) - 1}\n"
                               ).noc_pass_base == (1 << 32) - 1
    with pytest.raises(BadValue) as err:
        CostModel.from_text(f"op_cycles = 2\nnoc_pass_base = {1 << 32}\n")
    assert err.value.line == 2


# -- built-in reduction ------------------------------------------------------


def reduction_config(rows, cols, neighborhood=None, mpnoc=None):
    return MppSoCConfig(rows=rows, cols=cols, acu_mem_bytes=1024,
                        pe_mem_bytes=1024, neighborhood=neighborhood,
                        mpnoc=mpnoc)


def test_reduce_linear_sixteen():
    report = reduce_sum(reduction_config(1, 16, neighborhood=Neighborhood.LINEAR),
                        range(16))
    assert report.result == 120
    assert report.transfer_add_steps == 4
    assert report.per_step_hop_counts == (1, 2, 4, 8)


def test_reduce_single_pe():
    report = reduce_sum(reduction_config(1, 1, mpnoc=MpNocKind.CROSSBAR), [42])
    assert report.result == 42
    assert report.transfer_add_steps == 0
    assert report.total_cycles == 0


def test_reduce_rejects_non_power_of_two():
    with pytest.raises(NotPowerOfTwo):
        reduce_sum(reduction_config(3, 4, mpnoc=MpNocKind.CROSSBAR), range(12))


def test_reduce_requires_transport():
    with pytest.raises(NoTransportAvailable):
        reduce_sum(reduction_config(2, 2), range(4))


def test_reduce_length_mismatch():
    with pytest.raises(ValueError):
        reduce_sum(reduction_config(1, 4, mpnoc=MpNocKind.CROSSBAR), [1, 2])


def test_reduce_exact_for_wrapping_inputs():
    values = [2**31 - 1] * 8
    report = reduce_sum(reduction_config(1, 8, neighborhood=Neighborhood.LINEAR),
                        values)
    assert report.result == sum(values)  # exact, beyond 32-bit range


def test_reduce_cycles_match_hand_formula_neighborhood():
    cost = CostModel(hop_cycles=2, op_cycles=3)
    report = reduce_sum(reduction_config(4, 4, neighborhood=Neighborhood.MESH2D),
                        range(16), cost)
    k = 4
    hops = sum(1 << s for s in range(k))
    assert report.total_cycles == hops * 2 + k * 3


def test_reduce_cycles_match_hand_formula_router():
    cost = CostModel()
    config = reduction_config(1, 8, mpnoc=MpNocKind.CROSSBAR)
    report = reduce_sum(config, range(8), cost)
    # crossbar: one pass per step; pass cost = base * ceil(log2 ports)
    per_pass = cost.noc_pass_base * 3
    k = 3
    expected = sum(report.per_step_hop_counts[s] * per_pass +
                   cost.noc_config_cycles for s in range(k)) + k * cost.op_cycles
    assert report.per_step_hop_counts == (1, 1, 1)
    assert report.total_cycles == expected


@pytest.mark.parametrize("kind", list(MpNocKind))
@pytest.mark.parametrize("rows, cols", [(2, 4), (8, 8)])
def test_router_charge_is_the_cost_models_noc_cycles(kind, rows, cols):
    """Every router transfer, in ``run`` and in ``reduce_sum``, costs
    ``CostModel.noc_cycles`` of the passes the router schedules, and the
    router takes no charge: its signature is the message columns."""
    assert list(inspect.signature(transfer).parameters) == ["net", "srcs",
                                                            "dsts"]
    cost = CostModel(noc_pass_base=7, bus_pass_cycles=5, noc_config_cycles=3)
    config = reduction_config(rows, cols, mpnoc=kind)
    n = config.n_pes
    net = build_network(kind, n)
    program = load_program(
        "MASK mod:2:0\nNOCSEND pe,idx+1,r0\nUNMASK\nNOCSEND pe,3,r0\n"
        "NOCSEND acu,0,r0\nNOCSEND dev,0,r0\nMASK none\nNOCSEND pe,idx,r0\n"
        "HALT")
    sends = [(range(0, n, 2), range(1, n + 1, 2)), (range(n), [3] * n),
             (range(n), [0] * n), (range(n), [0] * n), ([], [])]
    report = run(SimMachine(config, cost), program)
    assert report.cycles == len(program) * cost.issue_cycles + sum(
        cost.noc_cycles(net, transfer(net, *send).passes) for send in sends)

    steps = n.bit_length() - 1
    charges = [cost.noc_cycles(net, transfer(
        net, range(1 << s, n, 2 << s), range(0, n, 2 << s)).passes)
        for s in range(steps)]
    assert reduce_sum(config, range(n), cost).total_cycles == (
        sum(charges) + steps * cost.op_cycles)


def test_reduce_matches_sequential_fold_everywhere():
    rng = random.Random(99)
    shapes = {
        1: [(1, 1, None, MpNocKind.CROSSBAR)],
        2: [(1, 2, Neighborhood.LINEAR, None), (2, 1, Neighborhood.MESH2D, None)],
        16: [(1, 16, Neighborhood.RING, None), (4, 4, Neighborhood.XNET, None),
             (4, 4, Neighborhood.TORUS2D, None),
             (4, 4, None, MpNocKind.DELTA_BASELINE)],
        64: [(8, 8, Neighborhood.MESH2D, None), (1, 64, None, MpNocKind.SHARED_BUS)],
    }
    for n, variants in shapes.items():
        for rows, cols, nb, mp in variants:
            config = reduction_config(rows, cols, neighborhood=nb, mpnoc=mp)
            for _ in range(5):
                values = [rng.randint(-2**31, 2**31 - 1) for _ in range(n)]
                report = reduce_sum(config, values)
                assert report.result == sum(values)
                assert report.transfer_add_steps == n.bit_length() - 1


NOC_SHIFTS = (1, 2, 4, 8, 16, 32, 64, 128)


def shift_program(n):
    """The router benchmark's program: every PE adds the words shifted
    in from K PEs below it, for K = 1, 2, ..., 128, twice."""
    lines = ["LD r0, 0", "LDI r1, 0"]
    for _ in range(2):
        for k in NOC_SHIFTS:
            lines += [f"MASK lt:{n - k}", f"NOCSEND pe, idx+{k}, r0",
                      "ADD r1, r1, r0"]
    return load_program("\n".join(lines + ["UNMASK", "ST r1, 4", "HALT"]))


@pytest.mark.parametrize("kind, cycles", [
    (MpNocKind.DELTA_OMEGA, 727),
    (MpNocKind.DELTA_BASELINE, 18087),
    (MpNocKind.DELTA_BUTTERFLY, 18087),
])
def test_shift_program_on_every_delta_wiring_matches_reference(kind, cycles):
    config = MppSoCConfig(rows=32, cols=32, acu_mem_bytes=1024,
                          pe_mem_bytes=64, mpnoc=kind)
    rng = random.Random(1024)
    values = [rng.randrange(-(1 << 31), 1 << 31) for _ in range(1024)]
    program = shift_program(1024)
    machine, oracle = SimMachine(config), ref.SimMachine(config)
    machine.set_values(values)
    oracle.set_values(values)
    report = run(machine, program, snapshot_memory=True)
    assert report.cycles == cycles
    assert report == ref.run(oracle, program, snapshot_memory=True)


def test_run_unpacks_no_column(monkeypatch):
    """The executed recursive-doubling sum on a 64x64 mesh (the
    benchmark's array-compute op) runs, and its report gives the counts,
    the PE count and PE 0's r0, without ``unpack``: the report reads
    the packed columns lazily."""
    config = MppSoCConfig(rows=64, cols=64, acu_mem_bytes=1024,
                          pe_mem_bytes=64, neighborhood=Neighborhood.MESH2D)
    lines = ["LD r0, 0"]
    for direction, modulus in (("W", 1), ("N", 64)):
        for stride in (1, 2, 4, 8, 16, 32):
            lines += ["UNMASK", "LDI r1, 0", "ADD r1, r1, r0"]
            lines += [f"MOVD r1, {direction}"] * stride
            lines += [f"MASK mod:{2 * stride * modulus}:0", "ADD r0, r0, r1"]
    program = load_program("\n".join(lines + ["UNMASK", "ST r0, 4", "HALT"]))
    rng = random.Random(64)
    values = [rng.randrange(-(1 << 31), 1 << 31) for _ in range(4096)]

    def refuse(*args, **kwargs):
        raise AssertionError("run unpacked a column")

    monkeypatch.setattr(simulator, "unpack", refuse)
    machine = SimMachine(config)
    machine.set_values(values)
    report = run(machine, program)
    assert (report.cycles, report.instructions) == (342, 190)
    assert len(report.registers) == 4096
    assert report.registers[0][0] == (sum(values) + (1 << 31)) % (1 << 32) - (1 << 31)


@pytest.mark.parametrize("text, moved", [
    ("LDI r1, 0\nADD r1, r1, r0", True),
    ("LDI r1, 4294967296\nADD r1, r0, r1", True),  # the immediate wraps to 0
    ("MASK even\nLDI r1, 0\nUNMASK\nADD r1, r1, r0", False),
])
def test_a_copy_under_the_full_mask_shares_the_source_column(text, moved):
    """``LDI r1, 0`` then ``ADD r1, r1, r0`` is the ISA's copy, and
    under the full mask ``run`` moves r0's column into r1 rather than
    adding it.  An LDI of 0 under a partial mask leaves r1 known zero
    only where it was, so the ADD after it adds (r1 held 0, so the
    words are the same)."""
    machine = machine_for(4, 4)
    machine.set_values([pe * 1_000_003 - 7 for pe in range(16)])
    run(machine, load_program(f"{text}\nHALT"))
    assert (machine.regs[1] is machine.regs[0]) is moved
    assert machine.column(1) == machine.column(0)


class Scheduled(Exception):
    pass


def test_omega_translations_read_no_source_tag_and_no_resource(monkeypatch):
    """``NOCSEND pe, idx±K`` under prefix, suffix and strided masks on a
    1024-PE omega router: each send is one pass, timed without the
    source tags or a resource column, and delivers as the reference."""
    config = MppSoCConfig(rows=1, cols=1024, acu_mem_bytes=1024,
                          pe_mem_bytes=64, mpnoc=MpNocKind.DELTA_OMEGA)
    sends = [("lt:1000", "+24"), ("ge:7", "-7"), ("lt:1", "+1023"),
             ("mod:4:1", "+2"), ("mod:8:3", "-3"), ("mod:1000:1", "+22")]
    lines = ["LDI r1, 0"]
    for pred, offset in sends:
        lines += [f"MASK {pred}", f"NOCSEND pe, idx{offset}, r0",
                  "ADD r1, r1, r0"]
    program = load_program("\n".join(lines + ["UNMASK", "HALT"]))
    values = [pe * 7 + 1 for pe in range(1024)]
    oracle = ref.SimMachine(config)
    oracle.set_values(values)
    want = ref.run(oracle, program)

    def refuse(*args):
        raise Scheduled

    monkeypatch.setattr(MpNocNetwork, "resource_columns", refuse)
    monkeypatch.setattr(MpNocNetwork, "source_tags", property(refuse))
    machine = SimMachine(config)
    machine.set_values(values)
    report = run(machine, program)
    assert report == want
    cost = machine.cost
    assert report.cycles == (len(program) * cost.issue_cycles
                             + len(sends) * (cost.noc_pass_cycles(machine.mpnoc)
                                             + cost.noc_config_cycles
                                             + cost.op_cycles))


def test_a_pe_send_shifts_only_its_data_column(monkeypatch):
    """A noc-program-shaped program on a 1024-PE omega router: each
    ``NOCSEND pe, idx±K`` whose K is a multiple of its mask's step, with
    a receiver, shifts one column, the data; its receivers are cut from
    the senders' mask without a shift.  A send off the stride, one whose
    destinations are all idle and one to ``idx`` shift nothing.  The
    words equal the reference's, and a second run on a fresh machine
    builds no lane mask."""
    config = MppSoCConfig(rows=32, cols=32, acu_mem_bytes=1024,
                          pe_mem_bytes=64, mpnoc=MpNocKind.DELTA_OMEGA)
    sends = [(f"lt:{1024 - k}", f"+{k}") for k in (1, 2, 4, 8, 16, 32, 64, 128)]
    sends += [("ge:5", "-5"), ("ge:1", "-1"), ("even", "+1"), ("mod:4:3", "-1"),
              ("lt:3", "+3"), ("even", "+0")]
    lines = ["LD r0, 0", "LDI r1, 0"]
    for pred, offset in sends:
        lines += [f"MASK {pred}", f"NOCSEND pe, idx{offset}, r0",
                  "ADD r1, r1, r0"]
    program = load_program("\n".join(lines + ["UNMASK", "ST r1, 4", "HALT"]))
    values = [pe * 7919 % 65537 - 30000 for pe in range(1024)]
    oracle = ref.SimMachine(config)
    oracle.set_values(values)
    want = ref.run(oracle, program)
    shifts = []

    def counted(column, lanes):
        shifts.append(lanes)
        return topology.shift_lanes(column, lanes)

    monkeypatch.setattr(simulator, "shift_lanes", counted)
    aligned = [1, 2, 4, 8, 16, 32, 64, 128, -5, -1]
    for _ in range(2):
        misses = simulator._lanes.cache_info().misses
        machine = SimMachine(config)
        machine.set_values(values)
        assert run(machine, program) == want
        assert shifts == aligned
        shifts.clear()
    assert simulator._lanes.cache_info().misses == misses


# Programs that stop on their fifth line, after two MASKs, an LDI and an
# ST, with the cycles the fifth line adds in units of (issue, op): LD
# and ST charge their op before the address check, MOVD and NOCSEND
# raise before any charge beyond the issue, and a MOVD run that cannot
# execute is charged its first line's issue only.
FAILURES = [
    (True, "LD r2, 64", MemoryOutOfBounds, (1, 1)),
    (True, "ST r1, 2", MemoryOutOfBounds, (1, 1)),
    (True, "MOVD r1, NE", DirectionUnavailable, (1, 0)),
    (True, "MOVD r1, NE\n" * 3, DirectionUnavailable, (1, 0)),
    (True, "NOCSEND pe, idx+2, r1", SimulationError, (1, 0)),
    (False, "NOCSEND pe, idx, r1", NocUnavailable, (1, 0)),
]


@pytest.mark.parametrize("router, line, error, units", FAILURES)
def test_a_failing_line_keeps_its_charge_state_and_mask(router, line, error,
                                                        units):
    """The machine after an error holds the cycles charged up to the
    failing line, the words written before it and the mask it ran
    under; each run of the program raises an error object of its own."""
    cost = CostModel(issue_cycles=2, op_cycles=3, hop_cycles=5,
                     noc_config_cycles=7)
    machine = machine_for(1, 8, neighborhood=Neighborhood.LINEAR,
                          mpnoc=MpNocKind.CROSSBAR if router else None,
                          cost=cost, pe_mem_bytes=16)
    program = load_program("MASK lt:3\nLDI r1, 5\nST r1, 4\nMASK even\n"
                           f"{line}\nLDI r1, 9\nHALT")
    errors = []
    for _ in range(2):
        machine.reset()
        with pytest.raises(error) as caught:
            run(machine, program)
        errors.append(caught.value)
        assert caught.value.line == 5
        issues, ops = units
        assert machine.cycles == 4 * 2 + 3 + issues * 2 + ops * 3
        assert machine.column(1) == [5, 5, 5, 0, 0, 0, 0, 0]
        assert [machine.read_word(pe, 4) for pe in range(8)] == machine.column(1)
        assert machine.active == range(0, 8, 2)
    assert errors[0] is not errors[1]


def test_a_cached_plan_holds_no_column():
    """A plan names each MASK by its range and takes lane masks from the
    bounded caches when it runs, so a program of 300 distinct MASKs, each
    with an ADD and a router send, keeps at most 20 masks' worth of 2^16
    PEs alive after its run, plus 1 MiB."""
    config = MppSoCConfig(rows=256, cols=256, acu_mem_bytes=64, pe_mem_bytes=4,
                          mpnoc=MpNocKind.DELTA_OMEGA)
    n = config.n_pes
    program = load_program("".join(
        f"MASK lt:{n - 1 - k}\nADD r1, r1, r0\nNOCSEND pe, idx+1, r0\n"
        for k in range(300)) + "HALT")
    tracemalloc.start()
    try:
        report = run(SimMachine(config), program)
        del report
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(program._plans) == 1
    assert retained <= 20 * n * LANE_BITS // 8 + (1 << 20)


def test_the_mask_caches_keep_a_bounded_number_of_columns():
    """255-hop MOVD runs in all eight directions of a 256x256 xnet are 64
    distinct moves of 2^j hops, each with a keep mask of up to a column.
    After the run at most the last 32 moves' masks and 20 lane masks
    are kept, plus 1 MiB."""
    config = MppSoCConfig(rows=256, cols=256, acu_mem_bytes=64, pe_mem_bytes=4,
                          neighborhood=Neighborhood.XNET)
    n = config.n_pes
    program = load_program("".join(
        f"MOVD r0, {direction}\n" * 255 for direction in topology.OPPOSITE)
        + "HALT")
    tracemalloc.start()
    try:
        report = run(SimMachine(config), program)
        del report
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= (32 + 20) * n * LANE_BITS // 8 + (1 << 20)


def test_a_program_keeps_its_last_eight_plans():
    """Nine runs under nine entry masks compile nine plans; the program
    keeps the last eight, oldest first."""
    machine = machine_for(1, 16, neighborhood=Neighborhood.LINEAR)
    program = load_program("LDI r0, 1\nHALT")
    entries = [range(k) for k in range(1, 10)]
    for active in entries:
        machine.active = active
        run(machine, program)
    assert len(program._plans) == 8
    assert [key[-1] for key in program._plans] == entries[1:]


def test_a_program_that_has_run_pickles_and_reruns():
    """The plans a program keeps hold closures; the program still
    pickles after a run, and its copy compiles its own plan and runs
    alike."""
    program = load_program("LDI r0, 3\nMASK odd\nMOVD r0, E\nMOVD r0, E\nHALT")
    machine = machine_for(1, 4, neighborhood=Neighborhood.RING)
    want = run(machine, program)
    copy = pickle.loads(pickle.dumps(program))
    assert copy == program and copy.runs == program.runs
    assert run(machine_for(1, 4, neighborhood=Neighborhood.RING), copy) == want
