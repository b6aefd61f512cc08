import random
import time

import pytest

import reference_sim as ref
from mppsoc.config import MpNocKind, MppSoCConfig, Neighborhood
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
    for pe in range(4):
        machine.regs[0][pe] = pe
    report = run(machine, load_program("MOVD r0,E\nHALT"))
    # Every PE sends east and receives from its west neighbour.
    assert [regs[0] for regs in report.registers] == [3, 0, 1, 2]


def test_movd_boundary_value_on_linear_edge():
    cost = CostModel(boundary_value=-1)
    machine = machine_for(1, 3, neighborhood=Neighborhood.LINEAR, cost=cost)
    for pe in range(3):
        machine.regs[0][pe] = pe + 10
    report = run(machine, load_program("MOVD r0,E\nHALT"))
    assert [regs[0] for regs in report.registers] == [-1, 10, 11]


def test_movd_skips_inactive_senders_and_receivers():
    machine = machine_for(1, 4, neighborhood=Neighborhood.RING)
    for pe in range(4):
        machine.regs[0][pe] = pe
    report = run(machine, load_program("MASK even\nMOVD r0,E\nHALT"))
    # Odd PEs keep their state; even PEs receive the boundary value because
    # their (inactive) west neighbours sent nothing.
    assert [regs[0] for regs in report.registers] == [0, 1, 0, 3]


def test_whole_run_inactive_pe_keeps_initial_state():
    machine = machine_for(1, 4, neighborhood=Neighborhood.RING)
    machine.regs[2][3] = 77
    machine.write_word(3, 8, 123)
    program = load_program(
        "MASK lt:3\nLDI r2,5\nST r2,8\nMOVD r2,E\nUNMASK\nHALT")
    run(machine, program)
    assert machine.regs[2][3] == 77
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
    for pe in range(4):
        machine.regs[0][pe] = pe * 100
    program = load_program("MASK ge:1\nNOCSEND pe,idx-1,r0\nUNMASK\nHALT")
    report = run(machine, program)
    # PE0 is inactive, so the delivery aimed at it is dropped.
    assert [regs[0] for regs in report.registers] == [0, 200, 300, 300]


def test_nocsend_under_strided_mask_pairs_each_sender_with_its_destination():
    machine = machine_for(1, 8, mpnoc=MpNocKind.CROSSBAR)
    machine.regs[0] = [pe * 100 for pe in range(8)]
    program = load_program("MASK mod:2:0\nNOCSEND pe,idx,r0\n"
                           "NOCSEND pe,idx+1,r0\nUNMASK\nHALT")
    report = run(machine, program)
    # Each even PE sends to itself, then to the inactive odd PE above it.
    assert [regs[0] for regs in report.registers] == [pe * 100 for pe in range(8)]


def test_nocsend_acu_mode_fills_mailbox():
    machine = machine_for(1, 4, mpnoc=MpNocKind.CROSSBAR)
    for pe in range(4):
        machine.regs[1][pe] = 4 - pe
    run(machine, load_program("NOCSEND acu,0,r1\nHALT"))
    # The mailbox takes the words in PE order.
    assert machine.acu_mailbox == [4, 3, 2, 1]


@pytest.mark.parametrize("kind", list(MpNocKind))
def test_nocsend_to_one_pe_keeps_the_highest_active_senders_word(kind):
    machine = machine_for(1, 8, mpnoc=kind)
    machine.regs[0] = [pe * 100 for pe in range(8)]
    machine.regs[1] = [pe * 100 for pe in range(8)]
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
