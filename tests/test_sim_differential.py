"""Differential test: the column-store ``run`` against the per-PE
reference interpreter in ``reference_sim``, on random small programs
over every opcode and predicate, every neighbourhood and every router,
and on long runs of adds of saturated words, whose carries wait in the
guard bits."""

import dataclasses

import pytest
import reference_sim as ref
from hypothesis import given, settings, strategies as st
from sampling import predicates

from mppsoc.config import CostModel, MpNocKind, MppSoCConfig, Neighborhood
from mppsoc.mpnoc import PortOutOfRange
from mppsoc.simulator import (
    _COMPILERS,
    _OPERAND_PARSERS,
    SimMachine,
    SimulationError,
    load_program,
    run,
)
from mppsoc.topology import pack

# (rows, cols, neighbourhood, router): every neighbourhood and every
# router appears, each also without the other network.  The last six
# have MOVD seams that do not span the whole grid: non-square torus and
# xnet, a mesh taller than wide, a one-column mesh, longer 1D arrays.
SHAPES = (
    (1, 1, Neighborhood.LINEAR, MpNocKind.CROSSBAR),
    (1, 4, Neighborhood.LINEAR, MpNocKind.SHARED_BUS),
    (1, 5, Neighborhood.RING, None),
    (1, 4, Neighborhood.RING, MpNocKind.DELTA_OMEGA),
    (2, 4, Neighborhood.MESH2D, MpNocKind.DELTA_BASELINE),
    (3, 2, Neighborhood.MESH2D, None),
    (3, 3, Neighborhood.TORUS2D, MpNocKind.CROSSBAR),
    (2, 2, Neighborhood.XNET, MpNocKind.DELTA_BUTTERFLY),
    (2, 3, Neighborhood.XNET, None),
    (1, 8, None, MpNocKind.DELTA_OMEGA),
    (3, 1, None, MpNocKind.SHARED_BUS),
    (4, 5, Neighborhood.TORUS2D, None),
    (3, 4, Neighborhood.XNET, MpNocKind.CROSSBAR),
    (4, 3, Neighborhood.MESH2D, None),
    (2, 1, Neighborhood.MESH2D, MpNocKind.SHARED_BUS),
    (1, 6, Neighborhood.RING, None),
    (1, 7, Neighborhood.LINEAR, None),
)
PE_MEM_BYTES = (2, 4, 6, 8, 13, 16)
DIRECTIONS = ("E", "W", "N", "S", "NE", "NW", "SE", "SW")

regs = st.integers(0, 3).map("r{}".format)
words = st.integers(-(1 << 33), 1 << 33)
# LDI immediates that wrap to 0: ``LDI r, 0`` is half of the ISA's copy.
zeros = st.sampled_from((0, 1 << 32, -(1 << 32)))


costs = st.builds(CostModel, *(st.integers(0, 3) for _ in range(6)),
                  boundary_value=words)


def programs(machine):
    """Programs for one machine.  Most instructions are legal on it, so
    runs get long; one branch draws the illegal kinds (bad address,
    missing direction, missing router, port out of range), one draws
    runs of 1..2*max(rows, cols)+1 identical MOVDs, which ``run`` fuses
    under the full mask, with legal and with any directions, and the
    router branch also sends to ``idx+k`` under a mask that keeps the
    senders in range while the receivers past it are inactive, and to
    ``idx`` and to ``idx+K``/``idx-K`` (K up to N) under any mask.
    LDIs also load immediates that wrap to 0, and ADDs also write one
    of their sources or read a register just loaded with 0, often under
    a new mask, so that ``run`` meets its moves and masked accumulates
    (``ADD r, r, r`` among them) under full and partial masks."""
    config, n = machine.config, machine.n_pes
    addresses = st.sampled_from(range(0, config.pe_mem_bytes - 3, 4) or [0])
    masks = (st.sampled_from(("", "UNMASK\n"))
             | predicates(n).map("MASK {}\n".format))
    legal = [
        st.builds("LDI {}, {}".format, regs, words | zeros),
        st.builds("LD {}, {}".format, regs, addresses),
        st.builds("ST {}, {}".format, regs, addresses),
        st.builds("ADD {}, {}, {}".format, regs, regs, regs),
        st.builds(lambda mask, dst, x, first: f"{mask}ADD {dst}, {dst}, {x}"
                  if first else f"{mask}ADD {dst}, {x}, {dst}",
                  masks, regs, regs, st.booleans()),
        st.builds("LDI {0}, {1}\n{4}ADD {2}, {0}, {3}".format,
                  regs, zeros, regs, regs, masks),
        st.builds("MASK {}".format, predicates(n)),
        st.just("UNMASK"),
        st.just("HALT"),
    ]

    def movd_runs(directions):
        return st.builds(lambda reg, direction, count: "\n".join(
            [f"MOVD {reg}, {direction}"] * count), regs,
            st.sampled_from(directions),
            st.integers(1, 2 * max(config.rows, config.cols) + 1))

    # MOVD and NOCSEND get two branches each: twice the weight of the
    # others.  MOVD runs are one more branch.
    if machine.topology:
        directions = sorted(machine.topology.directions)
        legal += 2 * [st.builds("MOVD {}, {}".format, regs,
                                st.sampled_from(directions))]
        legal.append(movd_runs(directions))
    if machine.mpnoc:
        destinations = st.one_of(st.just("idx"),
                                 st.integers(0, n - 1).map(str))
        legal += [
            st.builds("NOCSEND {}, {}, {}".format,
                      st.sampled_from(("pe", "acu", "dev")), destinations, regs),
            st.integers(1, 3).flatmap(lambda k: st.builds(
                "MASK lt:{}\nNOCSEND pe, idx+{}, {}".format,
                st.integers(0, max(n - k, 0)), st.just(k), regs)),
            st.builds("MASK {}\nNOCSEND pe, idx, {}".format,
                      predicates(n), regs),
            # Shifts by 0..N either way under every mask kind: offsets
            # off the mask's stride and past either end of the array.
            st.builds("MASK {}\nNOCSEND pe, idx{}{}, {}".format,
                      predicates(n), st.sampled_from("+-"),
                      st.integers(0, n), regs),
        ]
    illegal = st.one_of(
        st.builds("{} {}, {}".format, st.sampled_from(("LD", "ST")), regs,
                  st.sampled_from((-4, 2, config.pe_mem_bytes, 1 << 20))),
        st.builds("MOVD {}, {}".format, regs, st.sampled_from(DIRECTIONS)),
        movd_runs(DIRECTIONS),
        st.builds("NOCSEND {}, {}, {}".format,
                  st.sampled_from(("pe", "acu", "dev")),
                  st.sampled_from(("-3", "-2", "-1", str(n), "idx-1", "idx+1")),
                  regs),
    )
    return st.lists(st.one_of(*legal, illegal), min_size=2, max_size=12).map(
        lambda lines: load_program("\n".join(lines + ["HALT"])))


def memory_words(machine, config):
    return tuple(tuple(machine.read_word(pe, addr)
                       for addr in range(0, config.pe_mem_bytes - 3, 4))
                 for pe in range(config.n_pes))


def state(machine, config, registers):
    return (machine.cycles, registers, memory_words(machine, config),
            machine.acu_mailbox, machine.device_sink)


def error_of(err):
    """Type and message; router errors surface from ``run`` as a
    ``SimulationError`` with the same message."""
    if isinstance(err, PortOutOfRange):
        return SimulationError, str(err)
    return type(err), str(err)


def check_run(machine, oracle, program):
    """Run one program on the machine and on its oracle, and compare the
    reports, or the errors and the state they leave.  Every column the
    run leaves is normalised, its guard bits 0: ``run`` moves a column
    by sharing its int on that promise."""
    compare_run(machine, oracle, program)
    for column in (*machine.regs, *machine.mem.values()):
        assert not column & ~machine.full


def compare_run(machine, oracle, program):
    config = machine.config
    try:
        want = ref.run(oracle, program)
    except Exception as err:  # noqa: BLE001 - compared below
        expected = error_of(err)
        try:
            run(machine, program, snapshot_memory=True)
        except SimulationError as got:
            assert error_of(got) == expected
            assert got.line is not None
        else:
            raise AssertionError(f"run did not raise {expected}")
        registers = tuple(zip(*map(machine.column, range(8))))
        assert (state(machine, config, registers) ==
                state(oracle, config, tuple(map(tuple, oracle.pe_regs))))
        return
    got = run(machine, program, snapshot_memory=True)
    assert dataclasses.replace(got, memory_words=None) == want
    assert got.memory_words == memory_words(oracle, config)
    assert (state(machine, config, got.registers) ==
            state(oracle, config, want.registers))


def machine_pair(shape, pe_mem_bytes, cost, data):
    """A machine and its oracle of one shape and cost, the same three
    random register columns in each, and r0 and word 0 preloaded on
    both when ``set_values`` draws values both accept; None when the two
    refuse the values alike."""
    rows, cols, neighborhood, router = shape
    config = MppSoCConfig(rows=rows, cols=cols, acu_mem_bytes=64,
                          pe_mem_bytes=pe_mem_bytes,
                          neighborhood=neighborhood, mpnoc=router)
    machine, oracle = SimMachine(config, cost), ref.SimMachine(config, cost)
    n = config.n_pes
    for reg in range(1, 4):
        column = data.draw(st.lists(words.map(lambda v: v & 0xFFFFFFFF),
                                    min_size=n, max_size=n))
        machine.set_column(reg, column)
        for pe, value in enumerate(column):
            oracle.pe_regs[pe][reg] = value
    values = data.draw(st.none() | st.lists(words, min_size=n, max_size=n))
    if values is not None:
        try:
            oracle.set_values(values)
        except Exception as err:  # noqa: BLE001 - compared below
            expected = error_of(err)
            try:
                machine.set_values(values)
            except Exception as got:  # noqa: BLE001
                assert error_of(got) == expected
                return None
            raise AssertionError(f"set_values did not raise {expected}")
        machine.set_values(values)
    return machine, oracle


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from(SHAPES), pe_mem_bytes=st.sampled_from(PE_MEM_BYTES),
       cost=costs, data=st.data())
def test_run_matches_per_pe_reference(shape, pe_mem_bytes, cost, data):
    pair = machine_pair(shape, pe_mem_bytes, cost, data)
    if pair is None:
        return
    machine, oracle = pair
    # Programs in a row on one machine: the mask and all state carry
    # over, also past a program that stopped on an error.
    for program in data.draw(st.lists(programs(machine), min_size=2, max_size=4)):
        check_run(machine, oracle, program)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(MpNocKind), n=st.sampled_from((4, 8, 16)),
       data=st.data())
def test_a_shifted_send_matches_the_reference_from_any_range(kind, n, data):
    """``NOCSEND pe, idx±K`` from every range of senders a run can start
    under (``SimMachine.active``), with K up to N either way, on and off
    the range's step: the receivers ``run`` cuts from the senders' mask
    are the reference's.  The ranges include strided ones that end more
    than a step before the last PE, which no MASK gives, so that an
    aligned strided send delivers.  Every PE holds its own word, so a
    word delivered to a wrong PE shows."""
    config = MppSoCConfig(rows=1, cols=n, acu_mem_bytes=64, pe_mem_bytes=4,
                          mpnoc=kind)
    machine, oracle = SimMachine(config), ref.SimMachine(config)
    for sim in (machine, oracle):
        sim.set_values(range(1, n + 1))
    start, step = data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, n))
    entry = range(n)[start::step][:data.draw(st.integers(0, n))]
    offset = data.draw(st.integers(-n, n) | st.integers(-n, n).map(
        lambda k: k * step))
    machine.active = entry
    oracle.pe_active = [pe in entry for pe in range(n)]
    check_run(machine, oracle, load_program(
        f"NOCSEND pe, idx{offset:+d}, r0\nHALT"))


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from(SHAPES),
       pe_mem_bytes=st.tuples(*2 * [st.sampled_from(PE_MEM_BYTES)]),
       cost=costs, other_cost=st.none() | costs, data=st.data())
def test_a_program_reruns_right_on_other_machines_masks_and_costs(
        shape, pe_mem_bytes, cost, other_cost, data):
    """``run`` keeps the plans it compiles on the program object, by
    configuration, cost values and entry mask.  Each program object,
    after its first run, runs again as the reference does: on a second
    machine of another shape (often of as many PEs, so that only the
    configuration tells the two apart), with another cost model or
    (None) the same one, on the first machine after its mask changed,
    and after every field of the first machine's cost model changed in
    place."""
    n = shape[0] * shape[1]
    alike = [other for other in SHAPES if other[0] * other[1] == n]
    other_shape = data.draw(st.sampled_from(alike) | st.sampled_from(SHAPES))
    pairs = [machine_pair(s, mem, c, data) for s, mem, c in zip(
        (shape, other_shape), pe_mem_bytes, (cost, other_cost or cost))]
    if None in pairs:
        return
    (machine, oracle), (other, other_oracle) = pairs
    for program in data.draw(st.lists(programs(machine), min_size=1, max_size=3)):
        check_run(machine, oracle, program)
        check_run(other, other_oracle, program)
        mask = load_program(f"MASK {data.draw(predicates(n))}\nHALT")
        check_run(machine, oracle, mask)
        check_run(machine, oracle, program)
        for field in dataclasses.fields(CostModel):
            setattr(cost, field.name, data.draw(
                words if field.name == "boundary_value" else st.integers(0, 3)))
        check_run(machine, oracle, program)


def test_every_mnemonic_has_a_compiler():
    assert set(_COMPILERS) == set(_OPERAND_PARSERS)


# -- carries held in the guard bits ------------------------------------------

ALL_ONES = 0xFFFFFFFF
ADDS = "ADD r1, r1, r0\n"


def saturated_pair():
    """A 1x8 machine with a router and its oracle, r0 to r3 and word 0
    holding 0xFFFFFFFF in every PE: every add then carries, and a column
    of c carries holds (c+1)*0xFFFFFFFF, the most it may."""
    config = MppSoCConfig(rows=1, cols=8, acu_mem_bytes=64, pe_mem_bytes=16,
                          neighborhood=Neighborhood.LINEAR,
                          mpnoc=MpNocKind.DELTA_OMEGA)
    machine, oracle = SimMachine(config), ref.SimMachine(config)
    for sim in (machine, oracle):
        sim.set_values([ALL_ONES] * 8)
    for reg in range(1, 4):
        machine.set_column(reg, [ALL_ONES] * 8)
        for regs in oracle.pe_regs:
            regs[reg] = ALL_ONES
    return machine, oracle


@pytest.mark.parametrize("text", [
    "MASK even\n" + 300 * ADDS,
    300 * ADDS,
    12 * "ADD r2, r2, r2\n",
    "MASK lt:7\n" + 12 * "ADD r2, r2, r2\n",
    # Operands of ~200 carries each, added under a mask of adjacent
    # lanes, where a carry out of one lane would land in an active one.
    200 * ADDS + 200 * "ADD r2, r2, r0\n" + "MASK lt:6\nADD r3, r1, r2\n"
    + "ADD r3, r3, r2\n",
    # Carries kept by a move, a masked MOVD and a PE send, then added to.
    200 * ADDS + "LDI r5, 0\nADD r5, r5, r1\n" + 100 * "ADD r5, r5, r0\n",
    "MASK even\n" + 200 * ADDS + "MASK odd\nMOVD r1, E\nMASK lt:6\n"
    "NOCSEND pe, idx+2, r1\nUNMASK\n" + 100 * ADDS,
    # A store of a column with carries, loaded back and doubled: the
    # loaded column must hold none.
    "MASK even\n" + 20 * ADDS + "UNMASK\nST r1, 4\nLD r4, 4\n"
    + 9 * "ADD r4, r4, r4\n" + "MASK odd\nST r1, 8\n",
])
def test_carries_never_reach_the_next_lane(text):
    """Adds of saturated columns, full-mask and masked, leave carries in
    the guard bits until one more could overflow a lane.  Each run
    equals the reference, and leaves every register and memory column
    normalised: ``regs[r]`` is the pack of its own words."""
    machine, oracle = saturated_pair()
    check_run(machine, oracle, load_program(text + "HALT"))
    for reg in range(8):
        assert machine.regs[reg] == pack(machine.column(reg))


@pytest.mark.parametrize("failure", ["LD r0, 2",
                                     "MASK lt:7\nNOCSEND pe, idx+2, r1"])
def test_a_run_that_fails_leaves_its_columns_normalised(failure):
    """A run that accumulates carries and then fails leaves the state,
    the cycles and the error of the reference at the failing line, with
    every register and memory column normalised."""
    machine, oracle = saturated_pair()
    program = load_program("MASK even\n" + 40 * ADDS + "UNMASK\n"
                           "ADD r2, r1, r1\nST r2, 4\n" + failure + "\nHALT")
    check_run(machine, oracle, program)
    for reg in range(8):
        assert machine.regs[reg] == pack(machine.column(reg))
