"""Property tests for the packed columns: one int per register or
memory column, PE i's word in lane i, ``LANE_BITS`` wide."""

import random
from collections.abc import Sequence

import pytest
import reference_sim as ref
from hypothesis import given, settings, strategies as st

from mppsoc.config import CostModel, MppSoCConfig, Neighborhood
from mppsoc.simulator import (
    _SIGN_FILL,
    SimMachine,
    _active_range,
    _parse_predicate,
    load_program,
    run,
)
from mppsoc.topology import (
    LANE_BITS,
    WORD_MASK,
    build_topology,
    pack,
    spread,
    unpack,
)

# One PE, sizes that are no power of two, and the benchmark's 64x64.
SIZES = (1, 3, 7, 100, 4096)


def random_words(seed, n, low, high):
    rng = random.Random(seed)
    return [rng.randrange(low, high) for _ in range(n)]


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(SIZES), seed=st.integers(0, 2**32))
def test_pack_unpack_round_trip(n, seed):
    """Words that fit a lane read back as they were, unsigned and
    signed; any int64 word keeps its low 32 bits under the word mask."""
    words = random_words(seed, n, 0, 1 << LANE_BITS)
    column = pack(words)
    assert column < 1 << LANE_BITS * n
    assert list(unpack(column, n)) == words
    half = 1 << LANE_BITS - 1
    signed = random_words(seed, n, -half, half)
    assert list(unpack(pack(signed), n, signed=True)) == signed
    wide = random_words(seed, n, -(1 << 63), 1 << 63)
    assert list(unpack(pack(wide) & spread(WORD_MASK, n), n)) == [
        w & WORD_MASK for w in wide]


def test_a_lane_is_whole_bytes_and_holds_a_sum():
    """``pack`` and ``unpack`` move whole bytes per lane, and the sum of
    two 32-bit words (33 bits) stays inside its lane."""
    assert LANE_BITS % 8 == 0
    assert LANE_BITS >= 33


def test_spread_places_a_pattern_every_stride_lanes():
    for count in range(0, 20):
        for stride in (1, 2, 3, 8):
            lanes = unpack(spread(5, count, stride), max(count * stride, 1))
            assert [pe for pe, word in enumerate(lanes) if word] == [
                i * stride for i in range(count)]
            assert all(word in (0, 5) for word in lanes)


def test_spread_over_no_lanes_is_empty():
    for count, lanes in ((-3, []), (-1, []), (0, []), (1, [5]), (5, [5] * 5)):
        assert spread(5, count) == pack(lanes), count
        assert spread(5, count, 3) == pack([word for w in lanes for word in (w, 0, 0)]), count


words = st.one_of(st.integers(-(1 << 31), (1 << 32) - 1),
                  st.integers(-(1 << 70), 1 << 70),
                  st.sampled_from((-(1 << 63) - 1, -(1 << 63), (1 << 63) - 1,
                                   1 << 63, 1 << 64, -1, 1 << 32)))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(words, min_size=1, max_size=9))
def test_set_values_wraps_every_word_to_32_bits(values):
    """Negative words, words of 2^32 and more, and words beyond int64
    (which ``pack`` refuses, so ``set_values`` wraps them first)."""
    config = MppSoCConfig(rows=1, cols=len(values), acu_mem_bytes=64,
                          pe_mem_bytes=8)
    machine = SimMachine(config)
    machine.set_values(values)
    wrapped = [v & WORD_MASK for v in values]
    assert machine.column(0) == wrapped
    assert [machine.read_word(pe, 0) for pe in range(len(values))] == wrapped
    report = run(machine, load_program("HALT"))
    assert [regs[0] for regs in report.registers] == [
        w - (1 << 32) if w >> 31 else w for w in wrapped]


def predicates(n):
    """Every predicate shape: the aliases, prefixes and suffixes, and
    strided ones, with bounds and starts past the N PEs (empty ranges)."""
    return st.one_of(
        st.sampled_from(("all", "none", "even", "odd")),
        st.builds("{}:{}".format, st.sampled_from(("lt", "ge")),
                  st.integers(0, n + 3)),
        st.builds("mod:{}:{}".format, st.integers(1, n + 3),
                  st.integers(0, n + 3)),
    )


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from(SIZES), data=st.data())
def test_mask_lanes_match_the_active_range(n, data):
    pred = data.draw(predicates(n))
    machine = SimMachine(MppSoCConfig(rows=1, cols=n, acu_mem_bytes=64,
                                      pe_mem_bytes=4))
    run(machine, load_program(f"MASK {pred}\nHALT"))
    loaded = _parse_predicate(pred)
    active = _active_range(loaded, n)
    assert machine.active == active
    want = [WORD_MASK if ref._evaluate_mask(loaded, pe) else 0 for pe in range(n)]
    assert list(unpack(machine.lanes, n)) == want
    # A masked write takes the active lanes' words from the new column
    # and keeps the others' from the old one.
    full = spread(WORD_MASK, n)
    assert machine.masked(0, full) == machine.lanes
    assert list(unpack(machine.masked(full, 0), n)) == [WORD_MASK - w for w in want]


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from((1, 3, 4096)), data=st.data())
def test_adds_of_full_words_leave_every_guard_byte_clear(n, data):
    """ADDs of all-0xFFFFFFFF columns, each carrying out of every lane,
    under random MASKs leave every guard bit 0, and the report reads
    each word back sign-extended from its bit 31."""
    lines = ["LDI r1, -1", "LDI r2, -1"]
    for pred in data.draw(st.lists(predicates(n), min_size=1, max_size=6)):
        lines += [f"MASK {pred}", "ADD r1, r1, r2", "ADD r3, r2, r2",
                  "ADD r2, r2, r2"]
    machine = SimMachine(MppSoCConfig(rows=1, cols=n, acu_mem_bytes=64,
                                      pe_mem_bytes=4))
    report = run(machine, load_program("\n".join(lines + ["HALT"])))
    guard = spread(_SIGN_FILL, n)
    assert all(column & guard == 0 for column in machine.regs)
    for reg in (1, 2, 3):
        assert [row[reg] for row in report.registers] == [
            signed_word(word) for word in machine.column(reg)]
    for word in (-1, -(1 << 31), -(1 << LANE_BITS - 1), (1 << LANE_BITS - 1) - 1):
        assert list(unpack(pack([word] * n), n, signed=True)) == [word] * n


SHAPES = tuple((kind, rows, cols)
               for kind, rows, cols in (
                   (Neighborhood.LINEAR, 1, 1), (Neighborhood.LINEAR, 1, 5),
                   (Neighborhood.RING, 1, 3), (Neighborhood.RING, 1, 6),
                   (Neighborhood.MESH2D, 2, 3), (Neighborhood.MESH2D, 4, 1),
                   (Neighborhood.TORUS2D, 3, 4), (Neighborhood.TORUS2D, 4, 3),
                   (Neighborhood.XNET, 3, 3), (Neighborhood.XNET, 2, 5)))


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from(SHAPES), boundary=st.sampled_from((-1, WORD_MASK)),
       data=st.data())
def test_movd_under_every_mask_with_the_sentinel_as_boundary(shape, boundary,
                                                              data):
    """A MOVD whose boundary value is 0xFFFFFFFF, the word that marks a
    missing neighbour in ``adjacency``, matches the per-PE oracle."""
    kind, rows, cols = shape
    n = rows * cols
    config = MppSoCConfig(rows=rows, cols=cols, acu_mem_bytes=64,
                          pe_mem_bytes=4, neighborhood=kind)
    cost = CostModel(boundary_value=boundary)
    machine, oracle = SimMachine(config, cost), ref.SimMachine(config, cost)
    column = data.draw(st.lists(st.sampled_from((0, 1, WORD_MASK - 1, WORD_MASK)),
                                min_size=n, max_size=n))
    machine.set_column(2, column)
    for pe, word in enumerate(column):
        oracle.pe_regs[pe][2] = word
    direction = data.draw(st.sampled_from(sorted(build_topology(
        kind, rows, cols).directions)))
    program = load_program(f"MASK {data.draw(predicates(n))}\n"
                           f"MOVD r2, {direction}\nHALT")
    assert run(machine, program) == ref.run(oracle, program)


def signed_word(word):
    return word - (1 << 32) if word >> 31 else word


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from((1, 3, 7, 64, 100)), words=st.sampled_from((1, 3, 16)),
       seed=st.integers(0, 2**32))
def test_report_rows_read_the_packed_columns(n, words, seed):
    """``registers`` and ``memory_words`` of a run with random masked
    LDI/ADD/ST (words with bit 31 set among them) equal the tuples they
    stand for and the reference report, hash like them, read each lane
    as ``machine.column``/``read_word`` do, and keep their values when
    the machine runs again and is reset."""
    rng = random.Random(seed)
    config = MppSoCConfig(rows=1, cols=n, acu_mem_bytes=64,
                          pe_mem_bytes=4 * words)
    lines = []
    for _ in range(8):
        reg, a, b = (rng.randrange(8) for _ in range(3))
        pred = rng.choice(("all", "even", "odd", f"lt:{rng.randrange(n + 1)}",
                           f"mod:3:{rng.randrange(3)}"))
        lines += [f"MASK {pred}", f"LDI r{reg}, {rng.randrange(-(1 << 31), 1 << 32)}",
                  f"ADD r{a}, r{a}, r{b}", f"ST r{b}, {4 * rng.randrange(words)}"]
    program = load_program("\n".join(lines + ["UNMASK", "HALT"]))
    values = random_words(seed, n, -(1 << 31), 1 << 32)
    machine, oracle = SimMachine(config), ref.SimMachine(config)
    machine.set_values(values)
    oracle.set_values(values)
    report = run(machine, program, snapshot_memory=True)
    want = ref.run(oracle, program, snapshot_memory=True)
    assert report == want and hash(report) == hash(want)

    registers = tuple(zip(*(map(signed_word, machine.column(r))
                            for r in range(8))))
    memory = tuple(tuple(machine.read_word(pe, addr)
                         for addr in range(0, 4 * words, 4)) for pe in range(n))
    for view, rows in ((report.registers, registers),
                       (report.memory_words, memory)):
        assert len(view) == n and isinstance(view, Sequence)
        assert tuple(reversed(view)) == rows[::-1] and rows[-1] in view
        assert view == tuple(tuple(row) for row in view) == rows
        assert rows == view and hash(view) == hash(rows)
        for pe in {0, n - 1, rng.randrange(n), -1, -n, -rng.randrange(1, n + 1)}:
            assert view[pe] == rows[pe]
        for part in (slice(None), slice(1, None), slice(None, None, -2),
                     slice(rng.randrange(-n, n), rng.randrange(-n, n), 3)):
            assert view[part] == rows[part]
            assert type(view[part]) is tuple
        for pe in (n, -n - 1):
            with pytest.raises(IndexError):
                view[pe]

    again = SimMachine(config)
    again.set_values(values)
    assert run(again, program, snapshot_memory=True) == report
    run(machine, load_program("LDI r0, -1\nLDI r7, 5\nST r0, 0\nHALT"),
        snapshot_memory=True)
    machine.reset()
    assert report.registers == registers
    assert report.memory_words == memory
