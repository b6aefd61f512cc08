import random
import time
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st
from reference_sim import _evaluate_mask
from sampling import predicates
from topology_reference import reference_adjacency

from mppsoc.config import CostModel, MppSoCConfig, Neighborhood
from mppsoc.simulator import SimMachine, _parse_predicate, load_program, run
from mppsoc.topology import (
    DIRECTION_DELTAS,
    OPPOSITE,
    WORD_MASK,
    DimensionMismatch,
    build_topology,
    check_dimensions,
    pack,
    route_distance,
    unpack,
)

N = Neighborhood


def bfs_distance(graph, src, dst):
    if src == dst:
        return 0
    seen = {src}
    frontier = deque([(src, 0)])
    while frontier:
        node, dist = frontier.popleft()
        for neighbor in graph.adjacency[node].values():
            if neighbor == dst:
                return dist + 1
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, dist + 1))
    raise AssertionError(f"{dst} unreachable from {src}")


def all_shapes():
    for cols in range(1, 9):
        yield N.LINEAR, 1, cols
    for cols in range(3, 9):
        yield N.RING, 1, cols
    for rows in range(2, 9):
        for cols in range(1, 9):
            yield N.MESH2D, rows, cols
            yield N.XNET, rows, cols
    for rows in range(3, 9):
        for cols in range(3, 9):
            yield N.TORUS2D, rows, cols


def expected_edges(kind, rows, cols):
    n = rows * cols
    if kind is N.LINEAR:
        return n - 1
    if kind is N.RING:
        return n
    mesh = 2 * rows * cols - rows - cols
    if kind is N.MESH2D:
        return mesh
    if kind is N.TORUS2D:
        return 2 * rows * cols
    return mesh + 2 * (rows - 1) * (cols - 1)


def test_mesh_corner_neighbors():
    graph = build_topology(N.MESH2D, 4, 4)
    assert graph.neighbors(0) == {"E": 1, "S": 4}


def test_torus_wraps():
    graph = build_topology(N.TORUS2D, 4, 4)
    assert sorted(graph.neighbors(0).values()) == [1, 3, 4, 12]


def test_xnet_degrees():
    graph = build_topology(N.XNET, 4, 4)
    center = graph.pe_at(1, 1).linear_index
    assert graph.degree(center) == 8
    assert graph.degree(0) == 3


def test_ring_neighbors():
    graph = build_topology(N.RING, 1, 4)
    assert sorted(graph.neighbors(0).values()) == [1, 3]


def test_pe_indexing():
    graph = build_topology(N.MESH2D, 3, 5)
    pe = graph.pe_at(2, 4)
    assert pe.linear_index == 14
    assert graph.pe(14) == pe
    with pytest.raises(IndexError):
        graph.pe_at(3, 0)


@pytest.mark.parametrize("kind,rows,cols,why", [
    (N.LINEAR, 2, 4, "rows"),
    (N.RING, 1, 2, "cols"),
    (N.MESH2D, 1, 8, "rows"),
    (N.XNET, 1, 8, "rows"),
    (N.TORUS2D, 2, 4, "dims"),
])
def test_dimension_preconditions(kind, rows, cols, why):
    with pytest.raises(DimensionMismatch) as built:
        build_topology(kind, rows, cols)
    with pytest.raises(DimensionMismatch) as checked:
        check_dimensions(kind, rows, cols)
    assert str(checked.value) == str(built.value)


def test_route_distance_examples():
    mesh = build_topology(N.MESH2D, 4, 4)
    torus = build_topology(N.TORUS2D, 4, 4)
    xnet = build_topology(N.XNET, 4, 4)
    src, dst = mesh.pe_at(0, 0), mesh.pe_at(3, 3)
    assert route_distance(mesh, src, dst) == 6
    assert route_distance(torus, src, dst) == 2
    assert route_distance(xnet, src, dst) == 3
    assert route_distance(mesh, src, src) == 0


def test_invariants_across_all_shapes():
    for kind, rows, cols in all_shapes():
        graph = build_topology(kind, rows, cols)
        n = graph.n_pes
        for u in range(n):
            ports = graph.adjacency[u]
            # no self loops, no duplicate edges
            assert u not in ports.values()
            assert len(set(ports.values())) == len(ports)
            # symmetry with opposite labels
            for label, v in ports.items():
                assert graph.adjacency[v][OPPOSITE[label]] == u
        assert len(graph.edges()) == expected_edges(kind, rows, cols)


def test_degree_bounds():
    for kind, rows, cols in all_shapes():
        graph = build_topology(kind, rows, cols)
        degrees = [graph.degree(i) for i in range(graph.n_pes)]
        if kind is N.LINEAR:
            assert max(degrees) <= 2
        elif kind is N.RING:
            assert degrees == [2] * graph.n_pes
        elif kind is N.MESH2D:
            assert max(degrees) <= 4
        elif kind is N.TORUS2D:
            assert degrees == [4] * graph.n_pes
        else:
            assert max(degrees) <= 8


def test_closed_form_matches_bfs():
    for kind, rows, cols in all_shapes():
        graph = build_topology(kind, rows, cols)
        for src in range(graph.n_pes):
            for dst in range(graph.n_pes):
                assert route_distance(graph, src, dst) == bfs_distance(graph, src, dst), (
                    kind, rows, cols, src, dst)


def test_build_is_deterministic():
    a = build_topology(N.XNET, 5, 7)
    b = build_topology(N.XNET, 5, 7)
    assert a.adjacency == b.adjacency


def test_build_reuses_the_graph_of_a_shape():
    assert build_topology(N.XNET, 5, 7) is build_topology(N.XNET, 5, 7)
    assert build_topology(N.XNET, 5, 7) is not build_topology(N.MESH2D, 5, 7)


def test_edge_list_text():
    graph = build_topology(N.LINEAR, 1, 3)
    assert graph.edge_list_text() == "0 1 E\n1 2 E\n"


def buildable(kind, rows, cols):
    try:
        check_dimensions(kind, rows, cols)
    except DimensionMismatch:
        return False
    return True


# Every kind on every buildable shape up to 7x7.
SMALL_SHAPES = tuple((kind, rows, cols) for kind in N
                     for rows in range(1, 8) for cols in range(1, 8)
                     if buildable(kind, rows, cols))


def test_lazy_adjacency_matches_per_pe_builder():
    for kind, rows, cols in SMALL_SHAPES:
        assert (build_topology(kind, rows, cols).adjacency ==
                reference_adjacency(kind, rows, cols)), (kind, rows, cols)


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(SMALL_SHAPES), data=st.data())
def test_shift_and_masked_movd_match_dict_walk(shape, data):
    """``shift`` and a masked MOVD against a gather that walks the
    per-PE adjacency dicts: an active PE takes its active sender's word,
    or the boundary value; an inactive PE keeps its own word."""
    kind, rows, cols = shape
    n = rows * cols
    graph = build_topology(kind, rows, cols)
    adjacency = reference_adjacency(kind, rows, cols)
    assert graph.adjacency == adjacency
    direction = data.draw(st.sampled_from(sorted(graph.directions)))
    words = st.integers(0, 0xFFFFFFFF)
    column = data.draw(st.lists(words, min_size=n, max_size=n))
    boundary = data.draw(words)
    senders = [ports.get(OPPOSITE[direction]) for ports in adjacency]
    fill = pack([boundary] * n)
    assert list(unpack(graph.shift(pack(column), direction, fill), n)) == [
        boundary if s is None else column[s] for s in senders]

    pred = data.draw(predicates(n))
    config = MppSoCConfig(rows=rows, cols=cols, acu_mem_bytes=64,
                          pe_mem_bytes=4, neighborhood=kind)
    machine = SimMachine(config, CostModel(boundary_value=boundary))
    machine.set_column(1, column)
    run(machine, load_program(f"MASK {pred}\nMOVD r1, {direction}\nHALT"))
    active = [_evaluate_mask(_parse_predicate(pred), pe) for pe in range(n)]
    assert machine.column(1) == [
        column[pe] if not active[pe]
        else column[s] if s is not None and active[s] else boundary
        for pe, s in enumerate(senders)]


@pytest.mark.parametrize("kind", [N.MESH2D, N.TORUS2D])
def test_build_does_no_per_pe_work(kind):
    started = time.perf_counter()
    graph = build_topology(kind, 4096, 4096)
    assert time.perf_counter() - started < 0.5
    assert graph.n_pes == 4096 * 4096


# 1x1 and 1x2 linear, the smallest ring, non-square tori, a 2x2 mesh and
# a 5x4 xnet, plus shapes whose extents are no power of two.
K_HOP_SHAPES = ((N.LINEAR, 1, 1), (N.LINEAR, 1, 2), (N.RING, 1, 3),
                (N.TORUS2D, 3, 5), (N.TORUS2D, 4, 6), (N.MESH2D, 2, 2),
                (N.XNET, 5, 4), (N.LINEAR, 1, 9), (N.RING, 1, 8),
                (N.MESH2D, 3, 7), (N.XNET, 2, 3), (N.TORUS2D, 5, 3))


@pytest.mark.parametrize("kind, rows, cols", K_HOP_SHAPES)
def test_k_hop_shift_equals_k_single_hops(kind, rows, cols):
    """``shift(..., hops=k)`` against k one-hop shifts, for k up to twice
    the longer extent and past it: on a ring or torus the hops wrap
    round, on the other kinds every PE ends up with the fill."""
    rng = random.Random(13)
    n = rows * cols
    graph = build_topology(kind, rows, cols)
    for direction in sorted(graph.directions):
        for word in (0, WORD_MASK, 7):
            fill = pack([word] * n)
            column = pack([rng.randrange(1 << 32) for _ in range(n)])
            assert graph.shift(column, direction, fill, hops=0) == column
            stepped = column
            for k in range(1, 2 * max(rows, cols) + 3):
                stepped = graph.shift(stepped, direction, fill)
                assert graph.shift(column, direction, fill, hops=k) == stepped, (
                    direction, word, k)
    with pytest.raises(ValueError):
        graph.shift(column, direction, hops=-1)


@pytest.mark.parametrize("kind, rows, cols", K_HOP_SHAPES)
def test_moves_are_the_binary_digits_of_the_reduced_hops(kind, rows, cols):
    """``moves`` gives one ``(dr, dc, 2^j)`` per set bit of the hops,
    lowest first, after they wrap modulo the axis on a ring or torus
    and are clamped to it on the other kinds: a hop count past the axis
    is one move of the whole axis there."""
    graph = build_topology(kind, rows, cols)
    wraps = kind in (N.RING, N.TORUS2D)
    for direction in sorted(graph.directions):
        dr, dc = DIRECTION_DELTAS[direction]
        axis = cols if not dr else rows if not dc else min(rows, cols)
        for hops in range(3 * axis + 2):
            left = hops % axis if wraps else min(hops, axis)
            assert graph.moves(direction, hops) == tuple(
                (dr, dc, 1 << j) for j in range(left.bit_length())
                if left >> j & 1), (direction, hops)
    with pytest.raises(ValueError):
        graph.moves(direction, -1)
