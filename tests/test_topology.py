from collections import deque

import pytest

from mppsoc.config import Neighborhood
from mppsoc.topology import (
    OPPOSITE,
    DimensionMismatch,
    build_topology,
    check_dimensions,
    route_distance,
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


def test_edge_list_text():
    graph = build_topology(N.LINEAR, 1, 3)
    assert graph.edge_list_text() == "0 1 E\n1 2 E\n"
