"""Per-PE adjacency builder for the neighbourhood topologies (test-only).

This is ``build_topology``'s original construction: one direction ->
neighbour dict per PE, from each PE's grid coordinates.  It is kept as
the oracle that ``mppsoc.topology``'s shift-based ``adjacency`` and
``TopologyGraph.shift`` are compared against, and it is what the
per-PE reference simulator (``reference_sim``) walks for MOVD, so that
oracle shares no index arithmetic with the package.
"""

from __future__ import annotations

from mppsoc.config import Neighborhood
from mppsoc.topology import DIRECTION_DELTAS, check_dimensions

DIRECTIONS_BY_KIND = {
    Neighborhood.LINEAR: ("E", "W"),
    Neighborhood.RING: ("E", "W"),
    Neighborhood.MESH2D: ("E", "W", "S", "N"),
    Neighborhood.TORUS2D: ("E", "W", "S", "N"),
    Neighborhood.XNET: ("E", "W", "S", "N", "SE", "SW", "NE", "NW"),
}


def reference_adjacency(kind: Neighborhood, rows: int, cols: int) -> tuple[dict, ...]:
    """``adjacency[i]`` maps direction label -> neighbour linear index
    for PE ``i``; raises DimensionMismatch where ``build_topology`` does."""
    check_dimensions(kind, rows, cols)
    wrap = kind in (Neighborhood.RING, Neighborhood.TORUS2D)
    adjacency = []
    for index in range(rows * cols):
        row, col = divmod(index, cols)
        ports = {}
        for label in DIRECTIONS_BY_KIND[kind]:
            dr, dc = DIRECTION_DELTAS[label]
            nr, nc = row + dr, col + dc
            if wrap:
                nr %= rows
                nc %= cols
            elif not (0 <= nr < rows and 0 <= nc < cols):
                continue
            neighbor = nr * cols + nc
            if neighbor != index:
                ports[label] = neighbor
        adjacency.append(ports)
    return tuple(adjacency)
