"""Neighbourhood network topologies as index arithmetic on a PE grid.

Covers the five supported topologies (linear, ring, mesh2d, torus2d,
xnet) over a rows x cols grid with row-major PE numbering, and answers
neighbour and shortest-path queries.  Direction labels are fixed so
programs can name ports: E/W along rows, N/S along columns, plus the
four diagonals for xnet.

A graph stores only its kind and shape.  ``TopologyGraph.shift`` moves
a whole column of per-PE words one hop (MOVD) by list slicing, and
``adjacency`` is a lazy view: that shift of the PE indices, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from mppsoc.config import ONE_D_NEIGHBORHOODS, TWO_D_NEIGHBORHOODS, Neighborhood
from mppsoc.errors import MppSocError

# Direction label -> (row delta, col delta).  N decreases the row index.
DIRECTION_DELTAS = {
    "E": (0, 1),
    "W": (0, -1),
    "S": (1, 0),
    "N": (-1, 0),
    "SE": (1, 1),
    "SW": (1, -1),
    "NE": (-1, 1),
    "NW": (-1, -1),
}

OPPOSITE = {
    "E": "W", "W": "E", "N": "S", "S": "N",
    "NE": "SW", "SW": "NE", "NW": "SE", "SE": "NW",
}

_DIRECTIONS_BY_KIND = {
    Neighborhood.LINEAR: ("E", "W"),
    Neighborhood.RING: ("E", "W"),
    Neighborhood.MESH2D: ("E", "W", "S", "N"),
    Neighborhood.TORUS2D: ("E", "W", "S", "N"),
    Neighborhood.XNET: ("E", "W", "S", "N", "SE", "SW", "NE", "NW"),
}

_WRAPPING_KINDS = frozenset({Neighborhood.RING, Neighborhood.TORUS2D})


class DimensionMismatch(MppSocError):
    def __init__(self, kind: Neighborhood, rows: int, cols: int, why: str):
        super().__init__(f"{kind.value} cannot be built on a {rows}x{cols} grid: {why}")
        self.kind = kind
        self.rows = rows
        self.cols = cols


@dataclass(frozen=True)
class PeId:
    """Grid coordinates of one PE plus its row-major linear index."""

    row: int
    col: int
    linear_index: int

    def __index__(self) -> int:
        return self.linear_index


class TopologyGraph:
    """One buildable topology: its kind and grid shape.

    ``adjacency[i]`` maps direction label -> neighbour linear index for
    PE ``i``; it is derived from ``shift`` on first access.  Graphs are
    undirected: every edge appears from both ends with opposite labels.
    """

    def __init__(self, kind: Neighborhood, rows: int, cols: int):
        self.kind = kind
        self.rows = rows
        self.cols = cols
        self.directions = frozenset(_DIRECTIONS_BY_KIND[kind])

    @property
    def n_pes(self) -> int:
        return self.rows * self.cols

    def pe(self, index: int) -> PeId:
        if not 0 <= index < self.n_pes:
            raise IndexError(f"PE index {index} out of range")
        row, col = divmod(index, self.cols)
        return PeId(row=row, col=col, linear_index=index)

    def pe_at(self, row: int, col: int) -> PeId:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"PE ({row},{col}) out of range")
        return PeId(row=row, col=col, linear_index=row * self.cols + col)

    def shift(self, column: list, direction: str, fill=None) -> list:
        """``column`` after one hop towards ``direction``: each PE takes
        the word of its neighbour on the opposite side, or ``fill`` when
        it has none there.

        The hop is a flat move by ``dr * cols + dc`` positions.  That is
        right for every PE except those in the edge column that the move
        vacates (the seam), which one strided slice then fixes: ``fill``
        on a mesh, or on a ring or torus the opposite edge column (these
        two have no diagonal moves, so the seam stays in its rows).
        """
        dr, dc = DIRECTION_DELTAS[direction]
        cols = self.cols
        step = dr * cols + dc
        if self.kind in _WRAPPING_KINDS:
            out = column[-step:] + column[:-step]
            seam = column[cols - 1 if dc > 0 else 0::cols]
        else:
            out = ([fill] * step + column[:-step] if step > 0
                   else column[-step:] + [fill] * -step)
            seam = [fill] * self.rows
        if dc:
            out[0 if dc > 0 else cols - 1::cols] = seam
        return out

    @cached_property
    def adjacency(self) -> tuple[dict, ...]:
        pes = list(range(self.n_pes))
        senders = [(label, self.shift(pes, OPPOSITE[label]))
                   for label in _DIRECTIONS_BY_KIND[self.kind]]
        return tuple({label: column[pe] for label, column in senders
                      if column[pe] is not None} for pe in pes)

    def neighbors(self, pe) -> dict:
        """Direction -> neighbour index map for one PE."""
        return dict(self.adjacency[int(pe)])

    def degree(self, pe) -> int:
        return len(self.adjacency[int(pe)])

    def edges(self) -> list[tuple[int, int, str]]:
        """Undirected edge list (u < v, label as seen from u)."""
        out = []
        for u, ports in enumerate(self.adjacency):
            for label, v in sorted(ports.items()):
                if u < v:
                    out.append((u, v, label))
        return out

    def edge_list_text(self) -> str:
        """One ``u v label`` line per undirected edge, for external tools."""
        return "\n".join(f"{u} {v} {label}" for u, v, label in self.edges()) + "\n"


def check_dimensions(kind: Neighborhood, rows: int, cols: int) -> None:
    """Raise DimensionMismatch unless ``kind`` can be built on a
    rows x cols grid, without building it.

    Preconditions mirror rules R2/R3: 1D kinds need rows == 1, 2D kinds
    need rows > 1.  Ring additionally needs cols >= 3 and torus2d needs
    both dimensions >= 3 so wrap edges stay distinct from direct ones.
    """
    if rows < 1 or cols < 1:
        raise DimensionMismatch(kind, rows, cols, "dimensions must be >= 1")
    if kind in ONE_D_NEIGHBORHOODS and rows != 1:
        raise DimensionMismatch(kind, rows, cols, "1D topologies need rows = 1")
    if kind in TWO_D_NEIGHBORHOODS and rows < 2:
        raise DimensionMismatch(kind, rows, cols, "2D topologies need rows > 1")
    if kind is Neighborhood.RING and cols < 3:
        raise DimensionMismatch(kind, rows, cols, "ring needs cols >= 3")
    if kind is Neighborhood.TORUS2D and (rows < 3 or cols < 3):
        raise DimensionMismatch(kind, rows, cols, "torus2d needs rows >= 3 and cols >= 3")


def build_topology(kind: Neighborhood, rows: int, cols: int) -> TopologyGraph:
    """The graph of one topology; raises DimensionMismatch where
    ``check_dimensions`` does.  Nothing per PE is built here."""
    check_dimensions(kind, rows, cols)
    return TopologyGraph(kind, rows, cols)


def route_distance(graph: TopologyGraph, src, dst) -> int:
    """Shortest-path hop count between two PEs.

    Closed forms per kind: |i-j| on linear, wrap-minimum on ring,
    Manhattan on mesh2d, wrapped Manhattan on torus2d and Chebyshev on
    xnet.
    """
    i, j = int(src), int(dst)
    for index in (i, j):
        if not 0 <= index < graph.n_pes:
            raise IndexError(f"PE index {index} out of range")
    r1, c1 = divmod(i, graph.cols)
    r2, c2 = divmod(j, graph.cols)
    dr, dc = abs(r1 - r2), abs(c1 - c2)
    kind = graph.kind
    if kind is Neighborhood.LINEAR:
        return abs(i - j)
    if kind is Neighborhood.RING:
        d = abs(i - j)
        return min(d, graph.n_pes - d)
    if kind is Neighborhood.MESH2D:
        return dr + dc
    if kind is Neighborhood.TORUS2D:
        return min(dr, graph.rows - dr) + min(dc, graph.cols - dc)
    return max(dr, dc)  # xnet: diagonal moves cover both axes at once
