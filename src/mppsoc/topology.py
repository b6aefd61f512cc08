"""Neighbourhood network topologies as index arithmetic on a PE grid.

Covers the five supported topologies (linear, ring, mesh2d, torus2d,
xnet) over a rows x cols grid with row-major PE numbering, and answers
neighbour and shortest-path queries.  Direction labels are fixed so
programs can name ports: E/W along rows, N/S along columns, plus the
four diagonals for xnet.

A column of per-PE words is packed into one non-negative int: PE i's
32-bit word sits in lane i, bits ``40*i`` to ``40*i+31``, and the 8
bits above it are guard bits that hold 0 between instructions (a carry
out of an add lands there, never in the next lane).  A lane is a whole
number of bytes, so ``pack`` and ``unpack`` convert through int64
arrays with one strided byte slice per lane byte.  A graph stores only
its kind and shape.  ``TopologyGraph.shift`` moves a packed column one
or more hops (MOVD) with one bit shift and a few masks per binary digit
of the hop count, and ``adjacency`` is a lazy view: that shift of the
packed PE indices, on first use.  ``build_topology`` reuses the graphs
of the last few shapes, so machines of one shape share their masks.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

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

LANE_BITS = 40  # a PE's lane: its 32-bit word and 8 guard bits
WORD_MASK = 0xFFFFFFFF
_LANE_BYTES = LANE_BITS // 8
_SWAP = sys.byteorder == "big"  # packed lanes are little-endian
# Byte -> the byte that extends its top bit as a sign.
_SIGN_BYTES = bytes(128) + b"\xff" * 128


def spread(pattern: int, count: int, stride: int = 1) -> int:
    """``pattern`` in ``count`` lanes, ``stride`` lanes apart from lane
    0 up, by shift-and-or doubling."""
    if count < 2:
        return pattern if count == 1 else 0
    half = spread(pattern, count // 2, stride)
    out = half | half << LANE_BITS * stride * (count // 2)
    return out | pattern << LANE_BITS * stride * (count - 1) if count & 1 else out


def shift_lanes(column: int, lanes: int) -> int:
    """``column`` moved ``lanes`` lanes up, or down when negative."""
    return column << LANE_BITS * lanes if lanes >= 0 else column >> -LANE_BITS * lanes


def pack(words) -> int:
    """The packed column of int64 ``words``: the low ``LANE_BITS`` bits
    of word i (two's complement for a negative one) in lane i.
    OverflowError for a word beyond int64."""
    words = array("q", words)
    if _SWAP:
        words.byteswap()
    raw = words.tobytes()
    lanes = bytearray(_LANE_BYTES * len(words))
    for k in range(_LANE_BYTES):
        lanes[k::_LANE_BYTES] = raw[k::8]
    return int.from_bytes(lanes, "little")


def unpack(column: int, n: int, signed: bool = False) -> array:
    """The n lanes of a packed column as uint64, or as int64 if
    ``signed``: each lane's top bit extends as its sign."""
    lanes = column.to_bytes(_LANE_BYTES * n, "little")
    raw = bytearray(8 * n)
    for k in range(_LANE_BYTES):
        raw[k::8] = lanes[k::_LANE_BYTES]
    if signed:
        sign = lanes[_LANE_BYTES - 1::_LANE_BYTES].translate(_SIGN_BYTES)
        for k in range(_LANE_BYTES, 8):
            raw[k::8] = sign
    words = array("q" if signed else "Q", raw)
    if _SWAP:
        words.byteswap()
    return words


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
    A graph holds nothing of a machine: ``shift`` takes the boundary
    value from its caller, so machines of one shape share one graph.
    """

    def __init__(self, kind: Neighborhood, rows: int, cols: int):
        self.kind = kind
        self.rows = rows
        self.cols = cols
        self.directions = frozenset(_DIRECTIONS_BY_KIND[kind])
        self._wraps = kind in _WRAPPING_KINDS
        self._hops: dict = {}  # (direction, 2^j hops) -> its masks and shifts

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

    def shift(self, column: int, direction: str, fill: int = 0,
              hops: int = 1) -> int:
        """The packed ``column`` after ``hops`` hops towards ``direction``:
        each PE takes the word of the PE ``hops`` hops back, or its lane
        of the packed column ``fill`` when the walk back leaves the grid.

        Hops compose, so the shift applies ``hops`` as its binary digits:
        one move of 2^j hops per set bit, after ``hops`` is reduced modulo
        the axis extent on a ring or torus and clamped to it on the other
        kinds (where every PE past it takes ``fill``).  A move of k hops
        shifts every lane ``k * (dr * cols + dc)`` lanes, which is right
        for each PE whose sender is on the grid without wrapping.  A keep
        mask clears the other lanes, the ones the move vacates: they take
        ``fill`` on a linear array, mesh or xnet, and on a ring or torus
        (no diagonals, so they form one band along an edge) the band at
        the opposite edge, moved by one more shift.  The masks are built
        once per direction and power-of-two hop count.
        """
        if hops < 0:
            raise ValueError(f"hops must be >= 0, got {hops}")
        dr, dc = DIRECTION_DELTAS[direction]
        # The hops after which no PE's sender is on the grid, or every
        # PE's sender is itself again on a ring or torus.
        extent = min(self.rows if dr else self.cols, self.cols if dc else self.rows)
        hops = hops % extent if self._wraps else min(hops, extent)
        while hops:
            move = hops & -hops
            hops ^= move
            if (direction, move) not in self._hops:
                self._hops[direction, move] = self._hop(dr, dc, move)
            step, keep, edge, seam = self._hops[direction, move]
            out = shift_lanes(column, step) & keep
            if edge:
                column = out | shift_lanes(column & edge, seam)
            else:
                column = out | fill & ~keep if fill else out
        return column

    def _hop(self, dr: int, dc: int, hops: int) -> tuple:
        rows, cols, n = self.rows, self.cols, self.n_pes
        kept_row = (spread(WORD_MASK, cols - hops * abs(dc))
                    << LANE_BITS * max(hops * dc, 0))
        keep = (spread(kept_row, rows - hops * abs(dr), cols)
                << LANE_BITS * cols * max(hops * dr, 0))
        step = hops * (dr * cols + dc)
        if not self._wraps:
            return step, keep, 0, 0
        seam = step - dr * n - dc * cols  # |dr| + |dc| == 1 on a ring or torus
        return step, keep, shift_lanes(spread(WORD_MASK, n) ^ keep, -seam), seam

    @cached_property
    def adjacency(self) -> tuple[dict, ...]:
        n = self.n_pes
        pes, off_grid = pack(range(n)), spread(WORD_MASK, n)
        senders = [(label, unpack(self.shift(pes, OPPOSITE[label], off_grid), n))
                   for label in _DIRECTIONS_BY_KIND[self.kind]]
        return tuple({label: column[pe] for label, column in senders
                      if column[pe] != WORD_MASK} for pe in range(n))

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


@lru_cache(maxsize=8)
def build_topology(kind: Neighborhood, rows: int, cols: int) -> TopologyGraph:
    """The graph of one topology; raises DimensionMismatch where
    ``check_dimensions`` does.  Nothing per PE is built here.  The graphs
    of the last 8 shapes are reused, with the masks their shifts have
    built; a graph changes only through those caches, so sharing one is
    safe."""
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
