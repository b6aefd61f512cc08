"""Neighbourhood network topologies as index arithmetic on a PE grid.

Covers the five supported topologies (linear, ring, mesh2d, torus2d,
xnet) over a rows x cols grid with row-major PE numbering, and answers
neighbour and shortest-path queries.  Direction labels are fixed so
programs can name ports: E/W along rows, N/S along columns, plus the
four diagonals for xnet.

A column of per-PE words is packed into one non-negative int: PE i's
32-bit word sits in lane i, bits ``40*i`` to ``40*i+31``, and the 8
bits above it are guard bits: a carry out of an add lands there, never
in the next lane, and the simulator lets up to 255 carries wait there
within a run and clears them before it stops.  ``pack`` and
``unpack`` move only the 4 word bytes of each lane: ``pack`` leaves the
guard byte 0 and ``unpack`` never reads it.  ``pack`` writes each
word's bytes straight into its lane with one cached ``struct.Struct``
per chunk of 4096 lanes (a Struct of all 2^20 lanes would take 34 MiB
and ~50 ms to compile).  ``unpack`` stays on int64 arrays with one
strided byte slice per word byte: a chunked Struct unpack measured
5-10% faster at 1024 and 4096 lanes, but it builds every int of a
column at once, 44 MiB for 2^20 random words where the array holds
8 MiB, and a ``SimReport.registers`` iteration would hold 8 such
columns where the arrays build each int as it is read.

A graph stores only its kind and shape.  ``TopologyGraph.shift`` moves
a packed column one or more hops (MOVD) with one bit shift and a few
masks per binary digit of the hop count, in two parts: ``moves`` does
the integer work once, the direction, the axis extent and one
``(dr, dc, 2^j)`` move per binary digit of the hops, and ``apply``
moves a column by those moves, so a caller that moves many columns the
same way, such as a compiled MOVD, keeps the moves and calls only
``apply``.  ``adjacency`` is a lazy view: that shift of the packed PE
indices, on first use.  The masks of the last 32 moves, over every
graph, are kept in ``_move_masks``.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

from mppsoc.config import (
    ONE_D_NEIGHBORHOODS,
    TWO_D_NEIGHBORHOODS,
    WORD_BYTES,
    Neighborhood,
)
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
WORD_MASK = (1 << 8 * WORD_BYTES) - 1
_LANE_BYTES = LANE_BITS // 8
_SWAP = sys.byteorder == "big"  # packed lanes are little-endian
_CHUNK_LANES = 4096  # the lanes of one pack Struct: ~136 KiB compiled
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
    """The packed column of the ints ``words``: the low 32 bits of word
    i (two's complement for a negative one) in lane i, its guard bits 0.

    Each chunk of ``_CHUNK_LANES`` words packs as signed 32-bit words,
    else as unsigned ones, else reduced to their low 32 bits first.
    A pack of 4096 words so takes ~92 us for int32 or uint32 words,
    where an int64 array took ~190 us, but ~305 us for mixed-sign and
    ~320 us for int64 words (~200 and ~250 us), which no workload
    holds.  TypeError for a word that is not an int."""
    if not isinstance(words, Sequence):
        words = list(words)
    if len(words) <= _CHUNK_LANES:
        return int.from_bytes(_pack_lanes(words), "little")
    return int.from_bytes(b"".join(
        _pack_lanes(words[start:start + _CHUNK_LANES])
        for start in range(0, len(words), _CHUNK_LANES)), "little")


@lru_cache(maxsize=8)
def _lanes_struct(code: str, count: int) -> struct.Struct:
    """``count`` little-endian 4-byte words of format ``code``, each
    followed by the zero guard byte of its lane."""
    return struct.Struct("<" + (code + "x" * (_LANE_BYTES - WORD_BYTES)) * count)


def _pack_lanes(words) -> bytes:
    for code in "iI":  # int32, then uint32
        try:
            return _lanes_struct(code, len(words)).pack(*words)
        except struct.error:
            pass
    return _lanes_struct("I", len(words)).pack(*[w & WORD_MASK for w in words])


def unpack(column: int, n: int, signed: bool = False) -> array:
    """The 32-bit words of a packed column's n lanes as uint64, or as
    int64 extended from bit 31 if ``signed``; guard bits are not read."""
    lanes = column.to_bytes(_LANE_BYTES * n, "little")
    raw = bytearray(8 * n)
    for k in range(WORD_BYTES):
        raw[k::8] = lanes[k::_LANE_BYTES]
    if signed:
        sign = lanes[WORD_BYTES - 1::_LANE_BYTES].translate(_SIGN_BYTES)
        for k in range(WORD_BYTES, 8):
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
    A graph holds nothing of a machine: ``shift`` and ``apply`` take the
    boundary value from their caller, so machines of one shape share one
    graph.
    """

    def __init__(self, kind: Neighborhood, rows: int, cols: int):
        self.kind = kind
        self.rows = rows
        self.cols = cols
        self.directions = frozenset(_DIRECTIONS_BY_KIND[kind])
        self._wraps = kind in _WRAPPING_KINDS

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
        It is ``apply(column, moves(direction, hops), fill)``."""
        return self.apply(column, self.moves(direction, hops), fill)

    def moves(self, direction: str, hops: int = 1) -> tuple:
        """The moves of ``hops`` hops towards ``direction``, one
        ``(dr, dc, 2^j)`` per binary digit, lowest first, for ``apply``.

        Hops compose, so ``hops`` goes as its binary digits after it is
        reduced modulo the axis extent on a ring or torus and clamped to
        it on the other kinds (where every PE past it takes the fill).
        They are small ints, no column; ValueError for ``hops`` < 0."""
        if hops < 0:
            raise ValueError(f"hops must be >= 0, got {hops}")
        dr, dc = DIRECTION_DELTAS[direction]
        # The hops after which no PE's sender is on the grid, or every
        # PE's sender is itself again on a ring or torus.
        extent = min(self.rows if dr else self.cols, self.cols if dc else self.rows)
        hops = hops % extent if self._wraps else min(hops, extent)
        return tuple((dr, dc, 1 << j) for j in range(hops.bit_length())
                     if hops >> j & 1)

    def apply(self, column: int, moves: tuple, fill: int = 0) -> int:
        """The packed ``column`` moved by ``moves``, a tuple that
        ``moves()`` returned: each lane whose sender is off the grid
        takes its lane of the packed column ``fill``.

        A move of k hops shifts every lane ``k * (dr * cols + dc)``
        lanes, which is right for each PE whose sender is on the grid
        without wrapping.  A keep mask clears the other lanes, the ones
        the move vacates: they take ``fill`` on a linear array, mesh or
        xnet, and on a ring or torus (no diagonals, so they form one
        band along an edge) the band at the opposite edge, moved by one
        more shift.  ``_move_masks`` keeps the masks of the last 32
        moves."""
        for dr, dc, hops in moves:
            step, keep, edge, seam = _move_masks(self, dr, dc, hops)
            out = shift_lanes(column, step) & keep
            if edge:
                column = out | shift_lanes(column & edge, seam)
            else:
                column = out | fill & ~keep if fill else out
        return column

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


@lru_cache(maxsize=32)
def _move_masks(graph: TopologyGraph, dr: int, dc: int, hops: int) -> tuple:
    """``(step, keep, edge, seam)`` of a move of ``hops`` hops along
    ``(dr, dc)`` on ``graph``, as ``TopologyGraph.apply`` applies it:
    ``edge`` and ``seam`` are 0 but on a ring or torus."""
    rows, cols, n = graph.rows, graph.cols, graph.n_pes
    kept_row = (spread(WORD_MASK, cols - hops * abs(dc))
                << LANE_BITS * max(hops * dc, 0))
    keep = (spread(kept_row, rows - hops * abs(dr), cols)
            << LANE_BITS * cols * max(hops * dr, 0))
    step = hops * (dr * cols + dc)
    if not graph._wraps:
        return step, keep, 0, 0
    seam = step - dr * n - dc * cols  # |dr| + |dc| == 1 on a ring or torus
    return step, keep, shift_lanes(spread(WORD_MASK, n) ^ keep, -seam), seam


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
    of the last 8 shapes are reused; a graph holds no mask and changes
    only through its lazy ``adjacency``, so sharing one is safe."""
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
