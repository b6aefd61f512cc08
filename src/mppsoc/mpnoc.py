"""Global router model (mpNoC).

The router connects N ports through an internal network chosen at build
time: a shared bus, a crossbar, or a delta multistage network in one of
three wirings (omega, baseline, butterfly).  Delta networks are
log2(N) stages of N/2 two-by-two switches with destination-tag
self-routing: the switch at stage k forwards a message on the output
port given by destination bit n-1-k.

The scheduler never sees link numbers.  Under destination-tag routing
the stage-k output link of a message from s to d is a one-to-one
function of the n-bit window ``tag >> (n-1-k) & (N-1)`` of its tag
``sigma(s) << n | d``, where sigma is the identity for omega (perfect
shuffle in front of every stage; the window is then the link itself)
and the n-bit reversal for baseline and butterfly, which are
topologically equivalent to omega (Wu & Feng, "On a Class of Multistage
Interconnection Networks", IEEE TC 1980).  Two messages share a stage-k
link exactly when they share that window, so a delta network keeps only
``source_tags[s] = sigma(s) << n``.

A translation, distinct sources s each sending to ``sigma(s) + c`` mod
N for one offset c, takes one pass, as Lawrie showed for omega ("Access
and Alignment of Data in an Array Processor", IEEE TC 1975).  Proof: two
messages share a stage-k window only if their destinations differ in no
bit at or above n-1-k and their sigma-sources in none below it.  In a
translation d - d' = sigma(s) - sigma(s') mod N, so the lowest bit in
which d and d' differ is the lowest in which sigma(s) and sigma(s')
differ, and no such k exists.  On omega, where sigma is the identity,
two PE ranges with one positive step (``NOCSEND pe, idx±K``) are one,
which ``transfer`` times in O(1); any other translation takes the
scheduler's no-repeat exit below.

Routing is multi-pass and first-fit in priority order (lowest source
first): each message goes to the lowest pass in which no earlier
message holds one of its resources, and every pass it skips counts one
conflict, so ``conflicts`` is the sum of the messages' pass indices.
The scheduler sees a message as a tuple of integer resource ids,
``stage * N + window`` for each stage; the shared bus has the single
resource 0 and the crossbar the destination port.  Each resource keeps
one int whose bit p says pass p has claimed it, so a message's pass is
the lowest clear bit of the OR of its resources' ints: O(messages *
stages) int operations, each on ceil(P / 30) digits for P passes.  Two
exits skip that loop: when no column holds a value twice, every message
lands in pass 0; when one column holds a single value (the bus, or
every message to one port), each pass carries one message.

This module is a scheduler: ``transfer`` answers how many passes a set
of port-to-port messages takes, every endpoint a port in 0..N-1, and how
many conflicts the first fit met.  What the passes cost in cycles is
the cost model's rule (``noc_cycles`` in ``mppsoc.config``), and who
the endpoints are, and which word each receives, is the simulator's
(``NOCSEND``): it schedules a send to the ACU or the I/O device as a
send to port 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import lt, or_

from mppsoc.config import DELTA_KINDS, MpNocKind
from mppsoc.errors import MppSocError, int_text


class PortCountNotPowerOfTwo(MppSocError):
    def __init__(self, kind: MpNocKind, ports: int):
        super().__init__(
            f"{kind.value} needs a power-of-two port count >= 2, got {ports}")
        self.kind = kind
        self.ports = ports


class NotAPermutation(MppSocError):
    pass


class PortOutOfRange(MppSocError):
    def __init__(self, src: int, dst: int, ports: int):
        super().__init__(f"message {int_text(src)}->{int_text(dst)} "
                         f"outside 0..{ports - 1}")


@dataclass(frozen=True)
class RoutingResult:
    """Outcome of routing one permutation: the (src, dst) pairs of each
    pass, and the first fit's conflicts, the sum of the messages' pass
    indices as in ``TransferResult``."""

    passes: int
    per_pass: tuple[tuple[tuple[int, int], ...], ...]
    conflicts: int


@dataclass(frozen=True)
class TransferResult:
    """Router passes and scheduler conflicts of one transfer."""

    passes: int
    conflicts: int = 0


# Shared by every empty set and every omega translation.
_NO_PASS = TransferResult(passes=0)
_ONE_PASS = TransferResult(passes=1)


class MpNocNetwork:
    """Immutable description of one built router network."""

    def __init__(self, kind: MpNocKind, ports: int):
        self.kind = kind
        self.ports = ports
        self.is_delta = kind in DELTA_KINDS
        self.stage_count = ports.bit_length() - 1 if self.is_delta else 0

    @cached_property
    def source_tags(self) -> list:
        """sigma(s) << n per port, built on first use: a translation on
        omega never reads it.  The n-bit reversal is built by doubling."""
        n = self.stage_count
        if self.kind is MpNocKind.DELTA_OMEGA:
            sigma = range(self.ports)
        else:
            sigma = [0] if self.is_delta else []
            for _ in range(n):
                sigma = [t << 1 for t in sigma] + [t << 1 | 1 for t in sigma]
        return [t << n for t in sigma]

    # -- routing --------------------------------------------------------

    def resource_columns(self, srcs, dsts) -> list:
        """Resources each (src, dst) message claims, as columns aligned
        with the message sequences: the shared bus is one resource, a
        crossbar's are its output ports, and a delta network's are, per
        stage k, the window ``tag >> (n-1-k) & (N-1)`` of the message's
        tag ``source_tags[src] | dst``.  A window names the stage's link
        one to one (see the module docstring)."""
        if self.kind is MpNocKind.SHARED_BUS:
            return [[0] * len(dsts)]
        if not self.is_delta:
            return [dsts]
        low = self.ports - 1
        tags = list(map(or_, map(self.source_tags.__getitem__, srcs), dsts))
        return [[tag >> shift & low for tag in tags]
                for shift in range(self.stage_count - 1, -1, -1)]


def build_network(kind: MpNocKind, ports: int) -> MpNocNetwork:
    """Construct a router network; delta kinds require ports = 2^n, n >= 1."""
    if ports < 1:
        raise ValueError("ports must be >= 1")
    if kind in DELTA_KINDS and (ports < 2 or ports & (ports - 1)):
        raise PortCountNotPowerOfTwo(kind, ports)
    return MpNocNetwork(kind, ports)


def _greedy_passes(columns: list, width: int) -> tuple[list, int]:
    """First-fit scheduling in priority order.

    Records are numbered 0..m-1 in priority order.  ``columns[k][i]``
    is record i's resource in column k, an int below ``width``; as an
    id it becomes ``k * width + value``.  Record i goes to the lowest
    pass that has claimed none of its resources, and every pass it skips
    counts one contention.  Returns the passes as lists of record
    numbers and the contention count, the sum of the records' pass
    indices.

    Bit p of ``used[r]`` says pass p has claimed resource r; a record
    takes the lowest bit clear in all of its resources' ints.  No
    repeated value in any column means one pass; a column of one value
    means one record per pass.
    """
    m = len(columns[0])
    if not m:
        return [], 0
    if all(len(set(column)) == m for column in columns):
        return [list(range(m))], 0
    if any(column.count(column[0]) == m for column in columns):
        return [[i] for i in range(m)], m * (m - 1) // 2
    rows = zip(*([k * width + value for value in column]
                 for k, column in enumerate(columns)))
    used = [0] * (len(columns) * width)
    passes: list = []
    conflicts = 0
    for i, res in enumerate(rows):
        taken = 0
        for r in res:
            taken |= used[r]
        bit = ~taken & (taken + 1)
        for r in res:
            used[r] |= bit
        p = bit.bit_length() - 1
        if p < len(passes):
            passes[p].append(i)
        else:
            passes.append([i])
        conflicts += p
    return passes, conflicts


def route_permutation(net: MpNocNetwork, perm) -> RoutingResult:
    """Route a full permutation of the ports: message s goes from port
    s to ``perm[s]``, scheduled by the first fit ``transfer`` runs, so
    passes and conflicts (the sum of pass indices) equal
    ``transfer(net, range(N), perm)``'s on every kind.  The shared bus
    takes one message per pass; a crossbar permutation, one pass.
    """
    perm = list(perm)
    if sorted(perm) != list(range(net.ports)):
        raise NotAPermutation(
            f"expected a permutation of 0..{net.ports - 1}, got {perm!r}")
    pairs = list(enumerate(perm))
    passes, conflicts = _greedy_passes(
        net.resource_columns(range(net.ports), perm), net.ports)
    if len(passes) == len(pairs):  # one message per pass, in source order
        per_pass = tuple(zip(pairs))
    else:
        per_pass = tuple(tuple(map(pairs.__getitem__, p)) for p in passes)
    return RoutingResult(passes=len(passes), per_pass=per_pass,
                         conflicts=conflicts)


def transfer(net: MpNocNetwork, srcs, dsts) -> TransferResult:
    """Schedule one message set, given as columns: message i goes from
    port ``srcs[i]`` to port ``dsts[i]``, both in 0..N-1.  ``srcs`` and
    ``dsts`` are sized sequences of one length (ranges or lists); the
    first message with an end outside the ports raises
    ``PortOutOfRange``, found from each column's ends (O(1) for a range).

    Messages that claim a common resource go in successive passes,
    lowest source first, whether or not they share a source: messages
    to one port reach it one pass after another, scheduled on that one
    column.  An empty set takes no pass.

    On omega, two ranges with one positive step are a translation (see
    the module docstring): one pass, found in O(1) without looking at a
    message.
    """
    if len(srcs) != len(dsts):
        raise ValueError(f"{len(srcs)} sources for {len(dsts)} destinations")
    if not srcs:
        return _NO_PASS
    ports = net.ports
    src_low, src_high = _ends(srcs)
    dst_low, dst_high = _ends(dsts)
    if src_low < 0 or dst_low < 0 or src_high >= ports or dst_high >= ports:
        src, dst = next((src, dst) for src, dst in zip(srcs, dsts)
                        if not (0 <= src < ports and 0 <= dst < ports))
        raise PortOutOfRange(src, dst, ports)
    if (net.kind is MpNocKind.DELTA_OMEGA and isinstance(srcs, range)
            and isinstance(dsts, range) and srcs.step == dsts.step > 0):
        return _ONE_PASS
    if dst_low == dst_high:
        columns = [dsts]
    else:  # lowest source port first, then lowest destination port
        if not all(map(lt, srcs, srcs[1:])):
            srcs, dsts = zip(*sorted(zip(srcs, dsts)))
        columns = net.resource_columns(srcs, dsts)
    passes, conflicts = _greedy_passes(columns, ports)
    return TransferResult(passes=len(passes), conflicts=conflicts)


def _ends(ports) -> tuple[int, int]:
    """The lowest and the highest of a non-empty column of ports."""
    if isinstance(ports, range) and ports.step > 0:
        return ports[0], ports[-1]
    return min(ports), max(ports)
