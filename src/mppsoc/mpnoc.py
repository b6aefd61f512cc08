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

Routing is multi-pass and first-fit in priority order (lowest source
first): each message goes to the lowest pass in which no earlier
message holds one of its resources under a different share key, and
every pass it skips counts one conflict, so ``conflicts`` is the sum of
the messages' pass indices.  The scheduler sees a message as a tuple of
integer resource ids, ``stage * N + window`` for each stage; the
shared bus has the single resource 0 and the crossbar the destination
port.  When no resource column holds a value twice, no two messages
claim one resource, so every message lands in the first pass with no
conflict; the scheduler returns that result directly, without the
first-fit loop.

This module is a timing model: ``transfer`` answers how many passes and
cycles a message set costs.  Which word each endpoint receives is the
simulator's rule (``NOCSEND``), not this module's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import lt, or_

from mppsoc.config import DELTA_KINDS, CostModel, MpNocKind
from mppsoc.errors import MppSocError

# Distinguished injection ports for the two non-PE endpoints.
ACU_PORT = -1
DEVICE_PORT = -2


class MpNocMode(enum.Enum):
    PE_TO_PE = "pe"
    ACU_TO_PE = "acu"
    DEVICE_TO_PE = "dev"


_SPECIAL_PORT = {MpNocMode.ACU_TO_PE: ACU_PORT,
                 MpNocMode.DEVICE_TO_PE: DEVICE_PORT}


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
        super().__init__(f"message {src}->{dst} outside 0..{ports - 1}")


class ModeMismatch(MppSocError):
    pass


@dataclass(frozen=True)
class RoutingResult:
    """Outcome of routing one permutation: per-pass routed sets plus a
    count of switch-output contentions encountered along the way."""

    passes: int
    per_pass: tuple[tuple[tuple[int, int], ...], ...]
    conflicts: int


@dataclass(frozen=True)
class TransferResult:
    """Router passes and cycle cost of one whole transfer."""

    passes: int
    latency: int


class MpNocNetwork:
    """Immutable description of one built router network."""

    def __init__(self, kind: MpNocKind, ports: int):
        self.kind = kind
        self.ports = ports
        self.is_delta = kind in DELTA_KINDS
        n = self.stage_count = ports.bit_length() - 1 if self.is_delta else 0
        self.switches_per_stage = ports // 2 if self.is_delta else 0
        # sigma(s) << n per port; the n-bit reversal is built by doubling.
        if kind is MpNocKind.DELTA_OMEGA:
            sigma = range(ports)
        else:
            sigma = [0] if self.is_delta else []
            for _ in range(n):
                sigma = [t << 1 for t in sigma] + [t << 1 | 1 for t in sigma]
        self.source_tags = [t << n for t in sigma]

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


def _greedy_passes(keys, columns: list, width: int) -> tuple[list, int]:
    """First-fit scheduling in priority order.

    Records are numbered 0..m-1 in priority order.  ``columns[k][i]``
    is record i's resource in column k, an int below ``width``; as an
    id it becomes ``k * width + value``.  ``keys`` yields the share
    keys in record order; only the first-fit loop reads it.
    Record i goes to the lowest pass in which no earlier record holds
    one of its resources under a different share key (records with one
    key share resources: multicast fan-out of one source word).  Every
    pass a record skips counts one contention.  Returns the passes as
    lists of record numbers and the contention count, the sum of the
    records' pass indices.

    Every pass below ``free[r]`` has claimed resource r (a claim in
    pass ``free[r]`` raises it by one), so a pass below the highest
    ``free`` of a record's resources can take the record only if it
    already holds the record's key.  The search therefore starts there,
    or at ``lowest[key]``, the lowest pass holding the key, when that is
    lower (a repeated key: multicast).
    """
    m = len(columns[0])
    if not m:
        return [], 0
    if all(len(set(column)) == m for column in columns):
        return [list(range(m))], 0
    rows = zip(*([k * width + value for value in column]
                 for k, column in enumerate(columns)))
    free = [0] * (len(columns) * width)
    claims: list = []   # per pass: resource -> share key
    passes: list = []
    lowest: dict = {}   # share key -> lowest pass holding it
    conflicts = 0
    for i, (key, res) in enumerate(zip(keys, rows)):
        p = max(map(free.__getitem__, res))
        low = lowest.get(key)
        if low is not None and low < p:
            p = low
        for p in range(p, len(claims)):
            claim = claims[p]
            if claim.keys().isdisjoint(res) or low is not None and all(
                    claim.get(r, key) == key for r in res):
                break
        else:
            p = len(claims)
            claim = {}
            claims.append(claim)
            passes.append([])
        claim.update(dict.fromkeys(res, key))
        passes[p].append(i)
        if low is None or p < low:
            lowest[key] = p
        conflicts += p
        for r in res:
            if free[r] == p:
                free[r] = p + 1
    return passes, conflicts


def route_permutation(net: MpNocNetwork, perm) -> RoutingResult:
    """Route a full permutation of the ports.

    Shared bus: one message per pass (serialization; conflicts = N-1
    by convention).  Crossbar and delta: first-fit multi-pass routing
    with lowest-source-first priority (see the module docstring); a
    crossbar permutation never collides, so it takes one pass.
    """
    perm = list(perm)
    if sorted(perm) != list(range(net.ports)):
        raise NotAPermutation(
            f"expected a permutation of 0..{net.ports - 1}, got {perm!r}")
    pairs = list(enumerate(perm))

    if net.kind is MpNocKind.SHARED_BUS:
        per_pass = tuple((pair,) for pair in pairs)
        return RoutingResult(passes=len(pairs), per_pass=per_pass,
                             conflicts=len(pairs) - 1)

    sources = range(net.ports)
    passes, conflicts = _greedy_passes(
        sources, net.resource_columns(sources, perm), net.ports)
    per_pass = tuple(tuple(map(pairs.__getitem__, p)) for p in passes)
    return RoutingResult(passes=len(passes), per_pass=per_pass,
                         conflicts=conflicts)


def _check_endpoints(net: MpNocNetwork, mode: MpNocMode, srcs, dsts):
    """Raise for the first message whose endpoints ``mode`` cannot carry.
    A range test over the endpoint columns passes a well-formed set
    without looking at each message."""
    top = net.ports - 1
    port = _SPECIAL_PORT.get(mode)
    if port is None:
        if min(srcs) >= 0 and min(dsts) >= 0 and max(srcs) <= top \
                and max(dsts) <= top:
            return
    elif any(min(ends) == max(ends) == port and min(pes) >= 0
             and max(pes) <= top for ends, pes in ((srcs, dsts), (dsts, srcs))):
        return
    for src, dst in zip(srcs, dsts):
        src_is_pe, dst_is_pe = 0 <= src <= top, 0 <= dst <= top
        if port is None:
            if src in (ACU_PORT, DEVICE_PORT) or dst in (ACU_PORT, DEVICE_PORT):
                raise ModeMismatch(f"pe mode cannot carry {src}->{dst}")
            if not (src_is_pe and dst_is_pe):
                raise PortOutOfRange(src, dst, net.ports)
        elif not ((src == port and dst_is_pe) or (dst == port and src_is_pe)):
            if port in (src, dst):
                raise PortOutOfRange(src, dst, net.ports)
            raise ModeMismatch(
                f"{mode.value} mode needs the distinguished port as one "
                f"endpoint, got {src}->{dst}")


def transfer(net: MpNocNetwork, mode: MpNocMode, messages,
             pass_cycles: int | None = None,
             config_cycles: int | None = None) -> TransferResult:
    """Time the routing of (src, dst, payload) messages in one mode.

    The ACU and device endpoints use the sentinel ports ACU_PORT and
    DEVICE_PORT; internally they inject through port 0.  Latency is
    passes * pass_cycles plus one mode-configuration charge; either
    charge left as None comes from a default CostModel.  Identical
    words from one source may fan out in a single pass (multicast);
    everything else serializes per the network's contention rules.
    Messages to one port share its last resource, so distinct sources
    reach it in successive passes, lowest source first.
    """
    msgs = list(messages)
    if pass_cycles is None:
        pass_cycles = CostModel().noc_pass_cycles(net)
    if config_cycles is None:
        config_cycles = CostModel().noc_config_cycles
    if not msgs:
        return TransferResult(passes=0, latency=config_cycles)

    srcs, dsts, payloads = zip(*msgs)
    _check_endpoints(net, mode, srcs, dsts)
    src_ports, dst_ports = srcs, dsts
    if mode is not MpNocMode.PE_TO_PE:
        # Checked above: every negative endpoint is the sentinel port.
        src_ports = [src if src >= 0 else 0 for src in srcs]
        dst_ports = [dst if dst >= 0 else 0 for dst in dsts]
    ports = net.ports
    # Lowest source port first, then lowest destination port; the sort
    # is stable, so equal pairs keep their order.  Strictly increasing
    # sources are in that order already.
    if not all(map(lt, src_ports, src_ports[1:])):
        priority = [src * ports + dst for src, dst in zip(src_ports, dst_ports)]
        order = sorted(range(len(msgs)), key=priority.__getitem__)
        srcs, payloads, src_ports, dst_ports = (
            [column[i] for i in order]
            for column in (srcs, payloads, src_ports, dst_ports))
    passes, _conflicts = _greedy_passes(
        zip(srcs, payloads), net.resource_columns(src_ports, dst_ports), ports)
    latency = len(passes) * pass_cycles + config_cycles
    return TransferResult(passes=len(passes), latency=latency)
