"""Global router model (mpNoC).

The router connects N ports through an internal network chosen at build
time: a shared bus, a crossbar, or a delta multistage network in one of
three wirings (omega, baseline, butterfly).  Delta networks are
log2(N) stages of N/2 two-by-two switches with destination-tag
self-routing: the switch at stage k forwards a message on the output
port given by destination bit n-1-k.

Stage wirings (link index transforms between stages):

  omega      perfect shuffle (rotate-left) in front of every stage
  butterfly  swap of bit k with bit 0 in front of stage k, plus an
             output-side reversal of bits n-1..1 that the tag order
             requires for delivery
  baseline   recursive halving: after stage k, rotate-right of the low
             n-k bits (the top k bits select the sub-block)

A built delta network holds its wiring as data, computed once per
network from the transforms above: ``input_links[port]`` is the stage-0
input link an injection port feeds, and ``next_links[k][out]`` the
link that stage k's output link ``out`` feeds (the output port after
the last stage).  Each table is a list over the N links.  A message
entering stage k on link ``l`` with destination bit b leaves on link
``(l & ~1) | b``, so a whole message set is routed as columns: one list
per stage of every message's output link, each computed from the
previous one by one table lookup per message.  ``path`` walks the same
tables for one message.

Permutation routing is greedy and multi-pass: each pass routes the
maximal lowest-source-first subset whose switch output ports do not
collide; blocked messages retry in the next pass.  The scheduler sees a
message as a tuple of integer resource ids, ``stage * N + out_link``
for each stage; the shared bus has the single resource 0 and the
crossbar the destination port.  When no resource column holds a value
twice, no two messages ever claim one resource, so the greedy routes
everything in its first pass with no contention; the scheduler returns
that result directly, and it is exactly what the full greedy would
compute.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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
    """Delivered payloads (dst -> payloads in arrival order) and the
    cycle cost of the whole transfer."""

    delivered: dict
    passes: int
    latency: int


def _wiring(kind: MpNocKind, n: int) -> tuple[list, list]:
    """Input-link table and per-stage next-link tables of the 2^n-port
    delta network ``kind`` (see the module docstring)."""
    ports = 1 << n
    links = range(ports)
    outputs = list(links)
    if kind is MpNocKind.DELTA_OMEGA:
        # Perfect shuffle (rotate left) in front of every stage.
        shuffle = [x << 1 & ports - 1 | x >> n - 1 for x in links]
        return shuffle, [shuffle] * (n - 1) + [outputs]
    if kind is MpNocKind.DELTA_BUTTERFLY:
        # Swap bit k with bit 0 in front of stage k >= 1; after the last
        # stage, reverse bits n-1..1 and keep bit 0.
        tables = [[x ^ (1 << k | 1) if (x >> k ^ x) & 1 else x for x in links]
                  for k in range(1, n)]
        reversed_upper = [0] * (ports >> 1)
        for upper in range(1, ports >> 1):
            reversed_upper[upper] = (reversed_upper[upper >> 1] >> 1
                                     | (upper & 1) << n - 2)
        tables.append([reversed_upper[x >> 1] << 1 | x & 1 for x in links])
        return outputs, tables
    # Baseline: after stage k, rotate right the low n-k bits.
    tables = []
    for k in range(n - 1):
        low = (1 << n - k) - 1
        tables.append([x & ~low | (x & low) >> 1 | (x & 1) << n - k - 1
                       for x in links])
    return outputs, tables + [outputs]


class MpNocNetwork:
    """Immutable description of one built router network."""

    def __init__(self, kind: MpNocKind, ports: int):
        self.kind = kind
        self.ports = ports
        self.is_delta = kind in DELTA_KINDS
        self.stage_count = ports.bit_length() - 1 if self.is_delta else 0
        self.switches_per_stage = ports // 2 if self.is_delta else 0
        self.input_links, self.next_links = (
            _wiring(kind, self.stage_count) if self.is_delta else ([], []))

    # -- routing over the link tables -----------------------------------

    def stage_columns(self, srcs, dsts) -> list[list[int]]:
        """Output link of every delta stage for each (src, dst) message:
        one column per stage, aligned with the message sequences."""
        shift = self.stage_count - 1
        outs = [link & -2 | dst >> shift & 1
                for link, dst in zip(map(self.input_links.__getitem__, srcs),
                                     dsts)]
        columns = [outs]
        for table in self.next_links[:-1]:
            shift -= 1
            outs = [table[out] & -2 | dst >> shift & 1
                    for out, dst in zip(outs, dsts)]
            columns.append(outs)
        return columns

    def path(self, src: int, dst: int) -> tuple:
        """Switch resources ((stage, switch, out_port), ...) used by a
        delta message from src to dst."""
        n = self.stage_count
        link = self.input_links[src]
        resources = []
        for stage, table in enumerate(self.next_links):
            out = link & -2 | dst >> (n - 1 - stage) & 1
            resources.append((stage, out >> 1, out & 1))
            link = table[out]
        if link != dst:
            raise AssertionError(
                f"{self.kind.value} wiring failed to deliver {src}->{dst}")
        return tuple(resources)


def build_network(kind: MpNocKind, ports: int) -> MpNocNetwork:
    """Construct a router network; delta kinds require ports = 2^n, n >= 1."""
    if ports < 1:
        raise ValueError("ports must be >= 1")
    if kind in DELTA_KINDS and (ports < 2 or ports & (ports - 1)):
        raise PortCountNotPowerOfTwo(kind, ports)
    return MpNocNetwork(kind, ports)


def _greedy_passes(keys, columns: list, width: int) -> tuple[list, int]:
    """Greedy lowest-source-first multi-pass scheduling.

    Records are numbered 0..m-1 in priority order.  ``keys[i]`` is
    record i's share key and ``columns[k][i]`` its resource in column k,
    an int below ``width``; as an id it becomes ``k * width + value``.
    Two records may claim the same resource only when they carry the
    same share key (multicast fan-out of one source word); every other
    collision defers the later record to the next pass and counts one
    contention.  Returns the passes as lists of record numbers and the
    contention count.
    """
    m = len(keys)
    if not m:
        return [], 0
    if all(len(set(column)) == m for column in columns):
        return [list(range(m))], 0
    rows = list(zip(*([k * width + value for value in column]
                      for k, column in enumerate(columns))))
    pending = range(m)
    passes = []
    conflicts = 0
    while pending:
        claimed: dict = {}
        routed = []
        deferred = []
        for i in pending:
            res = rows[i]
            key = keys[i]
            if not (claimed.keys().isdisjoint(res)
                    or all(claimed.get(r, key) == key for r in res)):
                conflicts += 1
                deferred.append(i)
                continue
            claimed.update(dict.fromkeys(res, key))
            routed.append(i)
        passes.append(routed)
        pending = deferred
    return passes, conflicts


def route_permutation(net: MpNocNetwork, perm) -> RoutingResult:
    """Route a full permutation of the ports.

    Crossbar: always one pass, no conflicts.  Shared bus: one message
    per pass (serialization; conflicts = N-1 by convention).  Delta:
    greedy multi-pass destination-tag routing, deterministic with
    lowest-source-first priority.
    """
    perm = list(perm)
    if sorted(perm) != list(range(net.ports)):
        raise NotAPermutation(
            f"expected a permutation of 0..{net.ports - 1}, got {perm!r}")
    pairs = list(enumerate(perm))

    if net.kind is MpNocKind.CROSSBAR:
        return RoutingResult(passes=1, per_pass=(tuple(pairs),), conflicts=0)
    if net.kind is MpNocKind.SHARED_BUS:
        per_pass = tuple((pair,) for pair in pairs)
        return RoutingResult(passes=len(pairs), per_pass=per_pass,
                             conflicts=len(pairs) - 1)

    sources = range(net.ports)
    passes, conflicts = _greedy_passes(
        sources, net.stage_columns(sources, perm), net.ports)
    per_pass = tuple(tuple(pairs[i] for i in p) for p in passes)
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
    """Deliver (src, dst, payload) messages in one configured mode.

    The ACU and device endpoints use the sentinel ports ACU_PORT and
    DEVICE_PORT; internally they inject through port 0.  Latency is
    passes * pass_cycles plus one mode-configuration charge; either
    charge left as None comes from a default CostModel.  Identical
    words from one source may fan out in a single pass (multicast);
    everything else serializes per the network's contention rules.
    """
    msgs = list(messages)
    if pass_cycles is None:
        pass_cycles = CostModel().noc_pass_cycles(net)
    if config_cycles is None:
        config_cycles = CostModel().noc_config_cycles
    if not msgs:
        return TransferResult(delivered={}, passes=0, latency=config_cycles)

    srcs, dsts, payloads = zip(*msgs)
    _check_endpoints(net, mode, srcs, dsts)
    src_ports, dst_ports = srcs, dsts
    if mode is not MpNocMode.PE_TO_PE:
        # Checked above: every negative endpoint is the sentinel port.
        src_ports = [src if src >= 0 else 0 for src in srcs]
        dst_ports = [dst if dst >= 0 else 0 for dst in dsts]
    ports = net.ports
    # Lowest source port first, then lowest destination port; the sort
    # is stable, so equal pairs keep their order.
    priority = [src * ports + dst for src, dst in zip(src_ports, dst_ports)]
    if priority != sorted(priority):
        order = sorted(range(len(msgs)), key=priority.__getitem__)
        srcs, dsts, payloads, src_ports, dst_ports = (
            [column[i] for i in order]
            for column in (srcs, dsts, payloads, src_ports, dst_ports))

    if net.kind is MpNocKind.SHARED_BUS:
        # One bus grant per distinct (source, word); a grant broadcasts.
        columns = [[0] * len(msgs)]
    elif net.kind is MpNocKind.CROSSBAR:
        # Non-blocking fabric: only output ports contend.
        columns = [dst_ports]
    else:
        columns = net.stage_columns(src_ports, dst_ports)

    passes, _conflicts = _greedy_passes(list(zip(srcs, payloads)), columns,
                                        ports)
    delivered: dict = {}
    for routed in passes:
        for i in routed:
            delivered.setdefault(dsts[i], []).append(payloads[i])
    latency = len(passes) * pass_cycles + config_cycles
    return TransferResult(delivered=delivered, passes=len(passes), latency=latency)
