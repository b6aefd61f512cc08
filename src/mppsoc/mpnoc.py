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

Permutation routing is greedy and multi-pass: each pass routes the
maximal lowest-source-first subset whose switch output ports do not
collide; blocked messages retry in the next pass.
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


class PortCountNotPowerOfTwo(MppSocError):
    def __init__(self, kind: MpNocKind, ports: int):
        super().__init__(
            f"{kind.value} needs a power-of-two port count >= 2, got {ports}")
        self.kind = kind
        self.ports = ports


class NotAPermutation(MppSocError):
    pass


class PortOutOfRange(MppSocError):
    pass


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


class MpNocNetwork:
    """Immutable description of one built router network."""

    def __init__(self, kind: MpNocKind, ports: int):
        self.kind = kind
        self.ports = ports
        self.is_delta = kind in DELTA_KINDS
        self.stage_count = ports.bit_length() - 1 if self.is_delta else 0
        self.switches_per_stage = ports // 2 if self.is_delta else 0
        self._path_cache: dict = {}

    # -- link index transforms ------------------------------------------

    def _rotl(self, x: int) -> int:
        n = self.stage_count
        return ((x << 1) & (self.ports - 1)) | (x >> (n - 1))

    def _rotr_low(self, x: int, m: int) -> int:
        low_mask = (1 << m) - 1
        low = x & low_mask
        return (x & ~low_mask) | (low >> 1) | ((low & 1) << (m - 1))

    def _swap_bit_with_lsb(self, x: int, k: int) -> int:
        if k == 0:
            return x
        if ((x >> k) & 1) != (x & 1):
            x ^= (1 << k) | 1
        return x

    def _reverse_upper_bits(self, x: int) -> int:
        # Reverse bits n-1..1, keep bit 0.
        n = self.stage_count
        out = x & 1
        for j in range(1, n):
            out |= ((x >> (n - j)) & 1) << j
        return out

    def input_link(self, port: int) -> int:
        """Stage-0 input link fed by an injection port."""
        if self.kind is MpNocKind.DELTA_OMEGA:
            return self._rotl(port)
        return port

    def next_link(self, stage: int, out_link: int) -> int:
        """Map a stage output link to the next stage's input link (or to
        the final output port after the last stage)."""
        n = self.stage_count
        last = stage == n - 1
        if self.kind is MpNocKind.DELTA_OMEGA:
            return out_link if last else self._rotl(out_link)
        if self.kind is MpNocKind.DELTA_BUTTERFLY:
            if last:
                return self._reverse_upper_bits(out_link)
            return self._swap_bit_with_lsb(out_link, stage + 1)
        # baseline
        return out_link if last else self._rotr_low(out_link, n - stage)

    def path(self, src: int, dst: int) -> tuple:
        """Switch resources ((stage, switch, out_port), ...) used by a
        delta message from src to dst."""
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        n = self.stage_count
        link = self.input_link(src)
        resources = []
        for stage in range(n):
            switch = link >> 1
            out_port = (dst >> (n - 1 - stage)) & 1
            resources.append((stage, switch, out_port))
            link = self.next_link(stage, (switch << 1) | out_port)
        if link != dst:
            raise AssertionError(
                f"{self.kind.value} wiring failed to deliver {src}->{dst}")
        result = tuple(resources)
        self._path_cache[key] = result
        return result


def build_network(kind: MpNocKind, ports: int) -> MpNocNetwork:
    """Construct a router network; delta kinds require ports = 2^n, n >= 1."""
    if ports < 1:
        raise ValueError("ports must be >= 1")
    if kind in DELTA_KINDS and (ports < 2 or ports & (ports - 1)):
        raise PortCountNotPowerOfTwo(kind, ports)
    return MpNocNetwork(kind, ports)


def _greedy_passes(records: list, resources_of) -> tuple[list, int]:
    """Greedy lowest-source-first multi-pass scheduling.

    ``records`` are (src_port, dst_port, share_key, message) tuples.  Two
    records may claim the same resource only when they carry the same
    share key (multicast fan-out of one source word); every other
    collision defers the later record to the next pass and counts one
    contention.
    """
    pending = sorted(records, key=lambda r: (r[0], r[1]))
    passes = []
    conflicts = 0
    while pending:
        claimed: dict = {}
        routed = []
        deferred = []
        for rec in pending:
            res = resources_of(rec)
            if any(claimed.get(r, rec[2]) != rec[2] for r in res):
                conflicts += 1
                deferred.append(rec)
                continue
            for r in res:
                claimed[r] = rec[2]
            routed.append(rec)
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
    pairs = [(src, dst) for src, dst in enumerate(perm)]

    if net.kind is MpNocKind.CROSSBAR:
        return RoutingResult(passes=1, per_pass=(tuple(pairs),), conflicts=0)
    if net.kind is MpNocKind.SHARED_BUS:
        per_pass = tuple((pair,) for pair in pairs)
        return RoutingResult(passes=len(pairs), per_pass=per_pass,
                             conflicts=len(pairs) - 1)

    records = [(src, dst, src, (src, dst)) for src, dst in pairs]
    passes, conflicts = _greedy_passes(
        records, lambda rec: net.path(rec[0], rec[1]))
    per_pass = tuple(tuple(rec[3] for rec in p) for p in passes)
    return RoutingResult(passes=len(passes), per_pass=per_pass,
                         conflicts=conflicts)


def _check_endpoint(net: MpNocNetwork, mode: MpNocMode, src: int, dst: int):
    special = {MpNocMode.ACU_TO_PE: ACU_PORT, MpNocMode.DEVICE_TO_PE: DEVICE_PORT}

    def is_pe(p: int) -> bool:
        return 0 <= p < net.ports

    if mode is MpNocMode.PE_TO_PE:
        if src in (ACU_PORT, DEVICE_PORT) or dst in (ACU_PORT, DEVICE_PORT):
            raise ModeMismatch(f"pe mode cannot carry {src}->{dst}")
        if not (is_pe(src) and is_pe(dst)):
            raise PortOutOfRange(f"message {src}->{dst} outside 0..{net.ports - 1}")
        return
    port = special[mode]
    if (src == port and is_pe(dst)) or (dst == port and is_pe(src)):
        return
    if src == port or dst == port:
        raise PortOutOfRange(f"message {src}->{dst} outside 0..{net.ports - 1}")
    raise ModeMismatch(
        f"{mode.value} mode needs the distinguished port as one endpoint, "
        f"got {src}->{dst}")


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
    for src, dst, _payload in msgs:
        _check_endpoint(net, mode, src, dst)
    if pass_cycles is None:
        pass_cycles = CostModel().noc_pass_cycles(net)
    if config_cycles is None:
        config_cycles = CostModel().noc_config_cycles

    def port_of(endpoint: int) -> int:
        return 0 if endpoint in (ACU_PORT, DEVICE_PORT) else endpoint

    records = [(port_of(src), port_of(dst), (src, payload), (src, dst, payload))
               for src, dst, payload in msgs]

    if not records:
        return TransferResult(delivered={}, passes=0, latency=config_cycles)

    if net.kind is MpNocKind.SHARED_BUS:
        # One bus grant per distinct (source, word); a grant broadcasts.
        resources_of = lambda rec: (("bus",),)  # noqa: E731
    elif net.kind is MpNocKind.CROSSBAR:
        # Non-blocking fabric: only output ports contend.
        resources_of = lambda rec: (("out", rec[1]),)  # noqa: E731
    else:
        resources_of = lambda rec: net.path(rec[0], rec[1])  # noqa: E731

    passes, _conflicts = _greedy_passes(records, resources_of)
    delivered: dict = {}
    for routed in passes:
        for rec in routed:
            src, dst, payload = rec[3]
            delivered.setdefault(dst, []).append(payload)
    latency = len(passes) * pass_cycles + config_cycles
    return TransferResult(delivered=delivered, passes=len(passes), latency=latency)
