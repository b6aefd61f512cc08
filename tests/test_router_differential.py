"""Differential test: the column-wise router in ``mppsoc.mpnoc`` against
a per-message reference greedy scheduler driven by the independent
stage-walk oracle, on random message sets and permutations over every
router kind, port counts 1-64 and every transfer mode."""

from functools import cache

from hypothesis import given, settings, strategies as st

from delta_oracle import oracle_path
from mppsoc.config import CostModel, MpNocKind
from mppsoc.mpnoc import (
    ACU_PORT,
    DEVICE_PORT,
    ModeMismatch,
    MpNocMode,
    NotAPermutation,
    PortOutOfRange,
    RoutingResult,
    TransferResult,
    build_network,
    route_permutation,
    transfer,
)

SPECIAL = {MpNocMode.ACU_TO_PE: ACU_PORT, MpNocMode.DEVICE_TO_PE: DEVICE_PORT}


# -- reference: one record at a time, one oracle path per message ------------


@cache
def ref_path(kind, ports, src, dst):
    return oracle_path(kind, ports, src, dst)


def ref_greedy_passes(records, resources_of):
    """Lowest-source-first greedy over (src_port, dst_port, share_key,
    message) records; a resource may be shared only under one share key."""
    pending = sorted(records, key=lambda r: (r[0], r[1]))
    passes = []
    conflicts = 0
    while pending:
        claimed = {}
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


def ref_route_permutation(kind, ports, perm):
    perm = list(perm)
    if sorted(perm) != list(range(ports)):
        raise NotAPermutation(
            f"expected a permutation of 0..{ports - 1}, got {perm!r}")
    pairs = list(enumerate(perm))
    if kind is MpNocKind.CROSSBAR:
        return RoutingResult(passes=1, per_pass=(tuple(pairs),), conflicts=0)
    if kind is MpNocKind.SHARED_BUS:
        return RoutingResult(passes=len(pairs),
                             per_pass=tuple((pair,) for pair in pairs),
                             conflicts=len(pairs) - 1)
    records = [(src, dst, src, (src, dst)) for src, dst in pairs]
    passes, conflicts = ref_greedy_passes(
        records, lambda rec: ref_path(kind, ports, rec[0], rec[1]))
    return RoutingResult(passes=len(passes),
                         per_pass=tuple(tuple(r[3] for r in p) for p in passes),
                         conflicts=conflicts)


def ref_check_endpoint(ports, mode, src, dst):
    def is_pe(p):
        return 0 <= p < ports

    if mode is MpNocMode.PE_TO_PE:
        if src in (ACU_PORT, DEVICE_PORT) or dst in (ACU_PORT, DEVICE_PORT):
            raise ModeMismatch(f"pe mode cannot carry {src}->{dst}")
        if not (is_pe(src) and is_pe(dst)):
            raise PortOutOfRange(src, dst, ports)
        return
    port = SPECIAL[mode]
    if (src == port and is_pe(dst)) or (dst == port and is_pe(src)):
        return
    if src == port or dst == port:
        raise PortOutOfRange(src, dst, ports)
    raise ModeMismatch(
        f"{mode.value} mode needs the distinguished port as one endpoint, "
        f"got {src}->{dst}")


def ref_transfer(kind, ports, mode, messages, pass_cycles, config_cycles):
    for src, dst, _payload in messages:
        ref_check_endpoint(ports, mode, src, dst)

    def port_of(endpoint):
        return 0 if endpoint in (ACU_PORT, DEVICE_PORT) else endpoint

    records = [(port_of(src), port_of(dst), (src, payload), (src, dst, payload))
               for src, dst, payload in messages]
    if not records:
        return TransferResult(delivered={}, passes=0, latency=config_cycles)
    if kind is MpNocKind.SHARED_BUS:
        resources_of = lambda rec: (("bus",),)  # noqa: E731
    elif kind is MpNocKind.CROSSBAR:
        resources_of = lambda rec: (("out", rec[1]),)  # noqa: E731
    else:
        resources_of = lambda rec: ref_path(kind, ports, rec[0], rec[1])  # noqa: E731
    passes, _conflicts = ref_greedy_passes(records, resources_of)
    delivered = {}
    for routed in passes:
        for rec in routed:
            _src, dst, payload = rec[3]
            delivered.setdefault(dst, []).append(payload)
    return TransferResult(delivered=delivered, passes=len(passes),
                          latency=len(passes) * pass_cycles + config_cycles)


# -- strategies ----------------------------------------------------------------


@st.composite
def networks(draw):
    kind = draw(st.sampled_from(list(MpNocKind)))
    if kind in (MpNocKind.SHARED_BUS, MpNocKind.CROSSBAR):
        ports = draw(st.integers(1, 64))
    else:
        ports = 1 << draw(st.integers(1, 6))
    return kind, ports


@st.composite
def message_sets(draw, ports, mode):
    """A few sources, targets and words, so sources repeat with
    identical words (multicast) and destinations collide.  In the ACU
    and device modes each message has the sentinel port at one end, and
    some sets also carry stray PE-to-PE messages, which those modes
    cannot."""
    pes = st.integers(0, ports - 1)
    sources = st.sampled_from(draw(st.lists(pes, min_size=1, max_size=6)))
    targets = st.sampled_from(draw(st.lists(pes, min_size=1, max_size=6)))
    words = st.integers(0, 2)
    shapes = [st.tuples(sources, targets, words)]
    if mode is not MpNocMode.PE_TO_PE:
        port = SPECIAL[mode]
        shapes = [st.tuples(st.just(port), targets, words),
                  st.tuples(sources, st.just(port), words)] + (
            shapes if draw(st.integers(0, 3)) == 0 else [])
    size = draw(st.integers(0, min(3 * ports, 60)))
    return draw(st.lists(st.one_of(*shapes), min_size=size, max_size=size))


def outcome(call):
    try:
        return call()
    except (ModeMismatch, PortOutOfRange, NotAPermutation) as err:
        return type(err), str(err)


def assert_transfer_matches(kind, ports, mode, messages, cost):
    network = build_network(kind, ports)
    pass_cycles = cost.noc_pass_cycles(network)
    got = outcome(lambda: transfer(network, mode, iter(messages), pass_cycles,
                                   cost.noc_config_cycles))
    want = outcome(lambda: ref_transfer(kind, ports, mode, messages,
                                        pass_cycles, cost.noc_config_cycles))
    assert got == want
    if isinstance(want, TransferResult):
        # Destinations also appear in the same (first-delivery) order.
        assert list(got.delivered.items()) == list(want.delivered.items())


@settings(max_examples=300, deadline=None)
@given(net=networks(), mode=st.sampled_from(list(MpNocMode)),
       cost=st.builds(CostModel, *(st.integers(0, 3) for _ in range(6))),
       data=st.data())
def test_transfer_matches_per_message_reference(net, mode, cost, data):
    kind, ports = net
    messages = data.draw(message_sets(ports, mode))
    assert_transfer_matches(kind, ports, mode, messages, cost)
    if not messages:
        return
    # The same set with one endpoint of one message made bad: a port
    # just past either end of the range or a sentinel, in every mode.
    i = data.draw(st.integers(0, len(messages) - 1))
    for end in (0, 1):
        for bad in (-3, DEVICE_PORT, ACU_PORT, ports, ports + 1):
            variant = list(messages)
            variant[i] = tuple(bad if j == end else v
                               for j, v in enumerate(messages[i]))
            assert_transfer_matches(kind, ports, mode, variant, cost)


@settings(max_examples=150, deadline=None)
@given(net=networks(), data=st.data())
def test_route_permutation_matches_per_message_reference(net, data):
    kind, ports = net
    perm = data.draw(st.permutations(range(ports)))
    if data.draw(st.integers(0, 9)) == 0:
        perm = perm[:-1] + [data.draw(st.integers(-1, ports))]
    got = outcome(lambda: route_permutation(build_network(kind, ports), perm))
    assert got == outcome(lambda: ref_route_permutation(kind, ports, perm))
