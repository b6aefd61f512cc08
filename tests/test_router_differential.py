"""Differential test: the column-wise router in ``mppsoc.mpnoc`` against
a per-message reference greedy scheduler driven by the independent
stage-walk oracle, on random message sets, hot spots and permutations
over every router kind, port counts 1-64 and every transfer mode; and
the first-fit scheduler itself against the same reference."""

from functools import cache

import pytest
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
    _greedy_passes,
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
    """Lowest-source-first greedy over records that begin (src_port,
    dst_port, share_key); a resource may be shared only under one share
    key."""
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

    records = [(port_of(src), port_of(dst), (src, payload))
               for src, dst, payload in messages]
    if not records:
        return TransferResult(passes=0, latency=config_cycles)
    if kind is MpNocKind.SHARED_BUS:
        resources_of = lambda rec: (("bus",),)  # noqa: E731
    elif kind is MpNocKind.CROSSBAR:
        resources_of = lambda rec: (("out", rec[1]),)  # noqa: E731
    else:
        resources_of = lambda rec: ref_path(kind, ports, rec[0], rec[1])  # noqa: E731
    passes, _conflicts = ref_greedy_passes(records, resources_of)
    return TransferResult(passes=len(passes),
                          latency=len(passes) * pass_cycles + config_cycles)


# -- strategies ----------------------------------------------------------------


def port_counts(kind):
    if kind in (MpNocKind.SHARED_BUS, MpNocKind.CROSSBAR):
        return st.integers(1, 64)
    return st.integers(1, 6).map(lambda n: 1 << n)


@st.composite
def networks(draw):
    kind = draw(st.sampled_from(list(MpNocKind)))
    return kind, draw(port_counts(kind))


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


@st.composite
def hot_spot_sets(draw, ports, mode):
    """Distinct senders aimed at one to three destinations, so share
    keys never repeat and every message to one destination contends for
    its output.  In the ACU and device modes either distinct PEs send to
    the sentinel port, or the sentinel port sends distinct words to one
    to three PEs."""
    pes = st.integers(0, ports - 1)
    targets = st.sampled_from(draw(st.lists(pes, min_size=1, max_size=3)))
    word = st.integers(0, 1000)
    if mode is not MpNocMode.PE_TO_PE:
        port = SPECIAL[mode]
        if draw(st.booleans()):
            words = draw(st.lists(word, min_size=1, max_size=ports,
                                  unique=True))
            return [(port, draw(targets), w) for w in words]
        targets = st.just(port)
    sources = draw(st.lists(pes, min_size=1, max_size=ports, unique=True))
    return [(src, draw(targets), draw(word)) for src in sources]


@st.composite
def schedules(draw):
    """Share keys and resource columns for ``_greedy_passes``: one or
    several columns 2-64 wide, keys from a small pool (so multicast keys
    repeat) or all distinct, and some columns holding a single value
    (all-to-one)."""
    width = draw(st.integers(2, 64))
    m = draw(st.integers(0, 80))
    if draw(st.booleans()):
        keys = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    else:
        keys = draw(st.lists(st.integers(0, 10**6), min_size=m, max_size=m,
                             unique=True))
    columns = []
    for _ in range(draw(st.one_of(st.just(1), st.integers(2, 6)))):
        if draw(st.integers(0, 3)) == 0:
            columns.append([draw(st.integers(0, width - 1))] * m)
        else:
            spread = draw(st.integers(1, width))
            columns.append(draw(st.lists(st.integers(0, spread - 1),
                                         min_size=m, max_size=m)))
    return keys, columns, width


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


@pytest.mark.parametrize("mode", list(MpNocMode))
@pytest.mark.parametrize("kind", list(MpNocKind))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_transfer_matches_per_message_reference_on_hot_spots(kind, mode, data):
    ports = data.draw(port_counts(kind))
    messages = data.draw(hot_spot_sets(ports, mode))
    assert_transfer_matches(kind, ports, mode, messages, CostModel())


@settings(max_examples=300, deadline=None)
@given(schedule=schedules())
def test_greedy_passes_matches_per_record_reference(schedule):
    keys, columns, width = schedule
    records = [(i, 0, key, i) for i, key in enumerate(keys)]
    passes, conflicts = ref_greedy_passes(
        records, lambda rec: [(k, column[rec[0]])
                              for k, column in enumerate(columns)])
    assert _greedy_passes(keys, columns, width) == (
        [[rec[3] for rec in routed] for routed in passes], conflicts)


@settings(max_examples=150, deadline=None)
@given(net=networks(), data=st.data())
def test_route_permutation_matches_per_message_reference(net, data):
    kind, ports = net
    perm = data.draw(st.permutations(range(ports)))
    if data.draw(st.integers(0, 9)) == 0:
        perm = perm[:-1] + [data.draw(st.integers(-1, ports))]
    got = outcome(lambda: route_permutation(build_network(kind, ports), perm))
    assert got == outcome(lambda: ref_route_permutation(kind, ports, perm))
