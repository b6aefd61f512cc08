import random
from collections import Counter
from itertools import permutations

import pytest

from delta_oracle import assert_pass_conflict_free, oracle_path
from mppsoc.config import MpNocKind
from mppsoc.mpnoc import (
    MpNocNetwork,
    NotAPermutation,
    PortCountNotPowerOfTwo,
    PortOutOfRange,
    _greedy_passes,
    build_network,
    route_permutation,
    transfer,
)

DELTAS = (MpNocKind.DELTA_OMEGA, MpNocKind.DELTA_BASELINE, MpNocKind.DELTA_BUTTERFLY)


def columns(messages):
    """(src, dst, word) triples as the two columns ``transfer`` takes."""
    return [[message[k] for message in messages] for k in range(2)]


def bit_reversal(n_bits):
    return [int(format(i, f"0{n_bits}b")[::-1], 2) for i in range(1 << n_bits)]


def test_crossbar_has_no_structural_constraint():
    net = build_network(MpNocKind.CROSSBAR, 9)
    assert net.ports == 9 and net.stage_count == 0


def test_delta_structure():
    net = build_network(MpNocKind.DELTA_OMEGA, 8)
    assert net.stage_count == 3


@pytest.mark.parametrize("ports", [1, 3, 6, 12])
def test_delta_rejects_non_power_of_two(ports):
    with pytest.raises(PortCountNotPowerOfTwo):
        build_network(MpNocKind.DELTA_OMEGA, ports)


def same_partition(ids, resources):
    """Whether equal ids and equal resources pair up one to one."""
    forward, backward = {}, {}
    return all(forward.setdefault(i, r) == r and backward.setdefault(r, i) == i
               for i, r in zip(ids, resources))


def window_ids_match_links(net, pairs):
    """Whether, at every stage, the window ids that ``resource_columns``
    gives the pairs partition them as the oracle's stage resources do."""
    columns = net.resource_columns([s for s, _ in pairs], [d for _, d in pairs])
    paths = [oracle_path(net.kind, net.ports, s, d) for s, d in pairs]
    return len(columns) == net.stage_count and all(
        same_partition(column, [path[stage] for path in paths])
        for stage, column in enumerate(columns))


def window_pairs(ports, rng):
    if ports <= 64:
        return [(s, d) for s in range(ports) for d in range(ports)]
    return [(rng.randrange(ports), rng.randrange(ports)) for _ in range(2000)]


@pytest.mark.parametrize("kind", DELTAS)
def test_window_ids_name_the_stage_links_one_to_one(kind):
    rng = random.Random(4096)
    for ports in (2, 4, 8, 16, 32, 64, 1024, 4096):
        net = build_network(kind, ports)
        assert window_ids_match_links(net, window_pairs(ports, rng))


@pytest.mark.parametrize("kind", [MpNocKind.DELTA_BASELINE,
                                  MpNocKind.DELTA_BUTTERFLY])
def test_window_ids_need_the_bit_reversal_on_baseline_and_butterfly(kind):
    rng = random.Random(4096)
    for ports in (8, 64, 1024):
        net = build_network(kind, ports)
        n = net.stage_count
        net.source_tags = [s << n for s in range(ports)]
        assert not window_ids_match_links(net, window_pairs(ports, rng))


def test_crossbar_single_pass_for_sampled_permutations():
    net = build_network(MpNocKind.CROSSBAR, 8)
    rng = random.Random(7)
    for _ in range(50):
        perm = list(range(8))
        rng.shuffle(perm)
        result = route_permutation(net, perm)
        assert result.passes == 1 and result.conflicts == 0


def test_shared_bus_serializes():
    """The bus carries one message per pass, in source order, for a
    permutation and a transfer alike.  Message k waits k passes, so N
    messages meet N(N-1)/2 conflicts under both APIs; a permutation
    once counted N-1 by a convention of its own."""
    net = build_network(MpNocKind.SHARED_BUS, 4)
    routed = route_permutation(net, [0, 1, 2, 3])
    assert routed.per_pass == (((0, 0),), ((1, 1),), ((2, 2),), ((3, 3),))
    sent = transfer(net, range(4), [0, 1, 2, 3])
    assert ((routed.passes, routed.conflicts)
            == (sent.passes, sent.conflicts) == (4, 0 + 1 + 2 + 3))


def test_not_a_permutation():
    net = build_network(MpNocKind.CROSSBAR, 4)
    with pytest.raises(NotAPermutation):
        route_permutation(net, [0, 0, 1, 2])


def test_omega_identity_routes_in_one_pass():
    # Frozen from the exhaustive stage-walk oracle.
    net = build_network(MpNocKind.DELTA_OMEGA, 8)
    result = route_permutation(net, list(range(8)))
    assert result.passes == 1
    assert result.conflicts == 0


def test_omega_bit_reversal_needs_two_passes():
    # Frozen from the exhaustive stage-walk oracle.
    net = build_network(MpNocKind.DELTA_OMEGA, 8)
    result = route_permutation(net, bit_reversal(3))
    assert result.passes == 2
    assert result.conflicts == 4


def test_baseline_and_butterfly_frozen_samples():
    # Frozen from the exhaustive stage-walk oracle.
    baseline = build_network(MpNocKind.DELTA_BASELINE, 8)
    butterfly = build_network(MpNocKind.DELTA_BUTTERFLY, 8)
    assert route_permutation(baseline, list(range(8))).passes == 2
    assert route_permutation(baseline, bit_reversal(3)).passes == 1
    assert route_permutation(butterfly, list(range(8))).passes == 2


def test_greedy_passes_are_conflict_free_and_complete():
    rng = random.Random(11)
    for kind in DELTAS:
        for ports in (4, 8, 16):
            net = build_network(kind, ports)
            for _ in range(25):
                perm = list(range(ports))
                rng.shuffle(perm)
                result = route_permutation(net, perm)
                assert result.passes <= ports
                routed = [pair for p in result.per_pass for pair in p]
                assert sorted(routed) == [(s, perm[s]) for s in range(ports)]
                for routed_pass in result.per_pass:
                    assert_pass_conflict_free(kind, ports, routed_pass)


def test_route_is_deterministic():
    net = build_network(MpNocKind.DELTA_BUTTERFLY, 8)
    perm = [3, 0, 7, 1, 6, 2, 5, 4]
    assert route_permutation(net, perm) == route_permutation(net, perm)


def test_acu_broadcast_over_crossbar_is_one_pass():
    """The ACU reaches the router through port 0."""
    net = build_network(MpNocKind.CROSSBAR, 8)
    messages = [(0, pe, 42) for pe in range(8)]
    result = transfer(net, *columns(messages))
    assert (result.passes, result.conflicts) == (1, 0)


def test_acu_broadcast_over_omega_serializes_like_any_messages():
    """Messages from one source claim resources like any others: an ACU
    send (from port 0) to all 8 PEs of an omega network takes the
    scheduler's passes over its resource columns, more than one.  A
    fourth positional argument is refused."""
    net = build_network(MpNocKind.DELTA_OMEGA, 8)
    srcs, dsts = [0] * 8, list(range(8))
    passes, _conflicts = _greedy_passes(net.resource_columns(srcs, dsts), 8)
    result = transfer(net, srcs, dsts)
    assert result.passes == len(passes) > 1
    with pytest.raises(TypeError):
        transfer(net, srcs, dsts, [0] * 8)


def test_bit_reversal_transfer_matches_route_permutation():
    """``route_permutation`` and ``transfer`` are one first fit: on every
    kind a permutation gets the same passes and conflicts from both,
    and conflicts is the sum of the messages' pass indices.  Bit
    reversal at 8 ports on omega, then drawn permutations at every bus
    and crossbar size up to 64 and every delta size 2..64."""
    rng = random.Random(26)
    cases = [(MpNocKind.DELTA_OMEGA, bit_reversal(3))]
    for kind in MpNocKind:
        sizes = ([1 << n for n in range(1, 7)] if kind in DELTAS
                 else range(1, 65))
        for ports in sizes:
            for _ in range(3):
                cases.append((kind, rng.sample(range(ports), ports)))
    for kind, perm in cases:
        net = build_network(kind, len(perm))
        routed = route_permutation(net, perm)
        sent = transfer(net, range(len(perm)), perm)
        assert (routed.passes, routed.conflicts) == (sent.passes, sent.conflicts)
        assert routed.conflicts == sum(
            p * len(routed_pass) for p, routed_pass in enumerate(routed.per_pass))


def sigma_of(kind, n_bits):
    """The source relabelling under which a delta wiring is omega."""
    if kind is MpNocKind.DELTA_OMEGA:
        return list(range(1 << n_bits))
    return bit_reversal(n_bits)


@pytest.mark.parametrize("kind", DELTAS)
def test_sigma_translations_are_conflict_free_on_the_oracle(kind):
    for n_bits in range(1, 7):
        ports, sigma = 1 << n_bits, sigma_of(kind, n_bits)
        for offset in range(ports):
            assert_pass_conflict_free(
                kind, ports, [(s, (sigma[s] + offset) % ports)
                              for s in range(ports)])


class ScheduledError(Exception):
    pass


def refuse(*args):
    raise ScheduledError


def test_translations_skip_the_window_columns(monkeypatch):
    """On omega, every non-wrapping s -> s+K set given as two ranges takes
    one pass without a window column or a source tag: from every source,
    and every 4th source from the lowest and from the one that ends at
    the top edge."""
    monkeypatch.setattr(MpNocNetwork, "resource_columns", refuse)
    monkeypatch.setattr(MpNocNetwork, "source_tags", property(refuse))
    ports = 1024
    net = build_network(MpNocKind.DELTA_OMEGA, ports)
    for offset in range(1 - ports, ports):
        low, high = max(0, -offset), min(ports, ports - offset)
        for start, step in ((low, 1), (low, 4), (low + (high - 1 - low) % 4, 4)):
            srcs = range(start, high, step)
            dsts = range(start + offset, high + offset, step)
            assert {srcs[0], dsts[0], srcs[-1], dsts[-1]} & {0, ports - 1}
            result = transfer(net, srcs, dsts)
            assert (result.passes, result.conflicts) == (1, 0)


@pytest.mark.parametrize("kind", DELTAS)
def test_list_translations_take_one_pass(kind, monkeypatch):
    """Every non-wrapping s -> sigma(s)+K set given as lists, from every
    source and from the sources a ``MASK mod:4:1`` leaves, takes one
    pass; a repeated message (tried at every 64th offset) reaches the
    scheduler and takes a second pass."""
    ports, sigma = 1024, sigma_of(kind, 10)
    net = build_network(kind, ports)
    for offset in range(1 - ports, ports):
        full = [(s, sigma[s] + offset, s) for s in range(ports)
                if 0 <= sigma[s] + offset < ports]
        for messages in (full, [m for m in full if m[0] % 4 == 1]):
            if messages:
                result = transfer(net, *columns(messages))
                assert (result.passes, result.conflicts) == (1, 0)
        if offset % 64 == 0:
            repeated = columns(full + [full[len(full) // 2]])
            assert transfer(net, *repeated).passes == 2
            with monkeypatch.context() as patch, pytest.raises(ScheduledError):
                patch.setattr(MpNocNetwork, "resource_columns", refuse)
                transfer(net, *repeated)


def test_transfer_passes_cover_the_busiest_destination():
    rng = random.Random(3)
    for kind in (MpNocKind.SHARED_BUS, MpNocKind.CROSSBAR, MpNocKind.DELTA_OMEGA):
        net = build_network(kind, 8)
        messages = [(src, rng.randrange(8), rng.randrange(1 << 32))
                    for src in range(8)]
        result = transfer(net, *columns(messages))
        # Messages to one port share its last resource, so each takes
        # its own pass.
        busiest = max(Counter(dst for _, dst, _ in messages).values())
        assert busiest > 1
        if kind is MpNocKind.SHARED_BUS:
            assert result.passes == len(messages)
        elif kind is MpNocKind.CROSSBAR:
            assert result.passes == busiest
        else:
            assert busiest <= result.passes <= len(messages)


def test_duplicate_destination_serializes_on_crossbar():
    net = build_network(MpNocKind.CROSSBAR, 4)
    messages = [(0, 3, 1), (1, 3, 2), (2, 0, 3)]
    result = transfer(net, *columns(messages))
    assert (result.passes, result.conflicts) == (2, 1)


def test_port_range():
    """Every endpoint is a port in 0..N-1; the first message outside
    the range is named."""
    net = build_network(MpNocKind.CROSSBAR, 4)
    for src, dst in ((-1, 1), (0, -2), (0, 9), (4, 0)):
        with pytest.raises(PortOutOfRange,
                           match=f"^message {src}->{dst} outside 0..3$"):
            transfer(net, *columns([(0, 1, 5), (src, dst, 5), (-3, 9, 5)]))
    # A PE-to-device message goes to port 0 and takes one pass.
    result = transfer(net, *columns([(2, 0, 5)]))
    assert (result.passes, result.conflicts) == (1, 0)


def test_exhaustive_small_sizes_match_oracle():
    for kind in DELTAS:
        for ports in (2, 4):
            net = build_network(kind, ports)
            for perm in permutations(range(ports)):
                result = route_permutation(net, list(perm))
                assert result.passes <= ports
                for routed_pass in result.per_pass:
                    assert_pass_conflict_free(kind, ports, routed_pass)
