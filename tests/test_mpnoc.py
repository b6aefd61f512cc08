import random
from collections import Counter
from itertools import permutations

import pytest

from delta_oracle import assert_pass_conflict_free, oracle_path
from mppsoc.config import CostModel, MpNocKind
from mppsoc.mpnoc import (
    ACU_PORT,
    DEVICE_PORT,
    ModeMismatch,
    MpNocMode,
    NotAPermutation,
    PortCountNotPowerOfTwo,
    PortOutOfRange,
    build_network,
    route_permutation,
    transfer,
)

DELTAS = (MpNocKind.DELTA_OMEGA, MpNocKind.DELTA_BASELINE, MpNocKind.DELTA_BUTTERFLY)


def bit_reversal(n_bits):
    return [int(format(i, f"0{n_bits}b")[::-1], 2) for i in range(1 << n_bits)]


def test_crossbar_has_no_structural_constraint():
    net = build_network(MpNocKind.CROSSBAR, 9)
    assert net.ports == 9 and net.stage_count == 0


def test_delta_structure():
    net = build_network(MpNocKind.DELTA_OMEGA, 8)
    assert net.stage_count == 3
    assert net.switches_per_stage == 4


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
    net = build_network(MpNocKind.SHARED_BUS, 4)
    result = route_permutation(net, [0, 1, 2, 3])
    assert result.passes == 4
    assert result.conflicts == 3
    assert result.per_pass == (((0, 0),), ((1, 1),), ((2, 2),), ((3, 3),))


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
    net = build_network(MpNocKind.CROSSBAR, 8)
    messages = [(ACU_PORT, pe, 42) for pe in range(8)]
    result = transfer(net, MpNocMode.ACU_TO_PE, messages, pass_cycles=4)
    assert result.passes == 1
    assert result.latency == 1 * 4 + 1


def test_identity_over_shared_bus_serializes():
    net = build_network(MpNocKind.SHARED_BUS, 4)
    messages = [(pe, pe, pe * 10) for pe in range(4)]
    result = transfer(net, MpNocMode.PE_TO_PE, messages, pass_cycles=1)
    assert result.passes == 4
    assert result.latency == 4 * 1 + 1


def test_bit_reversal_transfer_latency_tracks_passes():
    net = build_network(MpNocKind.DELTA_OMEGA, 8)
    perm = bit_reversal(3)
    messages = [(src, dst, src) for src, dst in enumerate(perm)]
    result = transfer(net, MpNocMode.PE_TO_PE, messages, pass_cycles=12,
                      config_cycles=1)
    expected_passes = route_permutation(net, perm).passes
    assert result.passes == expected_passes
    assert result.latency == expected_passes * 12 + 1


def test_transfer_passes_cover_the_busiest_destination():
    rng = random.Random(3)
    for kind in (MpNocKind.SHARED_BUS, MpNocKind.CROSSBAR, MpNocKind.DELTA_OMEGA):
        net = build_network(kind, 8)
        messages = [(src, rng.randrange(8), rng.randrange(1 << 32))
                    for src in range(8)]
        result = transfer(net, MpNocMode.PE_TO_PE, messages)
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
        # Omitted charges come from the default cost model.
        default = CostModel()
        assert result.latency == (result.passes * default.noc_pass_cycles(net)
                                  + default.noc_config_cycles)


def test_duplicate_destination_serializes_on_crossbar():
    net = build_network(MpNocKind.CROSSBAR, 4)
    messages = [(0, 3, 1), (1, 3, 2), (2, 0, 3)]
    result = transfer(net, MpNocMode.PE_TO_PE, messages)
    assert result.passes == 2
    assert result.latency == 2 * CostModel().noc_pass_cycles(net) + 1


def test_mode_mismatch_and_port_range():
    net = build_network(MpNocKind.CROSSBAR, 4)
    with pytest.raises(ModeMismatch):
        transfer(net, MpNocMode.DEVICE_TO_PE, [(0, 1, 5)])
    with pytest.raises(ModeMismatch):
        transfer(net, MpNocMode.PE_TO_PE, [(ACU_PORT, 1, 5)])
    with pytest.raises(PortOutOfRange):
        transfer(net, MpNocMode.PE_TO_PE, [(0, 9, 5)])
    with pytest.raises(PortOutOfRange):
        transfer(net, MpNocMode.ACU_TO_PE, [(ACU_PORT, 9, 5)])
    # A PE-to-device message takes one pass.
    result = transfer(net, MpNocMode.DEVICE_TO_PE, [(2, DEVICE_PORT, 5)],
                      pass_cycles=3, config_cycles=2)
    assert (result.passes, result.latency) == (1, 1 * 3 + 2)


def test_exhaustive_small_sizes_match_oracle():
    for kind in DELTAS:
        for ports in (2, 4):
            net = build_network(kind, ports)
            for perm in permutations(range(ports)):
                result = route_permutation(net, list(perm))
                assert result.passes <= ports
                for routed_pass in result.per_pass:
                    assert_pass_conflict_free(kind, ports, routed_pass)
