"""Differential test: the column-wise router in ``mppsoc.mpnoc`` against
a per-message reference greedy scheduler driven by the independent
stage-walk oracle, on random message sets, hot spots, translations,
range columns and permutations over every router kind and port counts
1-64, port 0 sending to many PEs or many PEs sending to it (the shapes of
an ACU or device send) among them; and the first-fit scheduler itself
against the same
reference, on resource columns of up to 300 records and 150 passes,
shared resources included."""

from functools import cache
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from delta_oracle import oracle_path
from mppsoc.config import MpNocKind
from mppsoc.mpnoc import (
    NotAPermutation,
    PortOutOfRange,
    RoutingResult,
    TransferResult,
    _greedy_passes,
    build_network,
    route_permutation,
    transfer,
)

def columns(messages):
    """(src, dst, word) triples as the two columns ``transfer`` takes."""
    return [[message[k] for message in messages] for k in range(2)]


# -- reference: one record at a time, one oracle path per message ------------


@cache
def ref_path(kind, ports, src, dst):
    return oracle_path(kind, ports, src, dst)


def ref_greedy_passes(records, resources_of):
    """Lowest-source-first greedy over records that begin (src_port,
    dst_port); a pass claims each resource at most once."""
    pending = sorted(records, key=lambda r: (r[0], r[1]))
    passes = []
    conflicts = 0
    while pending:
        claimed = set()
        routed = []
        deferred = []
        for rec in pending:
            res = resources_of(rec)
            if any(r in claimed for r in res):
                conflicts += 1
                deferred.append(rec)
                continue
            claimed.update(res)
            routed.append(rec)
        passes.append(routed)
        pending = deferred
    return passes, conflicts


def ref_resources(kind, ports):
    """What a (src, dst) record claims: the one bus, the crossbar output
    at its destination, or the delta links on its oracle path."""
    if kind is MpNocKind.SHARED_BUS:
        return lambda rec: (("bus",),)
    if kind is MpNocKind.CROSSBAR:
        return lambda rec: (("out", rec[1]),)
    return lambda rec: ref_path(kind, ports, rec[0], rec[1])


def ref_route_permutation(kind, ports, perm):
    perm = list(perm)
    if sorted(perm) != list(range(ports)):
        raise NotAPermutation(
            f"expected a permutation of 0..{ports - 1}, got {perm!r}")
    pairs = list(enumerate(perm))
    if kind is MpNocKind.CROSSBAR:
        return RoutingResult(passes=1, per_pass=(tuple(pairs),), conflicts=0)
    passes, conflicts = ref_greedy_passes(pairs, ref_resources(kind, ports))
    return RoutingResult(passes=len(passes),
                         per_pass=tuple(tuple(p) for p in passes),
                         conflicts=conflicts)


def ref_transfer(kind, ports, messages):
    for src, dst, _payload in messages:
        if not (0 <= src < ports and 0 <= dst < ports):
            raise PortOutOfRange(src, dst, ports)
    records = [(src, dst) for src, dst, _payload in messages]
    if not records:
        return TransferResult(passes=0, conflicts=0)
    passes, conflicts = ref_greedy_passes(records, ref_resources(kind, ports))
    return TransferResult(passes=len(passes), conflicts=conflicts)


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
def message_sets(draw, ports):
    """A few sources and targets, so sources repeat and destinations
    collide.  Half the sets have port 0 at one end of each message, as
    an ACU or device send does, and some of those also carry other
    PE-to-PE messages."""
    pes = st.integers(0, ports - 1)
    sources = st.sampled_from(draw(st.lists(pes, min_size=1, max_size=6)))
    targets = st.sampled_from(draw(st.lists(pes, min_size=1, max_size=6)))
    words = st.integers(0, 2)
    shapes = [st.tuples(sources, targets, words)]
    if draw(st.booleans()):
        shapes = [st.tuples(st.just(0), targets, words),
                  st.tuples(sources, st.just(0), words)] + (
            shapes if draw(st.integers(0, 3)) == 0 else [])
    size = draw(st.integers(0, min(3 * ports, 60)))
    return draw(st.lists(st.one_of(*shapes), min_size=size, max_size=size))


@st.composite
def translation_sets(draw, kind, ports):
    """Messages s -> sigma(s) + K from distinct ascending sources, with
    sigma the identity or the bit reversal on every kind (so baseline and
    butterfly also get plain shifts, which conflict there): from every
    source, from ``range(r, N, 2^j)`` or from any subset, with K in
    -N+1..N-1, wrapped mod N or cut where it leaves the ports.  Some
    sets repeat one message, move one message to another destination,
    or come unsorted."""
    n_bits = ports.bit_length() - 1
    if ports == 1 << n_bits and draw(st.booleans()):
        sigma = [int(format(s, f"0{n_bits}b")[::-1], 2) for s in range(ports)]
    else:
        sigma = range(ports)
    stride = 1 << draw(st.integers(0, n_bits))
    sources = draw(st.one_of(
        st.just(range(ports)),
        st.integers(0, stride - 1).map(lambda r: range(r, ports, stride)),
        st.sets(st.integers(0, ports - 1)).map(sorted)))
    offset = draw(st.integers(1 - ports, ports - 1))
    wrap = draw(st.booleans())
    messages = []
    for src in sources:
        dst = sigma[src] + offset
        if wrap or 0 <= dst < ports:
            messages.append((src, dst % ports, draw(st.integers(0, 1000))))
    if messages and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(messages) - 1))
        src, dst, word = messages[i]
        if draw(st.booleans()):
            messages.insert(i + 1, messages[i])
        else:
            messages[i] = (src, draw(st.integers(0, ports - 1)), word)
    if draw(st.integers(0, 4)) == 0:
        messages = draw(st.permutations(messages))
    return messages


@st.composite
def hot_spot_sets(draw, ports):
    """Distinct senders aimed at one to three destinations, so every
    message to one destination contends for its output; or the two
    shapes of an ACU or device send: distinct PEs sending to port 0, or
    port 0 sending distinct words to one to three PEs."""
    pes = st.integers(0, ports - 1)
    targets = st.sampled_from(draw(st.lists(pes, min_size=1, max_size=3)))
    word = st.integers(0, 1000)
    shape = draw(st.sampled_from(("to targets", "to port 0", "from port 0")))
    if shape == "from port 0":
        words = draw(st.lists(word, min_size=1, max_size=ports, unique=True))
        return [(0, draw(targets), w) for w in words]
    if shape == "to port 0":
        targets = st.just(0)
    sources = draw(st.lists(pes, min_size=1, max_size=ports, unique=True))
    return [(src, draw(targets), draw(word)) for src in sources]


@st.composite
def schedules(draw):
    """Resource columns for ``_greedy_passes``: one or several columns
    2-64 wide, some holding a single value (all-to-one).  One schedule
    in four is long, 150-300 records whose first column holds 2-3
    values, so it takes 50-150 passes and its pass bitsets span several
    30-bit digits; its varied columns come from a drawn ``Random``,
    which keeps the draw small."""
    width = draw(st.integers(2, 64))
    long = draw(st.integers(0, 3)) == 0
    m = draw(st.integers(150, 300) if long else st.integers(0, 80))
    rng = draw(st.randoms(use_true_random=False))
    columns = []
    for k in range(draw(st.one_of(st.just(1), st.integers(2, 6)))):
        if long and k == 0:
            spread = draw(st.integers(2, min(3, width)))
        elif draw(st.integers(0, 3)) == 0:
            columns.append([draw(st.integers(0, width - 1))] * m)
            continue
        else:
            spread = draw(st.integers(1, width))
        columns.append([rng.randrange(spread) for _ in range(m)] if long else
                       draw(st.lists(st.integers(0, spread - 1),
                                     min_size=m, max_size=m)))
    return columns, width


def outcome(call):
    try:
        return call()
    except (PortOutOfRange, NotAPermutation) as err:
        return type(err), str(err)


def assert_transfer_matches(kind, ports, messages):
    network = build_network(kind, ports)
    got = outcome(lambda: transfer(network, *columns(messages)))
    assert got == outcome(lambda: ref_transfer(kind, ports, messages))


@settings(max_examples=300, deadline=None)
@given(net=networks(), data=st.data())
def test_transfer_matches_per_message_reference(net, data):
    kind, ports = net
    messages = data.draw(st.one_of(message_sets(ports),
                                   translation_sets(kind, ports)))
    assert_transfer_matches(kind, ports, messages)
    if not messages:
        return
    # The same set with one endpoint of one message made bad: a port
    # just past either end of the range.
    i = data.draw(st.integers(0, len(messages) - 1))
    for end in (0, 1):
        for bad in (-3, -2, -1, ports, ports + 1):
            variant = list(messages)
            variant[i] = tuple(bad if j == end else v
                               for j, v in enumerate(messages[i]))
            assert_transfer_matches(kind, ports, variant)


@pytest.mark.parametrize("kind", list(MpNocKind))
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_transfer_matches_per_message_reference_on_hot_spots(kind, data):
    ports = data.draw(port_counts(kind))
    messages = data.draw(hot_spot_sets(ports))
    assert_transfer_matches(kind, ports, messages)


@pytest.mark.parametrize("kind", list(MpNocKind))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_transfer_matches_per_message_reference_on_translations(kind, data):
    ports = data.draw(port_counts(kind))
    messages = data.draw(translation_sets(kind, ports))
    assert_transfer_matches(kind, ports, messages)


@st.composite
def range_pairs(draw, ports):
    """A source range ``range(start, stop, step)`` and the same range
    moved by an offset, as ``NOCSEND pe, idx±K`` under a MASK passes
    them; some ends fall one past either side of 0..N-1."""
    start = draw(st.integers(-1, ports))
    step = draw(st.integers(1, ports + 1))
    count = draw(st.integers(0, (ports - start) // step + 1))
    last = start + step * (count - 1)
    offset = draw(st.one_of(st.integers(-ports, ports),
                            st.sampled_from([-start, -1 - start,
                                             ports - 1 - last, ports - last])))
    srcs = range(start, start + step * count, step)
    return srcs, range(start + offset, srcs.stop + offset, step)


@pytest.mark.parametrize("kind", list(MpNocKind))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_range_columns_match_per_message_reference(kind, data):
    ports = data.draw(port_counts(kind))
    srcs, dsts = data.draw(range_pairs(ports))
    network = build_network(kind, ports)
    got = outcome(lambda: transfer(network, srcs, dsts))
    assert got == outcome(lambda: ref_transfer(
        kind, ports, list(zip(srcs, dsts, repeat(0)))))


def test_transfer_refuses_columns_of_unequal_length():
    network = build_network(MpNocKind.DELTA_OMEGA, 4)
    for srcs, dsts in ((range(3), range(4)), ([0, 1], [1])):
        with pytest.raises(ValueError):
            transfer(network, srcs, dsts)


@settings(max_examples=300, deadline=None)
@given(schedule=schedules())
def test_greedy_passes_matches_per_record_reference(schedule):
    columns, width = schedule
    records = [(i, 0) for i in range(len(columns[0]))]
    passes, conflicts = ref_greedy_passes(
        records, lambda rec: [(k, column[rec[0]])
                              for k, column in enumerate(columns)])
    assert _greedy_passes(columns, width) == (
        [[rec[0] for rec in routed] for routed in passes], conflicts)


def test_greedy_passes_serializes_records_that_share_a_resource():
    """2^16 records that all claim one resource (one constant column
    beside a varied one) take one pass each, in record order."""
    m = 1 << 16
    result = _greedy_passes([[i % 251 for i in range(m)], [7] * m], 256)
    assert result == ([[i] for i in range(m)], m * (m - 1) // 2)


@settings(max_examples=150, deadline=None)
@given(net=networks(), data=st.data())
def test_route_permutation_matches_per_message_reference(net, data):
    kind, ports = net
    perm = data.draw(st.permutations(range(ports)))
    if data.draw(st.integers(0, 9)) == 0:
        perm = perm[:-1] + [data.draw(st.integers(-1, ports))]
    got = outcome(lambda: route_permutation(build_network(kind, ports), perm))
    assert got == outcome(lambda: ref_route_permutation(kind, ports, perm))


def answer(call):
    """A call's result, or its exception's type and text."""
    try:
        return call()
    except (PortOutOfRange, ValueError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("kind", list(MpNocKind))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_range_columns_answer_as_the_same_ports_in_lists(kind, data):
    """``transfer`` of two ranges, the omega exit's input, against the
    same ports given as lists, which take the general path: ranges of
    any start, step, length and offset K, ends one past either side of
    0..N-1, destinations of another length or step among them, give the
    same ``TransferResult``, or the same exception and text."""
    ports = data.draw(port_counts(kind))
    start = data.draw(st.integers(-1, ports))
    step = data.draw(st.integers(-ports, ports).filter(bool))
    length = data.draw(st.integers(0, ports + 1))
    offset = data.draw(st.integers(-ports, ports))
    srcs = range(start, start + step * length, step)
    dst_step = data.draw(st.sampled_from((step, step, -step, step + 1 or 2)))
    dst_length = length + data.draw(st.sampled_from((0, 0, 0, -1, 1)))
    first = start + offset
    dsts = range(first, first + dst_step * dst_length, dst_step)
    network = build_network(kind, ports)
    assert answer(lambda: transfer(network, srcs, dsts)) == answer(
        lambda: transfer(network, list(srcs), list(dsts)))
