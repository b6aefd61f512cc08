"""Shared test helpers: random valid configurations and independent
re-derivations of what the rewriter should have touched."""

import re

from hypothesis import strategies as st

from mppsoc.config import (
    Methodology,
    MpNocKind,
    MppSoCConfig,
    Neighborhood,
    Processor,
)
from mppsoc.rewrite import tokenize_line
from mppsoc.rules import validate
from mppsoc.topology import DimensionMismatch, check_dimensions

MEM_CHOICES = (4, 64, 256, 1024, 4096, 65536)

# ``mem_init`` names as drawn: empty, or holding ``#``, ``"``, spaces,
# other whitespace or unprintable characters among them (line breaks
# aside, which a config file cannot hold inside a value).
file_names = st.text(
    st.sampled_from('ab.x"# =\\-\t\x0c') | st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\n\r"),
    max_size=12)


def is_file_name(name):
    """The ``mem_init`` rule, restated: non-empty, printable and free of
    ``#`` (a comment in a config file), ``"`` and spaces."""
    return bool(name) and name.isprintable() and not set('#" ') & set(name)


# Configurations that construct, as hypothesis draws them; a byte size
# need not be a whole number of words.
valid_configs = st.builds(
    MppSoCConfig,
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    acu_mem_bytes=st.integers(1, 1 << 16),
    pe_mem_bytes=st.integers(1, 1 << 16),
    processor=st.sampled_from(Processor),
    methodology=st.sampled_from(Methodology),
    neighborhood=st.one_of(st.none(), st.sampled_from(Neighborhood)),
    mpnoc=st.sampled_from(MpNocKind),
    mem_init=st.one_of(st.none(), file_names.filter(is_file_name)),
)


def predicates(n):
    """MASK predicate texts for N PEs, of every shape: the aliases,
    prefixes and suffixes, and strided ones, with bounds, moduli and
    remainders past the N PEs (empty ranges) and operands past
    ``sys.maxsize``."""
    return st.one_of(
        st.sampled_from(("all", "none", "even", "odd")),
        st.builds("{}:{}".format, st.sampled_from(("lt", "ge")),
                  st.integers(0, max(10, n + 3))),
        st.builds("mod:{}:{}".format, st.integers(1, max(5, n + 3)),
                  st.integers(0, max(6, n + 3))),
        st.sampled_from((f"lt:{10**30}", f"ge:{10**30}", f"mod:{10**30}:3",
                         f"mod:3:{10**30}")),
    )


def random_valid_config(rng, with_mem_init=True):
    """Draw one configuration that passes the rule checker and whose
    neighbourhood (if any) is actually buildable."""
    while True:
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        neighborhood = rng.choice(list(Neighborhood) + [None])
        mpnoc = rng.choice(list(MpNocKind) + [None])
        if neighborhood is None and mpnoc is None:
            continue
        config = MppSoCConfig(
            rows=rows, cols=cols,
            acu_mem_bytes=rng.choice(MEM_CHOICES),
            pe_mem_bytes=rng.choice(MEM_CHOICES),
            neighborhood=neighborhood, mpnoc=mpnoc,
            mem_init="image.hex" if with_mem_init and rng.random() < 0.3 else None)
        if not validate(config).is_valid:
            continue
        if config.neighborhood is not None:
            try:
                check_dimensions(config.neighborhood, rows, cols)
            except DimensionMismatch:
                continue
        return config


def planned_line_indices(template, actions):
    """Which template lines should a plan touch?  Recomputed straight
    from the anchor/name definition, independent of rewrite_line."""
    touched = set()
    for index, line in enumerate(template.lines):
        tokens = tokenize_line(line)
        for action in actions:
            if not tokens or tokens[0] != action.anchor:
                continue
            if action.target_name is not None and (
                    len(tokens) < 2
                    or tokens[1].lower() != action.target_name.lower()):
                continue
            touched.add(index)
    return touched


def extract_value(line, action):
    """Re-read the value a rewritten line now carries after the action's
    delimiter, stripping the preserved prefix/suffix punctuation."""
    tokens = tokenize_line(line)
    position = tokens.index(action.delimiter)
    raw = tokens[position + 1]
    return re.match(r"^\(*(.*?)[;,)]*$", raw).group(1)
