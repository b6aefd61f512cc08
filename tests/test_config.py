import pytest
from hypothesis import given, strategies as st

from mppsoc.config import (
    BadValue,
    MemoryGeometry,
    Methodology,
    MissingRequiredKey,
    MpNocKind,
    MppSoCConfig,
    Neighborhood,
    NoNetworkSelected,
    NotDivisible,
    Processor,
    UnknownKey,
    derive_geometry,
    parse_config,
    serialize_config,
)

BASIC = ("processor=minimips\nmethodology=replication\nrows=2\ncols=4\n"
         "acu_mem_bytes=4096\npe_mem_bytes=1024\nmpnoc=crossbar")


def test_parse_basic():
    cfg = parse_config(BASIC)
    assert cfg.n_pes == 8
    assert cfg.methodology is Methodology.REPLICATION
    assert cfg.mpnoc is MpNocKind.CROSSBAR
    assert cfg.acu_mem_bytes == 4096 and cfg.pe_mem_bytes == 1024
    assert cfg.neighborhood is None and cfg.mem_init is None


def test_parse_defaults():
    cfg = parse_config("rows=1\ncols=4\nacu_mem_bytes=64\npe_mem_bytes=64\n"
                       "neighborhood=ring")
    assert cfg.processor is Processor.MINIMIPS
    assert cfg.methodology is Methodology.REDUCTION


def test_parse_comments_blanks_and_spacing():
    text = ("# machine description\n"
            "\n"
            "rows = 2\r\n"
            "cols=2\n"
            "  acu_mem_bytes =  4096  \n"
            "pe_mem_bytes = 1024\n"
            "neighborhood = mesh2d\n")
    cfg = parse_config(text)
    assert cfg.rows == 2 and cfg.cols == 2
    assert cfg.neighborhood is Neighborhood.MESH2D


def test_parse_no_network_rejected():
    with pytest.raises(NoNetworkSelected):
        parse_config("rows=2\ncols=2\nacu_mem_bytes=64\npe_mem_bytes=64")


def test_parse_rows_zero_is_bad_value():
    with pytest.raises(BadValue) as err:
        parse_config("rows=0\ncols=2\nacu_mem_bytes=64\npe_mem_bytes=64\nmpnoc=crossbar")
    assert err.value.key == "rows"
    assert err.value.token == "0"


def test_parse_unknown_key_carries_line():
    with pytest.raises(UnknownKey) as err:
        parse_config("rows=2\nwidth=3\n")
    assert err.value.name == "width"
    assert err.value.line == 2


def test_parse_missing_required_key():
    with pytest.raises(MissingRequiredKey) as err:
        parse_config("rows=2\ncols=2\nacu_mem_bytes=64\nmpnoc=crossbar")
    assert err.value.key == "pe_mem_bytes"


@pytest.mark.parametrize("bad", ["just words", "rows", "= 4"])
def test_parse_totality_malformed_lines(bad):
    # Anything that is not blank, comment or key=value reports a line number.
    with pytest.raises(BadValue) as err:
        parse_config(f"rows=2\n{bad}\n")
    assert err.value.line == 2


def test_parse_bad_enum_token():
    with pytest.raises(BadValue) as err:
        parse_config("rows=1\ncols=2\nacu_mem_bytes=64\npe_mem_bytes=64\nmpnoc=omega")
    assert err.value.key == "mpnoc"


def test_parse_duplicate_key_last_wins():
    cfg = parse_config("rows=2\nrows=4\ncols=1\nacu_mem_bytes=64\n"
                       "pe_mem_bytes=64\nmpnoc=sharedbus")
    assert cfg.rows == 4


def test_config_positivity_enforced():
    with pytest.raises(ValueError):
        MppSoCConfig(rows=0, cols=1, acu_mem_bytes=4, pe_mem_bytes=4)


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
    mem_init=st.one_of(st.none(), st.just("image.mif")),
)


@pytest.mark.parametrize("name", ["sum 16.hex", 'a"b.hex', "x\ty.hex",
                                  "a\x7fb.hex", "a\u00a0b.hex", "a\u200bb.hex"])
def test_parse_refuses_mem_init_that_is_not_one_token(name):
    """A name spliced into ``init_file => "..."`` must stay one quoted
    whitespace token, or regenerating over the output is not a no-op."""
    with pytest.raises(BadValue) as err:
        parse_config(BASIC + f"\nmem_init = {name}\n")
    assert err.value.key == "mem_init" and err.value.line == 8


@given(valid_configs)
def test_serialize_parse_round_trip(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


def test_derive_geometry_examples():
    assert derive_geometry(4096, 4) == MemoryGeometry(words=1024, addr_width=10)
    assert derive_geometry(1024, 4) == MemoryGeometry(words=256, addr_width=8)
    # One-word memory still gets a 1-bit address vector.
    assert derive_geometry(4, 4) == MemoryGeometry(words=1, addr_width=1)


def test_derive_geometry_not_divisible():
    with pytest.raises(NotDivisible):
        derive_geometry(10, 4)
    with pytest.raises(NotDivisible):
        derive_geometry(2, 4)


def test_derive_geometry_rejects_nonpositive():
    with pytest.raises(ValueError):
        derive_geometry(0, 4)
    with pytest.raises(ValueError):
        derive_geometry(4, 0)


@given(st.integers(1, 1 << 20), st.integers(1, 1 << 20))
def test_derive_geometry_monotone(a, b):
    lo, hi = sorted((a * 4, b * 4))
    assert derive_geometry(lo, 4).addr_width <= derive_geometry(hi, 4).addr_width


@given(st.integers(1, 1 << 20))
def test_derive_geometry_width_covers_words(words):
    geo = derive_geometry(words * 4, 4)
    assert geo.words == words
    assert (1 << geo.addr_width) >= geo.words
    assert geo.addr_width >= 1
