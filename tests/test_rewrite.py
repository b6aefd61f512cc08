import dataclasses
import random
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mppsoc.rewrite as rewrite_module
from sampling import extract_value, planned_line_indices, random_valid_config
from mppsoc.config import MpNocKind, MppSoCConfig, Neighborhood, parse_config
from mppsoc.rewrite import (
    TEMPLATE_FILES,
    AnchorNeverMatched,
    DelimiterNotFound,
    GenReport,
    MemoryImageError,
    RewriteAction,
    RewriteError,
    TemplateFile,
    TemplateMissing,
    apply_to_file,
    bundled_template_dir,
    generate,
    generate_in_memory,
    plan_actions,
    plan_actions_by_file,
    rewrite_line,
    tokenize_line,
)

DEMOS = Path(__file__).resolve().parent.parent / "demos"

CONST_ACTION = RewriteAction("constant", ":=", "8", target_name="sl_nb_rows")


def test_tokenize_examples():
    assert tokenize_line("constant sl_nb_rows : integer := 4;") == [
        "constant", "sl_nb_rows", ":", "integer", ":=", "4;"]
    assert tokenize_line("") == []
    assert tokenize_line("  a\t b ") == ["a", "b"]


@given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
def test_tokenize_loses_only_whitespace(line):
    joined = "".join(tokenize_line(line))
    assert joined == re.sub(r"[ \t\r\n]", "", line)


def test_rewrite_constant_line():
    line, applied = rewrite_line("constant sl_nb_rows : integer := 4;", CONST_ACTION)
    assert applied
    assert line == "constant sl_nb_rows : integer := 8;"


def test_rewrite_anchor_mismatch_leaves_line():
    line, applied = rewrite_line("signal x : integer := 4;", CONST_ACTION)
    assert not applied
    assert line == "signal x : integer := 4;"


def test_rewrite_generic_map_value():
    action = RewriteAction("init_file", "=>", '"sum16.mif"')
    line, applied = rewrite_line('init_file => "data.mif",', action)
    assert applied
    assert line == 'init_file => "sum16.mif",'


def test_rewrite_constant_name_is_case_insensitive():
    action = RewriteAction("constant", ":=", "4", target_name="sl_nb_column")
    line, applied = rewrite_line("constant SL_NB_COLUMN : integer := 2;", action)
    assert applied
    assert line == "constant SL_NB_COLUMN : integer := 4;"


def test_rewrite_preserves_surrounding_bytes():
    action = RewriteAction("numwords_a", "=>", "1024")
    line, applied = rewrite_line("      numwords_a => 0,", action)
    assert applied
    assert line == "      numwords_a => 1024,"


def test_rewrite_vector_range_keeps_paren():
    action = RewriteAction("address", "STD_LOGIC_VECTOR", "9")
    line, applied = rewrite_line(
        "    address : in STD_LOGIC_VECTOR (63 downto 0);", action)
    assert applied
    assert line == "    address : in STD_LOGIC_VECTOR (9 downto 0);"


def test_rewrite_delimiter_not_found():
    with pytest.raises(DelimiterNotFound):
        rewrite_line("constant sl_nb_rows : integer = 4;", CONST_ACTION)


def test_action_validation():
    with pytest.raises(ValueError):
        RewriteAction("constant", "==", "4")
    with pytest.raises(ValueError):
        RewriteAction("constant", ":=", "")


def pack_template():
    path = bundled_template_dir() / "pack_mppsoc.vhd"
    return TemplateFile.from_text("pack_mppsoc.vhd", path.read_text())


def test_apply_to_file_changes_exactly_planned_lines():
    template = pack_template()
    actions = [
        RewriteAction("constant", ":=", "8", target_name="sl_nb_rows"),
        RewriteAction("constant", ":=", "8", target_name="sl_nb_column"),
        RewriteAction("constant", ":=", "MESH", target_name="topology"),
    ]
    result, counts = apply_to_file(template, actions)
    assert counts == [1, 1, 1]
    changed = [i for i, (a, b) in enumerate(zip(template.lines, result.lines))
               if a != b]
    assert len(changed) == 3
    for index in changed:
        first_two = tokenize_line(template.lines[index])[:2]
        assert first_two[0] == "constant"
        assert first_two[1].lower() in {"sl_nb_rows", "sl_nb_column", "topology"}


def test_apply_empty_action_list_is_identity():
    template = pack_template()
    result, counts = apply_to_file(template, [])
    assert result.lines == template.lines
    assert counts == []


def test_apply_unmatched_action_raises():
    template = pack_template()
    with pytest.raises(AnchorNeverMatched):
        apply_to_file(template, [RewriteAction("constant", ":=", "1",
                                               target_name="no_such_constant")])


def test_apply_is_idempotent():
    template = pack_template()
    actions = [RewriteAction("constant", ":=", "6", target_name="sl_nb_rows")]
    once, _ = apply_to_file(template, actions)
    twice, _ = apply_to_file(once, actions)
    assert once.lines == twice.lines


def test_template_round_trips_crlf():
    tf = TemplateFile.from_text("x.vhd", "a\r\nb\r\n")
    assert tf.lines == ("a", "b", "")
    assert tf.to_text() == "a\nb\n"


def mesh16(**overrides):
    fields = dict(rows=4, cols=4, acu_mem_bytes=4096, pe_mem_bytes=4096,
                  neighborhood=Neighborhood.MESH2D)
    fields.update(overrides)
    return MppSoCConfig(**fields)


def test_plan_actions_mesh16():
    plan = plan_actions_by_file(mesh16())
    pack = {(a.anchor, a.target_name, a.delimiter): a.new_value
            for a in plan["pack_mppsoc.vhd"]}
    assert pack[("constant", "sl_nb_rows", ":=")] == "4"
    assert pack[("constant", "sl_nb_column", ":=")] == "4"
    assert pack[("constant", "topology", ":=")] == "MESH"
    assert pack[("constant", "MS_add_width", ":=")] == "10"
    assert pack[("constant", "SL_add_width", ":=")] == "10"
    mem_pe = {a.anchor: a.new_value for a in plan["mem_pe.vhd"]}
    assert mem_pe["numwords_a"] == "1024"
    assert mem_pe["widthad_a"] == "10"
    assert mem_pe["address"] == "9"
    assert "init_file" not in mem_pe


def test_plan_actions_with_mem_init():
    plan = plan_actions_by_file(mesh16(mem_init="sum16.hex"))
    assert any(a.anchor == "init_file" and a.new_value == '"sum16.hex"'
               for a in plan["mem_pe.vhd"])
    assert any(a.anchor == "init_file" for a in plan["mem_acu.vhd"])


def test_plan_actions_without_neighborhood_skips_topology():
    plan = plan_actions_by_file(mesh16(neighborhood=None,
                                       mpnoc=MpNocKind.CROSSBAR))
    assert not any(a.target_name == "topology" for a in plan["pack_mppsoc.vhd"])


def test_plan_actions_flat_covers_all_files():
    flat = plan_actions(mesh16(mem_init="img.mif"))
    anchors = [a.anchor for a in flat]
    assert anchors.count("constant") == 5
    assert anchors.count("init_file") == 2
    assert anchors.count("numwords_a") == 2


def test_plans_never_repeat_an_anchor_target():
    # generate_in_memory counts rewritten lines as the sum of per-action
    # counts, which is exact only while no two actions of one file can
    # match the same line.
    for name in ("mesh16.cfg", "delta8.cfg", "linear64.cfg"):
        base = parse_config((DEMOS / name).read_text())
        for neighborhood in Neighborhood:
            for mem_init in (None, "img.hex"):
                config = dataclasses.replace(base, neighborhood=neighborhood,
                                             mem_init=mem_init)
                for actions in plan_actions_by_file(config).values():
                    keys = [(a.anchor, (a.target_name or "").lower())
                            for a in actions]
                    assert len(keys) == len(set(keys)), (name, keys)


def read_outputs(directory):
    return {name: (directory / name).read_text() for name in TEMPLATE_FILES}


def test_generate_mesh16(tmp_path):
    out = tmp_path / "out"
    report = generate(mesh16(), out)
    assert isinstance(report, GenReport)
    assert report.files_written == 5
    on_disk = read_outputs(out)
    assert len(on_disk) == 5
    assert report.lines_generated == sum(t.count("\n") for t in on_disk.values())
    assert report.lines_rewritten <= report.lines_generated
    # untouched copies stay byte-identical to their templates
    for name in ("user_library.vhd", "mapping_mppsoc.vhd"):
        template = (bundled_template_dir() / name).read_text()
        assert on_disk[name] == template
    assert 'constant sl_nb_rows : integer := 4;' in on_disk["pack_mppsoc.vhd"]
    assert "numwords_a => 1024," in on_disk["mem_pe.vhd"]
    assert "address : in STD_LOGIC_VECTOR (9 downto 0);" in on_disk["mem_pe.vhd"]


def test_generate_is_idempotent(tmp_path):
    config = mesh16()
    first = tmp_path / "first"
    second = tmp_path / "second"
    generate(config, first)
    generate(config, second, template_dir=first)
    assert read_outputs(first) == read_outputs(second)


def test_generate_twice_is_reproducible(tmp_path):
    config = mesh16(mpnoc=MpNocKind.DELTA_OMEGA)
    a, b = tmp_path / "a", tmp_path / "b"
    ra = generate(config, a)
    rb = generate(config, b)
    assert read_outputs(a) == read_outputs(b)
    assert list(ra.lines(kv=True)) == list(rb.lines(kv=True))


def test_generate_missing_template(tmp_path):
    (tmp_path / "templates").mkdir()
    with pytest.raises(TemplateMissing):
        generate(mesh16(), tmp_path / "out", template_dir=tmp_path / "templates")


def test_generate_validates_memory_image(tmp_path):
    config = mesh16(mem_init="values.hex")
    with pytest.raises(MemoryImageError):
        generate(config, tmp_path / "out", mem_search_dir=tmp_path)

    image = tmp_path / "values.hex"
    image.write_text("# sixteen words\n" + "deadbeef\n" * 16)
    report = generate(config, tmp_path / "out", mem_search_dir=tmp_path)
    assert report.files_written == 5

    image.write_text("xyz\n")
    with pytest.raises(MemoryImageError):
        generate(config, tmp_path / "out2", mem_search_dir=tmp_path)

    image.write_text("0\n" * 2000)  # more words than the memory holds
    with pytest.raises(MemoryImageError):
        generate(config, tmp_path / "out3", mem_search_dir=tmp_path)

    image.write_bytes(b"cafef00d\n\xff\n")  # not UTF-8
    with pytest.raises(MemoryImageError, match="cannot read"):
        generate(config, tmp_path / "out4", mem_search_dir=tmp_path)


def test_random_sample_diff_extract_idempotence(tmp_path):
    rng = random.Random(2024)
    image = tmp_path / "image.hex"
    image.write_text("1\n")
    for index in range(20):
        config = random_valid_config(rng)
        out = tmp_path / f"out{index}"
        generate(config, out, mem_search_dir=tmp_path)
        plan = plan_actions_by_file(config)
        for name in TEMPLATE_FILES:
            template = TemplateFile.from_text(
                name, (bundled_template_dir() / name).read_text())
            emitted = TemplateFile.from_text(name, (out / name).read_text())
            actions = plan.get(name, [])
            changed = {i for i, (a, b) in enumerate(zip(template.lines,
                                                        emitted.lines)) if a != b}
            assert changed == planned_line_indices(template, actions)
            for line_index in changed:
                line = emitted.lines[line_index]
                for action in actions:
                    if line_index in planned_line_indices(template, [action]):
                        assert extract_value(line, action) == action.new_value
        again = tmp_path / f"again{index}"
        generate(config, again, template_dir=out, mem_search_dir=tmp_path)
        assert read_outputs(out) == read_outputs(again)


# -- differential: anchor dispatch against every action over every line ------


def apply_to_file_reference(template, actions):
    """Test oracle: the rewriter without anchor dispatch, running every
    action over every line, in order."""
    counts = [0] * len(actions)
    new_lines = []
    for line in template.lines:
        current = line
        for position, action in enumerate(actions):
            current, applied = rewrite_line(current, action)
            if applied:
                counts[position] += 1
        new_lines.append(current)
    for action, count in zip(actions, counts):
        if count == 0:
            raise AnchorNeverMatched(action, template.name)
    return TemplateFile(name=template.name, lines=tuple(new_lines)), counts


BUNDLED_LINES = {
    name: TemplateFile.from_text(
        name, (bundled_template_dir() / name).read_text()).lines
    for name in TEMPLATE_FILES}
ANCHORS = ("constant", "init_file", "numwords_a", "widthad_a", "address")
CONSTANT_NAMES = ("sl_nb_rows", "SL_NB_ROWS", "Sl_Nb_Column", "ms_add_width",
                  "SL_ADD_WIDTH", "TOPOLOGY", "sl_nb_rows2", "width")

odd_lines = st.one_of(
    # An anchor alone, with no delimiter, or with nothing after it.
    st.sampled_from(ANCHORS),
    st.builds("{} {}".format, st.sampled_from(ANCHORS), st.sampled_from(
        ("sl_nb_rows : integer = 4;", "topology : net_topology :=",
         "=> 3", "=>", "STD_LOGIC_VECTOR", ": in STD_LOGIC_VECTOR",
         ":= ;", "", "sl_nb_rows := 1 := 2;"))),
    # An anchor as the second token.
    st.builds("signal {} {} 7;".format, st.sampled_from(ANCHORS),
              st.sampled_from((":=", "=>", "STD_LOGIC_VECTOR"))),
    # Constants with other names or other letter case.
    st.builds("{} {} : integer := {};".format,
              st.sampled_from(("constant", "CONSTANT", "Constant")),
              st.sampled_from(CONSTANT_NAMES), st.integers(0, 99)),
    st.sampled_from(("", " ", "\t", "\f constant sl_nb_rows := 1;")),
)

# Actions no plan holds, and lines for them.  Each action's anchor is
# also its delimiter, so the value it splices in replaces the constant
# name the next action reads: on ``:= old := 1;`` they run in turn,
# through ``sl_nb_rows`` and ``new`` to a value with a space in it.
ODD_LINES = (":= old := 1;", ":= sl_nb_rows => 2, := 3", ":= OLD")
ODD_ACTIONS = (
    RewriteAction(":=", ":=", "sl_nb_rows", target_name="old"),
    RewriteAction(":=", ":=", "new", target_name="SL_NB_ROWS"),
    RewriteAction(":=", ":=", "1 2", target_name="new"),
    RewriteAction(":=", ":=", "x"),
)


@st.composite
def template_lines(draw, name):
    """The bundled template ``name`` shuffled, with other templates'
    lines and odd lines mixed in, sometimes cut short."""
    lines = list(draw(st.permutations(BUNDLED_LINES[name])))
    pool = [line for lines_ in BUNDLED_LINES.values() for line in lines_]
    extra = draw(st.lists(st.one_of(st.sampled_from(pool), odd_lines),
                          max_size=12))
    for line in extra:
        lines.insert(draw(st.integers(0, len(lines))), line)
    if draw(st.integers(0, 4)) == 0:
        lines = lines[:draw(st.integers(0, len(lines)))]
    return lines


@st.composite
def templates_and_plans(draw):
    """A template and a plan from a random configuration: mostly the
    plan for that template's file, on some draws with ODD_ACTIONS mixed
    in; sometimes the whole flat plan or a shuffled part of it."""
    config = random_valid_config(random.Random(draw(st.integers(0, 2**32))))
    if draw(st.booleans()):
        config = dataclasses.replace(config, mem_init="image.hex")
    by_file = plan_actions_by_file(config)
    name = draw(st.sampled_from([*by_file, *TEMPLATE_FILES]))
    actions = by_file.get(name, [])
    choice = draw(st.integers(0, 7))
    if choice == 0:
        actions = plan_actions(config)
    elif choice == 1:
        actions = draw(st.permutations(plan_actions(config)))
        actions = actions[:draw(st.integers(0, len(actions)))]
    lines = draw(template_lines(name))
    if choice in (2, 3, 4):
        # ODD_ACTIONS keep their order, so a rename precedes its reader.
        actions = list(actions)
        at = sorted(draw(st.lists(st.integers(0, len(actions)),
                                  min_size=len(ODD_ACTIONS),
                                  max_size=len(ODD_ACTIONS))))
        for offset, (place, action) in enumerate(zip(at, ODD_ACTIONS)):
            actions.insert(place + offset, action)
        for line in ODD_LINES * draw(st.integers(1, 2)):
            lines.insert(draw(st.integers(0, len(lines))), line)
    indents = st.sampled_from(("", "", "  ", "\t", " \t "))
    newlines = st.sampled_from(("\n", "\n", "\r\n"))
    text = "".join(draw(indents) + line + draw(newlines) for line in lines)
    return TemplateFile.from_text(name, text), list(actions)


def rewrite_outcome(apply, template, actions):
    try:
        return apply(template, actions)
    except RewriteError as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(case=templates_and_plans())
def test_apply_to_file_matches_every_action_over_every_line(case):
    template, actions = case
    applied = []

    def counted(line, action):
        result = rewrite_line(line, action)
        applied.append(result[1])
        return result

    rewrite_module.rewrite_line = counted
    try:
        got = rewrite_outcome(apply_to_file, template, actions)
    finally:
        rewrite_module.rewrite_line = rewrite_line
    assert got == rewrite_outcome(apply_to_file_reference, template, actions)
    # The dispatch calls rewrite_line only where it rewrites (or raises).
    assert all(applied)


def _refuse_read(path, error):
    raise error(f"{path}: read again")


def test_bundled_templates_are_read_once_per_process(monkeypatch):
    config = mesh16(mpnoc=MpNocKind.CROSSBAR)
    first = generate_in_memory(config)
    monkeypatch.setattr(rewrite_module, "read_text", _refuse_read)
    assert generate_in_memory(config) == first


def _refuse_slot(line, delimiter):
    raise AssertionError(f"slot worked out again: {line!r}")


def test_a_second_generate_writes_each_line_through_its_slot(tmp_path,
                                                             monkeypatch):
    """The first generate from the bundled templates works out the value
    slots its plan needs; a second finds them all and calls neither
    ``rewrite_line`` nor the slot finder."""
    (tmp_path / "image.hex").write_text("1\n")
    config = mesh16(mem_init="image.hex")
    generate(config, tmp_path / "first", mem_search_dir=tmp_path)
    for name, actions in plan_actions_by_file(config).items():
        slots = vars(rewrite_module._bundled_template(name)).get("value_slots", {})
        assert {(a.anchor, a.delimiter) for a in actions} <= slots.keys(), name
    calls = []
    monkeypatch.setattr(rewrite_module, "rewrite_line",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(rewrite_module, "_value_slot", _refuse_slot)
    report = generate(config, tmp_path / "second", mem_search_dir=tmp_path)
    assert calls == []
    assert report.lines_rewritten == 13
    assert read_outputs(tmp_path / "first") == read_outputs(tmp_path / "second")


def test_a_failed_bundled_read_is_not_cached(monkeypatch):
    expected = generate_in_memory(mesh16())
    rewrite_module._bundled_template.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(rewrite_module, "read_text", _refuse_read)
        with pytest.raises(RewriteError, match="read again"):
            generate_in_memory(mesh16())
    assert generate_in_memory(mesh16()) == expected


def test_a_template_dir_is_read_on_every_call(tmp_path):
    templates = tmp_path / "templates"
    shutil.copytree(bundled_template_dir(), templates)
    config = mesh16()
    before, rewritten = generate_in_memory(config, templates)
    assert (before, rewritten) == generate_in_memory(config)
    with open(templates / "user_library.vhd", "a", encoding="utf-8") as f:
        f.write("-- edited\n")
    with open(templates / "pack_mppsoc.vhd", "a", encoding="utf-8") as f:
        f.write("constant sl_nb_rows : integer := 1;\n")
    after, rewritten_after = generate_in_memory(config, templates)
    assert after["user_library.vhd"] == before["user_library.vhd"] + "-- edited\n"
    assert after["pack_mppsoc.vhd"] == (before["pack_mppsoc.vhd"]
                                        + "constant sl_nb_rows : integer := 4;\n")
    assert rewritten_after == rewritten + 1


def test_a_template_missing_from_a_template_dir_fails_every_call(tmp_path):
    templates = tmp_path / "templates"
    shutil.copytree(bundled_template_dir(), templates)
    generate_in_memory(mesh16(), templates)
    (templates / "mem_pe.vhd").unlink()
    for _ in range(2):
        with pytest.raises(TemplateMissing, match="mem_pe.vhd"):
            generate_in_memory(mesh16(), templates)
