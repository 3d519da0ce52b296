"""Malformed input files parse or are refused with InvalidParameter, never with a traceback."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from entrocone.causal import CausalStructure
from entrocone.cli import main
from entrocone.distributions import model_from_json, tables_from_json
from entrocone.errors import InvalidParameter
from entrocone.polyhedra import HRep, VRep, rep_from_json

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=12)


def _fields(draw, fields):
    """A dict holding a random subset of ``fields``, plus perhaps one stray key."""
    data = {key: draw(value) for key, value in fields.items() if draw(st.booleans())}
    if draw(st.booleans()):
        data[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    return data


@st.composite
def _cone_texts(draw):
    if draw(st.integers(0, 4)) == 0:  # anything at all
        return draw(st.text(max_size=12) | JSON_VALUES.map(json.dumps))
    dim = draw(st.integers(-1, 6))
    entry = st.integers(-3, 3) | JSON_VALUES
    row = st.lists(entry, min_size=max(dim, 0), max_size=max(dim, 0)) | JSON_VALUES
    rows = st.lists(row, max_size=3) | JSON_VALUES
    labels = st.lists(st.text(max_size=2) | JSON_VALUES, min_size=max(dim, 0),
                      max_size=max(dim, 0))
    return json.dumps(_fields(draw, {
        "type": st.sampled_from(["hrep", "vrep"]) | JSON_VALUES,
        "dimension": st.just(dim) | st.floats(-1, 6) | st.booleans() | JSON_VALUES,
        "coordinates": labels | JSON_VALUES,
        "equalities": rows, "inequalities": rows, "rays": rows, "lineality": rows}))


@st.composite
def _structure_texts(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=12) | JSON_VALUES.map(json.dumps))
    ids = st.sampled_from(["A", "B", "C"]) | JSON_VALUES
    kinds = st.sampled_from(["observed", "unobserved"]) | JSON_VALUES
    node = st.fixed_dictionaries({}, optional={"id": ids, "kind": kinds})
    edge = st.lists(ids, min_size=2, max_size=2) | JSON_VALUES
    return json.dumps(_fields(draw, {
        "nodes": st.lists(node | JSON_VALUES, max_size=4) | JSON_VALUES,
        "edges": st.lists(edge, max_size=4) | JSON_VALUES}))


# an integer literal over Python's 4,300-digit conversion limit, and nesting
# deeper than the recursion limit, used to escape as ValueError/RecursionError
HUGE_INTEGER = '{"type": "hrep", "dimension": ' + "1" * 5000 + "}"
DEEP_NESTING = "[" * 100_000 + "]" * 100_000


@settings(max_examples=300, deadline=None)
@given(_cone_texts())
@example(HUGE_INTEGER)
@example(DEEP_NESTING)
@example('{"type": "hrep", "dimension": 2, "inequalities": [[NaN, 1]]}')
def test_cone_files_parse_or_are_refused(text):
    try:
        rep = rep_from_json(text)
    except InvalidParameter:
        return
    assert isinstance(rep, (HRep, VRep)) and rep.dimension >= 1


@settings(max_examples=300, deadline=None)
@given(_structure_texts())
@example(HUGE_INTEGER.replace('"type"', '"nodes"'))
@example(DEEP_NESTING)
@example('{"nodes": [{"id": "A"}], "edges": [["A", "A"]]}')  # a cycle
def test_structure_files_parse_or_are_refused(text):
    try:
        structure = CausalStructure.from_json(text)
    except InvalidParameter:
        return
    assert isinstance(structure, CausalStructure)


@pytest.mark.parametrize("parse", [model_from_json, tables_from_json])
@pytest.mark.parametrize("text", [HUGE_INTEGER, DEEP_NESTING], ids=["huge-integer", "deep"])
def test_other_readers_refuse_unparsable_json(parse, text):
    with pytest.raises(InvalidParameter, match="not valid JSON"):
        parse(text)


@pytest.mark.parametrize("text, field", [
    ('{"type": "hrep", "dimension": "3"}', "'dimension'"),
    ('{"type": "hrep", "dimension": 2, "inequalities": [[1, 0.5]]}', "inequalities[0]"),
    ('{"type": "hrep", "dimension": 2, "equalities": {"a": 1}}', "'equalities'"),
    ('{"type": "hrep", "dimension": 2, "coordinates": ["a", 1]}', "'coordinates'"),
    ('{"type": "cone", "dimension": 2}', "'type'"),
    (HUGE_INTEGER, "not valid JSON"),
    (DEEP_NESTING, "not valid JSON"),
], ids=["dimension", "row", "section", "coordinates", "type", "huge-integer", "deep"])
def test_rays_command_names_the_field(tmp_path, capsys, text, field):
    path = tmp_path / "cone.json"
    path.write_text(text)
    assert main(["rays", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err
    assert "Traceback" not in captured.err
