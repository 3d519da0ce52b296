"""Malformed input files parse or are refused with InvalidParameter, never with a traceback."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entrocone import analysis
from entrocone.causal import CausalStructure, structure_from_name
from entrocone.cli import main
from entrocone.distributions import bc_functional, compile_model, model_from_json, tables_from_json
from entrocone.errors import InvalidModel, InvalidParameter
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


_IDS = st.sampled_from(["A", "B", "X1", "X2", "C1"]) | st.text(max_size=2)
_NUMBERS = st.sampled_from([0, 0.25, 0.5, 1]) | st.floats() | JSON_VALUES
_TWO_NODES = {"nodes": [{"id": "A"}, {"id": "B"}], "edges": [["A", "B"]]}
_VALID_MODEL = {"structure": _TWO_NODES, "alphabets": {"A": 2, "B": 2},
                "cpts": {"A": [0.5, 0.5], "B": [[1, 0], [0, 1]]}}
MISSING_PARENT_ALPHABET = {"structure": "pn:2", "alphabets": {"X1": 0}, "cpts": {"X1": [1]}}
# B's CPT shape reads its parents (C, C), and the joint cannot hold it
REPEATED_EDGE = {"nodes": [{"id": "C"}, {"id": "B"}], "edges": [["C", "B"], ["C", "B"]]}
REPEATED_EDGE_MODEL = {"structure": REPEATED_EDGE, "alphabets": {"C": 2, "B": 2},
                       "cpts": {"C": [0.5, 0.5], "B": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}}


@st.composite
def _model_texts(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=12) | JSON_VALUES.map(json.dumps))
    vector = st.lists(_NUMBERS, max_size=3)
    cpt = (st.sampled_from([[1], [0.5, 0.5], [[1, 0], [0, 1]], [[0.5, 0.5], [0.5, 0.5]]])
           | vector | st.lists(vector, max_size=3) | JSON_VALUES)
    return json.dumps(_fields(draw, {
        "structure": st.sampled_from(["pn:1", "pn:2", "bell", _TWO_NODES]) | JSON_VALUES,
        "alphabets": st.dictionaries(_IDS, st.integers(-1, 3) | JSON_VALUES, max_size=4)
                     | JSON_VALUES,
        "cpts": st.dictionaries(_IDS, cpt, max_size=4) | JSON_VALUES}))


@settings(max_examples=300, deadline=None)
@given(_model_texts())
@example(json.dumps(_VALID_MODEL))
@example(json.dumps({**_VALID_MODEL, "cpts": {"A": [math.nan, 0.5], "B": [[1, 0], [0, 1]]}}))
@example(json.dumps({**_VALID_MODEL, "cpts": {"A": [None, 1], "B": [[1, 0], [0, 1]]}}))
@example(json.dumps({**_VALID_MODEL, "cpts": {"A": ["0.5", "0.5"], "B": [[1, 0], [0, 1]]}}))
@example(json.dumps(MISSING_PARENT_ALPHABET))  # X1's shape needs C1's alphabet
@example(json.dumps(REPEATED_EDGE_MODEL))
def test_model_files_compile_or_are_refused(text):
    try:
        joint = compile_model(model_from_json(text))
    except (InvalidParameter, InvalidModel):
        return
    assert np.isfinite(joint.table).all() and joint.table.sum() == pytest.approx(1)


_VALID_TABLE = [[0.5, 0], [0, 0.5]]


@st.composite
def _tables_texts(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=12) | JSON_VALUES.map(json.dumps))
    nx, ny = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
    table = (st.just(_VALID_TABLE) | st.sampled_from([[[1]], [[0.5, 0.5]]])
             | st.lists(st.lists(_NUMBERS, min_size=max(ny, 0), max_size=max(ny, 0)),
                        min_size=max(nx, 0), max_size=max(nx, 0))
             | JSON_VALUES)
    keys = ("00", "01", "10", "11")
    return json.dumps(_fields(draw, {
        "alphabets": st.just([nx, ny]) | st.just([2, 2]) | JSON_VALUES,
        "tables": st.fixed_dictionaries({}, optional=dict.fromkeys(keys, table))
                  | JSON_VALUES}))


def _tables(table):
    return json.dumps({"alphabets": [2, 2], "tables": dict.fromkeys(("00", "01", "10", "11"),
                                                                    table)})


@settings(max_examples=300, deadline=None)
@given(_tables_texts())
@example(_tables(_VALID_TABLE))
@example(_tables([[math.nan, 0], [0, 1]]))
@example(_tables([[None, 0], [0, 1]]))
@example(_tables([["0.5", 0], [0, "0.5"]]))
def test_tables_files_evaluate_or_are_refused(text):
    try:
        tables = tables_from_json(text)
        value = bc_functional(tables)
    except (InvalidParameter, InvalidModel):
        return
    assert all(np.isfinite(t).all() for t in tables.values()) and math.isfinite(value)


# selector noise holds no decimal digit, so every size stays at most 12
_NOISE = st.text(st.characters(blacklist_categories=("Nd",)), max_size=3)


@st.composite
def _selectors(draw):
    prefix = draw(st.sampled_from(["pn:", "ptilde:", "bell", "", "PN:"]))
    number = draw(st.sampled_from(["", str(draw(st.integers(-3, 12)))]))
    parts = [prefix, number]
    parts.insert(draw(st.integers(0, 2)), draw(_NOISE))
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(_selectors())
@example("pn: 3")
@example("pn:1_2")
@example("ptilde:+3")
@example("pn:None")
def test_selectors_parse_or_are_refused(name):
    try:
        structure = structure_from_name(name)
    except InvalidParameter:
        return
    assert structure.name == name  # a selector that parses names what it builds


@pytest.mark.parametrize("parse, kind", [
    (model_from_json, "model file"), (tables_from_json, "tables file"),
    (rep_from_json, "cone file"), (CausalStructure.from_json, "structure file"),
], ids=["model_from_json", "tables_from_json", "rep_from_json", "CausalStructure.from_json"])
@pytest.mark.parametrize("text", [HUGE_INTEGER, DEEP_NESTING], ids=["huge-integer", "deep"])
def test_other_readers_refuse_unparsable_json(parse, kind, text):
    with pytest.raises(InvalidParameter, match=f"^{kind} is not valid JSON: "):
        parse(text)


@pytest.mark.parametrize("text, field", [
    ('{"type": "hrep", "dimension": "3"}', "'dimension'"),
    ('{"type": "hrep", "dimension": 0}', "cone file 'dimension' is 0; it must be at least 1"),
    ('{"type": "hrep", "dimension": -3}', "cone file 'dimension' is -3; it must be at least 1"),
    ('{"type": "hrep", "dimension": 2, "inequalities": [[1, 0.5]]}', "inequalities[0]"),
    ('{"type": "hrep", "dimension": 2, "equalities": {"a": 1}}', "'equalities'"),
    ('{"type": "hrep", "dimension": 2, "coordinates": ["a", 1]}', "'coordinates'"),
    ('{"type": "cone", "dimension": 2}', "'type'"),
    (HUGE_INTEGER, "not valid JSON"),
    (DEEP_NESTING, "not valid JSON"),
    # only an absent or null field means "no labels"
    *(('{"type": "hrep", "dimension": 2, "coordinates": %s}' % falsy, "'coordinates'")
      for falsy in ("false", "0", '""', "{}", "[]")),
    # each coordinate is printed under its label, so a label is named once and is not empty
    ('{"type": "hrep", "dimension": 3, "coordinates": ["x", "y", "x"]}',
     "'coordinates' holds the label 'x' 2 times"),
    ('{"type": "hrep", "dimension": 2, "coordinates": ["x", ""]}',
     "'coordinates' holds the empty label ''"),
], ids=["dimension", "dimension-zero", "dimension-negative", "row", "section", "coordinates", "type", "huge-integer", "deep",
        "coordinates-false", "coordinates-0", "coordinates-empty-string",
        "coordinates-empty-object", "coordinates-empty-list", "coordinates-repeated",
        "coordinates-empty-label"])
def test_rays_command_names_the_field(tmp_path, capsys, text, field):
    path = tmp_path / "cone.json"
    path.write_text(text)
    assert main(["rays", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err
    assert "Traceback" not in captured.err


def test_facets_refuses_a_repeated_coordinate(tmp_path, capsys):
    # both coordinates print as x, so the facet x1 - x2 >= 0 would read "+x-x >= 0"
    path = tmp_path / "cone.json"
    path.write_text('{"type": "vrep", "dimension": 2, "coordinates": ["x", "x"], '
                    '"rays": [[1, 0], [1, 1]]}')
    assert main(["facets", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "entrocone: cone file 'coordinates' holds the label 'x' 2 times\n"


@pytest.mark.parametrize("command, kind", [("rays", "hrep"), ("facets", "vrep")])
def test_cone_file_wider_than_the_ceiling_is_refused(tmp_path, capsys, command, kind):
    # a few bytes that would ask the conversion for a dense 40000 x 40000 basis
    path = tmp_path / "wide.json"
    path.write_text('{"type": "%s", "dimension": 40000}' % kind)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cone file 'dimension' is 40000; the ceiling is 4095" in captured.err
    assert "Traceback" not in captured.err
    assert rep_from_json('{"type": "%s", "dimension": 4095}' % kind).dimension == 4095
    with pytest.raises(InvalidParameter, match="'dimension' is 4096; the ceiling is 4095"):
        rep_from_json('{"type": "%s", "dimension": 4096}' % kind)


@pytest.mark.parametrize("command", ["outer", "marginalize"])
def test_structure_without_an_observed_node_is_refused(tmp_path, capsys, command):
    path = tmp_path / "hidden.json"
    path.write_text(json.dumps({"nodes": [{"id": "C", "kind": "unobserved"},
                                          {"id": "D", "kind": "unobserved"}],
                                "edges": [["C", "D"]]}))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "structure has no observed node" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["outer", "marginalize"])
def test_colliding_labels_are_refused_before_a_system_is_built(tmp_path, capsys, monkeypatch,
                                                                command):
    # {A, B} and {AB} would both print as H(AB)
    path = tmp_path / "collide.json"
    path.write_text(json.dumps({"nodes": [{"id": "A"}, {"id": "B"}, {"id": "AB"}]}))

    def unbuilt(*args):
        raise AssertionError("a constraint system was built")

    monkeypatch.setattr(analysis, "elemental_shannon_system", unbuilt)
    monkeypatch.setattr(analysis, "classical_ci_system", unbuilt)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "share the label H(AB)" in captured.err
    assert "Traceback" not in captured.err


# {A, B} and {AB} would both print as H(AB); AB is a constant
COLLIDING_LABELS_MODEL = {"structure": {"nodes": [{"id": "A"}, {"id": "B"}, {"id": "AB"}]},
                          "alphabets": {"A": 2, "B": 2, "AB": 1},
                          "cpts": {"A": [0.5, 0.5], "B": [0.5, 0.5], "AB": [1]}}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_entropy_refuses_colliding_labels(tmp_path, capsys, fmt):
    path = tmp_path / "collide-model.json"
    path.write_text(json.dumps(COLLIDING_LABELS_MODEL))
    assert main(["--format", fmt, "entropy", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "two subsets of nodes share the label H(AB)" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("nodes, edges, named", [
    (["A"], [["A", "A"]], "'A'"),
    # B and C form the cycle and D hangs below it; A is placed, and the names follow node order
    (["D", "B", "A", "C"], [["C", "B"], ["B", "C"], ["C", "D"]], "'D', 'B', 'C'"),
], ids=["self-loop", "two-cycle"])
def test_cycle_is_refused_naming_its_nodes(tmp_path, capsys, nodes, edges, named):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"nodes": [{"id": v} for v in nodes], "edges": edges}))
    assert main(["outer", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("entrocone: edge relation must be acyclic; "
                            f"on a cycle or below one: {named}\n")


# Q is not a node of pn:1; the alphabets are checked before the CPTs
@pytest.mark.parametrize("alphabets, cpts, field", [
    ({"X1": 2, "Q": 3}, {"X1": [0.5, 0.5], "Q": [1, 0]}, "alphabets"),
    ({"X1": 2}, {"X1": [0.5, 0.5], "Q": [1, 0]}, "cpts"),
], ids=["both", "cpts"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_entropy_refuses_a_model_naming_unknown_nodes(tmp_path, capsys, alphabets, cpts, field,
                                                       fmt):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"structure": "pn:1", "alphabets": alphabets, "cpts": cpts}))
    assert main(["--format", fmt, "entropy", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"entrocone: model file invalid: '{field}' names nodes "
                            "the structure lacks: 'Q'\n")


# a structure is named by a selector string or given as a structure object
@pytest.mark.parametrize("structure, shown", [(5, "5"), (None, "null"), (["pn:1"], '["pn:1"]')],
                         ids=["number", "null", "list"])
def test_entropy_refuses_a_structure_of_the_wrong_kind(tmp_path, capsys, structure, shown):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"structure": structure, "alphabets": {}, "cpts": {}}))
    assert main(["entropy", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("entrocone: model file 'structure' must be a structure selector "
                            f"or a structure object, not {shown}\n")


# an inline structure object is refused as the model file's 'structure' field
@pytest.mark.parametrize("structure, message", [
    ({"edges": []}, "the inline structure must be an object with a 'nodes' field"),
    ({"nodes": [{"id": 3}]}, "nodes[0].id must be a nonempty string"),
], ids=["no-nodes", "numeric-id"])
def test_entropy_names_the_inline_structure_field(tmp_path, capsys, structure, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"structure": structure, "alphabets": {}, "cpts": {}}))
    assert main(["entropy", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"entrocone: model file 'structure' is invalid: {message}\n"


# pn:20 with one-valued alphabets: 39 nodes and one joint cell, but 2^39 - 1 subsets
PN20_UNIT_MODEL = {
    "structure": "pn:20",
    "alphabets": {**{f"X{k}": 1 for k in range(1, 21)}, **{f"C{k}": 1 for k in range(1, 20)}},
    "cpts": {**{f"C{k}": [1] for k in range(1, 20)}, "X1": [[1]], "X20": [[1]],
             **{f"X{k}": [[[1]]] for k in range(2, 20)}},
}
# 16 binary roots: 65,536 cells summed once for each of 65,535 subsets
ROOTS16_MODEL = {"structure": {"nodes": [{"id": f"R{k}"} for k in range(16)]},
                 "alphabets": {f"R{k}": 2 for k in range(16)},
                 "cpts": {f"R{k}": [0.5, 0.5] for k in range(16)}}


@pytest.mark.parametrize("model, message", [
    (PN20_UNIT_MODEL, "the entropy vector of 39 nodes is refused; the ceiling is 20 nodes"),
    (ROOTS16_MODEL, "the entropy vector of 16 nodes sums 65536 joint cells for each of "
                    "65535 subsets, 4294901760 in all; the ceiling is 1073741824"),
], ids=["pn20-unit", "roots16"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_entropy_refuses_a_model_above_its_ceilings(tmp_path, capsys, monkeypatch, model,
                                                     message, fmt):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))

    def unbuilt(*args):
        raise AssertionError("the coordinate index was built")

    monkeypatch.setattr("entrocone.distributions.labeled_index", unbuilt)
    assert main(["--format", fmt, "entropy", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"entrocone: {message}\n"


# an alphabet size below 1 is refused by name, before any CPT shape or sum is read
@pytest.mark.parametrize("size, cpt", [(-1, [1]), (0, [])], ids=["negative", "zero"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_entropy_refuses_an_alphabet_below_one(tmp_path, capsys, size, cpt, fmt):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"structure": "pn:1", "alphabets": {"X1": size},
                                "cpts": {"X1": cpt}}))
    assert main(["--format", fmt, "entropy", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"entrocone: model file invalid: 'alphabets' gives 'X1' the size "
                            f"{size}; an alphabet size must be at least 1\n")


@pytest.mark.parametrize("sizes, named", [([2, 0], "'Y' the size 0"), ([-1, 2], "'X' the size -1")],
                         ids=["y-zero", "x-negative"])
def test_bc_eval_refuses_an_alphabet_below_one(tmp_path, capsys, sizes, named):
    nx, ny = (max(size, 0) for size in sizes)
    table = [[0.0] * ny for _ in range(nx)]
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"alphabets": sizes,
                                "tables": dict.fromkeys(("00", "01", "10", "11"), table)}))
    assert main(["bc-eval", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"entrocone: 'alphabets' gives {named}; "
                            "an alphabet size must be at least 1\n")


def test_bc_eval_prints_a_table_sum_as_a_plain_number(tmp_path, capsys):
    path = tmp_path / "tables.json"
    uniform = [[0.25, 0.25], [0.25, 0.25]]
    path.write_text(json.dumps({"alphabets": [2, 2], "tables": {
        "00": [[0.5, 0.4], [0.0, 0.0]], "01": uniform, "10": uniform, "11": uniform}}))
    assert main(["bc-eval", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "entrocone: table (0, 0) sums to 0.9, not 1\n"
