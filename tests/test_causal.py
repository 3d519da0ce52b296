"""Structure builders, graph queries and d-separation."""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrocone.causal import (CausalStructure, Node, ancestor_disjoint_pairs,
                              bell_structure, build_line_structure,
                              build_post_selected_line, clash_masks, d_separated,
                              observed_independence_constraints,
                              reduced_line_structure, structure_from_name)
from entrocone.cli import main
from entrocone.distributions import compile_model
from entrocone.entropy_space import BlockSplit, CoordinateIndex, substitute_contiguous
from entrocone.errors import InvalidParameter

from conftest import descendants, dsep_bruteforce, hidden_ids, random_dag, random_model
from oracles import conditional_mutual_information_bits, form_text


class TestBuilders:
    def test_line_structure_shape(self):
        g = build_line_structure(4)
        assert g.observed_ids() == ("X1", "X2", "X3", "X4")
        assert hidden_ids(g) == ("C1", "C2", "C3")
        assert len(g.edges) == 6

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8])
    def test_line_structure_counts(self, n):
        g = build_line_structure(n)
        assert len(g.nodes) == n + (n - 1)
        assert len(g.edges) == 2 * (n - 1)

    def test_line_structure_rejects_zero(self):
        with pytest.raises(InvalidParameter):
            build_line_structure(0)

    def test_single_node_line(self):
        g = build_line_structure(1)
        assert g.node_ids() == ("X1",)
        assert g.edges == ()

    def test_post_selected_3(self):
        g = build_post_selected_line(3)
        assert g.observed_ids() == ("X0", "X1", "Y", "Z0", "Z1")
        assert hidden_ids(g) == ("C", "D")
        assert set(g.edges) == {("C", "X0"), ("C", "X1"), ("C", "Y"),
                                ("D", "Y"), ("D", "Z0"), ("D", "Z1")}

    def test_post_selected_4(self):
        g = build_post_selected_line(4)
        assert g.observed_ids() == ("X0", "X1", "Y", "Z", "W0", "W1")
        assert len(hidden_ids(g)) == 3

    def test_post_selected_rejects_small(self):
        with pytest.raises(InvalidParameter):
            build_post_selected_line(2)

    def test_post_selected_outer_nodes_share_no_ancestor(self):
        g = build_post_selected_line(3)
        assert not (g.ancestor_closure(["X0"]) & g.ancestor_closure(["Z0"]))

    def test_bell_matches_reduced_line(self):
        bell = bell_structure()
        assert bell.node_ids() == ("A", "X", "Y", "B", "C")
        assert set(bell.edges) == {("A", "X"), ("C", "X"), ("C", "Y"), ("B", "Y")}

    @pytest.mark.parametrize("names", [(), ("A",), ("A", "B")])
    def test_reduced_line_needs_three_names(self, names):
        with pytest.raises(InvalidParameter, match="at least 3 names"):
            reduced_line_structure(names)

    def test_structure_from_name(self):
        assert structure_from_name("pn:5").observed_ids() == tuple(f"X{i}" for i in range(1, 6))
        assert structure_from_name("bell").name == "bell"
        assert structure_from_name("ptilde:3").name == "ptilde:3"
        with pytest.raises(InvalidParameter):
            structure_from_name("qn:3")
        with pytest.raises(InvalidParameter):
            structure_from_name("pn:x")

    def test_selectors_stop_at_twenty_observed_nodes(self):
        assert len(structure_from_name("pn:20").observed_ids()) == 20
        assert len(structure_from_name("ptilde:18").observed_ids()) == 20
        for name, observed in (("pn:21", 21), ("ptilde:19", 21), ("pn:100000", 100000)):
            with pytest.raises(InvalidParameter,
                               match=f"'{name}' has {observed} observed nodes; the ceiling is 20"):
                structure_from_name(name)

    def test_structure_files_stop_at_twenty_observed_nodes(self):
        def text(observed, unobserved):
            return json.dumps({"nodes": [{"id": f"X{i}"} for i in range(observed)]
                               + [{"id": f"C{i}", "kind": "unobserved"}
                                  for i in range(unobserved)]})
        assert len(CausalStructure.from_json(text(20, 5)).observed_ids()) == 20
        with pytest.raises(InvalidParameter,
                           match="structure file has 21 observed nodes; the ceiling is 20"):
            CausalStructure.from_json(text(21, 0))

    def test_cycle_rejected(self):
        with pytest.raises(InvalidParameter):
            CausalStructure((Node("a", "observed"), Node("b", "observed")),
                            (("a", "b"), ("b", "a")))

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(InvalidParameter):
            CausalStructure((Node("a", "observed"),), (("a", "b"),))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidParameter):
            CausalStructure((Node("a", "observed"), Node("a", "unobserved")), ())

    def test_json_round_trip(self):
        g = build_post_selected_line(3)
        again = CausalStructure.from_json(g.to_json())
        assert again.node_ids() == g.node_ids()
        assert again.edges == g.edges

    def test_json_diagnostics_name_the_field(self, tmp_path, capsys):
        with pytest.raises(InvalidParameter, match="nodes"):
            CausalStructure.from_json('{"edges": []}')
        with pytest.raises(InvalidParameter, match=r"nodes\[0\]"):
            CausalStructure.from_json('{"nodes": [{"kind": "observed"}]}')
        with pytest.raises(InvalidParameter, match=r"edges\[0\]"):
            CausalStructure.from_json('{"nodes": [{"id": "a"}], "edges": [["a"]]}')
        with pytest.raises(InvalidParameter, match="'nodes' must be a list"):
            CausalStructure.from_json('{"nodes": 5}')
        with pytest.raises(InvalidParameter, match="'edges' must be a list"):
            CausalStructure.from_json('{"nodes": [{"id": "a"}], "edges": 5}')
        # ids and endpoints are nonempty strings, never coerced with str()
        for text, field in [
                ('{"nodes": [{"id": [1]}, {"id": null}], "edges": [[[1], "None"]]}', "nodes[0].id"),
                ('{"nodes": [{"id": "a"}, {"id": null}]}', "nodes[1].id"),
                ('{"nodes": [{"id": 3}]}', "nodes[0].id"),
                ('{"nodes": [{"id": ""}]}', "nodes[0].id"),
                ('{"nodes": [{"id": "a"}, {"id": "b"}], "edges": [["a", 1]]}', "edges[0]"),
                ('{"nodes": [{"id": "a"}, {"id": "b"}], "edges": [["a", "b"], [null, "b"]]}',
                 "edges[1]"),
                ('{"nodes": [{"id": "a"}], "edges": [["a", ""]]}', "edges[0]")]:
            with pytest.raises(InvalidParameter, match=re.escape(field)):
                CausalStructure.from_json(text)
            path = tmp_path / "structure.json"
            path.write_text(text)
            assert main(["outer", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and field in captured.err


class TestGraphMaps:
    def test_caller_mutation_does_not_leak(self):
        g = build_line_structure(4)
        parents = g.parents_map()
        parents["X2"].append("X1")
        parents["X3"].clear()
        del parents["X1"]
        assert g.parents_map()["X2"] == ["C1", "C2"]
        assert g.parents_map()["X3"] == ["C2", "C3"]
        assert descendants(g, "C1") == {"X1", "X2"}
        assert g.ancestor_closure(["X3"]) == {"X3", "C2", "C3"}
        assert not d_separated(g, {"X2"}, {"X3"}, set())
        assert g.parents_map() is not g.parents_map()

    def test_maps_list_links_in_node_order(self):
        g = CausalStructure((Node("a", "observed"), Node("b", "observed"),
                             Node("c", "observed")), (("b", "c"), ("a", "c")))
        assert g.parents_map() == {"a": [], "b": [], "c": ["a", "b"]}


class TestDSeparation:
    def test_line4_observed_independences(self):
        g = build_line_structure(4)
        assert d_separated(g, {"X1"}, {"X3", "X4"}, set())
        assert d_separated(g, {"X1", "X2"}, {"X4"}, set())
        assert not d_separated(g, {"X2"}, {"X3"}, set())

    def test_gap_split_is_separated(self):
        # prefix and suffix of a line, skipping one interior node
        for n in (4, 5, 6):
            g = build_line_structure(n)
            for k in range(2, n):
                left = {f"X{i}" for i in range(1, k)}
                right = {f"X{i}" for i in range(k + 1, n + 1)}
                assert d_separated(g, left, right, set())

    def test_collider_conditioning_opens_path(self):
        g = build_line_structure(3)
        assert d_separated(g, {"X1"}, {"X3"}, set())
        # conditioning on the middle outcome opens the collider
        assert not d_separated(g, {"X1"}, {"X3"}, {"X2"})

    def test_descendant_of_collider_opens_path(self):
        g = CausalStructure(
            (Node("a", "observed"), Node("b", "observed"), Node("c", "observed"),
             Node("d", "observed")),
            (("a", "c"), ("b", "c"), ("c", "d")))
        assert d_separated(g, {"a"}, {"b"}, set())
        assert not d_separated(g, {"a"}, {"b"}, {"d"})

    def test_invalid_arguments(self):
        g = build_line_structure(3)
        with pytest.raises(InvalidParameter):
            d_separated(g, {"X1"}, {"X1"}, set())
        with pytest.raises(InvalidParameter):
            d_separated(g, {"X1"}, {"nope"}, set())

    def test_symmetry_and_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            g = random_dag(rng, int(rng.integers(3, 8)))
            names = list(g.node_ids())
            rng.shuffle(names)
            cut = sorted(rng.choice(len(names), size=2, replace=False))
            xs = set(names[: cut[0] + 1])
            ys = set(names[cut[0] + 1: cut[1] + 1])
            zs = set(names[cut[1] + 1:][: int(rng.integers(0, 3))])
            if not xs or not ys:
                continue
            sep = d_separated(g, xs, ys, zs)
            assert sep == d_separated(g, ys, xs, zs)
            if sep:
                for x_sub in itertools.combinations(sorted(xs), 1):
                    for y_sub in itertools.combinations(sorted(ys), 1):
                        assert d_separated(g, set(x_sub), set(y_sub), zs)

    def test_matches_bruteforce_on_random_dags(self):
        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(40):
            g = random_dag(rng, int(rng.integers(3, 8)))
            names = g.node_ids()
            for _ in range(12):
                picks = rng.choice(3, size=len(names))
                xs = {v for v, p in zip(names, picks) if p == 0 and rng.random() < 0.7}
                ys = {v for v, p in zip(names, picks) if p == 1 and rng.random() < 0.7}
                zs = {v for v, p in zip(names, picks) if p == 2 and rng.random() < 0.5}
                if not xs or not ys:
                    continue
                assert d_separated(g, xs, ys, zs) == dsep_bruteforce(g, xs, ys, zs)
                checked += 1
        assert checked > 100

    def test_matches_bruteforce_on_builtins(self):
        for g in (build_line_structure(4), build_post_selected_line(3), bell_structure()):
            names = g.node_ids()
            for picks in itertools.product(range(3), repeat=len(names)):
                xs = {v for v, p in zip(names, picks) if p == 0}
                ys = {v for v, p in zip(names, picks) if p == 1}
                if not xs or not ys or len(xs) > 2 or len(ys) > 2:
                    continue
                zs = {v for v, p in zip(names, picks) if p == 2}
                assert d_separated(g, xs, ys, zs) == dsep_bruteforce(g, xs, ys, zs)

    def test_sampled_soundness(self):
        # compiled models satisfy I(X:Y|Z) = 0 on every d-separated triple
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_dag(rng, int(rng.integers(3, 6)))
            model = random_model(rng, g)
            joint = compile_model(model)
            names = g.node_ids()
            for picks in itertools.product(range(3), repeat=len(names)):
                xs = [v for v, p in zip(names, picks) if p == 0]
                ys = [v for v, p in zip(names, picks) if p == 1]
                zs = [v for v, p in zip(names, picks) if p == 2]
                if not xs or not ys:
                    continue
                if d_separated(g, xs, ys, zs):
                    assert abs(conditional_mutual_information_bits(joint, xs, ys, zs)) < 1e-9


INDEPENDENCE_BUILTINS = [*(f"pn:{n}" for n in range(1, 9)), "bell", "ptilde:3", "ptilde:4"]


class TestObservedIndependences:
    def test_line4_matches_known_pair(self):
        # the two pairs that cannot grow, and the three they imply
        g = build_line_structure(4)
        idx = CoordinateIndex(g.observed_ids())
        forms = observed_independence_constraints(g)
        texts = {form_text(f, idx) for f in forms}
        assert texts == {"+H(X1)+H(X3X4)-H(X1X3X4)", "+H(X4)+H(X1X2)-H(X1X2X4)",
                         "+H(X1)+H(X3)-H(X1X3)", "+H(X1)+H(X4)-H(X1X4)",
                         "+H(X2)+H(X4)-H(X2X4)"}

    def test_single_node_empty(self):
        assert observed_independence_constraints(build_line_structure(1)) == ()

    def test_post_selected_3_maximal(self):
        # the maximal pair and the marginal independences it implies are all listed
        g = build_post_selected_line(3)
        idx = CoordinateIndex(g.observed_ids())
        texts = {form_text(f, idx) for f in observed_independence_constraints(g)}
        assert {"+H(X0X1)+H(Z0Z1)-H(X0X1Z0Z1)", "+H(X0)+H(Z0)-H(X0Z0)"} <= texts

    # the two invariants the pipelines rely on without checking them per form
    def test_all_forms_certified_by_d_separation(self):
        for name in INDEPENDENCE_BUILTINS:
            _check_d_separated(structure_from_name(name))

    def test_all_forms_vanish_in_block_coordinates(self):
        for name in INDEPENDENCE_BUILTINS:
            _check_vanish_in_blocks(structure_from_name(name))


def _check_d_separated(structure):
    """Each ancestor-disjoint pair is d-separated given the empty set."""
    pairs = ancestor_disjoint_pairs(structure)
    assert len(pairs) == len(observed_independence_constraints(structure))
    for s, t in pairs:
        assert d_separated(structure, s, t, set())


def _check_vanish_in_blocks(structure):
    """Each form I(S:T) is zero once every subset entropy is its blocks' sum."""
    forms = observed_independence_constraints(structure)
    if not structure.observed_ids():
        assert forms == ()
        return
    index = CoordinateIndex(structure.observed_ids())
    split = BlockSplit(index, clash_masks(structure, index.variables))
    assert not any(map(any, substitute_contiguous(split, forms)))


# -- oracle: the 3^m assignment scan that the bitmask pass replaced ------------

def _scan_ancestor_disjoint_pairs(structure):
    """Every way to put each observed node in S, in T or in neither."""
    observed = structure.observed_ids()
    m = len(observed)
    if m < 2:
        return []
    closures = {v: structure.ancestor_closure([v]) for v in observed}
    order = {v: i for i, v in enumerate(observed)}
    seen = set()
    pairs = []
    for assignment in range(3 ** m):
        s, t = [], []
        rem = assignment
        for v in observed:
            rem, which = divmod(rem, 3)
            if which == 0:
                s.append(v)
            elif which == 1:
                t.append(v)
        if not s or not t:
            continue
        anc_s = set().union(*(closures[v] for v in s))
        anc_t = set().union(*(closures[v] for v in t))
        if anc_s & anc_t:
            continue
        key = frozenset((frozenset(s), frozenset(t)))
        if key in seen:
            continue
        seen.add(key)
        if min(order[v] for v in t) < min(order[v] for v in s):
            s, t = t, s
        pairs.append((frozenset(s), frozenset(t)))
    pairs.sort(key=lambda st: (sorted(order[v] for v in st[0]),
                               sorted(order[v] for v in st[1])))
    return pairs


@st.composite
def _dags(draw):
    """DAGs of up to 8 nodes, edges from earlier to later nodes, kinds mixed."""
    n = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(["observed", "unobserved"]), min_size=n, max_size=n))
    nodes = tuple(Node(f"N{i}", kind) for i, kind in enumerate(kinds))
    edges = tuple((f"N{i}", f"N{j}") for i in range(n) for j in range(i + 1, n)
                  if draw(st.booleans()))
    return CausalStructure(nodes, edges)


@settings(max_examples=150, deadline=None)
@given(_dags())
def test_pairs_match_the_assignment_scan_on_random_dags(structure):
    assert ancestor_disjoint_pairs(structure) == _scan_ancestor_disjoint_pairs(structure)


@settings(max_examples=150, deadline=None)
@given(_dags())
def test_all_forms_certified_by_d_separation_on_random_dags(structure):
    _check_d_separated(structure)


@settings(max_examples=150, deadline=None)
@given(_dags())
def test_all_forms_vanish_in_block_coordinates_on_random_dags(structure):
    _check_vanish_in_blocks(structure)


@pytest.mark.parametrize("name", [*(f"pn:{n}" for n in range(1, 9)), "bell",
                                  "ptilde:3", "ptilde:4", "ptilde:5"])
def test_pairs_match_the_assignment_scan_on_builtins(name):
    structure = structure_from_name(name)
    assert ancestor_disjoint_pairs(structure) == _scan_ancestor_disjoint_pairs(structure)
