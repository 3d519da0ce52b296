"""Coordinate order, constraint generation and the block reduction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrocone.causal import (build_line_structure, bell_structure, clash_masks,
                              observed_independence_constraints, structure_from_name)
from entrocone.distributions import compile_model, entropy_vector
from entrocone.entropy_space import (BlockSplit, CoordinateIndex,
                                     classical_ci_system, conditional_mutual_information,
                                     contiguous_decomposition_equalities,
                                     elemental_forms, elemental_shannon_system,
                                     reduced_line_system,
                                     substitute_contiguous, system_rows)
from entrocone.errors import InvalidParameter
from entrocone.polyhedra import Echelon, primitive

from conftest import dsep_bruteforce, local_markov_system, random_dag, random_model
from oracles import evaluate, form_text, fraction_primitive, mask_of, sparse


class TestCoordinateIndex:
    def test_bell_order_is_cardinality_then_position(self):
        idx = CoordinateIndex(("A", "X", "Y", "B"))
        assert idx.labels == (
            "H(A)", "H(X)", "H(Y)", "H(B)",
            "H(AX)", "H(AY)", "H(AB)", "H(XY)", "H(XB)", "H(YB)",
            "H(AXY)", "H(AXB)", "H(AYB)", "H(XYB)", "H(AXYB)")

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_size(self, n):
        idx = CoordinateIndex(tuple(f"V{i}" for i in range(n)))
        assert len(idx) == 2 ** n - 1

    def test_unknown_variable(self):
        idx = CoordinateIndex(("A",))
        with pytest.raises(InvalidParameter, match="is not a coordinate"):
            idx.position(0b10)

    def test_restrict_keeps_order(self):
        idx = CoordinateIndex(("A", "B", "C"))
        sub = idx.restrict([mask_of(idx, "A"), mask_of(idx, "AB"), mask_of(idx, "B")])
        assert sub.labels == ("H(A)", "H(B)", "H(AB)")

    def test_duplicate_variables_rejected(self):
        with pytest.raises(InvalidParameter):
            CoordinateIndex(("A", "A"))


class TestForms:
    def test_cmi_expansion(self):
        idx = CoordinateIndex(("A", "B", "C"))
        form = conditional_mutual_information(mask_of(idx, "A"), mask_of(idx, "B"),
                                              mask_of(idx, "C"))
        assert form_text(form, idx) == "-H(C)+H(AC)+H(BC)-H(ABC)"

    def test_unconditional_mi(self):
        idx = CoordinateIndex(("A", "B"))
        form = conditional_mutual_information(1, 2)
        assert form_text(form, idx) == "+H(A)+H(B)-H(AB)"

    def test_overlap_rejected(self):
        with pytest.raises(InvalidParameter):
            conditional_mutual_information(1, 1)

    def test_row_and_evaluate_agree(self):
        idx = CoordinateIndex(("A", "B", "C"))
        form = conditional_mutual_information(1, 2, 4)
        row = form.row(idx)
        values = np.arange(1.0, 8.0)
        direct = evaluate(form, values, idx)
        assert direct == pytest.approx(sum(float(c) * v for c, v in zip(row, values)))

    def test_evaluate_is_exact_on_integers(self):
        # I(X1:X2) = 1 here; a float sum loses the 1 next to 2^61 and gives 0.0
        idx = CoordinateIndex(("X1", "X2"))
        values = (2 ** 60 + 1, 2 ** 60 + 1, 2 ** 61 + 1)
        value = evaluate(conditional_mutual_information(1, 2), values, idx)
        assert value == 1 and type(value) is int


class TestElementalSystem:
    @pytest.mark.parametrize("n,count", [(2, 3), (3, 9), (4, 28), (5, 85),
                                         (6, 246), (7, 679), (8, 1800)])
    def test_minimal_count(self, n, count):
        system = elemental_shannon_system([f"X{i}" for i in range(n)])
        assert len(system.inequalities) == count
        assert count == n + n * (n - 1) * 2 ** (n - 3)

    def test_single_variable_positivity(self):
        system = elemental_shannon_system(["X"])
        assert len(system.inequalities) == 1
        assert form_text(system.inequalities[0], system.index) == "+H(X)"

    def test_two_variable_forms(self):
        system = elemental_shannon_system(["X", "Y"])
        texts = {form_text(f, system.index) for f in system.inequalities}
        assert texts == {"-H(X)+H(XY)", "-H(Y)+H(XY)",
                         "+H(X)+H(Y)-H(XY)"}

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameter):
            elemental_shannon_system([])

    def test_holds_on_sampled_distributions(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = build_line_structure(int(rng.integers(2, 5)))
            model = random_model(rng, g)
            joint = compile_model(model)
            system = elemental_shannon_system(joint.variables)
            vector = entropy_vector(joint)
            for form in system.inequalities:
                assert evaluate(form, vector.values, system.index) >= -1e-9


def _spans(system, form):
    """Whether the form's row lies in the span of the system's equality rows."""
    span = Echelon(sparse(f.row(system.index)) for f in system.equalities)
    return not span.add(sparse(form.row(system.index)))


class TestClassicalCI:
    # pn:3 and bell have 5 nodes, so 5 + 10 * 8 = 85 elemental forms
    @pytest.mark.parametrize("name, equalities, inequalities", [
        ("pn:3", 31, 54), ("bell", 31, 54), ("pn:4", 351, 328), ("ptilde:3", 320, 359)])
    def test_equality_split(self, name, equalities, inequalities):
        system = classical_ci_system(structure_from_name(name))
        assert (len(system.equalities), len(system.inequalities)) == (equalities, inequalities)

    def test_bell_contains_local_causality_marginal(self):
        system = classical_ci_system(bell_structure())
        index = system.index
        # I(X : YB | AC) = 0, X's local Markov condition, is a sum of stated equalities
        form = conditional_mutual_information(mask_of(index, "X"), mask_of(index, "YB"),
                                              mask_of(index, "AC"))
        assert form_text(form, index) == "-H(AC)+H(AXC)+H(AYBC)-H(AXYBC)"
        assert _spans(system, form)

    def test_root_node_unconditional(self):
        system = classical_ci_system(bell_structure())
        texts = {form_text(f, system.index) for f in system.equalities}
        # C has no parents and non-descendants {A, B}: I(C:AB) = I(A:C) + I(B:C|A)
        assert {"+H(A)+H(C)-H(AC)", "-H(A)+H(AB)+H(AC)-H(ABC)"} <= texts

    def test_every_node_with_nondescendants_contributes(self):
        g = build_line_structure(4)
        system = classical_ci_system(g)
        local = local_markov_system(g)
        assert len(local.equalities) == len(g.nodes)  # every node qualifies here
        assert all(_spans(system, form) for form in local.equalities)

    def test_holds_on_sampled_distributions(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = build_line_structure(int(rng.integers(2, 4)))
            model = random_model(rng, g)
            joint = compile_model(model)
            system = classical_ci_system(g)
            vector = entropy_vector(joint)
            for form in system.equalities:
                assert abs(evaluate(form, vector.values, system.index)) < 1e-9

    def test_equalities_are_the_d_separated_elemental_rows(self, rng):
        # each I(i:j|K) is stated as an equality exactly when the path-by-path
        # oracle finds i and j d-separated by K; monotonicities stay inequalities
        for _ in range(30):
            g = random_dag(rng, int(rng.integers(2, 6)))
            names = g.node_ids()
            system = classical_ci_system(g)
            stated = {f.coefficients for f in system.equalities}
            forms = elemental_forms((1 << len(names)) - 1)
            for form, cmi in forms:
                separated = cmi is not None and dsep_bruteforce(
                    g, *({names[p] for p in range(len(names)) if m >> p & 1} for m in cmi))
                assert (form.coefficients in stated) == separated
            assert len(system.equalities) + len(system.inequalities) == len(forms)

    def test_spans_the_local_markov_equalities(self, rng):
        for _ in range(30):
            g = random_dag(rng, int(rng.integers(2, 6)))
            system = classical_ci_system(g)
            assert all(_spans(system, form) for form in local_markov_system(g).equalities)


class TestReducedSystem:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (4, 10), (5, 15), (7, 28)])
    def test_count(self, n, count):
        system = reduced_line_system(n)
        assert len(system.inequalities) == count
        assert not system.equalities

    def test_n2_forms(self):
        system = reduced_line_system(2)
        texts = {form_text(f, system.index) for f in system.inequalities}
        assert texts == {"-H(X1)+H(X1X2)", "-H(X2)+H(X1X2)",
                         "+H(X1)+H(X2)-H(X1X2)"}

    def test_reduced_forms_are_elemental(self):
        n = 5
        reduced = reduced_line_system(n)
        elemental = elemental_shannon_system([f"X{i}" for i in range(1, n + 1)])
        _, reduced_rows = system_rows(reduced)
        _, elemental_rows = system_rows(elemental)
        assert set(reduced_rows) <= set(elemental_rows)

    def test_zero_rejected(self):
        with pytest.raises(InvalidParameter):
            reduced_line_system(0)


def _line_split(n):
    structure = build_line_structure(n)
    observed = structure.observed_ids()
    return BlockSplit(CoordinateIndex(observed), clash_masks(structure, observed))


class TestContiguousReduction:
    def test_blocks(self):
        assert contiguous_blocks(0b10110) == [0b110, 0b10000]
        assert contiguous_blocks(0b111) == [0b111]
        split = _line_split(5)
        part = split.parts[split.index.position(0b10110)]
        assert [split.blocks[p] for p in part] == [0b110, 0b10000]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_substitution_dimensions(self, n):
        rows = substitute_contiguous(_line_split(n), reduced_line_system(n).inequalities)
        assert len(rows) == n * (n + 1) // 2
        assert all(len(r) == n * (n + 1) // 2 for r in rows)

    def test_lift_inverts_on_contiguous(self):
        n = 4
        block_values = list(range(1, n * (n + 1) // 2 + 1))
        lifted = _line_split(n).lift([block_values])[0]
        idx = CoordinateIndex(tuple(f"X{i}" for i in range(1, n + 1)))
        # contiguous coordinates reproduce the block values
        assert lifted[idx.position(mask_of(idx, ["X1"]))] == block_values[0]
        assert lifted[idx.position(mask_of(idx, ["X1", "X2"]))] == block_values[n]
        # non-contiguous ones are sums of their blocks
        assert (lifted[idx.position(mask_of(idx, ["X1", "X3"]))]
                == block_values[0] + block_values[2])

    def test_decomposition_equalities_hold_on_witnesses(self):
        from entrocone.distributions import line_witness_models
        n = 4
        forms = contiguous_decomposition_equalities(_line_split(n))
        idx = CoordinateIndex(tuple(f"X{i}" for i in range(1, n + 1)))
        observed = [f"X{i}" for i in range(1, n + 1)]
        for model in line_witness_models(n).values():
            joint = compile_model(model).marginal(observed)
            vec = entropy_vector(joint)
            for form in forms:
                assert abs(evaluate(form, vec.values, idx)) < 1e-9

    def test_place_puts_a_block_row_on_the_one_block_subsets(self):
        split = _line_split(3)
        row = tuple(range(1, 7))
        placed = split.place(row)
        assert [placed[split.index.position(b)] for b in split.blocks] == list(row)
        assert placed[split.index.position(0b101)] == 0
        # a placed row takes the same value on a vector as on its lift
        vector = (2, -1, 5, 3, 0, 4)
        assert (sum(a * b for a, b in zip(placed, split.lift([vector])[0]))
                == sum(a * b for a, b in zip(row, vector)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6))
def test_count_identity_property(n):
    system = elemental_shannon_system([f"V{i}" for i in range(n)])
    assert len(system.inequalities) == n + n * (n - 1) * 2 ** (n - 3)


# -- oracle: the integer generators against the Fraction code they replaced ---

def _fraction_elemental_forms(n):
    """The elemental Shannon forms over n variables, in the order they are generated."""
    full = (1 << n) - 1
    if n == 1:
        return [{1: Fraction(1)}]
    forms = [{full: Fraction(1), full & ~(1 << i): Fraction(-1)} for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            sub = full & ~(1 << i) & ~(1 << j)
            # the conditioning sets in increasing order, the order the DD inserts them
            for s in range(sub + 1):
                if s & ~sub:
                    continue
                coeffs = {}
                for mask, c in (((1 << i) | s, 1), ((1 << j) | s, 1),
                                ((1 << i) | (1 << j) | s, -1), (s, -1)):
                    if mask:
                        coeffs[mask] = coeffs.get(mask, Fraction(0)) + c
                forms.append(coeffs)
    return forms


def contiguous_blocks(mask):
    """The maximal runs of consecutive positions in a subset mask, lowest first."""
    blocks = []
    while mask:
        low = mask & -mask
        run = mask & ~(mask + low)  # the run of set bits from the lowest one up
        blocks.append(run)
        mask &= ~run
    return blocks


def _block_position(mask, n):
    """Closed-form position of a run among the runs of n positions in (length, start) order:
    the runs shorter than L take (L-1)(2n+2-L)/2 positions."""
    length, start = mask.bit_count(), (mask & -mask).bit_length() - 1
    return (length - 1) * (2 * n + 2 - length) // 2 + start


def _fraction_block_position(n, start, length):
    return sum(n - L + 1 for L in range(1, length)) + start


def _block_runs(mask):
    """(start, length) of every maximal contiguous block."""
    for block in contiguous_blocks(mask):
        positions = [i for i in range(block.bit_length()) if block >> i & 1]
        yield positions[0], len(positions)


def _fraction_substitute_contiguous(system):
    n = len(system.index.variables)
    rows = []
    for form in system.inequalities:
        row = [Fraction(0)] * (n * (n + 1) // 2)
        for mask, coeff in form.coefficients:
            for start, length in _block_runs(mask):
                row[_fraction_block_position(n, start, length)] += Fraction(coeff)
        rows.append(fraction_primitive(row))
    return rows


def _fraction_lift_block_vector(values, n):
    index = CoordinateIndex(tuple(f"X{i}" for i in range(1, n + 1)))
    return tuple(sum(values[_fraction_block_position(n, start, length)]
                     for start, length in _block_runs(mask))
                 for mask in index.masks)


@pytest.mark.parametrize("n", range(1, 9))
def test_elemental_forms_match_the_fraction_generator_in_order(n):
    system = elemental_shannon_system([f"V{i}" for i in range(n)])
    forms = elemental_forms((1 << n) - 1)
    assert list(system.inequalities) == [form for form, _ in forms]
    assert [dict(form.coefficients) for form, _ in forms] == _fraction_elemental_forms(n)
    # each pair row carries its own (i, j, K); the n monotonicities carry none
    assert all(form == conditional_mutual_information(*cmi) for form, cmi in forms if cmi)
    assert sum(cmi is None for _, cmi in forms) == n


@pytest.mark.parametrize("n", range(1, 9))
def test_contiguous_block_code_matches_the_fraction_code(n):
    reduced = reduced_line_system(n)
    split = _line_split(n)
    assert substitute_contiguous(split, reduced.inequalities) == _fraction_substitute_contiguous(reduced)
    values = [3 * i * i - 7 * i + 2 for i in range(n * (n + 1) // 2)]
    batch = [values, [v % 5 for v in values], [1] * len(values)]
    assert split.lift(batch) == [_fraction_lift_block_vector(v, n) for v in batch]


@pytest.mark.parametrize("n", range(1, 11))
def test_line_split_is_the_contiguous_runs_in_length_start_order(n):
    split = _line_split(n)
    assert len(split.blocks) == n * (n + 1) // 2
    assert [_block_position(b, n) for b in split.blocks] == list(range(len(split.blocks)))
    for mask, part in zip(split.index.masks, split.parts):
        assert list(part) == [_block_position(b, n) for b in contiguous_blocks(mask)]
    assert all(_fraction_block_position(n, start, length) == _block_position(b, n)
               for b in split.blocks for start, length in _block_runs(b))


def _clash_components(structure, nodes, mask):
    """Components of the clash graph on a subset of ``nodes``, by breadth-first search."""
    closures = [structure.ancestor_closure([v]) for v in nodes]
    members = [i for i in range(len(nodes)) if mask >> i & 1]
    components, seen = [], set()
    for first in members:
        if first in seen:
            continue
        component, queue = {first}, [first]
        while queue:
            i = queue.pop()
            for j in members:
                if j not in component and closures[i] & closures[j]:
                    component.add(j)
                    queue.append(j)
        seen |= component
        components.append(sum(1 << i for i in component))
    return components


@pytest.mark.parametrize("selector", ["pn:1", "pn:5", "bell", "ptilde:3", "ptilde:4"])
def test_split_parts_are_the_clash_components_on_builtins(selector):
    _check_split(structure_from_name(selector))


def test_split_parts_are_the_clash_components_on_random_dags():
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 150:
        structure = random_dag(rng, int(rng.integers(1, 9)), edge_prob=float(rng.uniform(0.1, 0.6)))
        if not structure.observed_ids():
            continue
        _check_split(structure)
        checked += 1


def _check_parts(structure, nodes):
    index = CoordinateIndex(nodes)
    split = BlockSplit(index, clash_masks(structure, nodes))
    components = [_clash_components(structure, nodes, m) for m in index.masks]
    assert split.blocks == tuple(m for m, found in zip(index.masks, components) if len(found) == 1)
    for part, found in zip(split.parts, components):
        assert sorted(split.blocks[p] for p in part) == sorted(found)
    return split


def _check_split(structure):
    # marginalize splits over every node, hidden ones included
    _check_parts(structure, structure.node_ids())
    split = _check_parts(structure, structure.observed_ids())
    index = split.index
    # the block equalities and the ancestor-disjoint independences span one space
    blocks = [f.row(index) for f in contiguous_decomposition_equalities(split)]
    independences = [f.row(index) for f in observed_independence_constraints(structure)]
    rank = len(Echelon(map(sparse, blocks)).rows)
    assert (rank == len(Echelon(map(sparse, independences)).rows)
            == len(Echelon(map(sparse, blocks + independences)).rows))
    assert rank == len(index) - len(split.blocks)


def _plain_int_rows(rows):
    return all(type(row) is tuple and all(type(v) is int for v in row) for row in rows)


@pytest.mark.parametrize("selector", ["pn:1", "pn:4", "bell", "ptilde:3", "ptilde:4"])
def test_structure_rows_are_plain_ints(selector):
    structure = structure_from_name(selector)
    observed = structure.observed_ids()
    for system in (elemental_shannon_system(observed), classical_ci_system(structure)):
        eqs, ineqs = system_rows(system)
        assert _plain_int_rows(eqs + ineqs)
        assert _plain_int_rows([f.row(system.index)
                                for f in (*system.equalities, *system.inequalities)])
    index = CoordinateIndex(observed)
    assert _plain_int_rows([f.row(index) for f in observed_independence_constraints(structure)])


@pytest.mark.parametrize("n", range(1, 9))
def test_line_rows_are_plain_ints(n):
    reduced = reduced_line_system(n)
    split = _line_split(n)
    assert _plain_int_rows(substitute_contiguous(split, reduced.inequalities))
    assert _plain_int_rows(system_rows(reduced)[1])
    assert _plain_int_rows([f.row(reduced.index) for f in reduced.inequalities])
    assert _plain_int_rows([f.row(reduced.index)
                            for f in contiguous_decomposition_equalities(split)])
