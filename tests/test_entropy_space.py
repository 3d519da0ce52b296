"""Coordinate order, constraint generation and the contiguous reduction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrocone.causal import (build_line_structure, bell_structure,
                              observed_independence_constraints, structure_from_name)
from entrocone.distributions import compile_model, entropy_vector
from entrocone.entropy_space import (CoordinateIndex,
                                     classical_ci_system, conditional_mutual_information,
                                     contiguous_blocks, contiguous_decomposition_equalities,
                                     elemental_forms, elemental_shannon_system,
                                     lift_block_vectors,
                                     reduced_line_system,
                                     substitute_contiguous, system_rows)
from entrocone.errors import InvalidParameter
from entrocone.polyhedra import primitive

from conftest import random_model


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

    def test_restrict_keeps_order(self):
        idx = CoordinateIndex(("A", "B", "C"))
        sub = idx.restrict([idx.mask_of("A"), idx.mask_of("AB"), idx.mask_of("B")])
        assert sub.labels == ("H(A)", "H(B)", "H(AB)")

    def test_unknown_variable(self):
        idx = CoordinateIndex(("A",))
        with pytest.raises(InvalidParameter):
            idx.mask_of(["B"])

    def test_duplicate_variables_rejected(self):
        with pytest.raises(InvalidParameter):
            CoordinateIndex(("A", "A"))


class TestForms:
    def test_cmi_expansion(self):
        idx = CoordinateIndex(("A", "B", "C"))
        form = conditional_mutual_information(idx.mask_of("A"), idx.mask_of("B"),
                                              idx.mask_of("C"))
        assert form.text(idx) == "-H(C)+H(AC)+H(BC)-H(ABC) >= 0"

    def test_unconditional_mi(self):
        idx = CoordinateIndex(("A", "B"))
        form = conditional_mutual_information(1, 2)
        assert form.text(idx) == "+H(A)+H(B)-H(AB) >= 0"

    def test_overlap_rejected(self):
        with pytest.raises(InvalidParameter):
            conditional_mutual_information(1, 1)

    def test_row_and_evaluate_agree(self):
        idx = CoordinateIndex(("A", "B", "C"))
        form = conditional_mutual_information(1, 2, 4)
        row = form.row(idx)
        values = np.arange(1.0, 8.0)
        direct = form.evaluate(values, idx)
        assert direct == pytest.approx(sum(float(c) * v for c, v in zip(row, values)))

    def test_evaluate_is_exact_on_integers(self):
        # I(X1:X2) = 1 here; a float sum loses the 1 next to 2^61 and gives 0.0
        idx = CoordinateIndex(("X1", "X2"))
        values = (2 ** 60 + 1, 2 ** 60 + 1, 2 ** 61 + 1)
        value = conditional_mutual_information(1, 2).evaluate(values, idx)
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
        assert system.inequalities[0].text(system.index) == "+H(X) >= 0"

    def test_two_variable_forms(self):
        system = elemental_shannon_system(["X", "Y"])
        texts = {f.text(system.index) for f in system.inequalities}
        assert texts == {"-H(X)+H(XY) >= 0", "-H(Y)+H(XY) >= 0",
                         "+H(X)+H(Y)-H(XY) >= 0"}

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
            vector = entropy_vector(joint, system.index)
            for form in system.inequalities:
                assert form.evaluate(vector.values, system.index) >= -1e-9


class TestClassicalCI:
    def test_line3_count(self):
        system = classical_ci_system(build_line_structure(3))
        assert len(system.equalities) == 5

    def test_bell_contains_local_causality_marginal(self):
        system = classical_ci_system(bell_structure())
        texts = {f.text(system.index) for f in system.equalities}
        # I(X : YB | AC) = 0 expanded over the five-node coordinates
        assert "-H(AC)+H(AXC)+H(AYBC)-H(AXYBC) == 0" in texts

    def test_root_node_unconditional(self):
        system = classical_ci_system(bell_structure())
        texts = {f.text(system.index) for f in system.equalities}
        # C has no parents and non-descendants {A, B}
        assert "+H(C)+H(AB)-H(ABC) == 0" in texts

    def test_every_node_with_nondescendants_contributes(self):
        g = build_line_structure(4)
        system = classical_ci_system(g)
        assert len(system.equalities) == len(g.nodes)  # every node qualifies here

    def test_holds_on_sampled_distributions(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = build_line_structure(int(rng.integers(2, 4)))
            model = random_model(rng, g)
            joint = compile_model(model)
            system = classical_ci_system(g)
            vector = entropy_vector(joint, system.index)
            for form in system.equalities:
                assert abs(form.evaluate(vector.values, system.index)) < 1e-9


class TestReducedSystem:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (4, 10), (5, 15), (7, 28)])
    def test_count(self, n, count):
        system = reduced_line_system(n)
        assert len(system.inequalities) == count
        assert not system.equalities

    def test_n2_forms(self):
        system = reduced_line_system(2)
        texts = {f.text(system.index) for f in system.inequalities}
        assert texts == {"-H(X1)+H(X1X2) >= 0", "-H(X2)+H(X1X2) >= 0",
                         "+H(X1)+H(X2)-H(X1X2) >= 0"}

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


class TestContiguousReduction:
    def test_blocks(self):
        assert contiguous_blocks(0b10110) == [0b110, 0b10000]
        assert contiguous_blocks(0b111) == [0b111]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_substitution_dimensions(self, n):
        rows = substitute_contiguous(reduced_line_system(n))
        assert len(rows) == n * (n + 1) // 2
        assert all(len(r) == n * (n + 1) // 2 for r in rows)

    def test_lift_inverts_on_contiguous(self):
        n = 4
        block_values = list(range(1, n * (n + 1) // 2 + 1))
        lifted = lift_block_vectors([block_values], n)[0]
        idx = CoordinateIndex(tuple(f"X{i}" for i in range(1, n + 1)))
        # contiguous coordinates reproduce the block values
        assert lifted[idx.position(idx.mask_of(["X1"]))] == block_values[0]
        assert lifted[idx.position(idx.mask_of(["X1", "X2"]))] == block_values[n]
        # non-contiguous ones are sums of their blocks
        assert (lifted[idx.position(idx.mask_of(["X1", "X3"]))]
                == block_values[0] + block_values[2])

    def test_decomposition_equalities_hold_on_witnesses(self):
        from entrocone.distributions import line_witness_models
        n = 4
        forms = contiguous_decomposition_equalities(n)
        idx = CoordinateIndex(tuple(f"X{i}" for i in range(1, n + 1)))
        observed = [f"X{i}" for i in range(1, n + 1)]
        for model in line_witness_models(n).values():
            joint = compile_model(model).marginal(observed)
            vec = entropy_vector(joint, idx)
            for form in forms:
                assert abs(form.evaluate(vec.values, idx)) < 1e-9


class TestSerialization:
    def test_text_round_trippable_format(self):
        system = elemental_shannon_system(["A", "B"])
        text = system.text()
        assert "VARIABLES A B" in text
        assert "+H(A)+H(B)-H(AB) >= 0" in text

    def test_json_structure(self):
        import json
        system = reduced_line_system(2)
        data = json.loads(system.to_json())
        assert data["variables"] == ["X1", "X2"]
        assert len(data["inequalities"]) == 3
        assert all(form["relation"] == ">=" for form in data["inequalities"])


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
        rows.append(primitive(row))
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
    assert list(system.inequalities) == forms
    assert [dict(f.coefficients) for f in forms] == _fraction_elemental_forms(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_contiguous_block_code_matches_the_fraction_code(n):
    reduced = reduced_line_system(n)
    assert substitute_contiguous(reduced) == _fraction_substitute_contiguous(reduced)
    values = [3 * i * i - 7 * i + 2 for i in range(n * (n + 1) // 2)]
    batch = [values, [v % 5 for v in values], [1] * len(values)]
    assert lift_block_vectors(batch, n) == [_fraction_lift_block_vector(v, n) for v in batch]


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
    assert _plain_int_rows(substitute_contiguous(reduced))
    assert _plain_int_rows(system_rows(reduced)[1])
    assert _plain_int_rows([f.row(reduced.index) for f in reduced.inequalities])
    assert _plain_int_rows([f.row(reduced.index)
                            for f in contiguous_decomposition_equalities(n)])
