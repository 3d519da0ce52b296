"""Models, compilation, entropy vectors and witness constructions."""

import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrocone.causal import (CausalStructure, Node, build_line_structure,
                              build_post_selected_line, reduced_line_structure)
from entrocone.distributions import (CausalModel, EntropyVector, bc_functional,
                                     compile_model, entropy_vector, gf2_entropy_vector,
                                     line_witness_causes, line_witness_models,
                                     model_from_json, model_to_json, post_select_joint,
                                     tables_from_json, witness_line)
from entrocone.entropy_space import CoordinateIndex, reduced_line_system
from entrocone.errors import InvalidModel, InvalidParameter

from conftest import random_model
from oracles import (bc_functional_oriented, bc_functional_variants, evaluate, form_text,
                     mask_of, setting_conditionals, snapped, split_p3_witness)
from reference_tables import LINE4_RAYS, POST_SELECTED3_RAYS


# SHA-256 of model_to_json(witness_line(i, j, n)) over every (i, j) in order,
# recorded while the witnesses were still written branch by branch: the XOR
# form must not change a single CPT
WITNESS_MODEL_SHA256 = {
    1: "6fdea2e4cc67256cc8836a661e4b9efbd230fe0aded7c41f2389b1fc74f80401",
    2: "76e29e5b254fa168efcc3091a96a130f1dbd85db03110c6e7d34823c756aab72",
    3: "65aaee2275370c544cf758c0ba1e009ab339493e6c6e5d2bed8c5c7bc1bc7763",
    4: "f99adfbb7fdceb514e5250adc22afbbeb00e3f4d2ef79b2cf33c6e59b7dfe889",
    5: "abdde32dbf3ec084e4fe9ae8f22d281c0a64ea42998b2f0b7822d411843162e8",
    6: "d973c7dafde7ac07ec314d6aef17520254eb2cd4bc6805d8d1b1c72fc3d86a99",
}


def _two_bits() -> CausalModel:
    s = CausalStructure((Node("X", "observed"), Node("Y", "observed")), ())
    return CausalModel(s, {"X": 2, "Y": 2},
                       {"X": np.array([0.5, 0.5]), "Y": np.array([0.5, 0.5])})


class TestCompile:
    def test_product_of_independent_bits(self):
        joint = compile_model(_two_bits())
        assert joint.table.shape == (2, 2)
        assert np.allclose(joint.table, 0.25)

    def test_strategy_i_observed_marginal_support(self):
        model = witness_line(1, 4, 4)
        joint = compile_model(model).marginal(["X1", "X2", "X3", "X4"])
        # 8 equally likely outcome tuples: X4 is determined by the rest
        support = joint.table[joint.table > 0]
        assert len(support) == 8
        assert np.allclose(support, 0.125)

    def test_perfectly_correlated_pair(self):
        model = witness_line(1, 2, 3)
        joint = compile_model(model).marginal(["X1", "X2", "X3"])
        # X1 = X2 uniform bit, X3 constant 1
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 1] = expected[1, 1, 1] = 0.5
        assert np.allclose(joint.table, expected)

    def test_bad_cpt_rejected(self):
        s = CausalStructure((Node("X", "observed"),), ())
        with pytest.raises(InvalidModel):
            CausalModel(s, {"X": 2}, {"X": np.array([0.5, 0.6])})
        with pytest.raises(InvalidModel):
            CausalModel(s, {"X": 3}, {"X": np.array([0.5, 0.5])})
        with pytest.raises(InvalidModel):
            CausalModel(s, {"X": 2}, {})

    def test_marginal_orders_and_sums(self):
        joint = compile_model(witness_line(1, 3, 3))
        m = joint.marginal(["X3", "X1"])  # order follows the joint's variable order
        assert m.variables == ("X1", "X3")
        assert m.table.sum() == pytest.approx(1.0)


class TestEntropyVector:
    def test_two_bits(self):
        vector = entropy_vector(compile_model(_two_bits()))
        assert np.allclose(vector.values, [1.0, 1.0, 2.0])

    def test_half_quarter_quarter(self):
        s = CausalStructure((Node("X", "observed"),), ())
        model = CausalModel(s, {"X": 3}, {"X": np.array([0.5, 0.25, 0.25])})
        vector = entropy_vector(compile_model(model))
        assert vector.values[0] == pytest.approx(1.5)

    def test_strategy_i_vector(self):
        model = witness_line(1, 4, 4)
        joint = compile_model(model).marginal([f"X{k}" for k in range(1, 5)])
        assert snapped(entropy_vector(joint)) == LINE4_RAYS["i"]

    def test_snapped_rejects_non_integer(self):
        s = CausalStructure((Node("X", "observed"),), ())
        model = CausalModel(s, {"X": 3}, {"X": np.array([0.5, 0.25, 0.25])})
        assert snapped(entropy_vector(compile_model(model))) is None

    def test_snapped_rejects_entries_just_off_an_integer(self):
        index = CoordinateIndex(("X",))
        assert snapped(EntropyVector(index, np.array([1.0 + 1e-12]))) is None
        assert snapped(EntropyVector(index, np.array([1.0]))) == (1,)


class TestLineWitnesses:
    def test_all_line4_rays_hit(self):
        achieved = set()
        for model in line_witness_models(4).values():
            joint = compile_model(model).marginal([f"X{k}" for k in range(1, 5)])
            achieved.add(snapped(entropy_vector(joint)))
        assert achieved == set(LINE4_RAYS.values())

    def test_diagonal_witness_monotonicity_only(self):
        n = 4
        system = reduced_line_system(n)
        for i in range(1, n + 1):
            model = witness_line(i, i, n)
            joint = compile_model(model).marginal([f"X{k}" for k in range(1, n + 1)])
            vector = entropy_vector(joint)
            positive = [form_text(f, system.index) for f in system.inequalities
                        if evaluate(f, vector.values, system.index) > 1e-9]
            full = mask_of(system.index, [f"X{k}" for k in range(1, n + 1)])
            rest = full & ~mask_of(system.index, [f"X{i}"])
            expected = f"-{system.index.label(rest)}+{system.index.label(full)}"
            assert positive == [expected]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_single_positive_form_per_witness(self, n):
        system = reduced_line_system(n)
        observed = [f"X{k}" for k in range(1, n + 1)]
        seen_rays = set()
        for (i, j), model in line_witness_models(n).items():
            joint = compile_model(model).marginal(observed)
            vector = entropy_vector(joint)
            values = [evaluate(f, vector.values, system.index)
                      for f in system.inequalities]
            positive = [v for v in values if v > 1e-9]
            assert len(positive) == 1, (n, i, j)
            assert positive[0] == pytest.approx(1.0, abs=1e-9)
            ray = snapped(vector)
            assert ray is not None
            seen_rays.add(ray)
        assert len(seen_rays) == n * (n + 1) // 2

    def test_strictly_positive_form_is_the_pair_information(self):
        system = reduced_line_system(5)
        model = witness_line(2, 4, 5)
        joint = compile_model(model).marginal([f"X{k}" for k in range(1, 6)])
        vector = entropy_vector(joint)
        positive = [form_text(f, system.index) for f in system.inequalities
                    if evaluate(f, vector.values, system.index) > 1e-9]
        assert positive == ["-H(X3)+H(X2X3)+H(X3X4)-H(X2X3X4)"]

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParameter):
            witness_line(0, 1, 3)
        with pytest.raises(InvalidParameter):
            witness_line(2, 1, 3)
        with pytest.raises(InvalidParameter):
            witness_line(1, 4, 3)

    def test_dyadic_vectors_are_integral(self):
        for n in range(2, 9):
            for model in line_witness_models(n).values():
                joint = compile_model(model).marginal([f"X{k}" for k in range(1, n + 1)])
                assert snapped(entropy_vector(joint)) is not None
        splits = [split_p3_witness(model, x_mode, z_mode)
                  for model in line_witness_models(3).values()
                  for x_mode in ("keep0", "keep1", "copy")
                  for z_mode in ("keep0", "keep1", "copy")]
        assert len(splits) == 54
        for joint in splits:
            assert snapped(entropy_vector(joint)) is not None

    @pytest.mark.parametrize("n", sorted(WITNESS_MODEL_SHA256))
    def test_witness_models_are_pinned(self, n):
        digest = hashlib.sha256()
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                digest.update(model_to_json(witness_line(i, j, n)).encode())
        assert digest.hexdigest() == WITNESS_MODEL_SHA256[n]


def _float_route(model: CausalModel, index: CoordinateIndex):
    """The compiled joint's snapped vector: the oracle for the rank route."""
    joint = compile_model(model).marginal(list(index.variables))
    return snapped(entropy_vector(joint))


@st.composite
def xor_models(draw):
    """Up to 4 uniform root bits and up to 4 nodes, each the XOR of a random subset."""
    roots = [f"R{k}" for k in range(draw(st.integers(1, 4)))]
    forms = draw(st.lists(st.integers(0, 2 ** len(roots) - 1), min_size=1, max_size=4))
    names = [f"Y{t}" for t in range(len(forms))]
    edges = tuple((r, y) for y, form in zip(names, forms)
                  for k, r in enumerate(roots) if form >> k & 1)
    structure = CausalStructure(tuple(Node(r, "unobserved") for r in roots)
                                + tuple(Node(y, "observed") for y in names), edges)
    cpts = {r: np.array([0.5, 0.5]) for r in roots}
    for y in names:
        parents = structure.parents_map()[y]
        cpt = np.zeros((2,) * len(parents) + (2,))
        for bits in itertools.product(range(2), repeat=len(parents)):
            # a node without causes is the constant 1
            cpt[bits + ((sum(bits) % 2) if parents else 1,)] = 1.0
        cpts[y] = cpt
    return forms, CausalModel(structure, dict.fromkeys(roots + names, 2), cpts)


class TestLinearEntropyVector:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_the_float_route_on_every_witness(self, n):
        index = CoordinateIndex(tuple(f"X{k}" for k in range(1, n + 1)))
        for (i, j), model in line_witness_models(n).items():
            vector = gf2_entropy_vector(line_witness_causes(i, j, n), index)
            assert vector == _float_route(model, index), (i, j)
            assert all(type(v) is int for v in vector)

    @settings(max_examples=150, deadline=None)
    @given(xor_models())
    def test_equals_the_float_route_on_random_affine_models(self, drawn):
        forms, model = drawn
        index = CoordinateIndex(model.structure.observed_ids())
        assert gf2_entropy_vector(forms, index) == _float_route(model, index)


def _force_binary_settings(model: CausalModel, rng) -> CausalModel:
    """Rebuild a reduced-line model so the outer settings are binary."""
    sizes = dict(model.alphabet_sizes)
    cpts = dict(model.cpts)
    parents = model.structure.parents_map()
    for setting in ("A", "B"):
        if sizes[setting] == 2:
            continue
        sizes[setting] = 2
        cpts[setting] = rng.dirichlet(np.ones(2))
        for child in (c for c, ps in parents.items() if setting in ps):
            shape = tuple(sizes[p] for p in parents[child]) + (sizes[child],)
            cpt = np.empty(shape)
            for idx in np.ndindex(shape[:-1]):
                cpt[idx] = rng.dirichlet(np.ones(sizes[child]))
            cpts[child] = cpt
    return CausalModel(model.structure, sizes, cpts)


def _xor_reduced_line5() -> CausalModel:
    structure = reduced_line_structure(("A", "X", "Y", "Z", "B"))
    sizes = {v: 2 for v in structure.node_ids()}

    def det(fn):
        cpt = np.zeros((2, 2, 2))
        for a, b in itertools.product(range(2), repeat=2):
            cpt[a, b, fn(a, b)] = 1.0
        return cpt

    cpts = {
        "A": np.array([0.5, 0.5]), "B": np.array([0.5, 0.5]),
        "C2": np.array([0.5, 0.5]), "C3": np.array([0.5, 0.5]),
        "X": det(lambda a, c2: a ^ c2),
        "Y": det(lambda c2, c3: c2 ^ c3),
        "Z": det(lambda b, c3: b ^ c3),
    }
    return CausalModel(structure, sizes, cpts)


class TestPostSelection:
    def test_xor_model_support(self):
        joint = post_select_joint(_xor_reduced_line5())
        support = {idx: p for idx, p in np.ndenumerate(joint.table) if p > 0}
        # frozen from direct enumeration of the defining sum:
        # x0 = c2, x1 = 1 xor c2, y = c2 xor c3, z0 = c3, z1 = 1 xor c3
        expected = {(x, 1 - x, x ^ z, z, 1 - z): 0.25
                    for x in range(2) for z in range(2)}
        assert {k: pytest.approx(v) for k, v in expected.items()} == support

    def test_marginal_consistency_all_settings(self):
        model = _xor_reduced_line5()
        ps = post_select_joint(model)
        full = compile_model(model)
        names = full.variables
        table = np.moveaxis(full.table,
                            [names.index(v) for v in ("A", "B", "X", "Y", "Z")],
                            [0, 1, 2, 3, 4]).sum(axis=(5, 6))
        for a in range(2):
            for b in range(2):
                conditioned = table[a, b] / table[a, b].sum()
                got = ps.marginal([("X0", "X1")[a], "Y", ("Z0", "Z1")[b]])
                assert np.abs(conditioned - got.table).max() < 1e-12

    def test_marginal_consistency_random_models(self, rng):
        structure = reduced_line_structure(("A", "X", "Y", "Z", "B"))
        for _ in range(10):
            model = _force_binary_settings(random_model(rng, structure), rng)
            ps = post_select_joint(model)
            full = compile_model(model)
            names = full.variables
            axes_order = [names.index(v) for v in ("A", "B", "X", "Y", "Z")]
            rest = [i for i in range(len(names)) if i not in axes_order]
            table = np.moveaxis(full.table, axes_order, range(5)).sum(
                axis=tuple(range(5, 5 + len(rest))))
            for a in range(2):
                for b in range(2):
                    conditioned = table[a, b] / table[a, b].sum()
                    got = ps.marginal([("X0", "X1")[a], "Y", ("Z0", "Z1")[b]])
                    assert np.abs(conditioned - got.table).max() < 1e-12

    def test_x_ignoring_setting_gives_equal_copies(self):
        structure = reduced_line_structure(("A", "X", "Y", "Z", "B"))
        sizes = {v: 2 for v in structure.node_ids()}
        copy_c2 = np.zeros((2, 2, 2))
        for a, c2 in itertools.product(range(2), repeat=2):
            copy_c2[a, c2, c2] = 1.0
        model = _xor_reduced_line5()
        cpts = dict(model.cpts)
        cpts["X"] = copy_c2
        joint = post_select_joint(CausalModel(structure, sizes, cpts))
        for (x0, x1, *_rest), p in np.ndenumerate(joint.table):
            if p > 0:
                assert x0 == x1

    def test_wrong_structure_rejected(self):
        with pytest.raises(InvalidParameter):
            post_select_joint(witness_line(1, 2, 5))

    def test_nonbinary_setting_rejected(self):
        structure = reduced_line_structure(("A", "X", "Y", "Z", "B"))
        model = _xor_reduced_line5()
        sizes = dict(model.alphabet_sizes)
        sizes["A"] = 3
        cpts = dict(model.cpts)
        cpts["A"] = np.array([0.5, 0.25, 0.25])
        cpts["X"] = np.zeros((3, 2, 2))
        cpts["X"][:, :, 1] = 1.0
        with pytest.raises(InvalidParameter):
            post_select_joint(CausalModel(structure, sizes, cpts))


class TestSplitting:
    def test_pair_witness_copy_keep0_hits_ray_xvi(self):
        joint = split_p3_witness(witness_line(2, 3, 3), "copy", "keep0")
        obs = build_post_selected_line(3).observed_ids()
        index = CoordinateIndex(obs)
        vec = snapped(entropy_vector(joint))
        allowed = [m for m in index.masks
                   if not ((m >> 0 & 1) and (m >> 1 & 1))
                   and not ((m >> 3 & 1) and (m >> 4 & 1))]
        midx = index.restrict(allowed)
        restricted = tuple(vec[index.position(m)] for m in midx.masks)
        assert restricted == POST_SELECTED3_RAYS["xvi"]

    def test_constant_model_gives_zero_vector(self):
        structure = build_line_structure(3)
        sizes = {v: 2 for v in structure.node_ids()}
        det1 = {1: np.array([0.0, 1.0])}
        cpts = {"C1": np.array([0.5, 0.5]), "C2": np.array([0.5, 0.5])}
        for k in (1, 2, 3):
            parents = structure.parents_map()[f"X{k}"]
            cpt = np.zeros((2,) * len(parents) + (2,))
            cpt[..., 1] = 1.0
            cpts[f"X{k}"] = cpt
        model = CausalModel(structure, sizes, cpts)
        joint = split_p3_witness(model, "keep0", "keep1")
        vec = entropy_vector(joint)
        assert np.abs(vec.values).max() < 1e-12

    def test_bad_mode_rejected(self):
        with pytest.raises(InvalidParameter):
            split_p3_witness(witness_line(1, 2, 3), "copy", "flip")

    def test_requires_three_node_line(self):
        with pytest.raises(InvalidParameter):
            split_p3_witness(witness_line(1, 2, 4), "copy", "copy")


class TestFunctional:
    def test_all_deterministic_zero(self):
        det = np.zeros((2, 2))
        det[0, 0] = 1.0
        tables = {(a, b): det for a in range(2) for b in range(2)}
        assert bc_functional(tables) == pytest.approx(0.0)

    def test_three_bit_example(self):
        corr = np.array([[0.5, 0.0], [0.0, 0.5]])
        unif = np.full((2, 2), 0.25)
        tables = {(0, 0): corr, (0, 1): unif, (1, 0): unif, (1, 1): unif}
        assert bc_functional(tables) == pytest.approx(3.0)

    def test_nonnegative_on_compiled_models(self, rng):
        structure = reduced_line_structure(("A", "X", "Y", "B"))
        for _ in range(40):
            model = _force_binary_settings(random_model(rng, structure), rng)
            tables = setting_conditionals(model)
            for value in bc_functional_variants(tables).values():
                assert value >= -1e-9

    def test_relabeling_invariance(self, rng):
        for _ in range(10):
            raw = {(a, b): rng.dirichlet(np.ones(6)).reshape(2, 3)
                   for a in range(2) for b in range(2)}
            perm_x = rng.permutation(2)
            perm_y = rng.permutation(3)
            relabeled = {k: t[np.ix_(perm_x, perm_y)] for k, t in raw.items()}
            variants = bc_functional_variants(relabeled)
            for label, value in bc_functional_variants(raw).items():
                assert value == pytest.approx(variants[label])

    def test_variants_match_the_oriented_formula(self, rng):
        # each orientation is the one functional on relabelled settings or transposed tables
        for _ in range(10):
            raw = {(a, b): rng.dirichlet(np.ones(6)).reshape(2, 3)
                   for a in range(2) for b in range(2)}
            variants = bc_functional_variants(raw)
            assert len(variants) == 8
            for swap in (False, True):
                for a in range(2):
                    for b in range(2):
                        assert (variants[f"{'yx' if swap else 'xy'}:{a}{b}"]
                                == bc_functional_oriented(raw, (a, b), swap))
            assert variants["xy:00"] == bc_functional(raw)

    def test_input_validation(self):
        unif = np.full((2, 2), 0.25)
        with pytest.raises(InvalidParameter):
            bc_functional({(0, 0): unif})
        bad = {(a, b): unif for a in range(2) for b in range(2)}
        bad[(1, 1)] = np.full((3, 3), 1 / 9)
        with pytest.raises(InvalidParameter):
            bc_functional(bad)
        unnorm = {(a, b): np.full((2, 2), 0.3) for a in range(2) for b in range(2)}
        with pytest.raises(InvalidParameter):
            bc_functional(unnorm)

    def test_zero_probability_setting_rejected(self):
        structure = reduced_line_structure(("A", "X", "Y", "B"))
        sizes = {v: 2 for v in structure.node_ids()}
        cpts = {
            "A": np.array([1.0, 0.0]),  # setting A=1 never occurs
            "B": np.array([0.5, 0.5]),
            "C": np.array([0.5, 0.5]),
        }
        for v in ("X", "Y"):
            cpt = np.zeros((2, 2, 2))
            cpt[..., 0] = 1.0
            cpts[v] = cpt
        with pytest.raises(InvalidParameter):
            setting_conditionals(CausalModel(structure, sizes, cpts))


class TestModelSerialization:
    def test_round_trip(self):
        model = witness_line(1, 2, 3)
        text = model_to_json(model)
        again = model_from_json(text)
        assert again.structure.node_ids() == model.structure.node_ids()
        joint_a = compile_model(model)
        joint_b = compile_model(again)
        assert np.allclose(joint_a.table, joint_b.table)

    def test_diagnostics_name_fields(self):
        with pytest.raises(InvalidParameter, match="structure"):
            model_from_json('{"alphabets": {}, "cpts": {}}')
        with pytest.raises(InvalidParameter, match="alphabets"):
            model_from_json('{"structure": "pn:1", "alphabets": 3, "cpts": {}}')
        with pytest.raises(InvalidParameter, match="alphabets"):
            model_from_json('{"structure": "pn:1", "alphabets": {"X1": 2.5}, "cpts": {}}')
        with pytest.raises(InvalidParameter, match="'cpts' field"):
            model_from_json('{"structure": "pn:1", "alphabets": {"X1": 2}, "cpts": []}')
        with pytest.raises(InvalidParameter, match=r"cpts\['X1'\]"):
            model_from_json('{"structure": "pn:1", "alphabets": {"X1": 2}, "cpts": {"X1": {}}}')

    def test_tables_parsing(self):
        text = ('{"alphabets": [2, 2], "tables": {'
                '"00": [[0.25,0.25],[0.25,0.25]], "01": [[0.25,0.25],[0.25,0.25]],'
                '"10": [[0.25,0.25],[0.25,0.25]], "11": [[0.25,0.25],[0.25,0.25]]}}')
        tables = tables_from_json(text)
        assert set(tables) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        with pytest.raises(InvalidParameter, match="tables.11"):
            tables_from_json(text.replace('"11": [[0.25,0.25],[0.25,0.25]]',
                                          '"11": [[0.5,0.5]]'))

    @pytest.mark.parametrize("text, field", [
        ('{"alphabets": [2, 2], "tables": 5}', "'tables'"),
        ('{"alphabets": ["a", 2], "tables": {}}', "'alphabets'"),
        ('{"alphabets": [2.5, 2], "tables": {}}', "'alphabets'"),
        ('{"alphabets": [2, 2], "tables": {"00": "x"}}', "tables.00"),
        ('{"alphabets": [2, 2], "tables": {"00": {"a": 1}}}', "tables.00"),
        ('{"alphabets": [2, 2], "tables": {"00": [[1.0], [0.5, 0.5]]}}', "tables.00"),
    ])
    def test_tables_diagnostics_name_the_field(self, text, field):
        with pytest.raises(InvalidParameter, match=re.escape(field)):
            tables_from_json(text)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_compiled_joint_normalized_property(n, data):
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    model = random_model(rng, build_line_structure(n))
    joint = compile_model(model)
    assert joint.table.sum() == pytest.approx(1.0, abs=1e-9)
    assert joint.table.min() >= -1e-12
