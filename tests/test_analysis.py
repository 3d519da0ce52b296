"""Pipeline-level behaviour: outer cones, tightness, projections, reports."""

import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from entrocone.analysis import (_nice_equalities, classify_shannon_facets,
                                full_marginal_outer_cone, observed_outer_cone,
                                post_selected_marginal_cone, report_to_json,
                                report_to_text, split_generated_rays,
                                verify_line_tightness)
from entrocone.causal import (CausalStructure, Node, bell_structure,
                              build_line_structure, build_post_selected_line, clash_masks,
                              observed_independence_constraints, structure_from_name)
from entrocone.entropy_space import (BlockSplit, CoordinateIndex,
                                     contiguous_decomposition_equalities,
                                     elemental_shannon_system, reduced_line_system,
                                     system_rows)
from entrocone.errors import InvalidParameter, NodeGuardExceeded
from entrocone.polyhedra import (HRep, dd_project, enumerate_rays, facets_from_rays, fm_eliminate,
                                 membership, primitive, reduce_mod_span, remove_redundancies,
                                 rref)

from conftest import (full_coordinate_marginal_cone, full_coordinate_post_selected_cone,
                      hidden_ids, local_markov_projection, random_dag)
from oracles import (cones_equal, dense_nice_equalities, fraction_primitive, independence_rows,
                     mask_of, nice_equalities, polar_remove_redundancies, snapped,
                     split_p3_witness)
from reference_tables import LINE4_RAYS, POST_SELECTED3_RAYS


class TestObservedOuterCone:
    def test_line4_rays(self):
        report = observed_outer_cone(build_line_structure(4))
        assert set(report.vrep.rays) == set(LINE4_RAYS.values())

    def test_line2_rays(self):
        report = observed_outer_cone(build_line_structure(2))
        assert set(report.vrep.rays) == {(1, 0, 1), (0, 1, 1), (1, 1, 1)}

    def test_line1_ray(self):
        report = observed_outer_cone(build_line_structure(1))
        assert report.vrep.rays == ((1,),)

    def test_bell_names_follow_coordinate_order(self):
        report = observed_outer_cone(bell_structure())
        assert report.index.labels[:7] == ("H(A)", "H(X)", "H(Y)", "H(B)",
                                           "H(AX)", "H(AY)", "H(AB)")
        assert set(report.vrep.rays) == set(LINE4_RAYS.values())

    def test_verdict_outer_only(self):
        assert observed_outer_cone(build_line_structure(3)).verdict == "outer-only"

    def test_equality_space_comes_from_the_block_split(self, monkeypatch):
        import entrocone.analysis as analysis

        # pn:7 has 161 independence rows; its 99 block equalities span the same
        # space, and the block cone has no equalities of its own
        structure = build_line_structure(7)
        observed = structure.observed_ids()
        split = BlockSplit(CoordinateIndex(observed), clash_masks(structure, observed))
        block_rows = len(contiguous_decomposition_equalities(split))
        sizes = []

        def recorded(rows):
            rows = list(rows)
            sizes.append(len(rows))
            return rref(rows)

        monkeypatch.setattr(analysis, "rref", recorded)
        observed_outer_cone(structure)
        assert block_rows == 99
        assert sizes and max(sizes) <= block_rows

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_tight_masks_give_the_block_facets(self, monkeypatch, n):
        import entrocone.analysis as analysis

        # outer drops no block, so its facets are the polar pass on the block rays
        blocks, facets = [], []
        rays_of, polar = analysis.enumerate_rays, analysis.facets_from_rays

        def recorded_rays(h):
            blocks.append(h)
            return rays_of(h)

        def recorded_facets(v):
            facets.append(polar(v))
            return facets[-1]

        monkeypatch.setattr(analysis, "enumerate_rays", recorded_rays)
        monkeypatch.setattr(analysis, "facets_from_rays", recorded_facets)
        observed_outer_cone(build_line_structure(n))
        [block], [projected] = blocks, facets
        assert remove_redundancies(block) == projected == polar_remove_redundancies(block)


class TestVerify:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tight_with_expected_ray_count(self, n):
        report = verify_line_tightness(n)
        assert report.verdict == "tight"
        assert len(report.vrep.rays) == n * (n + 1) // 2
        assert len(report.witnesses) == n * (n + 1) // 2

    def test_line4_rays_match_table(self):
        report = verify_line_tightness(4)
        assert set(report.vrep.rays) == set(LINE4_RAYS.values())

    def test_witness_vectors_lie_on_their_rays(self):
        report = verify_line_tightness(4)
        for ray, witness in report.witnesses.items():
            vector = tuple(witness["vector"])
            assert membership(report.hrep, vector)
            # vector is a nonnegative multiple of the ray
            nz = next(i for i, v in enumerate(ray) if v)
            scale = vector[nz] / ray[nz]
            assert scale > 0
            assert all(v == scale * r for v, r in zip(vector, ray))

    def test_matches_observed_outer_cone(self):
        for n in (2, 3, 4):
            direct = observed_outer_cone(build_line_structure(n))
            lifted = verify_line_tightness(n)
            assert cones_equal(direct.hrep, lifted.hrep)
            assert set(direct.vrep.rays) == set(lifted.vrep.rays)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_rays_equal_the_outer_rays(self, n):
        # the n(n+1)/2 reduced rows against every elemental row, both through the block split
        assert verify_line_tightness(n).vrep.rays == observed_outer_cone(build_line_structure(n)).vrep.rays

    def test_quantum_note_only_when_tight(self):
        report = verify_line_tightness(3)
        assert any("classical closure equals quantum closure" in note
                   for note in report.notes)

    def test_rank_route_builds_no_joint(self, monkeypatch):
        import entrocone.distributions as dist

        def compile_model(model):
            raise AssertionError("verify compiled a joint for a linear witness")

        monkeypatch.setattr(dist, "compile_model", compile_model)
        assert verify_line_tightness(6).verdict == "tight"

    def test_wrong_cause_set_is_not_tight(self, monkeypatch):
        import entrocone.distributions as dist

        causes = dist.line_witness_causes

        def wrong(i, j, n):
            # witness (1, 1) made constant: its vector is 0, on no ray
            return (0,) * n if (i, j) == (1, 1) else causes(i, j, n)

        monkeypatch.setattr(dist, "line_witness_causes", wrong)
        report = verify_line_tightness(3)
        assert report.verdict == "outer-only"
        assert report.notes == ("witness (1, 1) does not lie on an extremal ray",
                                "not every extremal ray is achieved by a witness")

    def test_verify_builds_no_model(self, monkeypatch):
        import entrocone.analysis as analysis
        import entrocone.distributions as dist
        import entrocone.polyhedra as polyhedra

        def refuse(*args, **kwargs):
            raise AssertionError("verify built a model or ran a dense membership test")

        monkeypatch.setattr(dist, "CausalModel", refuse)
        monkeypatch.setattr(polyhedra, "membership", refuse)
        monkeypatch.setattr(analysis, "membership", refuse)
        assert verify_line_tightness(6).verdict == "tight"

    def test_witness_off_the_equalities_is_caught_by_the_ray_test(self, monkeypatch):
        import entrocone.distributions as dist

        causes = dist.line_witness_causes

        def wrong(i, j, n):
            # X1 = X3 = C1 and X2 constant: H(X1X3) = 1 but H(X1) + H(X3) = 2,
            # so the contiguous equality for {X1, X3} fails
            if (i, j) == (1, 3):
                return (0b10, 0, 0b10)
            return causes(i, j, n)

        monkeypatch.setattr(dist, "line_witness_causes", wrong)
        report = verify_line_tightness(3)
        assert report.verdict == "outer-only"
        assert report.notes == ("witness (1, 3) does not lie on an extremal ray",
                                "not every extremal ray is achieved by a witness")

    def test_repeated_witness_is_not_tight(self, monkeypatch):
        import entrocone.distributions as dist

        causes = dist.line_witness_causes

        def wrong(i, j, n):
            # witness (1, 2) made a copy of (1, 1): it lands on (1, 1)'s ray again
            return causes(1, 1, n) if (i, j) == (1, 2) else causes(i, j, n)

        monkeypatch.setattr(dist, "line_witness_causes", wrong)
        report = verify_line_tightness(3)
        assert report.verdict == "outer-only"
        assert report.notes == ("witness (1, 2) repeats an already-achieved ray",
                                "not every extremal ray is achieved by a witness")

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_a_line_in_the_reduced_cone_is_not_tight(self, monkeypatch, n):
        # every reduced inequality is needed: without any one of them the block cone holds a line
        import entrocone.analysis as analysis

        system = reduced_line_system(n)
        rows = system.inequalities
        for k in range(len(rows)):
            dropped = replace(system, inequalities=rows[:k] + rows[k + 1:])
            monkeypatch.setattr(analysis, "reduced_line_system", lambda n: dropped)
            report = verify_line_tightness(n)
            assert report.verdict == "outer-only"
            assert "the reduced cone holds a line: its lineality has dimension 1" in report.notes


class TestFullMarginalization:
    def test_bell_projection_equals_line4_cone(self):
        report = full_marginal_outer_cone(bell_structure(), engine="dd")
        target = observed_outer_cone(build_line_structure(4))
        assert cones_equal(report.hrep, target.hrep)
        assert set(report.vrep.rays) == set(LINE4_RAYS.values())

    def test_engines_agree_on_bell(self):
        dd = full_marginal_outer_cone(bell_structure(), engine="dd")
        fm = full_marginal_outer_cone(bell_structure(), engine="fm")
        assert cones_equal(dd.hrep, fm.hrep)

    def test_line3_projection(self):
        report = full_marginal_outer_cone(build_line_structure(3), engine="dd")
        target = observed_outer_cone(build_line_structure(3))
        assert cones_equal(report.hrep, target.hrep)

    def test_irrelevant_hidden_node(self):
        # C makes the observed pair arbitrarily correlated; the extra hidden
        # node with a single child adds no observable constraint
        g = CausalStructure(
            (Node("X", "observed"), Node("Y", "observed"),
             Node("C", "unobserved"), Node("H", "unobserved")),
            (("C", "X"), ("C", "Y"), ("H", "X")))
        report = full_marginal_outer_cone(g, engine="dd")
        shannon = elemental_shannon_system(("X", "Y"))
        _, rows = system_rows(shannon)
        plain = HRep(3, (), tuple(rows))
        assert cones_equal(report.hrep, plain)

    def test_disconnected_observed_pair_is_independent(self):
        g = CausalStructure(
            (Node("X", "observed"), Node("Y", "observed"), Node("H", "unobserved")),
            (("H", "X"),))
        report = full_marginal_outer_cone(g, engine="dd")
        assert report.hrep.equalities == ((1, 1, -1),)  # I(X:Y) = 0 survives

    # The rays do not depend on the row order, so only the work shows a reorder.
    # Adjacency tests with elemental_forms' order and every d-separated row an
    # equality: pn:3 51, bell 33, over the full coordinates and the blocks
    # alike.  With local Markov alone as equalities they were 884 and 121; a
    # sparse-first sort in the DD made 56,884 on pn:3, and each pair's
    # conditioning sets largest first 523 on bell.
    @pytest.mark.parametrize("name, adjacency_tests", [("pn:3", 51), ("bell", 33)])
    def test_elemental_order_keeps_the_double_description_small(self, monkeypatch, name,
                                                                 adjacency_tests):
        from entrocone import polyhedra
        calls = 0
        adjacent = polyhedra._adjacent

        def counted(*args):
            nonlocal calls
            calls += 1
            return adjacent(*args)

        monkeypatch.setattr(polyhedra, "_adjacent", counted)
        full_marginal_outer_cone(structure_from_name(name))
        assert calls <= 2 * adjacency_tests

    # The largest system an fm pairing hands to remove_redundancies, in rows:
    # bell 53, bc-cone 4 1,131, projected in block coordinates.  Over the
    # full coordinates they were 69 and 1,147, and bell's was 99 while only
    # local Markov was stated as equalities.  Before a minimization followed
    # every pairing, bell's final pass took 1,668 rows and bc-cone 4's eighth
    # pairing made 790,488.
    @pytest.mark.parametrize("run, largest", [
        (lambda: full_marginal_outer_cone(bell_structure(), engine="fm"), 53),
        (lambda: post_selected_marginal_cone(4, engine="fm"), 1131)],
        ids=["bell", "bc-cone-4"])
    def test_each_fm_pairing_stays_small(self, monkeypatch, run, largest):
        from entrocone import polyhedra
        sizes = []
        minimize = polyhedra.remove_redundancies

        def recorded(h):
            sizes.append(len(h.equalities) + len(h.inequalities))
            return minimize(h)

        monkeypatch.setattr(polyhedra, "remove_redundancies", recorded)
        run()
        assert 0 < max(sizes) <= 2 * largest

    @pytest.mark.parametrize("run", [
        lambda: full_marginal_outer_cone(bell_structure(), engine="fm"),
        lambda: full_marginal_outer_cone(build_line_structure(3), engine="fm"),
        lambda: post_selected_marginal_cone(3, engine="fm")],
        ids=["marginalize bell", "marginalize pn:3", "bc-cone 3"])
    def test_each_fm_minimization_matches_the_polar_pass(self, monkeypatch, run):
        from entrocone import polyhedra
        calls = []
        minimize = polyhedra.remove_redundancies

        def recorded(h):
            calls.append((h, minimize(h)))
            return calls[-1][1]

        monkeypatch.setattr(polyhedra, "remove_redundancies", recorded)
        run()
        assert len(calls) > 1
        for h, minimal in calls:
            assert minimal == polar_remove_redundancies(h)

    def test_guard_refuses_and_names_flag(self):
        with pytest.raises(NodeGuardExceeded, match="max-nodes"):
            full_marginal_outer_cone(build_line_structure(5))  # 9 nodes

    def test_guard_override(self):
        report = full_marginal_outer_cone(build_line_structure(3), max_nodes=10)
        assert report.vrep.rays

    def test_bad_engine(self):
        with pytest.raises(InvalidParameter):
            full_marginal_outer_cone(bell_structure(), engine="qq")

    def test_guard_comes_before_the_engine_check(self):
        with pytest.raises(NodeGuardExceeded):
            full_marginal_outer_cone(build_line_structure(5), engine="qq")


# -- oracle: the local-Markov-only system marginalize projected before ---------

def _marginal_oracle_structures():
    """bell, pn:2, pn:3 and 60 random DAGs of 2 to 4 nodes.

    The random DAGs stop at 4 nodes because the oracle itself blows up on
    some of 5: 98 s under fm on one, where marginalize takes 0.03 s.  bell
    and pn:3 have 5 nodes.
    """
    rng = np.random.default_rng(20261019)
    structures = [bell_structure(), build_line_structure(2), build_line_structure(3)]
    while len(structures) < 63:
        g = random_dag(rng, int(rng.integers(2, 5)))
        if g.observed_ids():
            structures.append(g)
    return structures


@pytest.mark.parametrize("engine", ["dd", "fm"])
def test_projection_equals_the_local_markov_oracle(engine):
    # Stating every d-separated elemental row as an equality leaves the cone
    # as local Markov and Shannon cut it out; test_entropy_space checks that
    # exactly the d-separated rows move.
    project = fm_eliminate if engine == "fm" else dd_project
    for structure in _marginal_oracle_structures():
        oracle = project(*local_markov_projection(structure))
        report = full_marginal_outer_cone(structure, engine=engine)
        assert cones_equal(oracle, report.hrep), structure.to_json()


class TestPostSelectedCone:
    def test_k3_rays_match_table(self):
        report = post_selected_marginal_cone(3)
        assert set(report.vrep.rays) == set(POST_SELECTED3_RAYS.values())
        assert len(report.vrep.rays) == 20

    def test_k3_equalities_include_outer_pair(self):
        report = post_selected_marginal_cone(3)
        idx = report.index
        eq_texts = set()
        for row in report.hrep.equalities:
            terms = [(label, v) for label, v in zip(idx.labels, row) if v]
            eq_texts.add(tuple(terms))
        assert (("H(X0)", 1), ("H(Z0)", 1), ("H(X0Z0)", -1)) in eq_texts

    def test_k3_non_shannon_accounting(self):
        report = post_selected_marginal_cone(3)
        shannon, extra = classify_shannon_facets(report.hrep, report.index)
        assert len(shannon) + len(extra) == len(report.hrep.inequalities)
        assert len(extra) + len(report.hrep.equalities) == 36

    def test_k3_classification_matches_lp_route(self):
        # oracle: one exact LP per facet against the scenario-Shannon pool
        from entrocone._simplex import conic_combination
        from entrocone.analysis import _scenario_shannon_pool
        report = post_selected_marginal_cone(3)
        pool = _scenario_shannon_pool(report.index)
        by_lp = [conic_combination(pool, report.hrep.equalities, facet) is not None
                 for facet in report.hrep.inequalities]
        shannon, extra = classify_shannon_facets(report.hrep, report.index)
        assert shannon == [f for f, s in zip(report.hrep.inequalities, by_lp) if s]
        assert extra == [f for f, s in zip(report.hrep.inequalities, by_lp) if not s]

    def test_unsupported_k(self):
        with pytest.raises(InvalidParameter):
            post_selected_marginal_cone(5)

    def test_splitting_reproduces_rays(self):
        split = split_generated_rays()
        assert set(split.rays) == set(POST_SELECTED3_RAYS.values())

    def test_split_vectors_match_the_float_route(self, monkeypatch):
        import entrocone.distributions as dist
        from entrocone.distributions import entropy_vector, line_witness_models

        gf2 = dist.gf2_entropy_vector
        seen = []

        def recorded(forms, index):
            seen.append(gf2(forms, index))
            return seen[-1]

        monkeypatch.setattr(dist, "gf2_entropy_vector", recorded)
        split_generated_rays()
        modes = ("keep0", "keep1", "copy")
        expected = [snapped(entropy_vector(split_p3_witness(model, xm, zm)))
                    for model in line_witness_models(3).values()
                    for xm in modes for zm in modes]
        assert len(seen) == 54
        assert seen == expected

    def test_split_builds_no_model(self, monkeypatch):
        import entrocone.distributions as dist

        def refuse(*args, **kwargs):
            raise AssertionError("the split witnesses built a model or a joint")

        for name in ("CausalModel", "compile_model", "entropy_vector"):
            monkeypatch.setattr(dist, name, refuse)
        assert len(split_generated_rays().rays) == 20

    def test_splitting_facets_recover_cone(self):
        split = split_generated_rays()
        report = post_selected_marginal_cone(3)
        assert cones_equal(facets_from_rays(split), report.hrep)

    def test_only_declared_copies_are_doubled(self):
        from entrocone.analysis import _marginal_scenario
        nodes = (Node("S0", "observed"), Node("S1", "observed"), Node("C", "unobserved"))
        edges = (("C", "S0"), ("C", "S1"))
        _, plain = _marginal_scenario(CausalStructure(nodes, edges))
        assert plain.labels == ("H(S0)", "H(S1)", "H(S0S1)")
        _, doubled = _marginal_scenario(CausalStructure(nodes, edges, copies=(("S0", "S1"),)))
        assert doubled.labels == ("H(S0)", "H(S1)")

    def test_k3_fm_cross_check(self):
        fm = post_selected_marginal_cone(3, engine="fm")
        dd = post_selected_marginal_cone(3, engine="dd")
        assert cones_equal(fm.hrep, dd.hrep)
        assert set(fm.vrep.rays) == set(dd.vrep.rays)


class TestPrintedFamiliesDefineTheCone:
    """Rebuild the marginal cone from the seven reference families alone."""

    @staticmethod
    def _scenario_index():
        from entrocone.analysis import _marginal_scenario
        structure = build_post_selected_line(3)
        _, marginal_index = _marginal_scenario(structure)
        return marginal_index

    @staticmethod
    def _apply_renaming(row, index, mapping):
        from entrocone.entropy_space import _bit_positions
        out = [0] * len(index)
        for pos, mask in enumerate(index.masks):
            if row[pos]:
                names = [mapping[index.variables[i]] for i in _bit_positions(mask)]
                out[index.position(mask_of(index, names))] += row[pos]
        return tuple(out)

    def test_families_plus_scenario_shannon_give_the_20_rays(self):
        from entrocone.analysis import _scenario_shannon_pool
        from entrocone.polyhedra import HRep, enumerate_rays
        from test_acceptance import _family_row
        from reference_tables import POST_SELECTED3_FAMILIES, POST_SELECTED3_RAYS

        index = self._scenario_index()
        identity = {v: v for v in index.variables}
        flips = []
        for swap_x in (False, True):
            for swap_z in (False, True):
                for swap_xz in (False, True):
                    mapping = dict(identity)
                    if swap_x:
                        mapping.update({"X0": "X1", "X1": "X0"})
                    if swap_z:
                        mapping.update({"Z0": "Z1", "Z1": "Z0"})
                    if swap_xz:
                        mapping = {v: mapping[v].translate(str.maketrans("XZ", "ZX"))
                                   for v in mapping}
                    flips.append(mapping)
        inequalities = set(_scenario_shannon_pool(index))
        equalities = set()
        family_members = set()
        for terms, relation in POST_SELECTED3_FAMILIES:
            base = _family_row(terms, index)
            for mapping in flips:
                row = self._apply_renaming(base, index, mapping)
                family_members.add((row, relation))
                if relation == ">=":
                    inequalities.add(row)
                else:
                    equalities.add(row)
        assert len(family_members) == 36  # the stated symmetry expansion
        h = HRep(len(index), tuple(sorted(equalities)), tuple(sorted(inequalities)))
        rays = enumerate_rays(h)
        assert set(rays.rays) == set(POST_SELECTED3_RAYS.values())


class TestReports:
    def test_text_report_contents(self):
        report = verify_line_tightness(2)
        text = report_to_text(report)
        assert "structure: pn:2" in text
        assert "verdict: tight" in text
        assert "(i)" in text and "(iii)" in text
        assert "witness" in text

    def test_json_report_round_trips(self):
        report = verify_line_tightness(3)
        data = json.loads(report_to_json(report))
        assert data["verdict"] == "tight"
        assert len(data["rays"]) == 6
        assert data["coordinates"][0] == "H(X1)"
        assert "timing_seconds" not in data

    def test_label_note_for_bell_coordinates(self):
        report = observed_outer_cone(bell_structure())
        text = report_to_text(report)
        assert "H(AZ)" in text  # the alternate-label note is present

    def test_deterministic_serialization(self):
        a = report_to_json(observed_outer_cone(build_line_structure(3)))
        b = report_to_json(observed_outer_cone(build_line_structure(3)))
        assert a == b


# -- oracle: outer's block route against the full-coordinate route it replaced --

def _full_coordinate_outer(structure):
    """Elemental Shannon rows plus every independence row, solved over all 2^n - 1 coordinates."""
    index = CoordinateIndex(structure.observed_ids())
    equalities = _candidates(structure, index)
    _, shannon = system_rows(elemental_shannon_system(index.variables))
    vrep = enumerate_rays(HRep(len(index), tuple(equalities), tuple(shannon), index.labels))
    return nice_equalities(facets_from_rays(vrep), equalities), vrep


@pytest.mark.parametrize("selector", [*(f"pn:{n}" for n in range(1, 9)),
                                      "bell", "ptilde:3", "ptilde:4"])
def test_outer_matches_the_full_coordinate_route(selector):
    report = observed_outer_cone(structure_from_name(selector))
    assert (report.hrep, report.vrep) == _full_coordinate_outer(structure_from_name(selector))


def test_outer_matches_the_full_coordinate_route_on_random_dags():
    # five observed nodes with no independence would solve the whole 31-coordinate
    # Shannon cone twice, so the DAGs stop at four
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 80:
        structure = random_dag(rng, int(rng.integers(1, 8)), edge_prob=float(rng.uniform(0.1, 0.6)))
        if not 1 <= len(structure.observed_ids()) <= 4:
            continue
        report = observed_outer_cone(structure)
        assert (report.hrep, report.vrep) == _full_coordinate_outer(structure)
        checked += 1


# -- oracle: the incremental equality choice against one rref per candidate ----

def _candidates(structure, index):
    return independence_rows(observed_independence_constraints(structure), index)


def _rref_per_candidate(hrep, candidates):
    """The equality choice as it was: a full rref of the chosen rows for every candidate."""
    if not hrep.equalities:
        return hrep
    base, pivots = rref(hrep.equalities)
    chosen = []
    for row in candidates:
        if len(chosen) == len(base):
            break
        trial = chosen + [row]
        if len(rref(trial)[0]) == len(trial) and not any(reduce_mod_span(row, base, pivots)):
            chosen.append(row)
    if len(chosen) == len(base):
        return HRep(hrep.dimension, tuple(chosen), hrep.inequalities, hrep.labels)
    return hrep


@pytest.mark.parametrize("selector", ["pn:3", "pn:4", "pn:5", "pn:6", "pn:7",
                                      "bell", "ptilde:3", "ptilde:4"])
def test_incremental_equality_choice_matches_rref_per_candidate(selector):
    structure = structure_from_name(selector)
    report = observed_outer_cone(structure)
    dual = facets_from_rays(report.vrep)  # the H-rep observed_outer_cone presents
    candidates = _candidates(structure, report.index)
    expected = _rref_per_candidate(dual, candidates)
    assert expected is not dual  # independence rows span the equalities
    assert nice_equalities(dual, candidates) == expected
    assert report.hrep == expected


@pytest.mark.parametrize("selector", ["pn:5", "ptilde:3"])
def test_equality_choice_passes_over_rows_outside_the_span(selector):
    # equalities spanned by every other independence row, so that rows in
    # between lie outside the span and must be passed over
    structure = structure_from_name(selector)
    report = observed_outer_cone(structure)
    rows = _candidates(structure, report.index)
    partial = HRep(report.hrep.dimension, tuple(rows[::2]), report.hrep.inequalities,
                   report.hrep.labels)
    expected = _rref_per_candidate(partial, rows)
    assert expected is not partial
    assert nice_equalities(partial, rows) == expected


def test_rows_outside_the_span_do_not_block_later_rows():
    # (1,0,1) and (0,0,1) lie outside span(E) but their difference (1,0,0)
    # is in it; passing them over must leave (1,0,0) free to be chosen
    candidates = [(1, 0, 1), (0, 0, 1), (1, 0, 0), (0, 1, 0)]
    hrep = HRep(3, equalities=((1, 1, 0), (0, 1, 0)), inequalities=((0, 0, 1),))
    assert nice_equalities(hrep, candidates).equalities == ((1, 0, 0), (0, 1, 0))


# -- oracle: the equality choice on block restrictions against the dense chooser --

def _recorded_choices(monkeypatch, pipeline):
    """Each ``_nice_equalities`` call a pipeline makes: its base, split, forms and result."""
    import entrocone.analysis as analysis

    chooser, calls = analysis._nice_equalities, []

    def recorded(base, split, forms):
        out = chooser(base, split, forms)
        calls.append((base, split, forms, out))
        return out

    monkeypatch.setattr(analysis, "_nice_equalities", recorded)
    pipeline()
    assert len(calls) == 1
    return calls[0]


def _dense_choice(base, split, forms):
    rows, pivots = rref(base)
    assert rows == list(base)  # the choice gets the rref of the equality space
    return dense_nice_equalities(rows, pivots, independence_rows(forms, split.index))


@pytest.mark.parametrize("selector", [*(f"pn:{n}" for n in range(1, 9)),
                                      "bell", "ptilde:3", "ptilde:4"])
def test_equality_choice_matches_the_dense_chooser(monkeypatch, selector):
    structure = structure_from_name(selector)
    base, split, forms, out = _recorded_choices(monkeypatch, lambda: observed_outer_cone(structure))
    assert out == _dense_choice(base, split, forms)
    assert len(out) == len(base) and (out is not base or not base)  # independence rows print


def test_equality_choice_matches_the_dense_chooser_on_random_dags(monkeypatch):
    rng = np.random.default_rng(41)  # the DAGs of the full-coordinate outer oracle
    checked = 0
    while checked < 80:
        structure = random_dag(rng, int(rng.integers(1, 8)), edge_prob=float(rng.uniform(0.1, 0.6)))
        if not 1 <= len(structure.observed_ids()) <= 4:
            continue
        choice = _recorded_choices(monkeypatch, lambda: observed_outer_cone(structure))
        assert choice[3] == _dense_choice(*choice[:3])
        checked += 1


# N0 and N1 share no ancestor, and N2 screens N1 off from N3
SCREENED = CausalStructure(tuple(Node(v, "observed") for v in ("N0", "N1", "N2", "N3")),
                           (("N0", "N2"), ("N0", "N3"), ("N1", "N2"), ("N2", "N3")))


@pytest.mark.parametrize("pipeline, base_route", [
    (lambda: post_selected_marginal_cone(3), False),
    (lambda: full_marginal_outer_cone(bell_structure()), False),
    (lambda: full_marginal_outer_cone(SCREENED), True),
], ids=["bc-cone-3", "marginalize-bell", "marginalize-screened"])
def test_projected_equality_choice_matches_the_dense_chooser(monkeypatch, pipeline, base_route):
    base, split, forms, out = _recorded_choices(monkeypatch, pipeline)
    assert out == _dense_choice(base, split, forms)
    # the block cone's own equalities lie beyond every independence, and base prints
    assert (len(base) > sum(len(part) > 1 for part in split.parts)) == base_route
    assert (out is base) == base_route
    if base_route:  # and it prints before any form is read

        def unread():
            raise AssertionError("a form was read")
            yield

        assert _nice_equalities(base, split, unread()) is base


@pytest.mark.parametrize("pipeline", [
    lambda: observed_outer_cone(build_line_structure(4)),
    lambda: full_marginal_outer_cone(bell_structure()),
    lambda: post_selected_marginal_cone(3),
], ids=["outer", "marginalize", "bc-cone"])
def test_each_pipeline_derives_the_independences_once(monkeypatch, pipeline):
    calls = []
    def counted(*args, **kwargs):
        calls.append(args)
        return observed_independence_constraints(*args, **kwargs)
    monkeypatch.setattr("entrocone.analysis.observed_independence_constraints", counted)
    pipeline()
    assert len(calls) == 1


# a hidden node listed before the observed ones shifts every observed position
HIDDEN_FIRST = CausalStructure(
    (Node("C", "unobserved"), Node("X", "observed"), Node("Y", "observed")),
    (("C", "X"), ("C", "Y")))


@pytest.mark.parametrize("engine", ["dd", "fm"])
@pytest.mark.parametrize("pipeline", [
    lambda engine: observed_outer_cone(build_line_structure(4)),
    lambda engine: verify_line_tightness(4),
    lambda engine: full_marginal_outer_cone(bell_structure(), engine=engine),
    lambda engine: full_marginal_outer_cone(HIDDEN_FIRST, engine=engine),
    lambda engine: post_selected_marginal_cone(3, engine=engine),
], ids=["outer", "verify", "marginalize", "marginalize-hidden-first", "bc-cone"])
def test_reports_carry_the_index_labels(pipeline, engine):
    report = pipeline(engine)
    assert report.hrep.labels == report.vrep.labels == report.index.labels


# each pipeline's cone lies in the Shannon cone of its observed nodes, which is
# pointed, so no report has lineality: the text prints none and the JSON an empty list
POINTED_REPORTS = {
    **{f"outer-{s}": lambda s=s: observed_outer_cone(structure_from_name(s))
       for s in ("pn:1", "pn:2", "pn:3", "pn:4", "bell")},
    **{f"marginalize-bell-{e}": lambda e=e: full_marginal_outer_cone(bell_structure(), engine=e)
       for e in ("dd", "fm")},
    "bc-cone-3": lambda: post_selected_marginal_cone(3),
    **{f"verify-pn:{n}": lambda n=n: verify_line_tightness(n) for n in range(1, 6)},
}


@pytest.mark.parametrize("build", POINTED_REPORTS.values(), ids=POINTED_REPORTS.keys())
def test_every_pipeline_report_has_no_lineality(build):
    report = build()
    assert report.vrep.lineality == ()
    assert "lineality" not in report_to_text(report)
    assert json.loads(report_to_json(report))["lineality"] == []


# -- oracle: the full-coordinate projections the block route replaced -----------

def _listed_in(structure, order):
    return CausalStructure(tuple(next(n for n in structure.nodes if n.id == v) for v in order),
                           structure.edges)


def _hidden_before_observed_dags():
    """Structures listing a hidden node before an observed one.

    HIDDEN_FIRST, bell and pn:3 with each hidden node listed before its
    second child, and 30 random DAGs of 3 or 4 nodes.  The random DAGs stop
    at 4 nodes because a dense 5-node one with one hidden node takes 15 s
    under dd and 50 s under fm, on either route.
    """
    rng = np.random.default_rng(20261020)
    structures = [HIDDEN_FIRST, _listed_in(bell_structure(), "AXCYB"),
                  _listed_in(build_line_structure(3), ("X1", "C1", "X2", "C2", "X3"))]
    while len(structures) < 33:
        g = random_dag(rng, int(rng.integers(3, 5)))
        kinds = [node.kind for node in g.nodes]
        if "unobserved" in kinds and "observed" in kinds[kinds.index("unobserved"):]:
            structures.append(g)
    return structures


def _observed(*ids):
    return tuple(Node(v, "observed") for v in ids)


# a hidden-free chain (no block is dropped), a hidden-free collider, and a hidden
# node named AB, whose block H(AB) has the label of the observed pair A, B
_ORACLE_EXTRAS = {
    "chain": CausalStructure(_observed("A", "B", "C"), (("A", "B"), ("B", "C"))),
    "collider": CausalStructure(_observed("A", "B", "C"), (("A", "C"), ("B", "C"))),
    "hidden-named-AB": CausalStructure((*_observed("A", "B"), Node("AB", "unobserved"),
                                        *_observed("C")),
                                       (("AB", "A"), ("AB", "B"), ("B", "C"))),
}


@pytest.mark.parametrize("engine", ["dd", "fm"])
@pytest.mark.parametrize("name", ["bell", "pn:2", "pn:3", "pn:4", *_ORACLE_EXTRAS])
def test_marginalize_equals_the_full_coordinate_projection(name, engine):
    structure = _ORACLE_EXTRAS.get(name) or structure_from_name(name)
    hrep, vrep = full_coordinate_marginal_cone(structure, engine)
    report = full_marginal_outer_cone(structure, engine=engine)
    assert report.hrep == hrep
    assert report.vrep == vrep


@pytest.mark.parametrize("engine", ["dd", "fm"])
def test_marginalize_equals_the_full_coordinate_projection_with_hidden_nodes_first(engine):
    for structure in _hidden_before_observed_dags():
        hrep, vrep = full_coordinate_marginal_cone(structure, engine)
        report = full_marginal_outer_cone(structure, engine=engine)
        assert (report.hrep, report.vrep) == (hrep, vrep), structure.to_json()


def test_observed_blocks_of_all_nodes_keep_the_observed_split_order():
    # marginalize lifts its projection with the observed split by position alone
    from entrocone.entropy_space import _bit_positions
    for structure in _hidden_before_observed_dags():
        names, observed = structure.node_ids(), structure.observed_ids()
        every = BlockSplit(CoordinateIndex(names), clash_masks(structure, names))
        hidden = mask_of(every.index, hidden_ids(structure))
        at = {names.index(v): i for i, v in enumerate(observed)}
        kept = tuple(sum(1 << at[p] for p in _bit_positions(block))
                     for block in every.blocks if not block & hidden)
        assert kept == BlockSplit(CoordinateIndex(observed), clash_masks(structure, observed)).blocks


@pytest.mark.parametrize("engine", ["dd", "fm"])
@pytest.mark.parametrize("k", [3, 4])
def test_bc_cone_equals_the_full_coordinate_projection(k, engine):
    hrep, vrep = full_coordinate_post_selected_cone(k, engine)
    report = post_selected_marginal_cone(k, engine=engine)
    assert report.hrep == hrep
    assert report.vrep == vrep


# -- oracle: the scenario pool against the Fraction re-indexing it replaced ----

def _fraction_scenario_shannon_pool(index):
    """_scenario_shannon_pool as it was: each maximal subset's Fraction elemental
    system over its own variables, re-indexed into the scenario coordinates."""
    from test_entropy_space import _fraction_elemental_forms
    masks = set(index.masks)
    maximal = [m for m in masks if not any(m != m2 and (m | m2) == m2 for m2 in masks)]
    pool = set()
    for m in sorted(maximal):
        sub = CoordinateIndex(tuple(v for i, v in enumerate(index.variables) if m >> i & 1))
        for coeffs in _fraction_elemental_forms(len(sub.variables)):
            row = [Fraction(0)] * len(index)
            for smask, coeff in coeffs.items():
                gmask = mask_of(index, (v for i, v in enumerate(sub.variables) if smask >> i & 1))
                row[index.position(gmask)] += coeff
            pool.add(fraction_primitive(row))
    return sorted(pool)


@pytest.mark.parametrize("k", [3, 4])
def test_scenario_pool_matches_the_fraction_reindexing(k):
    from entrocone.analysis import _marginal_scenario, _scenario_shannon_pool
    _, marginal_index = _marginal_scenario(build_post_selected_line(k))
    pool = _scenario_shannon_pool(marginal_index)
    assert pool == _fraction_scenario_shannon_pool(marginal_index)
    assert all(type(v) is int for row in pool for v in row)
