"""Acceptance suite: one test per criterion, with its stated tolerance.

Each test prints a PASS line on success (run with ``pytest -s`` to see
them).  Runtime budgets are asserted against the criterion's stated limit.
"""

import itertools
import time

import numpy as np

from entrocone.analysis import (classify_shannon_facets, full_marginal_outer_cone,
                                observed_outer_cone, post_selected_marginal_cone,
                                split_generated_rays, verify_line_tightness)
from entrocone.causal import (bell_structure, build_line_structure, d_separated,
                              observed_independence_constraints,
                              reduced_line_structure)
from entrocone.cli import main as cli_main
from entrocone.distributions import CausalModel, compile_model, entropy_vector
from entrocone.entropy_space import (CoordinateIndex, elemental_shannon_system,
                                     reduced_line_system, system_rows)
from entrocone.polyhedra import (HRep, cones_equal, dd_project, enumerate_rays,
                                 facets_from_rays, fm_eliminate, primitive,
                                 reduce_mod_span, rref, sign_canonical)

from conftest import random_cone_hrep
from oracles import bc_functional_variants, setting_conditionals
from reference_tables import (LINE4_RAYS, POST_SELECTED3_FAMILIES,
                              POST_SELECTED3_RAYS)


def _report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number}: PASS — {description}")


def _cli_rays(capsys, *argv) -> tuple[int, list[tuple[int, ...]], str]:
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    rays = []
    in_rays = False
    for line in out.splitlines():
        stripped = line.strip()
        if stripped.startswith("extremal rays"):
            in_rays = True
            continue
        if in_rays:
            if not stripped.startswith("("):
                break
            body = stripped.split(")", 1)[1].split("<-")[0]
            rays.append(tuple(int(v) for v in body.split()))
    return code, rays, out


def test_criterion_1_line4_ray_table(capsys):
    start = time.perf_counter()
    code, rays, out = _cli_rays(capsys, "outer", "pn:4")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert len(rays) == 10
    assert set(rays) == set(LINE4_RAYS.values())
    # same table through the bell variable names, H(AB) at position 7
    code_bell, rays_bell, out_bell = _cli_rays(capsys, "outer", "bell")
    assert code_bell == 0
    assert set(rays_bell) == set(LINE4_RAYS.values())
    assert ("coordinates (15): H(A) H(X) H(Y) H(B) H(AX) H(AY) H(AB) H(XY) H(XB) "
            "H(YB) H(AXY) H(AXB) H(AYB) H(XYB) H(AXYB)") in out_bell
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"
    with capsys.disabled():
        _report(1, f"outer pn:4 emits the 10 reference rays byte-exact ({elapsed:.2f}s)")


def test_criterion_2_tightness_up_to_seven(capsys):
    start = time.perf_counter()
    for n in range(1, 8):
        t0 = time.perf_counter()
        report = verify_line_tightness(n)
        t_n = time.perf_counter() - t0
        expected = n * (n + 1) // 2
        assert report.verdict == "tight", f"n={n} not tight: {report.notes}"
        assert len(report.rays) == expected
        assert len(report.witnesses) == expected
        pairs = {(w["i"], w["j"]) for w in report.witnesses.values()}
        assert len(pairs) == expected  # distinct witness per ray
        if n == 7:
            assert t_n < 10.0, f"verify pn:7 took {t_n:.2f}s (budget 10s)"
    code = cli_main(["verify", "pn:4"])
    out = capsys.readouterr().out
    assert code == 0 and "verdict: tight" in out
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(2, f"verify pn:1..7 tight with n(n+1)/2 distinct witnesses ({elapsed:.2f}s)")


def test_criterion_3_minimal_shannon_counts(capsys):
    start = time.perf_counter()
    for n in range(2, 9):
        system = elemental_shannon_system([f"X{i}" for i in range(1, n + 1)])
        assert len(system.inequalities) == n + n * (n - 1) * 2 ** (n - 3)
    assert len(elemental_shannon_system([f"X{i}" for i in range(1, 5)]).inequalities) == 28
    assert len(elemental_shannon_system([f"X{i}" for i in range(1, 6)]).inequalities) == 85
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s (budget 1s)"
    with capsys.disabled():
        _report(3, f"minimal Shannon counts match n + n(n-1)2^(n-3) for n=2..8 ({elapsed:.2f}s)")


def test_criterion_4_reduction_cone_equivalence(capsys):
    start = time.perf_counter()
    for n in range(3, 7):
        t0 = time.perf_counter()
        structure = build_line_structure(n)
        observed = structure.observed_ids()
        index = CoordinateIndex(observed)
        eq_rows = tuple(primitive(f.row(index))
                        for f in observed_independence_constraints(structure))
        _, shannon_rows = system_rows(elemental_shannon_system(observed))
        _, reduced_rows = system_rows(reduced_line_system(n))
        full = HRep(len(index), eq_rows, tuple(shannon_rows))
        reduced = HRep(len(index), eq_rows, tuple(reduced_rows))
        assert cones_equal(full, reduced), f"cones differ at n={n}"
        t_n = time.perf_counter() - t0
        if n == 6:
            assert t_n < 60.0, f"n=6 equivalence took {t_n:.2f}s (budget 60s)"
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(4, f"elemental+independence cone equals the reduced cone, n=3..6 ({elapsed:.2f}s)")


def test_criterion_5_marginalization_consistency(capsys):
    target = observed_outer_cone(build_line_structure(4))
    assert set(target.rays) == set(LINE4_RAYS.values())

    t0 = time.perf_counter()
    via_dd = full_marginal_outer_cone(bell_structure(), engine="dd")
    t_dd = time.perf_counter() - t0
    assert cones_equal(via_dd.hrep, target.hrep)
    assert set(via_dd.rays) == set(LINE4_RAYS.values())
    assert t_dd < 60.0, f"DD engine took {t_dd:.2f}s (budget 60s)"

    t0 = time.perf_counter()
    via_fm = full_marginal_outer_cone(bell_structure(), engine="fm")
    t_fm = time.perf_counter() - t0
    assert cones_equal(via_fm.hrep, target.hrep)
    assert t_fm < 300.0, f"FM engine took {t_fm:.2f}s (budget 5min)"

    # the paper's theorem by a second route: projecting out the hidden causes
    # of pn:4 and pn:5 gives the line cones that outer computes
    t0 = time.perf_counter()
    for n, engine, max_nodes in ((4, "dd", 7), (4, "fm", 7), (5, "dd", 9)):
        line = build_line_structure(n)
        projected = full_marginal_outer_cone(line, engine=engine, max_nodes=max_nodes)
        assert cones_equal(projected.hrep, observed_outer_cone(line).hrep), (n, engine)
    t_lines = time.perf_counter() - t0
    assert t_lines < 60.0, f"pn:4 and pn:5 took {t_lines:.2f}s (budget 60s)"
    with capsys.disabled():
        _report(5, f"hidden-variable projection equals the 10-ray cone "
                   f"(dd {t_dd:.2f}s, fm {t_fm:.2f}s), and the pn:4 and pn:5 "
                   f"line cones ({t_lines:.2f}s)")


def _family_row(terms, index: CoordinateIndex) -> tuple[int, ...]:
    row = [0] * len(index)
    for coeff, subset, condition in terms:
        subset_mask = index.mask_of(_split_names(subset))
        if condition:
            cond_mask = index.mask_of(_split_names(condition))
            row[index.position(subset_mask | cond_mask)] += coeff
            row[index.position(cond_mask)] -= coeff
        else:
            row[index.position(subset_mask)] += coeff
    return tuple(row)


def _split_names(text: str) -> list[str]:
    names = []
    i = 0
    while i < len(text):
        if i + 1 < len(text) and text[i + 1] in "01":
            names.append(text[i: i + 2])
            i += 2
        else:
            names.append(text[i])
            i += 1
    return names


def test_criterion_6_post_selected_3(capsys):
    start = time.perf_counter()
    report = post_selected_marginal_cone(3)
    assert len(report.rays) == 20
    assert set(report.rays) == set(POST_SELECTED3_RAYS.values())
    shannon, extra = classify_shannon_facets(report.hrep, report.index)
    assert len(extra) + len(report.hrep.equalities) == 36

    # each printed family appears verbatim up to integer scaling, modulo the
    # cone's equality space
    eq_rref, eq_piv = rref(report.hrep.equalities)
    facet_classes = {reduce_mod_span(f, eq_rref, eq_piv) for f in report.hrep.inequalities}
    eq_classes = {sign_canonical(reduce_mod_span(e, eq_rref, eq_piv))
                  for e in report.hrep.equalities}
    for terms, relation in POST_SELECTED3_FAMILIES:
        row = _family_row(terms, report.index)
        if relation == ">=":
            assert reduce_mod_span(row, eq_rref, eq_piv) in facet_classes
        else:
            assert sign_canonical(reduce_mod_span(row, eq_rref, eq_piv)) in eq_classes
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.2f}s (budget 60s)"
    with capsys.disabled():
        _report(6, f"post-selected 3-line: 20 reference rays, 36 non-Shannon members, "
                   f"all 7 families present ({elapsed:.2f}s)")


def test_criterion_7_splitting_recovers_rays(capsys):
    start = time.perf_counter()
    split = split_generated_rays()
    assert set(split.rays) == set(POST_SELECTED3_RAYS.values())
    assert len(split.rays) == 20
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 7 took {elapsed:.2f}s (budget 10s)"
    with capsys.disabled():
        _report(7, f"outer-node splitting of the six line witnesses recovers "
                   f"the 20 rays ({elapsed:.2f}s)")


def test_criterion_8_post_selected_4_counts(capsys):
    start = time.perf_counter()
    report = post_selected_marginal_cone(4)
    elapsed = time.perf_counter() - start
    assert len(report.hrep.equalities) == 16
    assert len(report.hrep.inequalities) == 153
    assert elapsed < 1800.0, f"criterion 8 took {elapsed:.2f}s (budget 30min)"
    with capsys.disabled():
        _report(8, f"post-selected 4-line: 16 equalities and 153 inequalities ({elapsed:.1f}s)")


def test_criterion_9_functional_positivity(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20250810)  # fixed recorded seed
    structure = reduced_line_structure(("A", "X", "Y", "B"))
    parents = structure.parents_map()
    worst = np.inf
    for _ in range(1000):
        sizes = {"A": 2, "B": 2,
                 "X": int(rng.integers(2, 5)), "Y": int(rng.integers(2, 5)),
                 "C": int(rng.integers(2, 5))}
        cpts = {}
        for node in structure.node_ids():
            shape = tuple(sizes[p] for p in parents[node])
            out = sizes[node]
            if shape:
                cpt = np.empty((*shape, out))
                for idx in np.ndindex(*shape):
                    cpt[idx] = rng.dirichlet(np.ones(out))
            else:
                cpt = rng.dirichlet(np.ones(out))
            cpts[node] = cpt
        model = CausalModel(structure, sizes, cpts)
        tables = setting_conditionals(model)
        for value in bc_functional_variants(tables).values():
            worst = min(worst, value)
            assert value >= -1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 9 took {elapsed:.2f}s (budget 30s)"
    with capsys.disabled():
        _report(9, f"functional nonnegative on 1000 sampled models, all variants "
                   f"(min {worst:.3g}, {elapsed:.2f}s)")


def _separated_observed_triples(n: int):
    """All d-separated (X, Y, Z) observed triples of the n-node line."""
    structure = build_line_structure(n)
    observed = structure.observed_ids()
    triples = []
    for assignment in itertools.product(range(4), repeat=n):
        xs = [v for v, a in zip(observed, assignment) if a == 0]
        ys = [v for v, a in zip(observed, assignment) if a == 1]
        zs = [v for v, a in zip(observed, assignment) if a == 2]
        if not xs or not ys:
            continue
        if d_separated(structure, xs, ys, zs):
            triples.append((tuple(xs), tuple(ys), tuple(zs)))
    return structure, triples


def test_criterion_10_d_separation_soundness(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(42424242)  # fixed recorded seed
    by_n = {n: _separated_observed_triples(n) for n in range(2, 7)}
    worst = 0.0
    checked = 0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        structure, triples = by_n[n]
        parents = structure.parents_map()
        sizes = {v: int(rng.integers(2, 3)) if v.startswith("C") else int(rng.integers(2, 4))
                 for v in structure.node_ids()}
        cpts = {}
        for node in structure.node_ids():
            shape = tuple(sizes[p] for p in parents[node])
            out = sizes[node]
            if shape:
                cpt = np.empty((*shape, out))
                for idx in np.ndindex(*shape):
                    cpt[idx] = rng.dirichlet(np.ones(out))
            else:
                cpt = rng.dirichlet(np.ones(out))
            cpts[node] = cpt
        model = CausalModel(structure, sizes, cpts)
        observed = structure.observed_ids()
        joint = compile_model(model).marginal(observed)
        index = CoordinateIndex(observed)
        vector = entropy_vector(joint)

        def h(names):
            if not names:
                return 0.0
            return vector.values[index.position(index.mask_of(names))]

        for xs, ys, zs in triples:
            value = h(xs + zs) + h(ys + zs) - h(xs + ys + zs) - h(zs)
            worst = max(worst, abs(value))
            assert abs(value) < 1e-9
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 10 took {elapsed:.2f}s (budget 60s)"
    with capsys.disabled():
        _report(10, f"d-separation sound on 500 models / {checked} separated triples "
                    f"(max |I| {worst:.2g}, {elapsed:.2f}s)")


def test_criterion_11_engine_oracle_equivalence(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(777001)  # fixed recorded seed
    for case in range(200):
        dim = int(rng.integers(2, 8))
        n_rows = int(rng.integers(1, 15))
        h = random_cone_hrep(rng, dim, n_rows)
        coords = sorted(rng.choice(dim, size=int(rng.integers(1, dim)),
                                   replace=False).tolist())
        fm = fm_eliminate(h, coords)
        dd = dd_project(h, coords)
        assert cones_equal(fm, dd), f"case {case}: FM and DD projections differ"
        v = enumerate_rays(h)
        assert cones_equal(h, facets_from_rays(v)), f"case {case}: round trip failed"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 11 took {elapsed:.2f}s (budget 60s)"
    with capsys.disabled():
        _report(11, f"FM and DD projections agree and H<->V round trips are exact "
                    f"on 200 random cones ({elapsed:.2f}s)")
