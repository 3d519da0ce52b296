"""Exact cone engine: double description, Fourier-Motzkin, conversions."""

from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from entrocone import analysis
from entrocone._simplex import conic_combination
from entrocone.causal import (bell_structure, build_line_structure,
                              observed_independence_constraints)
from entrocone.entropy_space import CoordinateIndex, elemental_shannon_system, system_rows
from entrocone.errors import InvalidParameter
from entrocone.polyhedra import (Echelon, HRep, VRep, _dd_pointed_with_lineality,
                                 dd_project, dot, enumerate_rays, facets_from_rays,
                                 fm_eliminate, membership, nullspace, primitive,
                                 reduce_mod_span, remove_redundancies, rep_from_json,
                                 rep_to_json, rep_to_text, rref)

from conftest import (fm_eliminate_per_step, hidden_ids, local_markov_projection,
                      random_cone_hrep)
from oracles import cones_equal, fraction_primitive, sparse
from reference_tables import LINE4_RAYS


def line4_outer_hrep() -> HRep:
    structure = build_line_structure(4)
    observed = structure.observed_ids()
    index = CoordinateIndex(observed)
    _, ineqs = system_rows(elemental_shannon_system(observed))
    eqs = tuple(primitive(f.row(index))
                for f in observed_independence_constraints(structure))
    return HRep(len(index), eqs, tuple(ineqs), labels=index.labels)


class TestNormalization:
    def test_primitive_scales_and_keeps_direction(self):
        assert primitive((2, -4, 6)) == (1, -2, 3)
        assert primitive((0, -2)) == (0, -1)

    def test_primitive_idempotent(self):
        for vec in [(3, 6, -9), (0, 0, 5), (7,)]:
            assert primitive(primitive(vec)) == primitive(vec)

    @pytest.mark.parametrize("build", [
        lambda: HRep(2, inequalities=((1, 0),), labels=("a", "b", "c")),
        lambda: VRep(2, rays=((1, 0),), labels=("a", "b", "c")),
    ], ids=["hrep", "vrep"])
    def test_labels_that_miss_the_dimension_are_refused(self, build):
        with pytest.raises(InvalidParameter, match="^labels must match the dimension$"):
            build()


class TestDoubleDescription:
    def test_positive_orthant(self):
        v = enumerate_rays(HRep(2, inequalities=((1, 0), (0, 1))))
        assert v.rays == ((0, 1), (1, 0))
        assert v.lineality == ()

    def test_halfspace_reports_lineality(self):
        v = enumerate_rays(HRep(2, inequalities=((1, 0),)))
        assert v.rays == ((1, 0),)
        assert v.lineality == ((0, 1),)

    def test_whole_space(self):
        v = enumerate_rays(HRep(3))
        assert v.rays == ()
        assert len(v.lineality) == 3

    def test_point_cone(self):
        v = enumerate_rays(HRep(2, equalities=((1, 0), (0, 1))))
        assert v.rays == () and v.lineality == ()

    def test_simplicial_3d(self):
        h = HRep(3, inequalities=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert enumerate_rays(h).rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_line4_outer_cone_rays(self):
        v = enumerate_rays(line4_outer_hrep())
        assert set(v.rays) == set(LINE4_RAYS.values())
        assert len(v.rays) == 10

    def test_deterministic_output(self):
        h = line4_outer_hrep()
        assert rep_to_text(enumerate_rays(h)) == rep_to_text(enumerate_rays(h))


class TestConversions:
    def test_facets_of_orthant_rays(self):
        h = facets_from_rays(VRep(2, rays=((1, 0), (0, 1))))
        assert set(h.inequalities) == {(1, 0), (0, 1)}
        assert h.equalities == ()

    def test_round_trip_line4(self):
        v = enumerate_rays(line4_outer_hrep())
        again = enumerate_rays(facets_from_rays(v))
        assert again.rays == v.rays

    def test_low_dimensional_cone_gets_equalities(self):
        # a single ray in 3-space: two independent equalities in the H-rep
        h = facets_from_rays(VRep(3, rays=((1, 1, 0),)))
        assert len(h.equalities) == 2
        assert membership(h, (2, 2, 0))
        assert not membership(h, (1, 0, 0))

    def test_round_trip_drops_interior_generators(self):
        v = VRep(2, rays=((1, 0), (0, 1), (1, 1)))
        out = enumerate_rays(facets_from_rays(v))
        assert set(out.rays) == {(1, 0), (0, 1)}

    def test_round_trip_random(self, rng):
        for _ in range(30):
            h = random_cone_hrep(rng, int(rng.integers(2, 5)), int(rng.integers(1, 7)))
            v = enumerate_rays(h)
            assert cones_equal(h, facets_from_rays(v))


class TestRedundancyRemoval:
    def test_scalar_multiple_dropped(self):
        out = remove_redundancies(HRep(1, inequalities=((1,), (2,))))
        assert out.inequalities == ((1,),)

    def test_sum_dropped(self):
        out = remove_redundancies(HRep(2, inequalities=((1, 0), (0, 1), (1, 1))))
        assert set(out.inequalities) == {(1, 0), (0, 1)}

    def test_line4_redundancy_preserves_cone(self):
        h = line4_outer_hrep()
        out = remove_redundancies(h)
        assert cones_equal(h, out)
        assert len(out.inequalities) == 10

    def test_certificates_are_valid_combinations(self):
        h = HRep(2, inequalities=((1, 0), (0, 1), (1, 1), (2, 0)))
        minimal, certs = remove_redundancies(h, certificates=True)
        assert set(minimal.inequalities) == {(1, 0), (0, 1)}
        for row, cert in zip(h.inequalities, certs):
            assert cert is not None
            lambdas, mus = cert
            assert all(l >= 0 for l in lambdas)
            recon = [0] * 2
            for l, kept in zip(lambdas, minimal.inequalities):
                for i, v in enumerate(kept):
                    recon[i] += l * v
            assert tuple(recon) == tuple(map(Fraction, row))


class TestMembership:
    def test_ray_ii_in_line4_cone(self):
        h = line4_outer_hrep()
        assert membership(h, LINE4_RAYS["ii"])

    def test_vrep_membership(self):
        cone = facets_from_rays(VRep(2, rays=((1, 0), (1, 1))))
        assert membership(cone, (3, 2))
        assert membership(cone, (1, 1))
        assert not membership(cone, (0, 1))
        assert not membership(cone, (-1, 0))

    def test_negative_entropy_outside(self):
        h = line4_outer_hrep()
        assert not membership(h, (-1,) + (0,) * 14)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameter):
            membership(HRep(2, inequalities=((1, 0),)), (1, 2, 3))
        with pytest.raises(InvalidParameter):
            cones_equal(HRep(2), HRep(3))

    def test_interior_point(self):
        h = line4_outer_hrep()
        point = [sum(r[i] for r in LINE4_RAYS.values()) for i in range(15)]
        assert membership(h, point)


class TestFourierMotzkin:
    def test_transitivity(self):
        h = HRep(3, inequalities=((-1, 1, 0), (0, -1, 1)))
        out = fm_eliminate(h, [1])
        assert out.inequalities == ((-1, 1),)

    def test_rejects_eliminating_everything(self):
        with pytest.raises(InvalidParameter):
            fm_eliminate(HRep(2, inequalities=((1, 0),)), [0, 1])
        with pytest.raises(InvalidParameter):
            fm_eliminate(HRep(2, inequalities=((1, 0),)), [0, 5])

    @pytest.mark.parametrize("coord", [99, -1])
    @pytest.mark.parametrize("project", [fm_eliminate, dd_project], ids=["fm", "dd"])
    def test_rejects_out_of_range_coordinates(self, project, coord):
        h = HRep(3, inequalities=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(InvalidParameter, match=f"coordinate {coord} out of range"):
            project(h, [coord])

    def test_equality_substitution_path(self):
        # x = y and x >= 0 projected to y gives y >= 0
        h = HRep(2, equalities=((1, -1),), inequalities=((1, 0),))
        out = fm_eliminate(h, [0])
        assert out.inequalities == ((1,),)
        assert out.equalities == ()

    def test_eliminating_nothing_removes_redundancies(self, rng):
        cones = [line4_outer_hrep(), HRep(2, inequalities=((1, 0), (0, 1), (1, 1), (2, 0))),
                 HRep(3, ((1, -1, 0),), ((1, 0, 0), (0, 1, 1), (2, 1, 1)))]
        cones += [random_cone_hrep(rng, 4, 6) for _ in range(5)]
        for h in cones:
            # the projections carry no labels
            assert fm_eliminate(h, []) == remove_redundancies(replace(h, labels=None))

    def test_unbounded_coordinate_drops_rows(self):
        # eliminating x from {x >= y} leaves no constraint on y
        h = HRep(2, inequalities=((1, -1),))
        out = fm_eliminate(h, [0])
        assert out.inequalities == ()
        v = enumerate_rays(out)
        assert len(v.lineality) == 1

    def test_matches_dd_on_random_cones(self, rng):
        for _ in range(60):
            dim = int(rng.integers(3, 7))
            h = random_cone_hrep(rng, dim, int(rng.integers(2, 11)))
            n_drop = int(rng.integers(1, dim - 1))
            coords = sorted(rng.choice(dim, size=n_drop, replace=False).tolist())
            assert fm_eliminate(h, coords) == dd_project(h, coords)

    def test_projection_soundness_sample_points(self, rng):
        # points of the projection lift to points of the original cone:
        # every projected ray must be the shadow of some original ray
        for _ in range(20):
            dim = int(rng.integers(3, 6))
            h = random_cone_hrep(rng, dim, int(rng.integers(2, 8)))
            coords = [int(rng.integers(0, dim))]
            keep = [i for i in range(dim) if i not in coords]
            fm = fm_eliminate(h, coords)
            original = enumerate_rays(h)
            shadows = {primitive(tuple(r[i] for i in keep))
                       for r in original.rays if any(r[i] for i in keep)}
            for line in original.lineality:
                shadow = tuple(line[i] for i in keep)
                if any(shadow):
                    shadows.add(primitive(shadow))
                    shadows.add(primitive(tuple(-v for v in shadow)))
            shadow_cone = facets_from_rays(VRep(len(keep), tuple(sorted(shadows)),
                                                enumerate_rays(fm).lineality))
            for ray in enumerate_rays(fm).rays:
                assert membership(shadow_cone, ray)


class TestSerialization:
    def test_json_round_trip_hrep(self):
        h = line4_outer_hrep()
        again = rep_from_json(rep_to_json(h))
        assert isinstance(again, HRep)
        assert again.equalities == h.equalities
        assert again.inequalities == h.inequalities
        assert again.labels == h.labels

    def test_json_round_trip_vrep(self):
        v = enumerate_rays(line4_outer_hrep())
        again = rep_from_json(rep_to_json(v))
        assert isinstance(again, VRep)
        assert again.rays == v.rays

    def test_bad_files_name_the_field(self):
        with pytest.raises(InvalidParameter, match="type"):
            rep_from_json("{}")
        with pytest.raises(InvalidParameter, match="dimension"):
            rep_from_json('{"type": "hrep"}')
        with pytest.raises(InvalidParameter, match=r"rays\[0\]"):
            rep_from_json('{"type": "vrep", "dimension": 2, "rays": [[1]]}')
        with pytest.raises(InvalidParameter, match=r"inequalities\[0\]"):
            rep_from_json('{"type": "hrep", "dimension": 2, "inequalities": [[0.5, 1]]}')
        with pytest.raises(InvalidParameter, match="dimension"):
            rep_from_json('{"type": "hrep", "dimension": "2x"}')
        with pytest.raises(InvalidParameter, match="'inequalities'"):
            rep_from_json('{"type": "hrep", "dimension": 2, "inequalities": 5}')
        with pytest.raises(InvalidParameter, match="'rays'"):
            rep_from_json('{"type": "vrep", "dimension": 2, "rays": 5}')
        with pytest.raises(InvalidParameter, match="'coordinates'"):
            rep_from_json('{"type": "hrep", "dimension": 2, "coordinates": 5}')
        with pytest.raises(InvalidParameter, match="'coordinates'"):
            rep_from_json('{"type": "hrep", "dimension": 2, "coordinates": ["a"]}')

    def test_text_sections(self):
        text = rep_to_text(line4_outer_hrep())
        assert text.startswith("DIM = 15")
        assert "INEQUALITIES_SECTION" in text
        text_v = rep_to_text(enumerate_rays(line4_outer_hrep()))
        assert "CONE_SECTION" in text_v


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6))
def test_primitive_idempotent_property(vector):
    assert primitive(primitive(vector)) == primitive(vector)


# -- oracle: the integer kernel against the Fraction formulas it replaced ------

_entries = st.integers(-20, 20)


def _fraction_membership(h, vector):
    def value(row):
        return sum(Fraction(a) * Fraction(b) for a, b in zip(row, vector))
    return (all(value(row) == 0 for row in h.equalities)
            and all(value(row) >= 0 for row in h.inequalities))


@settings(max_examples=200, deadline=None)
@given(st.lists(_entries, max_size=6))
@example([0, 0, 0])
def test_primitive_matches_fraction_formula(vector):
    out = primitive(vector)
    assert out == fraction_primitive(vector)
    assert all(type(v) is int for v in out)


@st.composite
def _hrep_and_vector(draw):
    dim = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    h = HRep(dim, tuple(draw(st.lists(row, max_size=2))), tuple(draw(st.lists(row, max_size=6))))
    zero = st.just([0] * dim)
    return h, draw(st.one_of(zero, st.lists(_entries, min_size=dim, max_size=dim)))


@settings(max_examples=200, deadline=None)
@given(_hrep_and_vector())
def test_h_membership_matches_fraction_dot_products(case):
    h, vector = case
    assert membership(h, vector) == _fraction_membership(h, vector)


def _fraction_rref(rows):
    work = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    width = len(work[0]) if work else 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        lead = work[r][c]
        work[r] = [v / lead for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [v - f * w for v, w in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [fraction_primitive(work[i]) for i in range(r)], pivots


def _fraction_reduce_mod_span(vector, basis_rref, pivots):
    vec = [Fraction(v) for v in vector]
    for row, pc in zip(basis_rref, pivots):
        if vec[pc] != 0:
            f = vec[pc] / row[pc]
            vec = [v - f * w for v, w in zip(vec, row)]
    return fraction_primitive(vec)


@st.composite
def _rows_and_vector(draw):
    # up to 40 columns of mostly zero entries, as the pipeline's equality rows are,
    # so that the sparse back pass clears rows that share only a few columns
    width = draw(st.integers(1, 40))
    entry = draw(st.sampled_from([_entries, st.sampled_from((0,) * 8 + (-3, -1, 1, 2))]))
    row = st.lists(entry, min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=9))
    # zero rows and repeats of earlier rows
    for _ in range(draw(st.integers(0, 3))):
        new = draw(st.sampled_from([[0] * width, *rows]))
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows, draw(row)


@settings(max_examples=200, deadline=None)
@given(_rows_and_vector())
@example(([[0, 2, -4], [0, -1, 2], [1, 0, 2]], [9, -5, 0]))
@example(([[0] * 39 + [1], [0] * 40, [1] + [0] * 38 + [-2], [0] * 39 + [1], [0, -1] + [0] * 38],
          [3] + [0] * 38 + [1]))
def test_integer_rref_matches_fraction_elimination(case):
    rows, vector = case
    base, pivots = rref(rows)
    assert (base, pivots) == _fraction_rref(rows)
    assert all(type(v) is int for row in base for v in row)
    reduced = reduce_mod_span(vector, base, pivots)
    assert reduced == _fraction_reduce_mod_span(vector, base, pivots)
    assert all(type(v) is int for v in reduced)


@st.composite
def _vrep_and_vector(draw):
    dim = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    v = VRep(dim, tuple(draw(st.lists(row, max_size=5))), tuple(draw(st.lists(row, max_size=2))))
    zero = st.just([0] * dim)
    return v, draw(st.one_of(zero, row, st.lists(_entries, min_size=dim, max_size=dim)))


@settings(max_examples=200, deadline=None)
@given(_vrep_and_vector())
@example((VRep(3), [0, 0, 0]))
@example((VRep(3), [0, 1, 0]))
@example((VRep(2, rays=((1, 0),), lineality=((1, 1),)), [0, -5]))
def test_v_membership_matches_lp(case):
    v, vector = case
    in_cone = conic_combination(v.rays, v.lineality, vector) is not None
    assert membership(facets_from_rays(v), vector) == in_cone


def _fraction_nullspace(rows, dim):
    reduced, pivots = _fraction_rref(rows)
    basis = []
    for fc in [c for c in range(dim) if c not in pivots]:
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -Fraction(row[fc], row[pc])
        basis.append(fraction_primitive(vec))
    return basis


@st.composite
def _rows_and_width(draw):
    width = draw(st.integers(1, 6))
    row = st.lists(_entries, min_size=width, max_size=width)
    return draw(st.lists(row, max_size=6)), width


@settings(max_examples=200, deadline=None)
@given(_rows_and_width())
@example(([], 3))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[1, 0], [0, 1]], 2))
@example(([[4, -6, 1], [-4, 0, 15]], 3))
def test_integer_nullspace_matches_fraction_formula(case):
    rows, dim = case
    basis = nullspace(rows, dim)
    assert basis == _fraction_nullspace(rows, dim)
    assert all(type(v) is int for vec in basis for v in vec)


# -- oracle: the incremental Echelon against the Fraction elimination ----------

@st.composite
def _insert_sequence(draw):
    width = draw(st.integers(1, 6))
    entry = draw(st.sampled_from([st.integers(-4, 4), st.sampled_from((-1, 0, 0, 0, 1))]))
    row = st.lists(entry, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    # dependent rows: repeats, negations and sums of earlier rows
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        new = draw(st.sampled_from([a, [-v for v in a], [x + y for x, y in zip(a, b)]]))
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows, draw(row), width


@settings(max_examples=300, deadline=None)
@given(_insert_sequence())
@example(([[0, 0, 0], [0, -2, 4], [3, 0, 0], [0, 1, -2], [1, 1, 1]], [5, -1, 2], 3))
@example(([[0, 1], [1, 0]], [2, 3], 2))  # a later row takes an earlier pivot column
def test_incremental_echelon_matches_fraction_elimination(case):
    rows, probe, width = case
    span = Echelon()
    for k, row in enumerate(rows, 1):
        rank = len(span.rows)
        inserted = span.add(sparse(row))
        base, pivots = _fraction_rref(rows[:k])
        assert rref(rows[:k]) == (base, pivots)
        assert inserted == (len(base) > rank)
        assert sorted(span.pivots) == pivots
        # the rows are sparse: their nonzero entries, read here as dense rows
        assert all(0 not in r.values() for r in span.rows)
        dense = [tuple(r.get(c, 0) for c in range(width)) for r in span.rows]
        # the forward form: primitive rows in insertion order, each pivoting on
        # its first nonzero entry and zero on the pivots of the rows before it
        for i, (r, pc) in enumerate(zip(dense, span.pivots)):
            assert all(type(v) is int for v in r) and gcd(*r) == 1
            assert next(c for c, v in enumerate(r) if v) == pc
            assert not any(r[p] for p in span.pivots[:i])
        assert reduce_mod_span(probe, *rref(rows[:k])) == _fraction_reduce_mod_span(probe, base, pivots)
        # the echelon itself spans the rows, and reduces in insertion order
        assert nullspace(dense, width) == _fraction_nullspace(rows[:k], width)
        forward = reduce_mod_span(probe, dense, span.pivots)
        canonical = _fraction_reduce_mod_span(probe, base, pivots)
        assert forward in (canonical, tuple(-v for v in canonical))


def _lcm_primitive(vector):
    """primitive as it was before its all-int path."""
    denom = lcm(*(v.denominator for v in vector))
    ints = [v.numerator * (denom // v.denominator) for v in vector]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=7))
@example([4, 6])
@example([0, 0])
@example([-6, 0, 9])
def test_all_int_primitive_matches_lcm_route(vector):
    out = primitive(vector)
    assert out == _lcm_primitive(vector)
    assert type(out) is tuple
    assert all(type(v) is int for v in out)


def _substitute_and_lift(h):
    """The equality route enumerate_rays used to take: the equality-free route in a
    nullspace basis, with the rays lifted back."""
    sub_basis = _fraction_nullspace(h.equalities, h.dimension)
    if not sub_basis:
        return VRep(h.dimension, (), (), h.labels)
    reduced_rows = []
    for a in h.inequalities:
        row = tuple(dot(a, b) for b in sub_basis)
        if any(row):
            reduced_rows.append(primitive(row))
    reduced = enumerate_rays(HRep(len(sub_basis), (), tuple(reduced_rows)))
    lift = lambda u: primitive(
        tuple(sum(u[i] * b[j] for i, b in enumerate(sub_basis)) for j in range(h.dimension)))
    lin_rref, pivots = rref([lift(u) for u in reduced.lineality])
    canon = sorted({reduce_mod_span(lift(r), lin_rref, pivots) for r in reduced.rays}
                   - {tuple([0] * h.dimension)})
    return VRep(h.dimension, tuple(canon), tuple(lin_rref), h.labels)


@st.composite
def _hrep_with_equalities(draw):
    dim = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    eqs = draw(st.lists(row, min_size=1, max_size=3))
    ineqs = draw(st.lists(row, max_size=7))
    # rows in span(E) vanish on the equality space
    for weights in draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(eqs),
                                          max_size=len(eqs)), max_size=2)):
        ineqs.append(tuple(sum(w * e[j] for w, e in zip(weights, eqs)) for j in range(dim)))
    return HRep(dim, tuple(eqs), tuple(ineqs))


@settings(max_examples=300, deadline=None)
@given(_hrep_with_equalities())
@example(HRep(2, ((1, 0), (0, 1)), ((1, 1),)))  # nullspace {0}
@example(HRep(3, ((1, 1, 0),), ((1, 1, 0), (-2, -2, 0))))  # inequalities in span(E), all lineality
@example(HRep(4, ((0, 0, 0, 1),), ((1, 0, 0, 0), (0, 1, 0, 0))))  # leftover lineality
@example(HRep(2, ((0, 1),), ((1, 0), (-1, 1))))  # opposite rows modulo span(E)
# a prefilter bound taken from the ambient dimension, or one too strict, loses rays here
@example(HRep(5, ((1, 0, -1, 0, 1),), ((0, 0, 0, 0, 1), (0, 0, 1, 0, 0), (1, 0, 0, 0, 0))))
@example(HRep(3, ((1, 0, 0),), ((0, 0, 1), (0, 1, 1), (1, 1, 0))))
def test_equalities_as_starting_lineality_match_substitute_and_lift(h):
    assert enumerate_rays(h) == _substitute_and_lift(h)


# -- oracle: the double description does not depend on the row order ----------

@st.composite
def _hrep_and_row_order(draw):
    h = draw(_hrep_with_equalities())
    if draw(st.booleans()):
        h = HRep(h.dimension, (), h.inequalities)
    return h, draw(st.permutations(h.inequalities))


@settings(max_examples=300, deadline=None)
@given(_hrep_and_row_order())
@example((HRep(2, (), ((1, 0), (0, 1), (1, 1))), ((1, 1), (0, 1), (1, 0))))  # dense row first
@example((HRep(2, ((0, 1),), ((1, 0), (1, 1))), ((1, 1), (1, 0))))  # one class modulo span(E)
def test_rays_do_not_depend_on_the_row_order(case):
    h, rows = case
    assert enumerate_rays(HRep(h.dimension, h.equalities, tuple(rows))) == enumerate_rays(h)


# -- oracle: the candidate-restricted adjacency scan against the full scan -----

def _full_scan_dd(basis, rows):
    start = len(basis)
    rays = []
    for t, a in enumerate(rows):
        bit = 1 << t
        prev_mask = bit - 1
        vals_b = [dot(a, b) for b in basis]
        pivot = next((i for i, v in enumerate(vals_b) if v != 0), None)
        if pivot is not None:
            b0 = basis[pivot]
            if vals_b[pivot] < 0:
                b0 = tuple(-v for v in b0)
            a_b0 = abs(vals_b[pivot])
            new_basis = []
            for i, b in enumerate(basis):
                if i == pivot:
                    continue
                if vals_b[i] == 0:
                    new_basis.append(b)
                else:
                    new_basis.append(primitive(
                        tuple(a_b0 * x - vals_b[i] * y for x, y in zip(b, b0))))
            new_rays = []
            for r, z in rays:
                a_r = dot(a, r)
                if a_r == 0:
                    new_rays.append((r, z | bit))
                else:
                    adj = primitive(tuple(a_b0 * x - a_r * y for x, y in zip(r, b0)))
                    new_rays.append((adj, z | bit))
            new_rays.append((primitive(b0), prev_mask))
            basis = new_basis
            rays = new_rays
            continue
        pos, zero, neg = [], [], []
        for r, z in rays:
            v = dot(a, r)
            if v > 0:
                pos.append((r, z, v))
            elif v < 0:
                neg.append((r, z, v))
            else:
                zero.append((r, z | bit))
        if not neg:
            rays = [(r, z) for r, z, _ in pos] + zero
            continue
        if not pos:
            rays = zero
            continue
        all_masks = [z for _, z in rays]
        min_common = start - len(basis) - 2
        combined = {}
        for rp, zp, vp in pos:
            for rn, zn, vn in neg:
                meet = zp & zn
                if min_common > 0 and meet.bit_count() < min_common:
                    continue
                if not _full_scan_adjacent(meet, zp, zn, all_masks):
                    continue
                w = primitive(tuple(vp * x - vn * y for x, y in zip(rn, rp)))
                combined.setdefault(w, meet | bit)
        rays = [(r, z) for r, z, _ in pos] + zero + list(combined.items())
    return [r for r, _ in rays], basis


def _full_scan_adjacent(meet, zp, zn, all_masks):
    for z in all_masks:
        if z == zp or z == zn:
            continue
        if meet & z == meet:
            return False
    return True


@st.composite
def _dd_case(draw):
    # sparse unit entries make degenerate cones, where adjacency fails
    dim = draw(st.integers(1, 7))
    entry = draw(st.sampled_from([st.integers(-3, 3), st.sampled_from((-1, 0, 0, 1))]))
    row = st.lists(entry, min_size=dim, max_size=dim).map(tuple)
    eqs = draw(st.lists(row, max_size=2))
    rows = draw(st.lists(row, min_size=1, max_size=10))
    # repeated rows, redundant sums, and Fourier-Motzkin combinations that
    # cancel one coordinate of a pair of rows with opposite signs there
    for _ in range(draw(st.integers(0, 4))):
        p, n = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(st.integers(0, dim - 1))
        kind = draw(st.sampled_from(["copy", "sum", "fm"]))
        if kind == "copy":
            new = p
        elif kind == "sum" or not p[c] > 0 > n[c]:
            new = tuple(x + y for x, y in zip(p, n))
        else:
            new = tuple(p[c] * x - n[c] * y for x, y in zip(n, p))
        rows.insert(draw(st.integers(0, len(rows))), new)
    return nullspace(eqs, dim), [r for r in rows if any(r)]


@settings(max_examples=400, deadline=None)
@given(_dd_case())
@example(([(1, 0), (0, 1)], [(1, 0), (0, 1), (1, -1)]))  # empty meet, min_common <= 0
@example(([(1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)]))  # no ray is negative on the last row
@example(([(1, 0), (0, 1)], [(1, 0), (0, 1), (-1, 0)]))  # no ray is positive on the last row
# candidates cached under the oldest row of meet but filtered by its newest lose a ray here
@example((nullspace([], 5), [(-1, 1, 1, 0, 0), (0, 0, 0, -1, 0), (1, 1, 0, 0, 1),
                             (-1, 1, 1, 0, 0), (0, 1, -1, 0, 1), (0, 0, 0, 1, 1),
                             (0, 0, 1, 0, 0), (0, 0, -1, 0, 1), (1, 0, 0, 0, 0)]))
def test_candidate_adjacency_scan_matches_full_scan(case):
    basis, rows = case
    assert _dd_pointed_with_lineality(basis, rows) == _full_scan_dd(basis, rows)


@settings(max_examples=200, deadline=None)
@given(_dd_case(), st.data())
def test_dd_does_not_depend_on_basis_signs(case, data):
    basis, rows = case
    flip = data.draw(st.lists(st.booleans(), min_size=len(basis), max_size=len(basis)))
    flipped = [tuple(-x for x in b) if f else b for b, f in zip(basis, flip)]
    rays, lineality = _dd_pointed_with_lineality(basis, rows)
    flipped_rays, flipped_lineality = _dd_pointed_with_lineality(flipped, rows)
    assert flipped_rays == rays
    assert len(flipped_lineality) == len(lineality)
    for b, c in zip(lineality, flipped_lineality):
        assert b == c or b == tuple(-x for x in c)


def _random_projections(rng):
    for trial in range(80):
        dim = int(rng.integers(4, 8))
        h = random_cone_hrep(rng, dim, int(rng.integers(4, 13)))
        if trial % 2:  # an equality row sends some coordinates through substitution
            h = HRep(dim, random_cone_hrep(rng, dim, 1).inequalities, h.inequalities)
        yield h, sorted(rng.choice(dim, size=dim - 2, replace=False).tolist())


# -- oracle: textbook Fourier-Motzkin --------------------------------------------

def _textbook_fm(h, coords):
    """Fourier-Motzkin as first taught, minimized once at the end.

    The coordinates go in the given order.  One that an equality involves is
    substituted through the first such equality; any other is paired, every
    positive row with every negative one, with no pruning at all.
    """
    keep = [i for i in range(h.dimension) if i not in coords]
    eqs, ineqs = list(h.equalities), list(h.inequalities)
    for c in coords:
        pivot = next((e for e in eqs if e[c]), None)
        if pivot is not None:
            lead = abs(pivot[c])
            sign = 1 if pivot[c] > 0 else -1
            eqs = [tuple(lead * v - e[c] * sign * w for v, w in zip(e, pivot)) for e in eqs]
            ineqs = [tuple(lead * v - r[c] * sign * w for v, w in zip(r, pivot)) for r in ineqs]
        else:
            ineqs = ([r for r in ineqs if r[c] == 0]
                     + [tuple(p[c] * x - n[c] * y for x, y in zip(n, p))
                        for p in ineqs if p[c] > 0 for n in ineqs if n[c] < 0])
    project = lambda row: tuple(row[i] for i in keep)
    labels = tuple(h.labels[i] for i in keep) if h.labels else None
    return remove_redundancies(HRep(len(keep), tuple(map(project, eqs)),
                                    tuple(map(project, ineqs)), labels))


# The textbook route's rows grow doubly exponentially with the pairings, so it
# gets a prefix of each projection's coordinates.  On the random projections
# three coordinates take 0.2 s in all and four take 9 s; bell's whole
# projection makes 209,068 rows at its ninth coordinate.


def test_matches_textbook_fm_on_random_projections(rng):
    for h, coords in _random_projections(rng):
        assert fm_eliminate(h, coords[:3]) == _textbook_fm(h, coords[:3])


def test_matches_textbook_fm_on_bell():
    h, drop = local_markov_projection(bell_structure())
    assert fm_eliminate(h, drop[:8]) == _textbook_fm(h, drop[:8])
    assert fm_eliminate(h, drop) == dd_project(h, drop)


# -- oracle: the per-step HRep loop fm_eliminate replaced -------------------------

def _fm_systems(monkeypatch, project, h, coords):
    """The result of ``project`` and every system it hands to remove_redundancies."""
    from entrocone import polyhedra
    systems = []
    minimize = polyhedra.remove_redundancies

    def recorded(system):
        systems.append(system)
        return minimize(system)

    with monkeypatch.context() as patched:
        patched.setattr(polyhedra, "remove_redundancies", recorded)
        return project(h, coords), systems


def test_fm_takes_the_per_step_loop_steps_on_random_projections(monkeypatch, rng):
    for h, coords in _random_projections(rng):
        assert (_fm_systems(monkeypatch, fm_eliminate, h, coords)
                == _fm_systems(monkeypatch, fm_eliminate_per_step, h, coords))


def test_fm_takes_the_per_step_loop_steps_on_bell(monkeypatch):
    # bell's all-node system: substitutions through the d-separated rows and pairings
    from entrocone.entropy_space import classical_ci_system
    structure = bell_structure()
    system = classical_ci_system(structure)
    eqs, ineqs = system_rows(system)
    h = HRep(len(system.index), tuple(eqs), tuple(ineqs), system.index.labels)
    hidden = [structure.node_ids().index(v) for v in hidden_ids(structure)]
    drop = [i for i, m in enumerate(system.index.masks) if any(m >> p & 1 for p in hidden)]
    new, steps = _fm_systems(monkeypatch, fm_eliminate, h, drop)
    assert len(steps) > 1
    assert (new, steps) == _fm_systems(monkeypatch, fm_eliminate_per_step, h, drop)


@pytest.mark.parametrize("pipeline", [
    lambda: analysis.full_marginal_outer_cone(build_line_structure(4), engine="fm"),
    lambda: analysis.post_selected_marginal_cone(4, engine="fm"),
], ids=["marginalize pn:4", "bc-cone 4"])
def test_fm_takes_the_per_step_loop_steps_on_block_systems(monkeypatch, pipeline):
    # the block systems the pipelines hand fm_eliminate: long mixed runs of
    # substitutions and pairings
    calls = []

    def recorded(h, coords):
        calls.append((h, list(coords)))
        return fm_eliminate(h, coords)

    with monkeypatch.context() as patched:
        patched.setattr(analysis, "fm_eliminate", recorded)
        pipeline()
    assert calls
    for h, drop in calls:
        new, steps = _fm_systems(monkeypatch, fm_eliminate, h, drop)
        assert len(steps) > 1
        assert (new, steps) == _fm_systems(monkeypatch, fm_eliminate_per_step, h, drop)
