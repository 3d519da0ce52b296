"""Exact rational polyhedral cones.

H-representations are integer inequality/equality rows (a row r constrains
r . v >= 0 or r . v = 0); V-representations are primitive integer extremal
rays plus a lineality basis.  Conversions run the double description
method, which inserts the inequality rows in the order they are given;
projections run either Fourier-Motzkin elimination (one coordinate at a
time: substitution through an equality, or pairing followed by one
redundancy removal) or the double-description route (enumerate rays, drop
coordinates, re-extremalize).  Rank and span queries grow one forward
integer echelon, :class:`Echelon`; :func:`rref` is the only
back-elimination.  Everything is computed in exact integer arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from ._simplex import conic_combination
from .errors import InvalidParameter, parse_json

Row = tuple[int, ...]
_MAX_FILE_DIMENSION = 4095  # widest cone file: 2^12 - 1 coordinates, as in verify pn:12


# -- small integer linear algebra --------------------------------------------

def primitive(vector: Sequence[int | Fraction]) -> Row:
    """Scale to coprime integers, preserving orientation."""
    try:
        g = gcd(*vector)  # all-int rows; a Fraction entry raises TypeError
    except TypeError:
        denom = lcm(*(v.denominator for v in vector))
        vector = [v.numerator * (denom // v.denominator) for v in vector]
        g = gcd(*vector)
    return tuple(v // g for v in vector) if g > 1 else tuple(vector)


def sign_canonical(vector: Sequence[int]) -> Row:
    """Primitive form with the first nonzero entry positive (for lines)."""
    vec = primitive(vector)
    for v in vec:
        if v > 0:
            return vec
        if v < 0:
            return tuple(-x for x in vec)
    return vec


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _eliminate(row: Row, pivot_row: Row, pc: int) -> Row:
    """``row`` with column pc cleared by ``pivot_row``, without fractions (cf. Bareiss 1968)."""
    lead, f = pivot_row[pc], row[pc]
    return primitive([lead * v - f * w for v, w in zip(row, pivot_row)])


class Echelon:
    """Forward row echelon form of a growing set of rows, in integers.

    ``rows`` are kept in insertion order.  Each is primitive, pivots on its
    first nonzero entry and is zero on the pivots of the rows inserted
    before it, which is the order :func:`reduce_mod_span` reduces in.
    :func:`rref` turns it into the unique reduced form.
    """

    def __init__(self, rows: Iterable[Sequence[int | Fraction]] = ()) -> None:
        self.rows: list[Row] = []
        self.pivots: list[int] = []
        for row in rows:
            self.add(row)

    def add(self, vector: Sequence[int | Fraction]) -> bool:
        """Append a row unless it lies in the span; whether it was appended."""
        new = reduce_mod_span(vector, self.rows, self.pivots)
        pc = next((c for c, v in enumerate(new) if v), None)
        if pc is None:
            return False
        self.rows.append(new)
        self.pivots.append(pc)
        return True


def rref(rows: Iterable[Sequence[int | Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of ``rows``: its nonzero rows and their pivot columns.

    The rows are primitive with positive leads, sorted by pivot, and each
    pivot column is zero in every other row, so the form is unique.  It is
    the :class:`Echelon` of ``rows`` with each pivot column cleared once,
    the last pivot first.  The echelon takes the rows last first, which
    keeps it sparser on the pipeline's equality rows and lineality bases
    (the result does not depend on the order, only the time does).
    """
    span = Echelon(list(rows)[::-1])
    ranked = sorted(zip(span.pivots, span.rows))  # pivots are distinct
    pivots = [pc for pc, _ in ranked]
    reduced = [row if row[pc] > 0 else tuple(-v for v in row) for pc, row in ranked]
    for j in range(len(reduced) - 1, 0, -1):
        pc = pivots[j]
        for i in range(j):
            if reduced[i][pc]:
                reduced[i] = _eliminate(reduced[i], reduced[j], pc)
    return reduced, pivots


def nullspace(rows: Sequence[Sequence[int | Fraction]], dim: int) -> list[Row]:
    """Primitive integer basis of {v : row . v = 0 for all rows}, one vector per free column.

    Back-substitution runs on the integer :func:`rref` rows: the free entry
    is the lcm of the pivot leads, so every pivot entry is an integer.
    """
    reduced, pivots = rref(rows)
    scale = lcm(*(row[pc] for row, pc in zip(reduced, pivots)))
    basis = []
    for fc in (c for c in range(dim) if c not in pivots):
        vec = [0] * dim
        vec[fc] = scale
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        basis.append(primitive(vec))
    return basis


def reduce_mod_span(vector: Sequence[int | Fraction], basis_rref: Sequence[Row],
                    pivots: Sequence[int]) -> Row:
    """Canonical representative of a vector modulo the row span of an :func:`rref` basis.

    ``basis_rref`` may also be the rows of an :class:`Echelon` in insertion order;
    the result is then zero on every pivot and canonical up to sign.
    """
    vec = primitive(vector)
    for row, pc in zip(basis_rref, pivots):
        if vec[pc] != 0:
            vec = _eliminate(vec, row, pc)
    return vec


# -- representations -----------------------------------------------------------

@dataclass(frozen=True)
class HRep:
    """Cone as {v : E v = 0, A v >= 0} with integer rows."""

    dimension: int
    equalities: tuple[Row, ...] = ()
    inequalities: tuple[Row, ...] = ()
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        eqs = tuple(primitive(r) for r in self.equalities if any(r))
        ineqs = tuple(primitive(r) for r in self.inequalities if any(r))
        _check_shape(self, (*eqs, *ineqs), "row")
        object.__setattr__(self, "equalities", eqs)
        object.__setattr__(self, "inequalities", ineqs)


@dataclass(frozen=True)
class VRep:
    """Cone as conic hull of rays plus the span of lineality vectors."""

    dimension: int
    rays: tuple[Row, ...] = ()
    lineality: tuple[Row, ...] = ()
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        _check_shape(self, (*self.rays, *self.lineality), "vector")


def _check_shape(rep: HRep | VRep, rows: Sequence[Row], what: str) -> None:
    """Refuse a representation whose dimension, row lengths or labels do not fit."""
    dim = rep.dimension
    if dim < 1:
        raise InvalidParameter("dimension must be positive")
    for row in rows:
        if len(row) != dim:
            raise InvalidParameter(f"{what} length must equal the dimension")
    if rep.labels is not None and len(rep.labels) != dim:
        raise InvalidParameter("labels must match the dimension")


# -- double description --------------------------------------------------------

def _dd_pointed_with_lineality(basis: Sequence[Row], rows: Sequence[Row]) -> tuple[list[Row], list[Row]]:
    """Core double-description pass over inequality rows only, in the given order.

    Starts from the linear space spanned by ``basis`` (the solution space
    of the equalities, or the whole space) and maintains a lineality basis
    B and extremal rays R of the cone cut out by the rows processed so far.
    Rays carry bitmasks of the processed rows they satisfy with equality;
    adjacency uses the standard combinatorial test on those masks, with a
    popcount prefilter (a pair needs at least d - |B| - 2 common tight
    rows, d being the size of the starting basis).  A third ray that is
    tight on every row of a pair's common set is tight on its newest row,
    so the test scans only the rays tight on that row (every ray when the
    common set is empty).
    """
    start = len(basis)
    rays: list[tuple[Row, int]] = []
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
                    # b0 is already flipped so that a . b0 = a_b0 > 0
                    new_basis.append(sign_canonical(
                        tuple(a_b0 * x - vals_b[i] * y for x, y in zip(b, b0))))
            new_rays = []
            for r, z in rays:
                a_r = dot(a, r)
                if a_r == 0:
                    new_rays.append((r, z | bit))
                else:
                    adj = primitive(tuple(a_b0 * x - a_r * y for x, y in zip(r, b0)))
                    new_rays.append((adj, z | bit))
            new_rays.append((b0, prev_mask))
            basis = new_basis
            rays = new_rays
            continue
        # lineality untouched: split rays by sign
        pos: list[tuple[Row, int, int]] = []
        zero: list[tuple[Row, int]] = []
        neg: list[tuple[Row, int, int]] = []
        for r, z in rays:
            v = dot(a, r)
            if v > 0:
                pos.append((r, z, v))
            elif v < 0:
                neg.append((r, z, v))
            else:
                zero.append((r, z | bit))
        # masks of the rays tight on row j, built on first use; key -1 (an
        # empty meet) holds every ray
        tight_on: dict[int, list[int]] = {-1: [z for _, z in rays]}
        min_common = start - len(basis) - 2
        combined: dict[Row, int] = {}
        for rp, zp, vp in pos:
            for rn, zn, vn in neg:
                meet = zp & zn
                if meet.bit_count() >= min_common:
                    j = meet.bit_length() - 1
                    if j not in tight_on:
                        tight_on[j] = [z for z in tight_on[-1] if z >> j & 1]
                    if _adjacent(meet, zp, zn, tight_on[j]):
                        w = primitive(tuple(vp * x - vn * y for x, y in zip(rn, rp)))
                        combined.setdefault(w, meet | bit)
        rays = [(r, z) for r, z, _ in pos] + zero + list(combined.items())
    ray_vectors = [r for r, _ in rays]
    return ray_vectors, basis


def _adjacent(meet: int, zp: int, zn: int, masks: Sequence[int]) -> bool:
    """No ray mask in ``masks`` other than zp and zn contains all of meet."""
    for z in masks:
        if z == zp or z == zn:
            continue
        if meet & z == meet:
            return False
    return True


def enumerate_rays(h: HRep) -> VRep:
    """All extremal rays of the cone, primitive and lexicographically sorted.

    The double description starts from the solution space of the
    equalities as its lineality; any lineality remaining after the
    inequalities is reported explicitly rather than folded into rays.
    Rays are canonicalized modulo the lineality span so outputs are
    deterministic.  The inequalities are inserted in the order given: the
    result does not depend on it, only the time does, so the order is
    chosen where the rows are built (see ``elemental_forms``).
    """
    # Rows equal modulo span(E) cut the equality space alike and rows in span(E)
    # do not cut it; extra copies would only weaken the DD prefilter, so the
    # first row of each class is kept.
    zero = tuple([0] * h.dimension)
    eq_rref, eq_pivots = rref(h.equalities)
    classes: dict[Row, Row] = {}
    for a in h.inequalities:
        classes.setdefault(reduce_mod_span(a, eq_rref, eq_pivots), a)
    classes.pop(zero, None)
    rays, lineality = _dd_pointed_with_lineality(nullspace(eq_rref, h.dimension),
                                                 list(classes.values()))
    lin_rref, pivots = rref(lineality)
    canon = sorted({reduce_mod_span(r, lin_rref, pivots) for r in rays} - {zero})
    return VRep(h.dimension, tuple(canon), tuple(lin_rref), h.labels)


def facets_from_rays(v: VRep) -> HRep:
    """Minimal H-representation of the conic hull via polar duality.

    The polar cone of cone(rays) + span(lineality) is cut out by the rays
    as inequality rows and the lineality as equality rows, so one double
    description pass yields the facets (polar rays) and the equality space
    (polar lineality) at once.
    """
    polar = HRep(v.dimension, equalities=v.lineality, inequalities=v.rays)
    polar_v = enumerate_rays(polar)
    return HRep(v.dimension, equalities=polar_v.lineality,
                inequalities=polar_v.rays, labels=v.labels)


def remove_redundancies(h: HRep, certificates: bool = False):
    """Irredundant H-representation of the same cone.

    Runs the double-description dual pass, which canonicalizes the facet
    set and the equality space.  With ``certificates`` each input row is
    expressed as a nonnegative rational combination of the kept rows (plus
    arbitrary combinations of the kept equalities), witnessing soundness.
    """
    minimal = facets_from_rays(enumerate_rays(h))
    if not certificates:
        return minimal
    certs = []
    ineqs = list(minimal.inequalities)
    frees = list(minimal.equalities)
    for row in (*h.equalities, *h.inequalities):
        combo = conic_combination(ineqs, frees, row)
        certs.append(combo)
    return minimal, certs


def membership(cone: HRep | VRep, vector: Sequence[int | Fraction]) -> bool:
    """Exact test whether a rational vector lies in the cone (a V-rep is converted to facets)."""
    if len(vector) != cone.dimension:
        raise InvalidParameter("vector dimension mismatch")
    if isinstance(cone, VRep):
        cone = facets_from_rays(cone)
    # a positive scaling keeps every sign, so the tests run on integers
    target = primitive(vector)
    return (all(dot(row, target) == 0 for row in cone.equalities)
            and all(dot(row, target) >= 0 for row in cone.inequalities))


def contains(outer: HRep | VRep, inner: HRep | VRep) -> bool:
    """Whether every point of ``inner`` lies in ``outer``."""
    if outer.dimension != inner.dimension:
        raise InvalidParameter("cone dimensions differ")
    inner_v = inner if isinstance(inner, VRep) else enumerate_rays(inner)
    outer_h = facets_from_rays(outer) if isinstance(outer, VRep) else outer
    for ray in inner_v.rays:
        if not membership(outer_h, ray):
            return False
    for line in inner_v.lineality:
        if not membership(outer_h, line) or not membership(outer_h, [-v for v in line]):
            return False
    return True


def cones_equal(a: HRep | VRep, b: HRep | VRep) -> bool:
    """Mutual containment of two cones, exact."""
    return contains(a, b) and contains(b, a)


# -- Fourier-Motzkin elimination ------------------------------------------------

def fm_eliminate(h: HRep, coords: Iterable[int]) -> HRep:
    """Project the cone by eliminating the given coordinate positions.

    The coordinates go one at a time.  A coordinate that some equality
    involves is substituted out through the sparsest such equality; that
    adds no row.  Otherwise the coordinate with the cheapest pairing goes:
    the rows zero on it stay, and each positive row is combined with each
    negative one.  Every pairing is followed by :func:`remove_redundancies`,
    so the next one starts from one row per facet, and the implicit
    equalities it finds send later coordinates through substitution.  A
    system that did not end in a pairing is minimized once at the end, so
    the result is the canonical minimal H-representation of the projection.

    Between minimizations the rows stay plain tuples of the same width: an
    eliminated column is zero in every row and is cut, with the rows that
    became zero, only when an :class:`HRep` is built for a minimization or
    for the result.  Every row the steps make is already primitive.
    """
    keep, _ = _kept_coordinates(h, coords)
    targets = set(range(h.dimension)).difference(keep)
    cols = list(range(h.dimension))  # the original position of each column of the rows
    at = {c: j for j, c in enumerate(cols)}
    eqs, ineqs = list(h.equalities), list(h.inequalities)
    gone: set[int] = set()  # columns eliminated since the rows were last cut

    def cut() -> HRep:
        live = [j not in gone for j in range(len(cols))]
        labels = tuple(h.labels[c] for c, kept in zip(cols, live) if kept) if h.labels else None
        return HRep(live.count(True), tuple(tuple(compress(r, live)) for r in eqs),
                    tuple(tuple(compress(r, live)) for r in ineqs), labels)

    system = None  # the minimized system, while no step has followed its pairing
    while targets:
        involved = [any(column) for column in zip(*eqs)] if eqs else [False] * len(cols)
        if eq_coords := [c for c in targets if involved[at[c]]]:
            c = min(eq_coords)
            j = at[c]
            pivot = min((e for e in eqs if e[j]), key=lambda e: (len(e) - e.count(0), e))
            # a positive lead keeps every inequality's direction; the pivot itself becomes zero
            pivot = pivot if pivot[j] > 0 else tuple(-v for v in pivot)
            eqs = [_eliminate(r, pivot, j) if r[j] else r for r in eqs]
            ineqs = [_eliminate(r, pivot, j) if r[j] else r for r in ineqs]
            gone.add(j)
            system = None
        else:
            c = min(targets, key=lambda c: (_pairing_cost(ineqs, at[c]), c))
            j = at[c]
            pos = [r for r in ineqs if r[j] > 0]
            neg = [r for r in ineqs if r[j] < 0]
            ineqs = [r for r in ineqs if r[j] == 0] + [_eliminate(n, p, j) for p in pos for n in neg]
            gone.add(j)
            system = remove_redundancies(cut())
            eqs, ineqs = list(system.equalities), list(system.inequalities)
            cols = [c for j, c in enumerate(cols) if j not in gone]
            at = {c: j for j, c in enumerate(cols)}
            gone = set()
        targets.discard(c)
    return system if system is not None else remove_redundancies(cut())


def _pairing_cost(rows: Sequence[Row], j: int) -> int:
    """How many rows pairing on column j adds: p * n new, p + n gone."""
    p = sum(1 for r in rows if r[j] > 0)
    n = sum(1 for r in rows if r[j] < 0)
    return p * n - p - n


def _kept_coordinates(h: HRep, coords: Iterable[int]) -> tuple[list[int], tuple[str, ...] | None]:
    """Positions and labels left after eliminating ``coords``, which must be in range."""
    targets = set(coords)
    for c in sorted(targets):
        if not 0 <= c < h.dimension:
            raise InvalidParameter(f"coordinate {c} out of range")
    if len(targets) >= h.dimension:
        raise InvalidParameter("cannot eliminate every coordinate")
    keep = [i for i in range(h.dimension) if i not in targets]
    return keep, tuple(h.labels[i] for i in keep) if h.labels else None


def dd_project(h: HRep, coords: Iterable[int]) -> HRep:
    """Projection via ray enumeration: drop coordinates, re-extremalize."""
    keep, out_labels = _kept_coordinates(h, coords)
    v = enumerate_rays(h)
    rays = {primitive(tuple(r[i] for i in keep)) for r in v.rays}
    rays = {r for r in rays if any(r)}
    lineality = [tuple(l[i] for i in keep) for l in v.lineality]
    projected = VRep(len(keep), tuple(sorted(rays)), tuple(lineality), out_labels)
    minimal_h = facets_from_rays(projected)
    return minimal_h


def extremalize(v: VRep) -> VRep:
    """Canonical extremal generator set of the cone spanned by ``v``."""
    return enumerate_rays(facets_from_rays(v))


# -- serialization ---------------------------------------------------------------

def rep_to_json(rep: HRep | VRep) -> str:
    if isinstance(rep, HRep):
        payload = {
            "type": "hrep",
            "dimension": rep.dimension,
            "coordinates": list(rep.labels) if rep.labels else None,
            "equalities": [list(r) for r in rep.equalities],
            "inequalities": [list(r) for r in rep.inequalities],
        }
    else:
        payload = {
            "type": "vrep",
            "dimension": rep.dimension,
            "coordinates": list(rep.labels) if rep.labels else None,
            "rays": [list(r) for r in rep.rays],
            "lineality": [list(r) for r in rep.lineality],
        }
    return json.dumps(payload, indent=2)


def rep_from_json(text: str) -> HRep | VRep:
    data = parse_json(text, "cone file")
    if not isinstance(data, dict) or "type" not in data:
        raise InvalidParameter("cone file must be an object with a 'type' field")
    kind = data["type"]
    if "dimension" not in data:
        raise InvalidParameter("cone file is missing the 'dimension' field")
    dim = data["dimension"]
    if type(dim) is not int:  # bool and float are refused too
        raise InvalidParameter(f"cone file 'dimension' must be an integer, not {dim!r}")
    if dim > _MAX_FILE_DIMENSION:  # the conversions start from a dense dim x dim basis
        raise InvalidParameter(f"cone file 'dimension' is {dim}; "
                               f"the ceiling is {_MAX_FILE_DIMENSION}")
    coords = data.get("coordinates")  # absent or null: no labels
    if coords is not None and not (isinstance(coords, list) and len(coords) == dim
                                   and all(type(c) is str for c in coords)):
        raise InvalidParameter(f"cone file 'coordinates' must be a list of {dim} strings")
    labels = tuple(coords) if coords else None
    def rows(key: str) -> tuple[Row, ...]:
        section = data.get(key, [])
        if not isinstance(section, list):
            raise InvalidParameter(f"cone file {key!r} must be a list of rows")
        out = []
        for i, row in enumerate(section):
            if (not isinstance(row, list) or len(row) != dim
                    or any(type(v) is not int for v in row)):
                raise InvalidParameter(f"{key}[{i}] must be a list of {dim} integers")
            out.append(tuple(row))
        return tuple(out)
    if kind == "hrep":
        return HRep(dim, rows("equalities"), rows("inequalities"), labels)
    if kind == "vrep":
        return VRep(dim, rows("rays"), rows("lineality"), labels)
    raise InvalidParameter("cone file 'type' must be 'hrep' or 'vrep'")


def _row_text(row: Sequence[int | Fraction], labels: Sequence[str] | None) -> str:
    """Signed labelled terms such as ``+H(A)-2*H(AB)``; bare numbers without labels."""
    if labels is None:
        return " ".join(str(v) for v in row)
    parts = []
    for coeff, label in zip(row, labels):
        if coeff == 0:
            continue
        sign = "+" if coeff > 0 else "-"
        mag = abs(coeff)
        factor = "" if mag == 1 else f"{mag}*"
        parts.append(f"{sign}{factor}{label}")
    return "".join(parts) if parts else "0"


def rep_to_text(rep: HRep | VRep) -> str:
    """PORTA-flavoured plaintext mirror of a representation."""
    lines = [f"DIM = {rep.dimension}"]
    if rep.labels:
        lines.append("COORDINATES")
        lines.append(" ".join(rep.labels))
    if isinstance(rep, HRep):
        if rep.equalities:
            lines.append("EQUALITIES_SECTION")
            for i, row in enumerate(rep.equalities, 1):
                lines.append(f"({i:3d}) {_row_text(row, rep.labels)} == 0")
        lines.append("INEQUALITIES_SECTION")
        for i, row in enumerate(rep.inequalities, 1):
            lines.append(f"({i:3d}) {_row_text(row, rep.labels)} >= 0")
    else:
        if rep.lineality:
            lines.append("LINEALITY_SECTION")
            for i, row in enumerate(rep.lineality, 1):
                lines.append(f"({i:3d}) {_row_text(row, None)}")
        lines.append("CONE_SECTION")
        for i, row in enumerate(rep.rays, 1):
            lines.append(f"({i:3d}) {_row_text(row, None)}")
    lines.append("END")
    return "\n".join(lines)
