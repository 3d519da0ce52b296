"""Exact integer polyhedral cones.

H-representations are integer inequality/equality rows (a row r constrains
r . v >= 0 or r . v = 0); V-representations are primitive integer extremal
rays plus a lineality basis.  Conversions run the double description
method, which inserts the inequality rows in the order they are given;
projections run either Fourier-Motzkin elimination (one coordinate at a
time: substitution through an equality, or pairing followed by one
redundancy removal) or the double-description route (enumerate rays, drop
coordinates, re-extremalize); both return unlabeled cones.  Rank and
span queries grow an integer echelon of sparse ``{column: value}`` rows,
:class:`Echelon`; :func:`rref` is two of them, forward and back, and the
only place dense rows become sparse.  Everything is computed in exact
integer arithmetic: every row the double description and
Fourier-Motzkin form from two rows comes from one fraction-free step,
:func:`_combine`, and every row of the echelon from the same step on
sparse rows, :func:`_combine_sparse`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import compress, count
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Mapping, Sequence

from ._simplex import conic_combination
from .errors import InvalidParameter, parse_json

Row = tuple[int, ...]
_MAX_FILE_DIMENSION = 4095  # widest cone file: 2^12 - 1 coordinates, as in verify pn:12


# -- small integer linear algebra --------------------------------------------

def primitive(vector: Sequence[int]) -> Row:
    """Scale to coprime integers, preserving orientation."""
    g = gcd(*vector)
    return tuple(v // g for v in vector) if g > 1 else tuple(vector)


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _combine(s: int, u: Sequence[int], t: int, v: Sequence[int]) -> Row:
    """``s*u - t*v`` made primitive: the one fraction-free step from two rows (cf. Bareiss 1968)."""
    return primitive([s * x - t * y for x, y in zip(u, v)])


class Echelon:
    """Forward row echelon form of a growing set of ``{column: value}`` rows, in integers.

    ``rows`` are kept in insertion order as maps of their nonzeros, so an
    insertion costs the nonzeros it touches, not the row width.  Each is
    primitive, pivots on its smallest column and is zero on the pivots of
    the rows before it.  :func:`rref` turns it into the unique reduced form.
    """

    def __init__(self, rows: Iterable[Mapping[int, int]] = ()) -> None:
        self.rows: list[dict[int, int]] = []
        self.pivots: list[int] = []
        self._at: dict[int, int] = {}  # pivot column -> position in rows
        for row in rows:
            self.add(row)

    def add(self, vector: Mapping[int, int]) -> bool:
        """Append a ``{column: value}`` row unless it is in the span; whether it was appended."""
        new = _primitive_sparse(vector)
        # clearing a pivot brings in only later rows' pivots: earliest first is insertion order
        while hits := [self._at[c] for c in new if c in self._at]:
            i = min(hits)
            row, pc = self.rows[i], self.pivots[i]
            new = _combine_sparse(row[pc], new, new[pc], row)
        if not new:
            return False
        pc = min(new)
        self._at[pc] = len(self.rows)
        self.rows.append(new)
        self.pivots.append(pc)
        return True


def _primitive_sparse(row: Mapping[int, int]) -> dict[int, int]:
    """A ``{column: value}`` row made primitive, its zero entries dropped."""
    row = {c: v for c, v in row.items() if v}
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _combine_sparse(s: int, u: Mapping[int, int], t: int, v: Mapping[int, int]) -> dict[int, int]:
    """:func:`_combine` on ``{column: value}`` rows."""
    row = {c: s * x for c, x in u.items()}
    for c, y in v.items():
        row[c] = row.get(c, 0) - t * y
    return _primitive_sparse(row)


def rref(rows: Iterable[Sequence[int]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of ``rows``: its nonzero rows and their pivot columns.

    The rows are primitive with positive leads, sorted by pivot, and each
    pivot column is zero in every other row, so the form is unique.  Two
    :class:`Echelon` passes make it: the forward one takes the rows last
    first, which keeps it sparser on the pipeline's equality rows and
    lineality bases (the result does not depend on the order, only the
    time does); the back one takes its rows by pivot, largest first, each
    with a positive lead, so each row is cleared by the reduced rows below
    it.  Only the result is dense.
    """
    rows = list(rows)
    forward = Echelon({c: row[c] for c in compress(count(), row)} for row in reversed(rows))
    ranked = sorted(zip(forward.pivots, forward.rows), key=itemgetter(0), reverse=True)
    back = Echelon(row if row[pc] > 0 else {c: -v for c, v in row.items()} for pc, row in ranked)
    dense = []
    for row in reversed(back.rows):
        out = [0] * len(rows[0])
        for c, v in row.items():
            out[c] = v
        dense.append(tuple(out))
    return dense, back.pivots[::-1]


def nullspace(rows: Sequence[Sequence[int]], dim: int) -> list[Row]:
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


def reduce_mod_span(vector: Sequence[int], basis_rref: Sequence[Row],
                    pivots: Sequence[int]) -> Row:
    """Canonical representative of a vector modulo the row span of an :func:`rref` basis."""
    vec = primitive(vector)
    for row, pc in zip(basis_rref, pivots):
        if vec[pc] != 0:
            vec = _combine(row[pc], vec, vec[pc], row)
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
            # every other vector x moves along b0 to a_b0 x - (a . x) b0, which is
            # tight on a; b0 itself becomes a ray, the only one not tight on a
            basis = [_combine(a_b0, b, v, b0) if v else b
                     for i, (b, v) in enumerate(zip(basis, vals_b)) if i != pivot]
            rays = [(_combine(a_b0, r, v, b0) if (v := dot(a, r)) else r, z | bit)
                    for r, z in rays]
            rays.append((b0, prev_mask))
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
                        w = _combine(vp, rn, vn, rp)
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


def membership(cone: HRep, vector: Sequence[int]) -> bool:
    """Exact test whether an integer vector lies in the cone."""
    if len(vector) != cone.dimension:
        raise InvalidParameter("vector dimension mismatch")
    return (all(dot(row, vector) == 0 for row in cone.equalities)
            and all(dot(row, vector) >= 0 for row in cone.inequalities))


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
    the result is the canonical minimal H-representation of the projection,
    without coordinate labels.

    The rows stay plain tuples between minimizations: each eliminated
    column, zero in every row, is cut at once, and an :class:`HRep` is
    built only to minimize.  Every row the steps make is already primitive.
    """
    targets = set(coords)
    _kept_coordinates(h, targets)  # refuses coordinates out of range, or all of them
    cols = list(range(h.dimension))  # the original position of each column of the rows
    eqs, ineqs = h.equalities, h.inequalities
    system = None  # the minimized system, while no step has followed its pairing
    while targets:
        involved = {cols[j] for j, column in enumerate(zip(*eqs)) if any(column)}
        if eq_coords := targets & involved:
            j = cols.index(min(eq_coords))
            pivot = min((e for e in eqs if e[j]), key=lambda e: (len(e) - e.count(0), e))
            # a positive lead keeps every inequality's direction; the pivot itself becomes zero
            pivot = pivot if pivot[j] > 0 else tuple(-v for v in pivot)
            eqs = [_combine(pivot[j], r, r[j], pivot) if r[j] else r for r in eqs]
            ineqs = [_combine(pivot[j], r, r[j], pivot) if r[j] else r for r in ineqs]
        else:
            j = min(map(cols.index, targets), key=lambda j: (_pairing_cost(ineqs, j), cols[j]))
            pos = [r for r in ineqs if r[j] > 0]
            neg = [r for r in ineqs if r[j] < 0]
            ineqs = [r for r in ineqs if r[j] == 0] + [_combine(p[j], n, n[j], p) for p in pos for n in neg]
        targets.discard(cols.pop(j))
        eqs = [r[:j] + r[j + 1:] for r in eqs]
        ineqs = [r[:j] + r[j + 1:] for r in ineqs]
        if eq_coords:
            system = None
        else:
            system = remove_redundancies(HRep(len(cols), tuple(eqs), tuple(ineqs)))
            eqs, ineqs = system.equalities, system.inequalities
    if system is None:
        system = remove_redundancies(HRep(len(cols), tuple(eqs), tuple(ineqs)))
    return system


def _pairing_cost(rows: Sequence[Row], j: int) -> int:
    """How many rows pairing on column j adds: p * n new, p + n gone."""
    p = sum(1 for r in rows if r[j] > 0)
    n = sum(1 for r in rows if r[j] < 0)
    return p * n - p - n


def _kept_coordinates(h: HRep, coords: Iterable[int]) -> list[int]:
    """Positions left after eliminating ``coords``, which must be in range."""
    targets = set(coords)
    for c in sorted(targets):
        if not 0 <= c < h.dimension:
            raise InvalidParameter(f"coordinate {c} out of range")
    if len(targets) >= h.dimension:
        raise InvalidParameter("cannot eliminate every coordinate")
    return [i for i in range(h.dimension) if i not in targets]


def dd_project(h: HRep, coords: Iterable[int]) -> HRep:
    """Projection via ray enumeration: drop coordinates, re-extremalize; no labels."""
    keep = _kept_coordinates(h, coords)
    v = enumerate_rays(h)
    rays = {primitive(tuple(r[i] for i in keep)) for r in v.rays}
    rays = {r for r in rays if any(r)}
    lineality = [tuple(l[i] for i in keep) for l in v.lineality]
    return facets_from_rays(VRep(len(keep), tuple(sorted(rays)), tuple(lineality)))


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
    if dim < 1:
        raise InvalidParameter(f"cone file 'dimension' is {dim}; it must be at least 1")
    if dim > _MAX_FILE_DIMENSION:  # the conversions start from a dense dim x dim basis
        raise InvalidParameter(f"cone file 'dimension' is {dim}; "
                               f"the ceiling is {_MAX_FILE_DIMENSION}")
    coords = data.get("coordinates")  # absent or null: no labels
    if coords is not None and not (isinstance(coords, list) and len(coords) == dim
                                   and all(type(c) is str for c in coords)):
        raise InvalidParameter(f"cone file 'coordinates' must be a list of {dim} strings")
    labels = tuple(coords) if coords else None
    if labels and (bad := [(c, k) for c, k in Counter(labels).items() if k > 1 or not c]):
        label, k = bad[0]
        raise InvalidParameter(f"cone file 'coordinates' holds the label {label!r} {k} times"
                               if label else "cone file 'coordinates' holds the empty label ''")
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


def _row_text(row: Sequence[int], labels: Sequence[str] | None) -> str:
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
