"""Entropy coordinates and constraint-system generation.

The coordinate system assigns one real coordinate to the joint entropy of
every nonempty subset of a ground set of variables, ordered by cardinality
and then lexicographically by member position.  Constraint systems are
lists of integer linear forms over these coordinates: the elemental
Shannon inequalities, the conditional-independence equalities of a causal
structure, and the reduced system for line structures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Literal, Mapping, Sequence

from .errors import InvalidParameter
from .polyhedra import _row_text, primitive

Relation = Literal[">=", "=="]


@dataclass(frozen=True, eq=False)
class CoordinateIndex:
    """Nonempty variable subsets in (cardinality, position-lex) order.

    Subsets are stored as bitmasks over positions in ``variables``.  An
    optional ``allowed`` family restricts the index to a marginal scenario;
    it must be closed under taking nonempty subsets.
    """

    variables: tuple[str, ...]
    allowed: frozenset[int] | None = None
    masks: tuple[int, ...] = field(init=False)
    _positions: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.variables:
            raise InvalidParameter("coordinate index needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise InvalidParameter("variable names must be unique")
        n = len(self.variables)
        masks = [m for m in range(1, 1 << n)
                 if self.allowed is None or m in self.allowed]
        masks.sort(key=lambda m: (m.bit_count(), _bit_positions(m)))
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "_positions", {m: i for i, m in enumerate(masks)})

    def __len__(self) -> int:
        return len(self.masks)

    def position(self, mask: int) -> int:
        try:
            return self._positions[mask]
        except KeyError:
            raise InvalidParameter(f"subset mask {mask!r} is not a coordinate") from None

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            try:
                mask |= 1 << self.variables.index(name)
            except ValueError:
                raise InvalidParameter(f"unknown variable {name!r}") from None
        return mask

    def label(self, mask: int) -> str:
        members = "".join(self.variables[i] for i in _bit_positions(mask))
        return f"H({members})"

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.label(m) for m in self.masks)

    def restrict(self, allowed_masks: Iterable[int]) -> "CoordinateIndex":
        return CoordinateIndex(self.variables, allowed=frozenset(allowed_masks))


def _bit_positions(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@dataclass(frozen=True)
class LinearForm:
    """Integer-coefficient functional over entropy coordinates.

    ``coefficients`` maps subset masks to nonzero integers; ``relation``
    states whether the form is constrained to be nonnegative or zero.
    """

    coefficients: tuple[tuple[int, int], ...]
    relation: Relation = ">="

    @staticmethod
    def build(coeffs: Mapping[int, int], relation: Relation = ">=") -> "LinearForm":
        items = tuple(sorted((m, c) for m, c in coeffs.items() if c != 0))
        return LinearForm(items, relation)

    def row(self, index: CoordinateIndex) -> tuple[int, ...]:
        row = [0] * len(index)
        for mask, coeff in self.coefficients:
            row[index.position(mask)] += coeff
        return tuple(row)

    def evaluate(self, values: Sequence[int | float], index: CoordinateIndex) -> int | float:
        """The form at ``values``: exact on integers, floating point on floats."""
        return sum(c * values[index.position(m)] for m, c in self.coefficients)

    def text(self, index: CoordinateIndex) -> str:
        terms = sorted(self.coefficients, key=lambda mc: index.position(mc[0]))
        body = _row_text([c for _, c in terms], [index.label(m) for m, _ in terms])
        return f"{body} {self.relation} 0"


@dataclass(frozen=True)
class ConstraintSystem:
    """An H-representation given as labeled linear forms over an index."""

    index: CoordinateIndex
    equalities: tuple[LinearForm, ...] = ()
    inequalities: tuple[LinearForm, ...] = ()

    def __post_init__(self) -> None:
        for form in (*self.equalities, *self.inequalities):
            for mask, _ in form.coefficients:
                self.index.position(mask)

    def text(self) -> str:
        lines = [f"VARIABLES {' '.join(self.index.variables)}"]
        for form in self.equalities:
            lines.append(form.text(self.index))
        for form in self.inequalities:
            lines.append(form.text(self.index))
        return "\n".join(lines)

    def to_json(self) -> str:
        def forms(items: tuple[LinearForm, ...]) -> list[dict]:
            return [
                {
                    "terms": {self.index.label(m): str(c) for m, c in f.coefficients},
                    "relation": f.relation,
                }
                for f in items
            ]

        return json.dumps(
            {
                "variables": list(self.index.variables),
                "equalities": forms(self.equalities),
                "inequalities": forms(self.inequalities),
            },
            indent=2,
        )


def conditional_mutual_information(s: int, t: int, z: int = 0,
                                   relation: Relation = ">=") -> LinearForm:
    """I(S:T|Z) expanded as H(SZ) + H(TZ) - H(STZ) - H(Z)."""
    if s & t or s & z or t & z:
        raise InvalidParameter("S, T, Z must be pairwise disjoint")
    if not s or not t:
        raise InvalidParameter("S and T must be nonempty")
    coeffs: dict[int, int] = {}
    for mask, c in ((s | z, 1), (t | z, 1), (s | t | z, -1), (z, -1)):
        if mask:
            coeffs[mask] = coeffs.get(mask, 0) + c
    return LinearForm.build(coeffs, relation)


def elemental_forms(ground: int) -> list[LinearForm]:
    """Elemental Shannon inequalities over the variables of a subset mask.

    For n >= 2 members this is one monotonicity per member and one
    conditional mutual-information positivity per pair of members and
    subset of the others, n + n(n-1)*2^(n-3) inequalities in total.  For a
    single member it degenerates to plain positivity.

    The order is the monotonicities, then the pairs in order with each
    pair's conditioning sets by increasing mask, so I(i:j) comes before
    I(i:j|K).  The double description inserts the rows in this order; its
    result does not depend on the order but its work does (largest sets
    first made 1,768 adjacency tests for ``bc-cone 3`` and 523 for
    ``marginalize bell``, smallest first 1,254 and 121).
    """
    bits = [1 << p for p in _bit_positions(ground)]
    if len(bits) == 1:
        return [LinearForm.build({ground: 1})]
    forms = [LinearForm.build({ground: 1, ground & ~b: -1}) for b in bits]
    for i, bi in enumerate(bits):
        for bj in bits[i + 1:]:
            others = ground & ~bi & ~bj
            # every subset of the remaining members, by increasing mask
            s = 0
            while True:
                forms.append(conditional_mutual_information(bi, bj, s))
                if s == others:
                    break
                s = (s - others) & others
    return forms


def elemental_shannon_system(variables: Sequence[str]) -> ConstraintSystem:
    """Minimal generating set of the Shannon constraints: the elemental forms of all variables."""
    if not variables:
        raise InvalidParameter("variable list must be nonempty")
    index = CoordinateIndex(tuple(variables))
    full = (1 << len(index.variables)) - 1
    return ConstraintSystem(index, (), tuple(elemental_forms(full)))


def classical_ci_system(structure) -> ConstraintSystem:
    """Per-node conditional-independence equalities of a classical structure.

    Coordinates range over all nodes, observed and unobserved.  Each node
    with a nonempty set of non-descendants (its parents excluded) yields
    the equality I(node : non-descendants | parents) = 0.
    """
    names = tuple(node.id for node in structure.nodes)
    index = CoordinateIndex(names)
    forms: list[LinearForm] = []
    for node in structure.nodes:
        node_mask = index.mask_of([node.id])
        parents = index.mask_of(structure.parents(node.id))
        descendants = index.mask_of(structure.descendants(node.id))
        nondesc = ((1 << len(names)) - 1) & ~node_mask & ~descendants & ~parents
        if nondesc:
            forms.append(conditional_mutual_information(node_mask, nondesc, parents, "=="))
    return ConstraintSystem(index, tuple(forms), ())


def reduced_line_system(n: int) -> ConstraintSystem:
    """The n(n+1)/2 inequalities that survive the line-structure reduction.

    Over the observed coordinates of the n-node line: the n monotonicities
    H(all | all minus X_i) >= 0 plus I(X_i : X_j | M_ij) >= 0 for i < j,
    where M_ij is the set of observed nodes strictly between X_i and X_j.
    The conditional-independence content of the structure is not emitted
    here; it enters through the contiguous-block substitution.
    """
    if n < 1:
        raise InvalidParameter("line structure needs n >= 1")
    variables = tuple(f"X{i}" for i in range(1, n + 1))
    index = CoordinateIndex(variables)
    full = (1 << n) - 1
    forms: list[LinearForm] = []
    if n == 1:
        forms.append(LinearForm.build({1: 1}))
        return ConstraintSystem(index, (), tuple(forms))
    for i in range(n):
        forms.append(LinearForm.build({full: 1, full & ~(1 << i): -1}))
    for i in range(n):
        for j in range(i + 1, n):
            between = 0
            for k in range(i + 1, j):
                between |= 1 << k
            forms.append(conditional_mutual_information(1 << i, 1 << j, between))
    return ConstraintSystem(index, (), tuple(forms))


# -- contiguous-block dimension reduction for line structures ---------------

def contiguous_blocks(mask: int) -> list[int]:
    """Decompose a subset mask into its maximal runs of consecutive positions."""
    blocks = []
    current = 0
    prev = None
    for pos in _bit_positions(mask):
        if prev is not None and pos == prev + 1:
            current |= 1 << pos
        else:
            if current:
                blocks.append(current)
            current = 1 << pos
        prev = pos
    if current:
        blocks.append(current)
    return blocks


def _block_positions(mask: int, n: int) -> list[int]:
    """Block coordinates of the maximal contiguous runs of a subset of n positions.

    Block coordinates are ordered by (length, start): the runs of length
    below L take (L-1)(2n+2-L)/2 coordinates.
    """
    positions = []
    for block in contiguous_blocks(mask):
        length, start = block.bit_count(), (block & -block).bit_length() - 1
        positions.append((length - 1) * (2 * n + 2 - length) // 2 + start)
    return positions


def substitute_contiguous(system: ConstraintSystem) -> list[tuple[int, ...]]:
    """Rewrite forms over subset coordinates into contiguous-block coordinates.

    Every subset entropy is replaced by the sum of the entropies of its
    maximal contiguous blocks, which is exact for compatible distributions
    on a line structure.  Returns integer rows over the block coordinates
    (inequalities only; the system must not carry equalities).
    """
    if system.equalities:
        raise InvalidParameter("substitution expects an inequality-only system")
    n = len(system.index.variables)
    rows = []
    for form in system.inequalities:
        row = [0] * (n * (n + 1) // 2)
        for mask, coeff in form.coefficients:
            for position in _block_positions(mask, n):
                row[position] += coeff
        rows.append(primitive(row))
    return rows


def lift_block_vectors(vectors: Iterable[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Expand contiguous-block vectors to full subset-coordinate vectors.

    The block positions of every subset are found once per call, so each
    vector then costs one short sum per coordinate.
    """
    index = CoordinateIndex(tuple(f"X{i}" for i in range(1, n + 1)))
    table = [_block_positions(mask, n) for mask in index.masks]
    return [tuple(sum(values[p] for p in positions) for positions in table)
            for values in vectors]


def contiguous_decomposition_equalities(n: int) -> tuple[LinearForm, ...]:
    """H(S) = sum of maximal contiguous blocks, for every non-contiguous S."""
    index = CoordinateIndex(tuple(f"X{i}" for i in range(1, n + 1)))
    forms = []
    for mask in index.masks:
        blocks = contiguous_blocks(mask)
        if len(blocks) > 1:
            forms.append(LinearForm.build({mask: 1} | dict.fromkeys(blocks, -1), "=="))
    return tuple(forms)


def system_rows(system: ConstraintSystem) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Integer equality and inequality rows of a constraint system."""
    eqs = [primitive(f.row(system.index)) for f in system.equalities]
    ineqs = [primitive(f.row(system.index)) for f in system.inequalities]
    return eqs, ineqs
