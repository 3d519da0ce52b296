"""Entropy coordinates and constraint-system generation.

The coordinate system assigns one real coordinate to the joint entropy of
every nonempty subset of a ground set of variables, ordered by cardinality
and then lexicographically by member position.  Constraint systems are
lists of integer linear forms over these coordinates: the elemental
Shannon inequalities, the conditional-independence equalities of a causal
structure, and the reduced system for line structures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidParameter
from .polyhedra import primitive


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

    def members(self, mask: int) -> tuple[str, ...]:
        return tuple(self.variables[i] for i in _bit_positions(mask))

    def label(self, mask: int) -> str:
        return f"H({''.join(self.members(mask))})"

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


def labeled_index(variables: Sequence[str], what: str) -> CoordinateIndex:
    """The index over ``variables``, each subset printed under its own label.

    Names such as A, B and AB, which label both {A, B} and {AB} H(AB), are
    refused; ``what`` names the variables in the message.
    """
    index = CoordinateIndex(tuple(variables))
    if twice := [label for label, count in Counter(index.labels).items() if count > 1]:
        raise InvalidParameter(f"two subsets of {what} share the label {twice[0]}; rename a node")
    return index


@dataclass(frozen=True)
class LinearForm:
    """Integer-coefficient functional over entropy coordinates.

    ``coefficients`` maps subset masks to nonzero integers.  Whether the
    form is nonnegative or zero is said by the list of a
    :class:`ConstraintSystem` that holds it.
    """

    coefficients: tuple[tuple[int, int], ...]

    @staticmethod
    def build(coeffs: Mapping[int, int]) -> "LinearForm":
        items = tuple(sorted((m, c) for m, c in coeffs.items() if c != 0))
        return LinearForm(items)

    def row(self, index: CoordinateIndex) -> tuple[int, ...]:
        row = [0] * len(index)
        for mask, coeff in self.coefficients:
            row[index.position(mask)] += coeff
        return tuple(row)


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


def conditional_mutual_information(s: int, t: int, z: int = 0) -> LinearForm:
    """I(S:T|Z) expanded as H(SZ) + H(TZ) - H(STZ) - H(Z)."""
    if s & t or s & z or t & z:
        raise InvalidParameter("S, T, Z must be pairwise disjoint")
    if not s or not t:
        raise InvalidParameter("S and T must be nonempty")
    coeffs: dict[int, int] = {}
    for mask, c in ((s | z, 1), (t | z, 1), (s | t | z, -1), (z, -1)):
        if mask:
            coeffs[mask] = coeffs.get(mask, 0) + c
    return LinearForm.build(coeffs)


class Elemental(NamedTuple):
    """An elemental Shannon form and, for I(i:j|K), the subset masks (i, j, K)."""

    form: LinearForm
    cmi: tuple[int, int, int] | None  # None for a monotonicity or plain positivity


def elemental_forms(ground: int) -> list[Elemental]:
    """Elemental Shannon inequalities over the variables of a subset mask.

    For n >= 2 members this is one monotonicity per member and one
    conditional mutual-information positivity I(i:j|K) per pair of members
    and subset K of the others, n + n(n-1)*2^(n-3) inequalities in total.
    For a single member it degenerates to plain positivity.  Each form comes
    with its (i, j, K) masks from this one enumeration, so
    ``classical_ci_system`` tests d-separation without decoding a row.

    The order is the monotonicities, then the pairs in order with each
    pair's conditioning sets by increasing mask, so I(i:j) comes before
    I(i:j|K).  The double description inserts the rows in this order; its
    result does not depend on the order but its work does (largest sets
    first made 1,768 adjacency tests for ``bc-cone 3`` and 523 for
    ``marginalize bell``, smallest first 1,254 and 121).
    """
    bits = [1 << p for p in _bit_positions(ground)]
    if len(bits) == 1:
        return [Elemental(LinearForm.build({ground: 1}), None)]
    forms = [Elemental(LinearForm.build({ground: 1, ground & ~b: -1}), None) for b in bits]
    for i, bi in enumerate(bits):
        for bj in bits[i + 1:]:
            others = ground & ~bi & ~bj
            # every subset of the remaining members, by increasing mask
            s = 0
            while True:
                forms.append(Elemental(conditional_mutual_information(bi, bj, s), (bi, bj, s)))
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
    return ConstraintSystem(index, (), tuple(e.form for e in elemental_forms(full)))


def classical_ci_system(structure) -> ConstraintSystem:
    """The all-node system of a classical structure, its independences stated as equalities.

    Coordinates range over all nodes, observed and unobserved.  The forms
    are the elemental Shannon forms of all nodes in ``elemental_forms``
    order: each I(i:j|K) with i and j d-separated by K is an equality, and
    every other one, each monotonicity included, an inequality.

    With the Shannon inequalities these equalities cut out the same cone as
    the local Markov conditions I(node : non-descendants | parents) = 0.
    Each such condition is a sum of elemental I(node:j|K) with j and K drawn
    from the non-descendants and K holding the parents, every one of them
    d-separated.  Conversely, d-separation is sound and complete for the
    semi-graphoid closure of local Markov (Geiger, Verma & Pearl, Networks
    1990), and entropic independence obeys the semi-graphoid axioms, so each
    equality is implied.  Stating them all spares the projection from
    rediscovering them as implicit equalities.  The same argument gives
    I(B : S minus B) = 0 for each block B of a subset S (:class:`BlockSplit`
    over all nodes), since the blocks' ancestor closures are disjoint, so on
    this cone every subset entropy is the sum of its blocks'.
    """
    from .causal import d_separated  # causal imports this module

    index = CoordinateIndex(tuple(node.id for node in structure.nodes))
    equalities: list[LinearForm] = []
    inequalities: list[LinearForm] = []
    for form, cmi in elemental_forms((1 << len(index.variables)) - 1):
        if cmi is not None and d_separated(structure, *map(index.members, cmi)):
            equalities.append(form)
        else:
            inequalities.append(form)
    return ConstraintSystem(index, tuple(equalities), tuple(inequalities))


def reduced_line_system(n: int) -> ConstraintSystem:
    """The n(n+1)/2 inequalities that survive the line-structure reduction.

    Over the observed coordinates of the n-node line: the n monotonicities
    H(all | all minus X_i) >= 0 plus I(X_i : X_j | M_ij) >= 0 for i < j,
    where M_ij is the set of observed nodes strictly between X_i and X_j.
    The conditional-independence content of the structure is not emitted
    here; it enters through the block substitution (:class:`BlockSplit`).
    """
    if n < 1:
        raise InvalidParameter("line structure needs n >= 1")
    variables = tuple(f"X{i}" for i in range(1, n + 1))
    index = CoordinateIndex(variables)
    full = (1 << n) - 1
    if n == 1:
        return ConstraintSystem(index, (), (LinearForm.build({1: 1}),))
    forms = [LinearForm.build({full: 1, full & ~(1 << i): -1}) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            between = ((1 << j) - 1) & ~((2 << i) - 1)  # the positions strictly between
            forms.append(conditional_mutual_information(1 << i, 1 << j, between))
    return ConstraintSystem(index, (), tuple(forms))


# -- block reduction: the entropies of ancestor-disjoint parts add up ---------

def clash_reach(clash: Sequence[int]) -> list[int]:
    """For every mask m over the positions of ``clash``, the OR of its members' clash masks."""
    reach = [0]
    for mask in clash:
        reach += [r | mask for r in reach]
    return reach


@dataclass(frozen=True, eq=False)
class BlockSplit:
    """Every subset split into its blocks, the components of its clash graph.

    ``clash[i]`` holds the variables whose ancestor closures meet variable
    i's, i included.  The blocks of a subset have pairwise disjoint ancestor
    closures, so they are independent and H(S) is the sum of their
    entropies; on a line they are the maximal contiguous runs.  The block
    coordinates are the one-block subsets in index order, and ``parts[k]``
    holds the block positions of the k-th subset.
    """

    index: CoordinateIndex
    clash: Sequence[int]
    blocks: tuple[int, ...] = field(init=False)
    parts: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        reach = clash_reach(self.clash)
        split = []
        for mask in self.index.masks:
            found, rest = [], mask
            while rest:
                block, grown = 0, rest & -rest
                while grown != block:
                    block, grown = grown, reach[grown] & rest
                found.append(block)
                rest &= ~block
            split.append(found)
        blocks = tuple(found[0] for found in split if len(found) == 1)
        at = {block: k for k, block in enumerate(blocks)}
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "parts", tuple(tuple(map(at.__getitem__, found)) for found in split))

    def lift(self, vectors: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
        """Block vectors as full subset-coordinate vectors, one short sum per coordinate."""
        return [tuple(sum(values[p] for p in part) for part in self.parts) for values in vectors]

    def place(self, row: Sequence[int]) -> tuple[int, ...]:
        """A block row over the subset coordinates, zero off the one-block subsets."""
        return tuple(row[part[0]] if len(part) == 1 else 0 for part in self.parts)


def substitute_contiguous(split: BlockSplit, forms: Iterable[LinearForm]) -> list[tuple[int, ...]]:
    """Primitive rows of the forms over the block coordinates of ``split``.

    Every subset entropy is replaced by the sum of the entropies of its
    blocks, which is exact on the structure's equality space.
    """
    rows = []
    for form in forms:
        row = [0] * len(split.blocks)
        for mask, coeff in form.coefficients:
            for position in split.parts[split.index.position(mask)]:
                row[position] += coeff
        rows.append(primitive(row))
    return rows


def contiguous_decomposition_equalities(split: BlockSplit) -> tuple[LinearForm, ...]:
    """H(S) = the sum of its blocks' entropies, for every S of more than one block."""
    return tuple(LinearForm.build({mask: 1} | {split.blocks[p]: -1 for p in part})
                 for mask, part in zip(split.index.masks, split.parts) if len(part) > 1)


def system_rows(system: ConstraintSystem) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Integer equality and inequality rows of a constraint system."""
    eqs = [primitive(f.row(system.index)) for f in system.equalities]
    ineqs = [primitive(f.row(system.index)) for f in system.inequalities]
    return eqs, ineqs
