"""Causal structures: DAGs of observed and unobserved nodes.

Provides the built-in line structures, the post-selected variants with
doubled outer nodes, graph queries (ancestry, d-separation), and the
observed-level independence equalities implied by disjoint ancestry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .entropy_space import LinearForm, _bit_positions, clash_reach, conditional_mutual_information
from .errors import InvalidParameter, parse_json

NodeKind = Literal["observed", "unobserved"]

# The most observed nodes a selector or a structure file may have.  Twenty
# already make 1,048,575 entropy coordinates; the largest run the pipelines
# aim at, verify pn:13 at its ceiling, has 8,191.
_MAX_SELECTOR_OBSERVED = 20


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind


@dataclass(frozen=True, eq=False)
class CausalStructure:
    """A DAG over named nodes, each observed or unobserved.

    ``copies`` pairs observed nodes that are two copies of one variable
    (the doubled outer nodes of :func:`build_post_selected_line`).
    Immutable after construction; all queries are pure.
    """

    nodes: tuple[Node, ...]
    edges: tuple[tuple[str, str], ...]
    name: str = ""
    copies: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        at = {n.id: i for i, n in enumerate(self.nodes)}
        if len(at) != len(self.nodes):
            raise InvalidParameter("node ids must be unique")
        parents = [0] * len(at)
        children: list[list[int]] = [[] for _ in at]
        for parent, child in self.edges:
            if parent not in at or child not in at:
                raise InvalidParameter(f"edge ({parent!r}, {child!r}) names an unknown node")
            if parents[at[child]] >> at[parent] & 1:
                raise InvalidParameter(f"edge ({parent!r}, {child!r}) is listed twice")
            parents[at[child]] |= 1 << at[parent]
            children[at[parent]].append(at[child])
        # Kahn's pass: a node's closure is final once every parent has passed it
        # on; a cycle leaves its nodes, and those below it, waiting
        closure = [1 << i for i in range(len(at))]
        waiting = [mask.bit_count() for mask in parents]
        ready = [i for i, count in enumerate(waiting) if not count]
        while ready:
            node = ready.pop()
            for child in children[node]:
                closure[child] |= closure[node]
                waiting[child] -= 1
                if not waiting[child]:
                    ready.append(child)
        if any(waiting):
            left = ", ".join(repr(n.id) for n, count in zip(self.nodes, waiting) if count)
            raise InvalidParameter(
                f"edge relation must be acyclic; on a cycle or below one: {left}")
        # read by every graph query: masks over positions in ``nodes``
        object.__setattr__(self, "_at", at)
        object.__setattr__(self, "_parents", tuple(parents))
        object.__setattr__(self, "_closure", tuple(closure))

    # -- basic queries -------------------------------------------------

    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def observed_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind == "observed")

    def parents_map(self) -> dict[str, list[str]]:
        """Each node's parents in node order, as a fresh dict the caller may change."""
        return {n.id: self._names(mask) for n, mask in zip(self.nodes, self._parents)}

    def ancestor_closure(self, nodes: Iterable[str]) -> frozenset[str]:
        """Nodes together with all of their ancestors."""
        return frozenset(self._names(self._ancestors(self._mask(nodes))))

    def _mask(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            if name not in self._at:
                raise InvalidParameter(f"unknown node {name!r}")
            mask |= 1 << self._at[name]
        return mask

    def _names(self, mask: int) -> list[str]:
        return [self.nodes[i].id for i in _bit_positions(mask)]

    def _ancestors(self, mask: int) -> int:
        out = 0
        for i in _bit_positions(mask):
            out |= self._closure[i]
        return out

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "nodes": [{"id": n.id, "kind": n.kind} for n in self.nodes],
                "edges": [list(e) for e in self.edges],
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "CausalStructure":
        return CausalStructure.from_object(parse_json(text, "structure file"), "structure file")

    @staticmethod
    def from_object(data: object, what: str) -> "CausalStructure":
        """The structure that parsed JSON ``data`` describes; ``what`` names it in refusals."""
        if not isinstance(data, dict) or "nodes" not in data:
            raise InvalidParameter(f"{what} must be an object with a 'nodes' field")
        for key in ("nodes", "edges"):
            if not isinstance(data.get(key, []), list):
                raise InvalidParameter(f"{what} {key!r} must be a list")
        nodes = []
        for i, entry in enumerate(data["nodes"]):
            if not isinstance(entry, dict) or "id" not in entry:
                raise InvalidParameter(f"nodes[{i}] must be an object with an 'id' field")
            kind = entry.get("kind", "observed")
            if kind not in ("observed", "unobserved"):
                raise InvalidParameter(f"nodes[{i}].kind must be 'observed' or 'unobserved'")
            if not (isinstance(entry["id"], str) and entry["id"]):
                raise InvalidParameter(f"nodes[{i}].id must be a nonempty string")
            nodes.append(Node(entry["id"], kind))
        edges = []
        for i, entry in enumerate(data.get("edges", [])):
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(isinstance(v, str) and v for v in entry)):
                raise InvalidParameter(f"edges[{i}] must be a [parent, child] pair of node ids")
            edges.append(tuple(entry))
        observed = sum(1 for n in nodes if n.kind == "observed")
        if observed > _MAX_SELECTOR_OBSERVED:
            raise InvalidParameter(f"{what} has {observed} observed nodes; "
                                   f"the ceiling is {_MAX_SELECTOR_OBSERVED}")
        return CausalStructure(tuple(nodes), tuple(edges))


# -- built-in structures ----------------------------------------------------

def build_line_structure(n: int) -> CausalStructure:
    """The n-node line: observed X1..Xn, each adjacent pair sharing one
    unobserved parent Ci."""
    if n < 1:
        raise InvalidParameter("line structure needs n >= 1")
    nodes = [Node(f"X{i}", "observed") for i in range(1, n + 1)]
    nodes += [Node(f"C{i}", "unobserved") for i in range(1, n)]
    edges: list[tuple[str, str]] = []
    for i in range(1, n):
        edges.append((f"C{i}", f"X{i}"))
        edges.append((f"C{i}", f"X{i + 1}"))
    return CausalStructure(tuple(nodes), tuple(edges), name=f"pn:{n}")


def reduced_line_structure(names: Sequence[str]) -> CausalStructure:
    """Line structure on the observed ``names`` with the outermost hidden
    nodes identified with the outer observed nodes, which generate the same
    observed correlations.

    Observed nodes keep the order of ``names``; the surviving hidden nodes
    sit between interior neighbours.  For the names A, X, Y, B this is the
    standard bipartite Bell structure.
    """
    obs = list(names)
    n = len(obs)
    if n < 3:
        raise InvalidParameter("reduced line structure needs at least 3 names")
    hidden = [f"C{i}" if n > 4 else "C" for i in range(2, n - 1)]
    nodes = [Node(v, "observed") for v in obs] + [Node(h, "unobserved") for h in hidden]
    edges: list[tuple[str, str]] = [(obs[0], obs[1]), (obs[-1], obs[-2])]
    for k, h in enumerate(hidden, start=2):
        edges.append((h, obs[k - 1]))
        edges.append((h, obs[k]))
    return CausalStructure(tuple(nodes), tuple(edges))


def bell_structure() -> CausalStructure:
    """Bipartite Bell scenario: settings A, B; outcomes X, Y; shared cause C."""
    structure = reduced_line_structure(("A", "X", "Y", "B"))
    return CausalStructure(structure.nodes, structure.edges, name="bell")


_POST_SELECTED_NAMES = {3: (("X0", "X1"), ("Y",), ("Z0", "Z1"), ("C", "D")),
                        4: (("X0", "X1"), ("Y", "Z"), ("W0", "W1"), ("C", "D", "E"))}


def build_post_selected_line(k: int) -> CausalStructure:
    """Line structure on k nodes with both outer observed nodes doubled.

    Models the joint of outcome variables indexed by a binary setting on
    each end: the k-node line's outer nodes are replaced by two copies
    sharing the original hidden parent.
    """
    if k < 3:
        raise InvalidParameter("post-selected line needs k >= 3")
    if k in _POST_SELECTED_NAMES:
        first, middle, last, hidden = _POST_SELECTED_NAMES[k]
    else:
        first = ("X0", "X1")
        middle = tuple(f"Y{i}" for i in range(1, k - 1))
        last = ("Z0", "Z1")
        hidden = tuple(f"C{i}" for i in range(1, k))
    observed = first + middle + last
    nodes = [Node(v, "observed") for v in observed]
    nodes += [Node(h, "unobserved") for h in hidden]
    chain = [first, *((m,) for m in middle), last]
    # hidden node i links the disjoint groups chain[i] and chain[i + 1]
    edges = tuple((h, child) for i, h in enumerate(hidden) for child in (*chain[i], *chain[i + 1]))
    return CausalStructure(tuple(nodes), edges, name=f"ptilde:{k}", copies=(first, last))


def structure_from_name(name: str) -> CausalStructure:
    """Resolve the built-in structure selectors pn:<n>, bell, ptilde:<k>.

    A selector with more than 20 observed nodes is refused before anything
    is built.
    """
    if name == "bell":
        return bell_structure()
    # ptilde:<k> doubles both outer nodes of the k-node line
    for prefix, builder, doubled in (("pn:", build_line_structure, 0),
                                     ("ptilde:", build_post_selected_line, 2)):
        if name.startswith(prefix):
            text = name[len(prefix):]
            try:
                value = int(text)
            except ValueError:
                value = None
            if value is None or str(value) != text:  # int() also takes " 3", "1_2", "03"
                raise InvalidParameter(f"bad structure selector {name!r}")
            if value + doubled > _MAX_SELECTOR_OBSERVED:
                raise InvalidParameter(
                    f"structure selector {name!r} has {value + doubled} observed nodes; "
                    f"the ceiling is {_MAX_SELECTOR_OBSERVED}")
            return builder(value)
    raise InvalidParameter(f"unknown structure name {name!r}")


# -- d-separation -------------------------------------------------------------

def d_separated(structure: CausalStructure, x: Iterable[str], y: Iterable[str],
                z: Iterable[str]) -> bool:
    """Whether every path between x and y is blocked by z.

    A path is blocked if it contains a chain or fork through a member of z,
    or a collider whose node has neither itself nor any descendant in z.
    Decided by the moral-graph criterion (Lauritzen, Dawid, Larsen & Leimer,
    Networks 1990): x and y are d-separated by z exactly when z separates
    them in the moral graph of the ancestor closure of x, y and z, where
    each node is linked to its parents and its parents to each other.
    """
    xs, ys, zs = structure._mask(x), structure._mask(y), structure._mask(z)
    if xs & ys or xs & zs or ys & zs:
        raise InvalidParameter("node sets must be pairwise disjoint")
    if not xs or not ys:
        return True
    # the moral graph links the members of each family (a node and its parents);
    # the closure holds every member's parents, so each family lies inside it
    linked = [0] * len(structure.nodes)
    for i in _bit_positions(structure._ancestors(xs | ys | zs)):
        if parents := structure._parents[i]:  # a root's family links nothing
            family = parents | 1 << i
            for j in _bit_positions(family):
                linked[j] |= family
    reached = frontier = xs
    while frontier:
        step = 0
        for i in _bit_positions(frontier):
            step |= linked[i]
        frontier = step & ~zs & ~reached
        reached |= frontier
    return not reached & ys


def clash_masks(structure: CausalStructure, nodes: Sequence[str]) -> list[int]:
    """Per node of ``nodes``, bit j set when the j-th node's ancestor closure meets its own."""
    closures = [structure._ancestors(structure._mask([v])) for v in nodes]
    return [sum(1 << j for j, other in enumerate(closures) if mine & other) for mine in closures]


def ancestor_disjoint_pairs(structure: CausalStructure) -> list[tuple[int, int]]:
    """Every pair of observed subsets with disjoint ancestor closures.

    Each subset is a bitmask over positions in ``observed_ids()``.  Each
    unordered pair comes once, with the earliest observed node in the first
    mask, and the list is sorted by member positions.  The pipelines
    consume the whole list alongside the Shannon inequalities.
    """
    observed = structure.observed_ids()
    reach = clash_reach(clash_masks(structure, observed))
    everyone = (1 << len(observed)) - 1
    pairs: list[tuple[int, int]] = []
    for s in range(1, everyone + 1):
        # T draws from the nodes after S's first that clash with no member of S
        free = everyone & ~reach[s] & -(2 * (s & -s))
        t = free
        while t:
            pairs.append((s, t))
            t = (t - 1) & free
    pairs.sort(key=lambda st: (_bit_positions(st[0]), _bit_positions(st[1])))
    return pairs


def observed_independence_constraints(structure: CausalStructure) -> tuple[LinearForm, ...]:
    """The forms I(S:T), zero for every pair of observed subsets with no shared ancestor.

    Valid for both the classical and the quantum version of the structure,
    since the argument only uses disjoint ancestry.  Each pair is d-separated
    too: every collider blocks, and a path without one has a node that is an
    ancestor of both ends (``test_all_forms_certified_by_d_separation``).
    """
    return tuple(conditional_mutual_information(s, t)
                 for s, t in ancestor_disjoint_pairs(structure))
