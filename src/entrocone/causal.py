"""Causal structures: DAGs of observed and unobserved nodes.

Provides the built-in line structures, the post-selected variants with
doubled outer nodes, graph queries (ancestry, d-separation), and the
observed-level independence equalities implied by disjoint ancestry.
"""

from __future__ import annotations

import json
from collections import deque
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
        known = frozenset(n.id for n in self.nodes)
        if len(known) != len(self.nodes):
            raise InvalidParameter("node ids must be unique")
        seen: set[tuple[str, str]] = set()
        for parent, child in self.edges:
            if parent not in known or child not in known:
                raise InvalidParameter(f"edge ({parent!r}, {child!r}) names an unknown node")
            if (parent, child) in seen:
                raise InvalidParameter(f"edge ({parent!r}, {child!r}) is listed twice")
            seen.add((parent, child))
        # built once and read by every graph query; callers only see tuples or copies
        object.__setattr__(self, "_parents",
                           self._links((child, parent) for parent, child in self.edges))
        object.__setattr__(self, "_children", self._links(self.edges))
        if len(order := self._kahn_order()) != len(self.nodes):
            left = ", ".join(repr(n.id) for n in self.nodes if n.id not in order)
            raise InvalidParameter(
                f"edge relation must be acyclic; on a cycle or below one: {left}")

    def _kahn_order(self) -> tuple[str, ...]:
        """Nodes with every parent first; a cycle leaves its nodes out."""
        indeg = {node: len(parents) for node, parents in self._parents.items()}
        queue = deque(i for i, d in indeg.items() if d == 0)
        order = []
        while queue:
            order.append(queue.popleft())
            for c in self._children[order[-1]]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        return tuple(order)

    # -- basic queries -------------------------------------------------

    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def observed_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind == "observed")

    def parents_map(self) -> dict[str, list[str]]:
        """Each node's parents in node order, as a fresh dict the caller may change."""
        return {node: list(linked) for node, linked in self._parents.items()}

    def _links(self, pairs: Iterable[tuple[str, str]]) -> dict[str, tuple[str, ...]]:
        """Each node's linked nodes in node order, from (node, linked) pairs."""
        out: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for node, linked in pairs:
            out[node].append(linked)
        order = {n.id: i for i, n in enumerate(self.nodes)}
        return {node: tuple(sorted(lst, key=order.__getitem__)) for node, lst in out.items()}

    def ancestor_closure(self, nodes: Iterable[str]) -> frozenset[str]:
        """Nodes together with all of their ancestors."""
        nodes = list(nodes)
        for node in nodes:
            self._require(node)
        return _reach(nodes, self._parents)

    def _require(self, node: str) -> None:
        if node not in self._parents:
            raise InvalidParameter(f"unknown node {node!r}")

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
        data = parse_json(text, "structure file")
        if not isinstance(data, dict) or "nodes" not in data:
            raise InvalidParameter("structure file must be an object with a 'nodes' field")
        for key in ("nodes", "edges"):
            if not isinstance(data.get(key, []), list):
                raise InvalidParameter(f"structure file {key!r} must be a list")
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
            raise InvalidParameter(f"structure file has {observed} observed nodes; "
                                   f"the ceiling is {_MAX_SELECTOR_OBSERVED}")
        return CausalStructure(tuple(nodes), tuple(edges))


def _reach(starts: Iterable[str], links: dict[str, Sequence[str]]) -> frozenset[str]:
    """``starts`` and every node reachable from them along ``links``."""
    seen: set[str] = set()
    stack = list(starts)
    while stack:
        cur = stack.pop()
        if cur not in seen:
            seen.add(cur)
            stack.extend(links[cur])
    return frozenset(seen)


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
    Implemented by reachability over (node, incoming-direction) states, so
    the cost is linear in the graph size.
    """
    xs, ys, zs = frozenset(x), frozenset(y), frozenset(z)
    for node in (*xs, *ys, *zs):
        structure._require(node)
    if xs & ys or xs & zs or ys & zs:
        raise InvalidParameter("node sets must be pairwise disjoint")
    if not xs or not ys:
        return True
    parents, children = structure._parents, structure._children
    # collider openers: the ancestor closure of z (nodes with a descendant in z, z included)
    opens_collider = _reach(zs, parents)
    # states: (node, direction); direction 'up' = entered from a child,
    # 'down' = entered from a parent
    visited: set[tuple[str, str]] = set()
    queue: deque[tuple[str, str]] = deque()
    for s in xs:
        queue.append((s, "up"))
    while queue:
        node, direction = queue.popleft()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node in ys:
            return False
        if direction == "up":
            if node not in zs:
                for p in parents[node]:
                    queue.append((p, "up"))
                for c in children[node]:
                    queue.append((c, "down"))
        else:
            if node not in zs:
                for c in children[node]:
                    queue.append((c, "down"))
            if node in opens_collider:
                for p in parents[node]:
                    queue.append((p, "up"))
    return True


def clash_masks(structure: CausalStructure, nodes: Sequence[str]) -> list[int]:
    """Per node of ``nodes``, bit j set when the j-th node's ancestor closure meets its own."""
    closures = [structure.ancestor_closure([v]) for v in nodes]
    return [sum(1 << j for j, other in enumerate(closures) if mine & other) for mine in closures]


def ancestor_disjoint_pairs(
        structure: CausalStructure) -> list[tuple[frozenset[str], frozenset[str]]]:
    """Every pair of observed subsets with disjoint ancestor closures.

    Each unordered pair comes once, with the earliest observed node in the
    first set, and the list is sorted by member positions.  The pipelines
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
    return [tuple(frozenset(observed[i] for i in _bit_positions(side)) for side in st)
            for st in pairs]


def observed_independence_constraints(structure: CausalStructure) -> tuple[LinearForm, ...]:
    """The forms I(S:T), zero for every pair of observed subsets with no shared ancestor.

    Valid for both the classical and the quantum version of the structure,
    since the argument only uses disjoint ancestry.  Each pair is d-separated
    too: every collider blocks, and a path without one has a node that is an
    ancestor of both ends (``test_all_forms_certified_by_d_separation``).
    """
    bit = {v: 1 << i for i, v in enumerate(structure.observed_ids())}
    return tuple(conditional_mutual_information(sum(map(bit.get, s)), sum(map(bit.get, t)))
                 for s, t in ancestor_disjoint_pairs(structure))
