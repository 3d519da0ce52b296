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

from .entropy_space import CoordinateIndex, LinearForm, conditional_mutual_information
from .errors import InvalidParameter

NodeKind = Literal["observed", "unobserved"]


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
        object.__setattr__(self, "_known", known)
        for parent, child in self.edges:
            if parent not in known or child not in known:
                raise InvalidParameter(f"edge ({parent!r}, {child!r}) names an unknown node")
        if self._has_cycle():
            raise InvalidParameter("edge relation must be acyclic")

    def _has_cycle(self) -> bool:
        indeg = {n.id: 0 for n in self.nodes}
        for _, child in self.edges:
            indeg[child] += 1
        queue = deque(i for i, d in indeg.items() if d == 0)
        seen = 0
        children = self.children_map()
        while queue:
            seen += 1
            for c in children[queue.popleft()]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        return seen != len(self.nodes)

    # -- basic queries -------------------------------------------------

    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def observed_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind == "observed")

    def unobserved_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind == "unobserved")

    def parents_map(self) -> dict[str, list[str]]:
        return self._links((child, parent) for parent, child in self.edges)

    def children_map(self) -> dict[str, list[str]]:
        return self._links(self.edges)

    def _links(self, pairs: Iterable[tuple[str, str]]) -> dict[str, list[str]]:
        """Each node's linked nodes in node order, from (node, linked) pairs."""
        out: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for node, linked in pairs:
            out[node].append(linked)
        order = {n.id: i for i, n in enumerate(self.nodes)}
        for lst in out.values():
            lst.sort(key=order.__getitem__)
        return out

    def parents(self, node: str) -> tuple[str, ...]:
        self._require(node)
        return tuple(self.parents_map()[node])

    def ancestors(self, node: str) -> frozenset[str]:
        """Strict ancestors of a node (the node itself excluded)."""
        self._require(node)
        parents = self.parents_map()
        return _reach(parents[node], parents)

    def descendants(self, node: str) -> frozenset[str]:
        """Strict descendants of a node."""
        self._require(node)
        children = self.children_map()
        return _reach(children[node], children)

    def ancestor_closure(self, nodes: Iterable[str]) -> frozenset[str]:
        """Nodes together with all of their ancestors."""
        nodes = list(nodes)
        for node in nodes:
            self._require(node)
        return _reach(nodes, self.parents_map())

    def _require(self, node: str) -> None:
        if node not in self._known:
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
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also over-long numbers, deep nesting
            raise InvalidParameter(f"structure file is not valid JSON: {exc}") from None
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
        return CausalStructure(tuple(nodes), tuple(edges))


def _reach(starts: Iterable[str], links: dict[str, list[str]]) -> frozenset[str]:
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


def reduced_line_structure(n: int, names: Sequence[str] | None = None) -> CausalStructure:
    """Line structure with the outermost hidden nodes identified with the
    outer observed nodes, which generate the same observed correlations.

    Observed nodes keep the line order; the surviving hidden nodes sit
    between interior neighbours.  For n = 4 with names A, X, Y, B this is
    the standard bipartite Bell structure.
    """
    if n < 3:
        raise InvalidParameter("reduced line structure needs n >= 3")
    obs = list(names) if names is not None else [f"X{i}" for i in range(1, n + 1)]
    if len(obs) != n:
        raise InvalidParameter("names must match the node count")
    hidden = [f"C{i}" if n > 4 else "C" for i in range(2, n - 1)]
    nodes = [Node(v, "observed") for v in obs] + [Node(h, "unobserved") for h in hidden]
    edges: list[tuple[str, str]] = [(obs[0], obs[1]), (obs[-1], obs[-2])]
    for k, h in enumerate(hidden, start=2):
        edges.append((h, obs[k - 1]))
        edges.append((h, obs[k]))
    return CausalStructure(tuple(nodes), tuple(edges))


def bell_structure() -> CausalStructure:
    """Bipartite Bell scenario: settings A, B; outcomes X, Y; shared cause C."""
    structure = reduced_line_structure(4, names=("A", "X", "Y", "B"))
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
    edges: list[tuple[str, str]] = []
    for i, h in enumerate(hidden):
        for child in chain[i]:
            edges.append((h, child))
        for child in chain[i + 1]:
            edges.append((h, child))
    # deduplicate while keeping first occurrence (inner nodes have two parents)
    seen: set[tuple[str, str]] = set()
    unique = [e for e in edges if not (e in seen or seen.add(e))]
    return CausalStructure(tuple(nodes), tuple(unique), name=f"ptilde:{k}",
                           copies=(first, last))


# Twenty observed nodes already make 1,048,575 entropy coordinates; the
# largest run the pipelines aim at, verify pn:12, has 4,095.
_MAX_SELECTOR_OBSERVED = 20


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
    parents = structure.parents_map()
    children = structure.children_map()
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


def ancestor_disjoint_pairs(structure: CausalStructure,
                            maximal_only: bool = True) -> list[tuple[frozenset[str], frozenset[str]]]:
    """Pairs of observed subsets with disjoint ancestor closures.

    With ``maximal_only`` each returned pair cannot be grown on either side
    without the closures intersecting; the full list is useful when the
    equalities are consumed without the Shannon inequalities alongside.
    """
    observed = structure.observed_ids()
    m = len(observed)
    if m < 2:
        return []
    closures = {v: structure.ancestor_closure([v]) for v in observed}
    order = {v: i for i, v in enumerate(observed)}
    seen: set[frozenset[frozenset[str]]] = set()
    pairs: list[tuple[frozenset[str], frozenset[str]]] = []
    # assign each observed node to side S, side T or neither
    for assignment in range(3 ** m):
        s: list[str] = []
        t: list[str] = []
        rem = assignment
        for v in observed:
            rem, which = divmod(rem, 3)
            if which == 0:
                s.append(v)
            elif which == 1:
                t.append(v)
        if not s or not t:
            continue
        anc_s: set[str] = set().union(*(closures[v] for v in s))
        anc_t: set[str] = set().union(*(closures[v] for v in t))
        if anc_s & anc_t:
            continue
        if maximal_only and any(
                v not in s and v not in t
                and (not (closures[v] & anc_t) or not (closures[v] & anc_s))
                for v in observed):
            continue
        key = frozenset((frozenset(s), frozenset(t)))
        if key in seen:
            continue
        seen.add(key)
        if (min(order[v] for v in t)) < (min(order[v] for v in s)):
            s, t = t, s
        pairs.append((frozenset(s), frozenset(t)))
    pairs.sort(key=lambda st: (sorted(order[v] for v in st[0]),
                               sorted(order[v] for v in st[1])))
    return pairs


def observed_independence_constraints(structure: CausalStructure,
                                      maximal_only: bool = True) -> tuple[LinearForm, ...]:
    """I(S:T) = 0 for observed subsets with no shared ancestor.

    Valid for both the classical and the quantum version of the structure,
    since the argument only uses disjoint ancestry.  Every returned pair is
    certified by d-separation before being emitted.
    """
    observed = structure.observed_ids()
    if len(observed) < 2:
        return ()
    index = CoordinateIndex(observed)
    forms = []
    for s, t in ancestor_disjoint_pairs(structure, maximal_only=maximal_only):
        if not d_separated(structure, s, t, frozenset()):
            raise InvalidParameter(
                f"ancestor-disjoint pair {sorted(s)} / {sorted(t)} is not d-separated")
        forms.append(conditional_mutual_information(index.mask_of(s), index.mask_of(t),
                                                    0, "=="))
    return tuple(forms)
