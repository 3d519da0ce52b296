"""Shared oracles and generators for the test suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import entrocone
from entrocone import polyhedra
from entrocone.analysis import _marginal_scenario
from entrocone.causal import (CausalStructure, Node, build_post_selected_line,
                              observed_independence_constraints)
from entrocone.distributions import CausalModel
from entrocone.entropy_space import (ConstraintSystem, CoordinateIndex, classical_ci_system,
                                     conditional_mutual_information, elemental_shannon_system,
                                     system_rows)
from entrocone.polyhedra import (HRep, _combine, _kept_coordinates, dd_project, enumerate_rays,
                                 fm_eliminate, primitive)

from oracles import independence_rows, mask_of, nice_equalities


# -- graph queries from the parent lists -----------------------------------------

def hidden_ids(structure: CausalStructure) -> tuple[str, ...]:
    """The unobserved node ids, in node order."""
    observed = set(structure.observed_ids())
    return tuple(v for v in structure.node_ids() if v not in observed)


def descendants(structure: CausalStructure, node: str) -> frozenset[str]:
    """Strict descendants of ``node``: every node with it among its ancestors."""
    parents = structure.parents_map()
    found: set[str] = set()
    frontier = {node}
    while frontier:
        frontier = {child for child, ps in parents.items()
                    if child not in found and frontier.intersection(ps)}
        found |= frontier
    return frozenset(found)


# -- brute-force d-separation oracle ------------------------------------------

def all_undirected_paths(structure: CausalStructure, start: str, goal: str):
    """All simple paths in the undirected skeleton, with edge orientations."""
    adjacency: dict[str, list[tuple[str, str]]] = {n.id: [] for n in structure.nodes}
    for parent, child in structure.edges:
        adjacency[parent].append((child, "out"))
        adjacency[child].append((parent, "in"))

    paths = []

    def walk(node, visited, trail):
        if node == goal:
            paths.append(list(trail))
            return
        for nxt, direction in adjacency[node]:
            if nxt not in visited:
                visited.add(nxt)
                trail.append((node, nxt, direction))
                walk(nxt, visited, trail)
                trail.pop()
                visited.remove(nxt)

    walk(start, {start}, [])
    return paths


def dsep_bruteforce(structure: CausalStructure, xs, ys, zs) -> bool:
    """Path-by-path blocking test (collider condition with descendants)."""
    zs = set(zs)
    below = {n.id: descendants(structure, n.id) for n in structure.nodes}

    def blocked(path) -> bool:
        # interior node k sits between edges path[k-1] and path[k]
        for k in range(1, len(path)):
            node = path[k - 1][1]
            into_prev = path[k - 1][2] == "out"   # previous edge points into node
            into_next = path[k][2] == "in"        # next edge points into node
            if into_prev and into_next:  # collider
                if node not in zs and not (below[node] & zs):
                    return True
            else:  # chain or fork
                if node in zs:
                    return True
        return False

    for x in xs:
        for y in ys:
            for path in all_undirected_paths(structure, x, y):
                if not path:
                    continue
                if not blocked(path):
                    return False
    return True


# -- the local-Markov-only all-node system: the oracle for marginalize ----------

def local_markov_system(structure: CausalStructure):
    """Per-node conditional-independence equalities of a classical structure.

    Coordinates range over all nodes, observed and unobserved.  Each node
    with a nonempty set of non-descendants (its parents excluded) yields
    the equality I(node : non-descendants | parents) = 0.
    """
    names = structure.node_ids()
    index = CoordinateIndex(names)
    forms = []
    for node in structure.nodes:
        node_mask = mask_of(index, [node.id])
        parents = mask_of(index, structure.parents_map()[node.id])
        below = mask_of(index, descendants(structure, node.id))
        nondesc = ((1 << len(names)) - 1) & ~node_mask & ~below & ~parents
        if nondesc:
            forms.append(conditional_mutual_information(node_mask, nondesc, parents))
    return ConstraintSystem(index, tuple(forms), ())


def local_markov_projection(structure: CausalStructure):
    """The all-node H-rep with local Markov only, and the coordinates marginalize drops.

    The elemental Shannon inequalities of every node stay inequalities, the
    d-separated ones included; the only equalities are the per-node ones of
    ``local_markov_system``.
    """
    names = structure.node_ids()
    ci = local_markov_system(structure)
    eqs, _ = system_rows(ci)
    _, ineqs = system_rows(elemental_shannon_system(names))
    hidden = [names.index(v) for v in hidden_ids(structure)]
    drop = [i for i, mask in enumerate(ci.index.masks) if any(mask >> p & 1 for p in hidden)]
    return HRep(len(ci.index), tuple(eqs), tuple(ineqs)), drop


# -- the full-coordinate projections: the oracles for marginalize and bc-cone ----

def full_coordinate_marginal_cone(structure: CausalStructure, engine: str):
    """marginalize's minimal H-rep and extremal rays, projected over every subset of all nodes.

    This is the route the block split replaced: ``classical_ci_system`` over
    all 2^N - 1 coordinates, every coordinate touching a hidden node
    eliminated, the equalities named by the independence rows.
    """
    names = structure.node_ids()
    system = classical_ci_system(structure)
    index = system.index
    eq_rows, ineq_rows = system_rows(system)
    hrep = HRep(len(index), tuple(eq_rows), tuple(ineq_rows), labels=index.labels)
    hidden_positions = {names.index(v) for v in hidden_ids(structure)}
    drop = [i for i, mask in enumerate(index.masks)
            if any((mask >> p) & 1 for p in hidden_positions)]
    projected = fm_eliminate(hrep, drop) if engine == "fm" else dd_project(hrep, drop)
    observed_index = CoordinateIndex(structure.observed_ids())
    forms = observed_independence_constraints(structure)
    # the projections carry no labels; the report's are its scenario's
    minimal = nice_equalities(replace(projected, labels=observed_index.labels),
                              independence_rows(forms, observed_index))
    return minimal, enumerate_rays(minimal)


def full_coordinate_post_selected_cone(k: int, engine: str):
    """bc-cone's minimal H-rep and extremal rays, projected over every observed subset.

    The Shannon rows and every independence row over all 2^N - 1 observed
    coordinates, the subsets outside the scenario eliminated.
    """
    structure = build_post_selected_line(k)
    index, marginal_index = _marginal_scenario(structure)
    drop = [i for i, m in enumerate(index.masks) if m not in marginal_index.allowed]
    forms = observed_independence_constraints(structure)
    _, shannon = system_rows(elemental_shannon_system(index.variables))
    hrep = HRep(len(index), tuple(independence_rows(forms, index)), tuple(shannon), index.labels)
    projected = fm_eliminate(hrep, drop) if engine == "fm" else dd_project(hrep, drop)
    minimal = nice_equalities(replace(projected, labels=marginal_index.labels),
                              independence_rows(forms, marginal_index))
    return minimal, enumerate_rays(minimal)


def fm_eliminate_per_step(h: HRep, coords):
    """``fm_eliminate`` as it was, building and cutting an HRep after every step.

    The reference for the plain-row loop: both must hand the same systems
    to ``polyhedra.remove_redundancies``, in the same order.
    """
    keep = _kept_coordinates(h, coords)
    targets = set(range(h.dimension)).difference(keep)
    cols = list(range(h.dimension))
    system, minimal = h, False
    while targets:
        at = {c: j for j, c in enumerate(cols)}
        eqs, ineqs = system.equalities, system.inequalities
        if eq_coords := [c for c in targets if any(e[at[c]] for e in eqs)]:
            c = min(eq_coords)
            j = at[c]
            pivot = min((e for e in eqs if e[j]), key=lambda e: (sum(1 for v in e if v), e))
            pivot = pivot if pivot[j] > 0 else tuple(-v for v in pivot)
            substitute = lambda row: _combine(pivot[j], row, row[j], pivot) if row[j] else row
            eqs, ineqs = map(substitute, eqs), map(substitute, ineqs)
        else:
            def cost(c):
                p = sum(1 for r in ineqs if r[at[c]] > 0)
                n = sum(1 for r in ineqs if r[at[c]] < 0)
                return p * n - p - n
            c = min(targets, key=lambda c: (cost(c), c))
            j = at[c]
            pos = [r for r in ineqs if r[j] > 0]
            neg = [r for r in ineqs if r[j] < 0]
            ineqs = [r for r in ineqs if r[j] == 0] + [
                primitive([p[j] * x - n[j] * y for x, y in zip(n, p)]) for p in pos for n in neg]
        targets.discard(c)
        del cols[j]
        drop = lambda row: row[:j] + row[j + 1:]
        system = HRep(len(cols), tuple(map(drop, eqs)), tuple(map(drop, ineqs)))
        minimal = not eq_coords
        if minimal:
            system = polyhedra.remove_redundancies(system)
    return system if minimal else polyhedra.remove_redundancies(system)


# -- random structures and models ----------------------------------------------

def random_dag(rng: np.random.Generator, n_nodes: int, edge_prob: float = 0.4,
               observed_prob: float = 0.7) -> CausalStructure:
    names = [f"N{i}" for i in range(n_nodes)]
    nodes = tuple(Node(v, "observed" if rng.random() < observed_prob else "unobserved")
                  for v in names)
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob:
                edges.append((names[i], names[j]))
    return CausalStructure(nodes, tuple(edges))


def random_model(rng: np.random.Generator, structure: CausalStructure,
                 max_alphabet: int = 3) -> CausalModel:
    sizes = {v: int(rng.integers(2, max_alphabet + 1)) for v in structure.node_ids()}
    parents = structure.parents_map()
    cpts = {}
    for v in structure.node_ids():
        shape = tuple(sizes[p] for p in parents[v])
        out = sizes[v]
        if shape:
            cpt = np.empty((*shape, out))
            for idx in np.ndindex(*shape):
                cpt[idx] = rng.dirichlet(np.ones(out))
        else:
            cpt = rng.dirichlet(np.ones(out))
        cpts[v] = cpt
    return CausalModel(structure, sizes, cpts)


def random_cone_hrep(rng: np.random.Generator, dim: int, n_rows: int):
    rows = []
    while len(rows) < n_rows:
        row = tuple(int(v) for v in rng.integers(-3, 4, size=dim))
        if any(row):
            rows.append(row)
    return HRep(dim, (), tuple(rows))


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture
def fresh_python(tmp_path):
    """Run a script in a new interpreter that imports this entrocone; return its stdout as JSON.

    The test process has numpy and every entrocone module loaded already, so
    what a bare ``import`` pulls in can only be seen from a fresh interpreter.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(entrocone.__file__).parents[1]))

    def run(script: str):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)
    return run
