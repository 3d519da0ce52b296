"""Shared oracles and generators for the test suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entrocone
from entrocone.causal import CausalStructure, Node
from entrocone.distributions import CausalModel
from entrocone.entropy_space import (ConstraintSystem, CoordinateIndex,
                                     conditional_mutual_information, elemental_shannon_system,
                                     system_rows)
from entrocone.polyhedra import HRep


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
    descendants = {n.id: structure.descendants(n.id) for n in structure.nodes}

    def blocked(path) -> bool:
        # interior node k sits between edges path[k-1] and path[k]
        for k in range(1, len(path)):
            node = path[k - 1][1]
            into_prev = path[k - 1][2] == "out"   # previous edge points into node
            into_next = path[k][2] == "in"        # next edge points into node
            if into_prev and into_next:  # collider
                if node not in zs and not (descendants[node] & zs):
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
        node_mask = index.mask_of([node.id])
        parents = index.mask_of(structure.parents(node.id))
        descendants = index.mask_of(structure.descendants(node.id))
        nondesc = ((1 << len(names)) - 1) & ~node_mask & ~descendants & ~parents
        if nondesc:
            forms.append(conditional_mutual_information(node_mask, nondesc, parents, "=="))
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
    hidden = [names.index(v) for v in structure.unobserved_ids()]
    drop = [i for i, mask in enumerate(ci.index.masks) if any(mask >> p & 1 for p in hidden)]
    return HRep(len(ci.index), tuple(eqs), tuple(ineqs)), drop


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
