"""Finite-alphabet causal models, joint distributions and entropy vectors.

A model attaches a conditional probability table to every node of a causal
structure; compilation multiplies the tables into the joint distribution.
This module also constructs the explicit witness families used to certify
cone tightness: the line-structure witnesses and the post-selected joint of
a five-node line with binary outer settings.

numpy is imported inside the float-route functions only (CPT models,
joints, float entropies, the functional and the JSON model and table
readers), so the exact pipeline loads no numpy: ``gf2_entropy_vector`` and
``line_witness_causes`` are plain integer code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .causal import (_MAX_SELECTOR_OBSERVED, CausalStructure, build_line_structure,
                     build_post_selected_line, reduced_line_structure, structure_from_name)
from .entropy_space import CoordinateIndex, labeled_index
from .errors import InvalidModel, InvalidParameter, parse_json

_PROB_TOL = 1e-12
_MAX_JOINT_CELLS = 2 ** 26  # 512 MiB of float64
# entropy_vector sums the whole joint once per subset, so its work is subsets
# times cells: 14 binary roots (about 2^28) take 4 s, 20 one-valued roots
# (2^20 subsets of one cell) 25 s.  It takes at most the 20 nodes, 1,048,575
# coordinates, of the structure-file ceiling.
_MAX_ENTROPY_SUMS = 2 ** 30


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability table over named finite-alphabet variables."""

    variables: tuple[str, ...]
    alphabet_sizes: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        expected = tuple(self.alphabet_sizes)
        if self.table.shape != expected:
            raise InvalidModel(f"table shape {self.table.shape} != alphabets {expected}")
        if np.any(self.table < -_PROB_TOL):
            raise InvalidModel("probabilities must be nonnegative")
        total = float(self.table.sum())
        if abs(total - 1.0) > _PROB_TOL * max(1, self.table.size):
            raise InvalidModel(f"probabilities sum to {total!r}, not 1")

    def marginal(self, subset: Sequence[str]) -> "JointDistribution":
        missing = [v for v in subset if v not in self.variables]
        if missing:
            raise InvalidParameter(f"unknown variables {missing}")
        keep = [v for v in self.variables if v in set(subset)]
        axes = tuple(i for i, v in enumerate(self.variables) if v not in set(subset))
        table = self.table.sum(axis=axes) if axes else self.table
        sizes = tuple(self.alphabet_sizes[self.variables.index(v)] for v in keep)
        return JointDistribution(tuple(keep), sizes, table)


@dataclass(frozen=True, eq=False)
class CausalModel:
    """A CPT per node of a causal structure.

    Each CPT is an array of shape (parent alphabets ..., node alphabet),
    parents ordered by their position in the structure's node list.  Rows
    must be normalized distributions.
    """

    structure: CausalStructure
    alphabet_sizes: Mapping[str, int]
    cpts: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        import numpy as np
        parents = self.structure.parents_map()
        # every node before any shape: a CPT's shape reads its parents' alphabets
        for field, what, given in (("alphabets", "an alphabet size", self.alphabet_sizes),
                                   ("cpts", "a CPT", self.cpts)):
            if missing := [node for node in parents if node not in given]:
                raise InvalidModel(f"nodes without {what}: {', '.join(map(repr, missing))}")
            if unknown := [node for node in given if node not in parents]:
                raise InvalidModel(f"{field!r} names nodes the structure lacks: "
                                   f"{', '.join(map(repr, unknown))}")
        for node in parents:
            if (size := self.alphabet_sizes[node]) < 1:
                raise InvalidModel(f"'alphabets' gives {node!r} the size {size}; "
                                   "an alphabet size must be at least 1")
        for node in parents:
            cpt = np.asarray(self.cpts[node], dtype=float)
            expected = tuple(self.alphabet_sizes[p] for p in parents[node])
            expected += (self.alphabet_sizes[node],)
            if cpt.shape != expected:
                raise InvalidModel(
                    f"CPT for {node!r} has shape {cpt.shape}, expected {expected}")
            sums = cpt.sum(axis=-1)
            if np.any(np.abs(sums - 1.0) > _PROB_TOL * max(1, cpt.shape[-1])):
                raise InvalidModel(f"CPT rows for {node!r} do not sum to 1")
            if np.any(cpt < -_PROB_TOL):
                raise InvalidModel(f"CPT for {node!r} has negative entries")


def compile_model(model: CausalModel) -> JointDistribution:
    """Joint distribution over all nodes: the product of the CPTs."""
    import numpy as np
    names = model.structure.node_ids()
    sizes = tuple(model.alphabet_sizes[v] for v in names)
    cells = math.prod(sizes)
    if cells > _MAX_JOINT_CELLS:
        raise InvalidModel(f"the joint of {len(names)} nodes has {cells} cells, "
                           f"above the ceiling of {_MAX_JOINT_CELLS}")
    parents = model.structure.parents_map()
    joint = np.ones(sizes, dtype=float)
    pos = {v: i for i, v in enumerate(names)}
    for node in names:
        cpt = np.asarray(model.cpts[node], dtype=float)
        involved = [*parents[node], node]
        # broadcast the CPT across the axes of the uninvolved variables
        order = sorted(range(len(involved)), key=lambda i: pos[involved[i]])
        arranged = np.transpose(cpt, order)
        shape = [1] * len(names)
        for i in sorted(pos[v] for v in involved):
            shape[i] = sizes[i]
        joint = joint * arranged.reshape(shape)
    return JointDistribution(names, sizes, joint)


# -- entropy vectors -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EntropyVector:
    """Joint entropies (bits) of every nonempty variable subset."""

    index: CoordinateIndex
    values: np.ndarray


def shannon_entropy(probabilities: np.ndarray) -> float:
    """Base-2 entropy with the 0 log 0 := 0 convention."""
    import numpy as np
    flat = probabilities.reshape(-1)
    positive = flat[flat > 0]
    # 0.0 - s rather than -s: a sum of 0.0 must not come out as -0.0
    return float(0.0 - (positive * np.log2(positive)).sum())


def entropy_vector(joint: JointDistribution) -> EntropyVector:
    """Entropy of every nonempty subset of the joint's variables, in coordinate-index order.

    Variable names that give two subsets one label are refused, as they are
    for a cone report, and so are more than 20 variables or more than 2^30
    cells summed over all subsets, before the index is built.
    """
    import numpy as np
    n = len(joint.variables)
    if n > _MAX_SELECTOR_OBSERVED:
        raise InvalidParameter(f"the entropy vector of {n} nodes is refused; "
                               f"the ceiling is {_MAX_SELECTOR_OBSERVED} nodes")
    sums = ((1 << n) - 1) * joint.table.size
    if sums > _MAX_ENTROPY_SUMS:
        raise InvalidParameter(f"the entropy vector of {n} nodes sums {joint.table.size} "
                               f"joint cells for each of {(1 << n) - 1} subsets, {sums} in all; "
                               f"the ceiling is {_MAX_ENTROPY_SUMS}")
    index = labeled_index(joint.variables, "nodes")
    values = np.empty(len(index), dtype=float)
    for i, mask in enumerate(index.masks):
        axes = tuple(j for j in range(n) if not (mask >> j) & 1)
        values[i] = shannon_entropy(joint.table.sum(axis=axes) if axes else joint.table)
    return EntropyVector(index, values)


def gf2_entropy_vector(forms: Sequence[int], index: CoordinateIndex) -> tuple[int, ...]:
    """Exact entropy vector of variables that are XORs of fresh uniform bits.

    ``forms`` holds one bitmask per variable of ``index``: the fresh bits the
    variable XORs (a constant for 0).  H(S) in bits is the GF(2) rank of S's
    forms (Chan and Yeung, IEEE Trans. IT 2002); each rank grows the echelon
    of S minus its lowest member by at most one row.
    """
    echelons: dict[int, tuple[int, ...]] = {0: ()}
    ranks = []
    for mask in index.masks:
        low = mask & -mask
        basis = echelons[mask ^ low]
        # rows sorted by leading bit, highest first, so min() clears each leading bit
        form = forms[low.bit_length() - 1]
        for row in basis:
            form = min(form, form ^ row)
        if form:
            basis = tuple(sorted((*basis, form), reverse=True))
        echelons[mask] = basis
        ranks.append(len(basis))
    return tuple(ranks)


# -- witness constructions ---------------------------------------------------------

def line_witness_causes(i: int, j: int, n: int) -> tuple[int, ...]:
    """Bitmask forms of X_1 .. X_n in witness (i, j), as :func:`gf2_entropy_vector` reads them.

    Bit m of a node's form is set when the node XORs the cause C_m; shared
    causes are uniform bits, and a form of 0 stands for the constant 1.  For
    i < j a node XORs those of its parents C_m with i <= m < j; on the
    diagonal only X_i XORs one, C_min(i, n-1).  The one-node line has no
    causes, so its X1 is itself a fresh uniform bit, given as 0b10.
    """
    if not (1 <= i <= j <= n):
        raise InvalidParameter("need 1 <= i <= j <= n")
    if n == 1:
        return (0b10,)
    if i == j:
        return tuple(1 << min(i, n - 1) if k == i else 0 for k in range(1, n + 1))
    # X_k's parents are C_(k-1) and C_k
    return tuple(sum(1 << m for m in (k - 1, k) if i <= m < j) for k in range(1, n + 1))


def witness_line(i: int, j: int, n: int) -> CausalModel:
    """The line-structure model whose entropy vector generates one extremal ray.

    Each observed node is the XOR of the causes its form from
    :func:`line_witness_causes` names, so the entropy vector is integral.
    """
    import numpy as np
    forms = line_witness_causes(i, j, n)
    structure = build_line_structure(n)
    sizes = {v: 2 for v in structure.node_ids()}
    cpts = {f"C{m}": np.array([0.5, 0.5]) for m in range(1, n)}
    if n == 1:
        # degenerate line: a single observed root carries one uniform bit
        return CausalModel(structure, sizes, {"X1": np.array([0.5, 0.5])})
    for k, form in enumerate(forms, 1):
        causes = [m for m in (k - 1, k) if 1 <= m < n]  # X_k's parents C_m, in node order
        cpt = np.zeros((2,) * len(causes) + (2,))
        for bits in np.ndindex(*cpt.shape[:-1]):
            picked = [b for b, m in zip(bits, causes) if form >> m & 1]
            cpt[bits + (sum(picked) % 2 if picked else 1,)] = 1.0
        cpts[f"X{k}"] = cpt
    return CausalModel(structure, sizes, cpts)


def line_witness_models(n: int) -> dict[tuple[int, int], CausalModel]:
    """All n(n+1)/2 witnesses, keyed by (i, j)."""
    return {(i, j): witness_line(i, j, n) for i in range(1, n + 1) for j in range(i, n + 1)}


def post_select_joint(model: CausalModel) -> JointDistribution:
    """Joint of both-setting outcome copies for a five-node reduced line.

    The model must live on the reduced five-node line (outer observed
    nodes A and B acting as the outermost causes, binary).  It is read as a
    model on the doubled line ``ptilde:3``: C and D are C2 and C3, X0 and X1
    take X's CPT at A=0 and A=1, Z0 and Z1 take Z's at B=0 and B=1, and Y
    keeps its own.  The result is that model's marginal on
    (X0, X1, Y, Z0, Z1), whose (Xa, Y, Zb) marginals equal the
    setting-conditioned distributions of the model.  The joint is compiled
    over both hidden causes first, so :func:`compile_model`'s cell ceiling
    bounds it.
    """
    structure = model.structure
    expected = reduced_line_structure(("A", "X", "Y", "Z", "B"))
    if structure.node_ids() != expected.node_ids() or set(structure.edges) != set(expected.edges):
        raise InvalidParameter("model must live on the reduced 5-node line (A,X,Y,Z,B)")
    sizes, cpts = model.alphabet_sizes, model.cpts
    if sizes["A"] != 2 or sizes["B"] != 2:
        raise InvalidParameter("outer settings A and B must be binary")
    # CPT axes follow node order: X given (A, C2); Y given (C2, C3); Z given (B, C3)
    doubled = CausalModel(
        build_post_selected_line(3),
        {"X0": sizes["X"], "X1": sizes["X"], "Y": sizes["Y"], "Z0": sizes["Z"],
         "Z1": sizes["Z"], "C": sizes["C2"], "D": sizes["C3"]},
        {"X0": cpts["X"][0], "X1": cpts["X"][1], "Y": cpts["Y"],
         "Z0": cpts["Z"][0], "Z1": cpts["Z"][1], "C": cpts["C2"], "D": cpts["C3"]})
    return compile_model(doubled).marginal(("X0", "X1", "Y", "Z0", "Z1"))


# -- the chained conditional-entropy functional -------------------------------------

def bc_functional(tables: Mapping[tuple[int, int], np.ndarray]) -> float:
    """Chained conditional-entropy expression over four conditional tables.

    ``tables[(a, b)]`` is the joint of (X, Y) conditioned on the settings.
    This evaluates H(X|Y)_01 + H(Y|X)_11 + H(X|Y)_10 - H(X|Y)_00, in bits,
    which is nonnegative whenever a joint over both outcome copies exists.
    The other seven orientations are this expression on relabelled settings,
    ``tables[(a ^ a*, b ^ b*)]``, or on transposed tables.
    """
    import numpy as np
    keys = {(a, b) for a in range(2) for b in range(2)}
    if set(tables.keys()) != keys:
        raise InvalidParameter("need the four tables (a, b) for a, b in {0, 1}")
    shapes = {tuple(np.asarray(t).shape) for t in tables.values()}
    if len(shapes) != 1 or any(len(s) != 2 for s in shapes):
        raise InvalidParameter("tables must share one two-variable shape")
    norm = {}
    for key, t in tables.items():
        arr = np.asarray(t, dtype=float)
        if np.any(arr < -_PROB_TOL):
            raise InvalidParameter(f"table {key} has negative entries")
        total = arr.sum()
        if abs(total - 1.0) > 1e-9:
            raise InvalidParameter(f"table {key} sums to {float(total)}, not 1")
        norm[key] = arr

    def h(a: int, b: int, given: int) -> float:
        """H(other | given) on table (a, b); axis 0 is X."""
        t = norm[(a, b)]
        return shannon_entropy(t) - shannon_entropy(t.sum(axis=1 - given))

    return h(0, 1, 1) + h(1, 1, 0) + h(1, 0, 1) - h(0, 0, 1)


# -- model serialization ---------------------------------------------------------

def model_to_json(model: CausalModel) -> str:
    import numpy as np
    payload = {
        "structure": (model.structure.name or
                      json.loads(model.structure.to_json())),
        "alphabets": {v: int(model.alphabet_sizes[v]) for v in model.structure.node_ids()},
        "cpts": {v: np.asarray(model.cpts[v]).tolist() for v in model.structure.node_ids()},
    }
    return json.dumps(payload, indent=2)


def model_from_json(text: str) -> CausalModel:
    data = parse_json(text, "model file")
    if not isinstance(data, dict):
        raise InvalidParameter("model file must be a JSON object")
    for fieldname in ("structure", "alphabets", "cpts"):
        if fieldname not in data:
            raise InvalidParameter(f"model file is missing the {fieldname!r} field")
    ref = data["structure"]
    if isinstance(ref, str):
        structure = structure_from_name(ref)
    elif isinstance(ref, dict):
        try:
            structure = CausalStructure.from_json(json.dumps(ref))
        except InvalidParameter as exc:
            raise InvalidParameter(f"model file 'structure' is invalid: {exc}") from None
    else:
        raise InvalidParameter("model file 'structure' must be a structure selector "
                               f"or a structure object, not {json.dumps(ref)}")
    alphabets = data["alphabets"]
    if not (isinstance(alphabets, dict) and all(type(v) is int for v in alphabets.values())):
        raise InvalidParameter("the 'alphabets' field must map node ids to integers")
    sizes = {str(k): v for k, v in alphabets.items()}
    if not isinstance(data["cpts"], dict):
        raise InvalidParameter("the 'cpts' field must map node ids to arrays")
    cpts = {node: _numeric_array(raw, f"cpts[{node!r}]") for node, raw in data["cpts"].items()}
    try:
        return CausalModel(structure, sizes, cpts)
    except InvalidModel as exc:
        raise InvalidParameter(f"model file invalid: {exc}") from None


def _numeric_array(raw: object, field: str) -> np.ndarray:
    """A JSON array of finite numbers as floats; null, NaN and strings are refused."""
    import numpy as np
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise InvalidParameter(f"{field} is not a numeric array of finite numbers")
    return arr.astype(float)


def tables_from_json(text: str) -> dict[tuple[int, int], np.ndarray]:
    """Parse the four setting-conditioned tables for the functional."""
    data = parse_json(text, "tables file")
    if not isinstance(data, dict) or not isinstance(data.get("tables"), dict):
        raise InvalidParameter("tables file must be an object with a 'tables' object")
    sizes = data.get("alphabets")
    if not (isinstance(sizes, list) and len(sizes) == 2 and all(type(v) is int for v in sizes)):
        raise InvalidParameter("the 'alphabets' field must be [x_size, y_size], two integers")
    for name, size in zip("XY", sizes):
        if size < 1:
            raise InvalidParameter(f"'alphabets' gives {name!r} the size {size}; "
                                   "an alphabet size must be at least 1")
    nx, ny = sizes
    out = {}
    for key in ("00", "01", "10", "11"):
        if key not in data["tables"]:
            raise InvalidParameter(f"tables.{key} is missing")
        arr = _numeric_array(data["tables"][key], f"tables.{key}")
        if arr.shape != (nx, ny):
            raise InvalidParameter(f"tables.{key} must have shape ({nx}, {ny})")
        out[(int(key[0]), int(key[1]))] = arr
    return out
