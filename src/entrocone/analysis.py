"""End-to-end cone pipelines and their reports.

Each pipeline assembles a constraint system, runs the exact polyhedral
engine, and packages the outcome as a ConeReport: the minimal H-rep, the
extremal rays, optional witness models achieving the rays, and a verdict.
A verdict of "tight" certifies that the outer approximation equals the
closure of the achievable set, and hence that the classical and quantum
closures coincide for that structure.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import distributions as dist
from .causal import (CausalStructure, build_post_selected_line,
                     observed_independence_constraints)
from .entropy_space import (CoordinateIndex, LinearForm, contiguous_decomposition_equalities,
                            elemental_forms, elemental_shannon_system, classical_ci_system,
                            lift_block_vectors, reduced_line_system, substitute_contiguous,
                            system_rows)
from .errors import InvalidParameter, NodeGuardExceeded
from .polyhedra import (Echelon, HRep, Row, VRep, _row_text, dd_project, dot, enumerate_rays,
                        extremalize, facets_from_rays, fm_eliminate, membership, primitive,
                        reduce_mod_span, rref)

NODE_GUARD = 6

# The longest line verify certifies.  The witness checks are exact ranks and
# short dot products on the block rays and cost little, but the report's
# H-rep holds the contiguous equalities as dense rows, about 2^n of them
# over 2^n - 1 coordinates, so the work and the memory grow as 4^n.
_MAX_VERIFY_NODES = 13


@dataclass
class ConeReport:
    """Outcome of a cone pipeline."""

    structure_name: str
    index: CoordinateIndex
    hrep: HRep
    vrep: VRep
    witnesses: dict[tuple[int, ...], dict] = field(default_factory=dict)
    verdict: str = "outer-only"
    timing: float = 0.0
    notes: tuple[str, ...] = ()

    @property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        return self.vrep.rays


def _roman(k: int) -> str:
    numerals = [(1000, "m"), (900, "cm"), (500, "d"), (400, "cd"), (100, "c"),
                (90, "xc"), (50, "l"), (40, "xl"), (10, "x"), (9, "ix"),
                (5, "v"), (4, "iv"), (1, "i")]
    out = []
    for value, text in numerals:
        while k >= value:
            out.append(text)
            k -= value
    return "".join(out)


def _independence_rows(forms: Iterable[LinearForm], index: CoordinateIndex) -> list[Row]:
    """Rows of the forms in ``index``, skipping those a restricted scenario cannot express.

    The pipelines pass every ancestor-disjoint independence, maximal or not,
    and compute those forms (and their d-separation checks) once.  The
    non-maximal pairs are implied by the maximal ones on the Shannon cone,
    so adding them changes nothing but shrinks the effective dimension
    before ray enumeration or projection.
    """
    rows = []
    for form in forms:
        try:
            rows.append(form.row(index))
        except InvalidParameter:
            continue
    return rows


def _observed_outer_hrep(index: CoordinateIndex, equalities: Sequence[Row]) -> HRep:
    """Elemental Shannon inequalities plus the given independence equalities."""
    shannon = elemental_shannon_system(index.variables)
    return HRep(len(index), tuple(equalities),
                tuple(form.row(index) for form in shannon.inequalities), labels=index.labels)


def _nice_equalities(hrep: HRep, candidates: Sequence[Row]) -> HRep:
    """Present the equality space through independence rows when they span it.

    The canonical equality basis coming out of the double-description dual
    is echelon-reduced; replacing it with ``candidates``, the structure's
    ancestor-disjointness equalities (when those span the same space),
    keeps reports readable and diffable.
    """
    if not hrep.equalities:
        return hrep
    base, pivots = rref(hrep.equalities)
    independent = Echelon()
    chosen: list[tuple[int, ...]] = []
    for row in candidates:
        if len(chosen) == len(base):
            break
        # the span test comes first: only rows that are kept may enter ``independent``
        if not any(reduce_mod_span(row, base, pivots)) and independent.add(row):
            chosen.append(row)
    if len(chosen) == len(base):
        return HRep(hrep.dimension, tuple(chosen), hrep.inequalities, hrep.labels)
    return hrep


def observed_outer_cone(structure: CausalStructure,
                        name: str | None = None) -> ConeReport:
    """Shannon constraints plus observed independences, minimized and solved.

    The resulting cone is an outer approximation to the achievable entropy
    vectors of the observed nodes, valid for the classical and the quantum
    version of the structure alike.
    """
    start = time.perf_counter()
    index = CoordinateIndex(structure.observed_ids())
    forms = observed_independence_constraints(structure, maximal_only=False)
    equalities = _independence_rows(forms, index)
    vrep = enumerate_rays(_observed_outer_hrep(index, equalities))
    minimal = _nice_equalities(facets_from_rays(vrep), equalities)
    return ConeReport(
        structure_name=name or structure.name or "structure",
        index=index,
        hrep=minimal,
        vrep=vrep,
        verdict="outer-only",
        timing=time.perf_counter() - start,
    )


def verify_line_tightness(n: int) -> ConeReport:
    """Certify that the line-structure outer cone is achieved classically.

    Works in the contiguous-block coordinates (dimension n(n+1)/2), lifts
    the extremal rays back to the full subset coordinates in one pass, and
    attaches to each ray the witness with matching entropy vector.  Each
    witness XORs uniform cause bits (:func:`distributions.line_witness_causes`),
    so its vector is taken exactly as the GF(2) rank function of its bitmask
    forms (:func:`distributions.gf2_entropy_vector`); no model or joint
    distribution is built.  A witness must first lie on a lifted extremal
    ray; it then satisfies every contiguous equality (the lift is built so)
    and makes no reduced inequality negative (the ray lies in the block
    cone), so the one check left is that exactly one block inequality is
    strictly positive on its block ray.  The verdict is "tight" exactly when
    the rays and witnesses are in bijection and every witness passes;
    tightness certifies that the classical and quantum closures agree.
    Lines longer than 13 nodes are refused before anything is built.
    """
    if n < 1:
        raise InvalidParameter("need n >= 1")
    if n > _MAX_VERIFY_NODES:
        raise InvalidParameter(f"verify of a {n}-node line is refused; "
                               f"the ceiling is {_MAX_VERIFY_NODES} nodes")
    start = time.perf_counter()
    reduced = reduced_line_system(n)
    block_rows = substitute_contiguous(reduced)
    dim = n * (n + 1) // 2
    block_h = HRep(dim, (), tuple(block_rows))
    block_v = enumerate_rays(block_h)
    index = reduced.index
    # each lifted ray mapped back to the block ray it came from
    lifted = dict(zip(lift_block_vectors(block_v.rays, n), block_v.rays))

    eq_rows = tuple(f.row(index) for f in contiguous_decomposition_equalities(n))
    _, ineq_rows = system_rows(reduced)
    hrep = HRep(len(index), eq_rows, tuple(ineq_rows), labels=index.labels)
    vrep = VRep(len(index), tuple(sorted(lifted)), (), labels=index.labels)

    # n(n+1)/2 witnesses that all land on distinct lifted rays fill the map, so
    # the count check at the end also requires len(lifted) == dim
    ray_to_witness: dict[tuple[int, ...], dict] = {}
    tight = True
    notes: list[str] = []
    for key in ((i, j) for i in range(1, n + 1) for j in range(i, n + 1)):
        snapped = dist.gf2_entropy_vector(dist.line_witness_causes(*key, n), index)
        ray = primitive(snapped)
        if ray not in lifted:
            tight = False
            notes.append(f"witness {key} does not lie on an extremal ray")
            continue
        if ray in ray_to_witness:
            tight = False
            notes.append(f"witness {key} repeats an already-achieved ray")
            continue
        positive = sum(dot(row, lifted[ray]) > 0 for row in block_rows)
        if positive != 1:
            tight = False
            notes.append(f"witness {key} has {positive} strictly positive forms")
        ray_to_witness[ray] = {"i": key[0], "j": key[1], "n": n, "vector": list(snapped)}
    if len(ray_to_witness) != len(lifted):
        tight = False
        notes.append("not every extremal ray is achieved by a witness")
    if tight:
        notes.append("classical closure equals quantum closure "
                     "(tight outer approximation achieved by explicit models)")
    return ConeReport(
        structure_name=f"pn:{n}",
        index=index,
        hrep=hrep,
        vrep=vrep,
        witnesses=ray_to_witness,
        verdict="tight" if tight else "outer-only",
        timing=time.perf_counter() - start,
        notes=tuple(notes),
    )


def full_marginal_outer_cone(structure: CausalStructure, engine: str = "dd",
                             max_nodes: int = NODE_GUARD,
                             name: str | None = None) -> ConeReport:
    """Project the all-node constraint system onto the observed coordinates.

    Builds the elemental Shannon system over every node together with the
    per-node conditional-independence equalities, then eliminates all
    coordinates whose subset touches an unobserved node, by Fourier-Motzkin
    ("fm") or by the double-description route ("dd").
    """
    if engine not in ("fm", "dd"):
        raise InvalidParameter("engine must be 'fm' or 'dd'")
    node_count = len(structure.nodes)
    if node_count > max_nodes:
        raise NodeGuardExceeded(
            f"structure has {node_count} nodes, above the guard of {max_nodes}; "
            f"raise it with --max-nodes if the blow-up is acceptable")
    start = time.perf_counter()
    names = structure.node_ids()
    shannon = elemental_shannon_system(names)
    ci = classical_ci_system(structure)
    index = ci.index
    eq_rows, _ = system_rows(ci)
    _, ineq_rows = system_rows(shannon)
    hrep = HRep(len(index), tuple(eq_rows), tuple(ineq_rows), labels=index.labels)
    hidden = set(structure.unobserved_ids())
    hidden_positions = {names.index(v) for v in hidden}
    drop = [i for i, mask in enumerate(index.masks)
            if any((mask >> p) & 1 for p in hidden_positions)]
    projected = fm_eliminate(hrep, drop) if engine == "fm" else dd_project(hrep, drop)
    observed_index = CoordinateIndex(structure.observed_ids())
    forms = observed_independence_constraints(structure, maximal_only=False)
    minimal = _nice_equalities(projected, _independence_rows(forms, observed_index))
    vrep = enumerate_rays(minimal)
    return ConeReport(
        structure_name=name or structure.name or "structure",
        index=observed_index,
        hrep=minimal,
        vrep=vrep,
        verdict="outer-only",
        timing=time.perf_counter() - start,
    )


# -- the post-selected marginal pipeline ---------------------------------------


def _marginal_scenario(structure: CausalStructure) -> tuple[CoordinateIndex, CoordinateIndex, list[int]]:
    """Scenario of subsets containing at most one copy of each doubled node.

    Returns the observed index, the scenario's index and the positions in
    the observed index of the subsets outside the scenario.
    """
    observed = structure.observed_ids()
    index = CoordinateIndex(observed)
    doubled = [(observed.index(a), observed.index(b)) for a, b in structure.copies]
    allowed = {m for m in index.masks
               if all(not ((m >> a) & 1 and (m >> b) & 1) for a, b in doubled)}
    drop = [i for i, m in enumerate(index.masks) if m not in allowed]
    return index, index.restrict(allowed), drop


def _scenario_shannon_pool(index: CoordinateIndex) -> list[tuple[int, ...]]:
    """Elemental systems of every maximal allowed subset, in scenario coords."""
    masks = set(index.masks)
    maximal = [m for m in masks if not any(m != m2 and (m | m2) == m2 for m2 in masks)]
    return sorted({form.row(index) for m in maximal for form in elemental_forms(m)})


def classify_shannon_facets(hrep: HRep, marginal_index: CoordinateIndex) -> tuple[list, list]:
    """Split facets into scenario-Shannon members and the rest.

    A facet counts as Shannon when it is a nonnegative combination of the
    elemental inequalities of the maximal allowed subsets, modulo the
    cone's equality space.  One polar double description pass gives the
    facets of that cone (Farkas), so each test is an integer dot product.
    """
    pool = _scenario_shannon_pool(marginal_index)
    members = facets_from_rays(VRep(hrep.dimension, tuple(pool), hrep.equalities))
    shannon, extra = [], []
    for facet in hrep.inequalities:
        if membership(members, facet):
            shannon.append(facet)
        else:
            extra.append(facet)
    return shannon, extra


def post_selected_marginal_cone(k: int, engine: str = "dd",
                                name: str | None = None) -> ConeReport:
    """Marginal cone of the post-selected line on the setting-indexed triples.

    Builds Shannon constraints over the observed nodes of the doubled-line
    structure plus its d-separation equalities, projects onto the scenario
    of subsets holding at most one copy of each doubled node, and reports
    the facets and extremal rays of the projection.
    """
    if k not in (3, 4):
        raise InvalidParameter("the post-selected pipeline supports k in {3, 4}")
    if engine not in ("fm", "dd"):
        raise InvalidParameter("engine must be 'fm' or 'dd'")
    start = time.perf_counter()
    structure = build_post_selected_line(k)
    index, marginal_index, drop = _marginal_scenario(structure)
    forms = observed_independence_constraints(structure, maximal_only=False)
    hrep = _observed_outer_hrep(index, _independence_rows(forms, index))
    projected = fm_eliminate(hrep, drop) if engine == "fm" else dd_project(hrep, drop)
    minimal = _nice_equalities(projected, _independence_rows(forms, marginal_index))
    vrep = enumerate_rays(minimal)
    shannon_facets, extra_facets = classify_shannon_facets(minimal, marginal_index)
    notes = (
        f"facets: {len(minimal.inequalities)} "
        f"({len(shannon_facets)} scenario-Shannon, {len(extra_facets)} beyond)",
        f"equalities: {len(minimal.equalities)}",
        f"non-Shannon members incl. equalities: "
        f"{len(extra_facets) + len(minimal.equalities)}",
    )
    return ConeReport(
        structure_name=name or f"ptilde:{k}",
        index=marginal_index,
        hrep=minimal,
        vrep=vrep,
        verdict="outer-only",
        timing=time.perf_counter() - start,
        notes=notes,
    )


def split_generated_rays() -> VRep:
    """Extremal set of the split three-node-line witnesses.

    Splits each of the six line witnesses over all nine outer-mode pairs:
    an outer node X becomes the pair (X, 1), (1, X) or (X, X) of setting
    copies.  Every split node still XORs cause bits, so each vector is the
    exact GF(2) rank function of its forms (a form of 0 is the constant 1)
    and no model or joint is built.  The vectors are restricted to the
    marginal scenario, and the extremal subset is extracted.
    """
    structure = build_post_selected_line(3)
    index, marginal_index, _ = _marginal_scenario(structure)
    vectors: set[tuple[int, ...]] = set()
    for i in range(1, 4):
        for j in range(i, 4):
            x, y, z = dist.line_witness_causes(i, j, 3)
            for x0, x1 in ((x, 0), (0, x), (x, x)):  # keep0, keep1, copy
                for z0, z1 in ((z, 0), (0, z), (z, z)):
                    vector = dist.gf2_entropy_vector((x0, x1, y, z0, z1), index)
                    restricted = tuple(vector[index.position(m)] for m in marginal_index.masks)
                    vectors.add(primitive(restricted))
    seed = VRep(len(marginal_index), tuple(sorted(vectors)), (),
                labels=marginal_index.labels)
    return extremalize(seed)


# -- report rendering -----------------------------------------------------------


def report_to_text(report: ConeReport) -> str:
    labels = report.index.labels
    lines = [f"structure: {report.structure_name}",
             f"coordinates ({len(labels)}): {' '.join(labels)}"]
    if report.structure_name == "bell" and "H(AB)" in labels:
        lines.append("# label note: the seventh coordinate is H(AB); listings that "
                     "call the fourth variable Z print it as H(AZ)")
    if report.hrep.equalities:
        lines.append(f"equalities ({len(report.hrep.equalities)}):")
        for row in report.hrep.equalities:
            lines.append(f"  {_row_text(row, labels)} == 0")
    lines.append(f"inequalities ({len(report.hrep.inequalities)}):")
    for row in report.hrep.inequalities:
        lines.append(f"  {_row_text(row, labels)} >= 0")
    lines.append(f"extremal rays ({len(report.vrep.rays)}):")
    for pos, ray in enumerate(report.vrep.rays, 1):
        entry = f"  ({_roman(pos)}) {_row_text(ray, None)}"
        witness = report.witnesses.get(ray)
        if witness is not None:
            entry += f"   <- witness i={witness['i']} j={witness['j']}"
        lines.append(entry)
    if report.vrep.lineality:
        lines.append(f"lineality ({len(report.vrep.lineality)}):")
        for row in report.vrep.lineality:
            lines.append(f"  {_row_text(row, None)}")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines)


def report_to_json(report: ConeReport) -> str:
    payload = {
        "structure": report.structure_name,
        "coordinates": list(report.index.labels),
        "equalities": [list(r) for r in report.hrep.equalities],
        "inequalities": [list(r) for r in report.hrep.inequalities],
        "rays": {_roman(pos): list(ray)
                 for pos, ray in enumerate(report.vrep.rays, 1)},
        "lineality": [list(r) for r in report.vrep.lineality],
        "witnesses": {_roman(pos): report.witnesses[ray]
                      for pos, ray in enumerate(report.vrep.rays, 1)
                      if ray in report.witnesses},
        "notes": list(report.notes),
        "verdict": report.verdict,
    }
    return json.dumps(payload, indent=2)
