"""End-to-end cone pipelines and their reports.

Each pipeline assembles a constraint system, runs the exact polyhedral
engine, and packages the outcome as a ConeReport: the minimal H-rep, the
extremal rays, witness records achieving the rays, and a verdict.
A verdict of "tight" certifies that the outer approximation equals the
closure of the achievable set, and hence that the classical and quantum
closures coincide for that structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import distributions as dist
from .causal import (CausalStructure, build_line_structure, build_post_selected_line,
                     clash_masks, observed_independence_constraints)
from .entropy_space import (BlockSplit, ConstraintSystem, CoordinateIndex, LinearForm,
                            contiguous_decomposition_equalities, elemental_forms,
                            elemental_shannon_system, classical_ci_system, labeled_index,
                            reduced_line_system, substitute_contiguous, system_rows)
from .errors import InvalidParameter, NodeGuardExceeded
from .polyhedra import (Echelon, HRep, Row, VRep, _row_text, dd_project, dot, enumerate_rays,
                        facets_from_rays, fm_eliminate, membership, primitive, reduce_mod_span,
                        rref)

# The most nodes marginalize projects without --max-nodes.  In block
# coordinates, at 7 nodes, pn:4 takes about 0.2 s under either engine and
# ptilde:3 about 1 s under fm and 4 s under dd (its double description is
# bound by adjacency tests).  Past the guard pn:5 (9 nodes) takes under 1 s
# and pn:6 (11 nodes) about 9 s under dd, but ptilde:4 (9 nodes) does not
# finish in 150 s under either engine.
NODE_GUARD = 7

# The longest line verify certifies.  The witness checks are exact ranks and
# short dot products on the block rays and cost little, but the report's
# H-rep holds the block equalities as dense rows, about 2^n of them
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
    notes: tuple[str, ...] = ()


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


def _nice_equalities(base: Sequence[Row], split: BlockSplit,
                     forms: Iterable[LinearForm]) -> Sequence[Row]:
    """Present the equality space through independence rows when they span it.

    ``base`` is the :func:`rref` of the equality space: ``split``'s block
    equalities e_S = H(S) - (the sum of its blocks), one per multi-block
    subset S, plus any of the block cone's own.  It prints unless the rows
    of ``forms``, the ancestor-disjoint independences, span it; those keep
    reports readable and diffable, and are taken greedily in order.  Each
    form is I(A:B) of an ancestor-disjoint pair, so the blocks of AB are
    those of A and of B, and I(A:B) = e_A + e_B - e_AB lies in the block
    equalities' span, never reaching the block cone's own.  As each e_S
    has one multi-block coordinate, S, independence is tested on the
    restrictions to those coordinates, at most three entries a form.
    """
    parts = split.parts
    if len(base) > sum(len(part) > 1 for part in parts):
        return base
    independent = Echelon()
    chosen: list[Row] = []
    for form in forms:
        if len(chosen) == len(base):
            break
        try:  # a restricted scenario cannot express every form
            at = [split.index.position(mask) for mask, _ in form.coefficients]
        except InvalidParameter:
            continue
        multi = {k: c for k, (_, c) in zip(at, form.coefficients) if len(parts[k]) > 1}
        if independent.add(multi):
            chosen.append(form.row(split.index))
    return chosen if len(chosen) == len(base) else base


def _observed_index(structure: CausalStructure) -> CoordinateIndex:
    """The observed coordinates of a structure, each printed under its own label.

    The structure needs an observed node, and names such as A, B and AB,
    which label both {A, B} and {AB} H(AB), are refused.
    """
    observed = structure.observed_ids()
    if not observed:
        raise InvalidParameter("structure has no observed node, so there is no cone to report")
    return labeled_index(observed, "observed nodes")


def _block_cone(structure: CausalStructure, system: ConstraintSystem, scenario: CoordinateIndex,
                engine: str = "dd") -> ConeReport:
    """The cone of ``system``'s rows over ``scenario``'s coordinates, solved in blocks.

    Every subset entropy is the sum of its blocks' (:class:`BlockSplit`), so
    the rows are substituted into block coordinates (``HRep`` drops the rows
    that vanish) and the source blocks that are not blocks of the scenario,
    compared by node names, are eliminated by Fourier-Motzkin ("fm") or by
    the double-description route ("dd").  The blocks left are the
    scenario's, in the same order.  The block rays lift to the extremal
    rays; the cone is pointed, as it lies in the Shannon cone of the
    observed nodes.  The equality space is the scenario's block equalities
    plus the block cone's own, placed; each block facet, placed, is reduced
    modulo its :func:`rref`.  The ancestor-disjoint independences name the
    printed equalities, chosen on their restrictions to the multi-block
    subsets, so that no dense candidate row is built
    (``_nice_equalities``).  The report carries the structure's name, or
    "structure" for an unnamed one.
    """
    if engine not in ("fm", "dd"):
        raise InvalidParameter("engine must be 'fm' or 'dd'")
    split = BlockSplit(system.index, clash_masks(structure, system.index.variables))
    block = HRep(len(split.blocks), tuple(substitute_contiguous(split, system.equalities)),
                 tuple(substitute_contiguous(split, system.inequalities)))
    kept = BlockSplit(scenario, clash_masks(structure, scenario.variables))
    wanted = {frozenset(scenario.members(b)) for b in kept.blocks}
    drop = [i for i, b in enumerate(split.blocks)
            if frozenset(system.index.members(b)) not in wanted]
    if drop:
        projected = fm_eliminate(block, drop) if engine == "fm" else dd_project(block, drop)
        block_v = enumerate_rays(projected)
    else:
        block_v = enumerate_rays(block)
        projected = facets_from_rays(block_v)
    vrep = VRep(len(scenario), tuple(sorted(kept.lift(block_v.rays))), (), labels=scenario.labels)
    eq_rref, pivots = rref([*(f.row(scenario) for f in contiguous_decomposition_equalities(kept)),
                            *map(kept.place, projected.equalities)])
    facets = sorted(reduce_mod_span(kept.place(f), eq_rref, pivots) for f in projected.inequalities)
    equalities = _nice_equalities(eq_rref, kept, observed_independence_constraints(structure))
    minimal = HRep(len(scenario), tuple(equalities), tuple(facets), scenario.labels)
    return ConeReport(structure_name=structure.name or "structure", index=scenario,
                      hrep=minimal, vrep=vrep)


def observed_outer_cone(structure: CausalStructure) -> ConeReport:
    """Shannon constraints plus observed independences, minimized and solved.

    The resulting cone is an outer approximation to the achievable entropy
    vectors of the observed nodes, valid for the classical and the quantum
    version of the structure alike.  The independences say exactly that each
    subset entropy is the sum of its blocks' (:class:`BlockSplit`), so the
    elemental rows are solved in block coordinates, where the Shannon cone
    stays pointed, and lifted (``_block_cone``, which drops no block here).
    The independence rows span the split's block equalities and only name
    the printed equalities.
    """
    index = _observed_index(structure)
    return _block_cone(structure, elemental_shannon_system(index.variables), index)


def verify_line_tightness(n: int) -> ConeReport:
    """Certify that the line-structure outer cone is achieved classically.

    Works in the line's block coordinates, its n(n+1)/2 contiguous runs
    (:class:`BlockSplit`), lifts the extremal rays back to the full subset
    coordinates in one pass, and attaches to each ray the witness with
    matching entropy vector.  Each witness XORs uniform cause bits
    (:func:`distributions.line_witness_causes`), so its vector is taken
    exactly as the GF(2) rank function of its bitmask forms
    (:func:`distributions.gf2_entropy_vector`); no model or joint
    distribution is built.  A witness must first lie on a lifted extremal
    ray; it then satisfies every block equality (the lift is built so)
    and makes no reduced inequality negative (the ray lies in the block
    cone), so the one check left is that exactly one block inequality is
    strictly positive on its block ray.  Each failed check leaves a note,
    as does a line in the block cone; the verdict is "tight" exactly when
    none is left, and tightness certifies that the classical and quantum
    closures agree.
    Lines longer than 13 nodes are refused before anything is built.
    """
    if n < 1:
        raise InvalidParameter("need n >= 1")
    if n > _MAX_VERIFY_NODES:
        raise InvalidParameter(f"verify of a {n}-node line is refused; "
                               f"the ceiling is {_MAX_VERIFY_NODES} nodes")
    reduced = reduced_line_system(n)
    index = reduced.index
    split = BlockSplit(index, clash_masks(build_line_structure(n), index.variables))
    block_rows = substitute_contiguous(split, reduced.inequalities)
    block_v = enumerate_rays(HRep(len(split.blocks), (), tuple(block_rows)))
    # each lifted ray mapped back to the block ray it came from
    lifted = dict(zip(split.lift(block_v.rays), block_v.rays))

    eq_rows = tuple(f.row(index) for f in contiguous_decomposition_equalities(split))
    _, ineq_rows = system_rows(reduced)
    hrep = HRep(len(index), eq_rows, tuple(ineq_rows), labels=index.labels)
    vrep = VRep(len(index), tuple(sorted(lifted)), (), labels=index.labels)

    # n(n+1)/2 witnesses that all land on distinct lifted rays fill the map, so
    # the count check at the end also requires len(lifted) == dim
    ray_to_witness: dict[tuple[int, ...], dict] = {}
    notes: list[str] = []
    for key in ((i, j) for i in range(1, n + 1) for j in range(i, n + 1)):
        snapped = dist.gf2_entropy_vector(dist.line_witness_causes(*key, n), index)
        ray = primitive(snapped)
        if ray not in lifted:
            notes.append(f"witness {key} does not lie on an extremal ray")
            continue
        if ray in ray_to_witness:
            notes.append(f"witness {key} repeats an already-achieved ray")
            continue
        positive = sum(dot(row, lifted[ray]) > 0 for row in block_rows)
        if positive != 1:
            notes.append(f"witness {key} has {positive} strictly positive forms")
        ray_to_witness[ray] = {"i": key[0], "j": key[1], "n": n, "vector": list(snapped)}
    if len(ray_to_witness) != len(lifted):
        notes.append("not every extremal ray is achieved by a witness")
    if block_v.lineality:
        notes.append(f"the reduced cone holds a line: its lineality has dimension "
                     f"{len(block_v.lineality)}")
    tight = not notes  # every failed check above left a note
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
        notes=tuple(notes),
    )


def full_marginal_outer_cone(structure: CausalStructure, engine: str = "dd",
                             max_nodes: int = NODE_GUARD) -> ConeReport:
    """Project the all-node constraint system onto the observed coordinates.

    The system (``classical_ci_system``) holds every elemental Shannon form
    over all nodes, each I(i:j|K) that d-separation forces to zero stated
    as an equality.  The blocks of an all-node subset (:class:`BlockSplit`
    over every node) have disjoint ancestor closures, so they are
    d-separated given nothing and the equalities make each subset entropy
    the sum of its blocks'.  ``_block_cone`` therefore solves it in block
    coordinates, eliminating the blocks that touch an unobserved node, by
    Fourier-Motzkin ("fm") or by the double-description route ("dd").
    """
    node_count = len(structure.nodes)
    if node_count > max_nodes:
        raise NodeGuardExceeded(
            f"structure has {node_count} nodes, above the guard of {max_nodes}; "
            f"raise it with --max-nodes if the blow-up is acceptable")
    observed = _observed_index(structure)
    return _block_cone(structure, classical_ci_system(structure), observed, engine)


# -- the post-selected marginal pipeline ---------------------------------------


def _marginal_scenario(structure: CausalStructure) -> tuple[CoordinateIndex, CoordinateIndex]:
    """Scenario of subsets containing at most one copy of each doubled node.

    Returns the observed index and the scenario's index.
    """
    observed = structure.observed_ids()
    index = CoordinateIndex(observed)
    doubled = [(observed.index(a), observed.index(b)) for a, b in structure.copies]
    allowed = [m for m in index.masks
               if all(not ((m >> a) & 1 and (m >> b) & 1) for a, b in doubled)]
    return index, index.restrict(allowed)


def _scenario_shannon_pool(index: CoordinateIndex) -> list[tuple[int, ...]]:
    """Elemental systems of every maximal allowed subset, in scenario coords."""
    masks = set(index.masks)
    maximal = [m for m in masks if not any(m != m2 and (m | m2) == m2 for m2 in masks)]
    return sorted({form.row(index) for m in maximal for form, _ in elemental_forms(m)})


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


def post_selected_marginal_cone(k: int, engine: str = "dd") -> ConeReport:
    """Marginal cone of the post-selected line on the setting-indexed triples.

    Takes the Shannon constraints over the observed nodes of the
    doubled-line structure with its ancestor-disjoint independences,
    projects onto the scenario of subsets holding at most one copy of each
    doubled node, and reports the facets and extremal rays of the
    projection.  The independences make each subset entropy the sum of its
    blocks' (:class:`BlockSplit`), and a scenario subset's blocks lie in the
    scenario, so projecting and splitting commute: ``_block_cone`` solves
    the elemental rows in block coordinates and eliminates the blocks
    outside the scenario.  The notes count the facets that are and are not
    scenario-Shannon (``classify_shannon_facets``).
    """
    if k not in (3, 4):
        raise InvalidParameter("the post-selected pipeline supports k in {3, 4}")
    structure = build_post_selected_line(k)
    index, marginal_index = _marginal_scenario(structure)
    report = _block_cone(structure, elemental_shannon_system(index.variables), marginal_index,
                         engine)
    minimal = report.hrep
    shannon_facets, extra_facets = classify_shannon_facets(minimal, marginal_index)
    report.notes = (
        f"facets: {len(minimal.inequalities)} "
        f"({len(shannon_facets)} scenario-Shannon, {len(extra_facets)} beyond)",
        f"equalities: {len(minimal.equalities)}",
        f"non-Shannon members incl. equalities: "
        f"{len(extra_facets) + len(minimal.equalities)}",
    )
    return report


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
    index, marginal_index = _marginal_scenario(structure)
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
    return enumerate_rays(facets_from_rays(seed))


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
