"""Helpers only the tests call: form values and text, cone containment, lines up to sign
and the float oracles.

The float oracles read compiled models and entropy vectors in floating
point, so the exact routes (GF(2) ranks, integer rows) are checked against
an independent computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

import numpy as np

from entrocone.distributions import (_PROB_TOL, CausalModel, EntropyVector, JointDistribution,
                                     bc_functional, compile_model, shannon_entropy)
from entrocone.entropy_space import CoordinateIndex, LinearForm
from entrocone.errors import InvalidParameter
from entrocone.polyhedra import (Echelon, HRep, Row, VRep, _row_text, enumerate_rays,
                                 facets_from_rays, membership, primitive, reduce_mod_span, rref)


def fraction_primitive(vector: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Coprime integers on the ray of a rational vector, computed in Fractions."""
    fracs = [Fraction(v) for v in vector]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def sign_canonical(vector: Sequence[int]) -> tuple[int, ...]:
    """Primitive form with the first nonzero entry positive, to compare lines up to sign."""
    vec = primitive(vector)
    for v in vec:
        if v:
            return vec if v > 0 else tuple(-x for x in vec)
    return vec


def mask_of(index: CoordinateIndex, names: Iterable[str]) -> int:
    """The bitmask of ``names`` over ``index``'s variables."""
    mask = 0
    for name in names:
        mask |= 1 << index.variables.index(name)
    return mask


def contains(outer: HRep | VRep, inner: HRep | VRep) -> bool:
    """Whether every point of ``inner`` lies in ``outer``."""
    if outer.dimension != inner.dimension:
        raise InvalidParameter("cone dimensions differ")
    inner_v = inner if isinstance(inner, VRep) else enumerate_rays(inner)
    outer_h = facets_from_rays(outer) if isinstance(outer, VRep) else outer
    for ray in inner_v.rays:
        if not membership(outer_h, ray):
            return False
    for line in inner_v.lineality:
        if not membership(outer_h, line) or not membership(outer_h, [-v for v in line]):
            return False
    return True


def cones_equal(a: HRep | VRep, b: HRep | VRep) -> bool:
    """Mutual containment of two cones, exact."""
    return contains(a, b) and contains(b, a)


def sparse(row: Sequence[int]) -> dict[int, int]:
    """A dense row as the ``{column: value}`` map of its nonzeros that :class:`Echelon` takes."""
    return {c: v for c, v in enumerate(row) if v}


def independence_rows(forms: Iterable[LinearForm], index: CoordinateIndex) -> list[Row]:
    """Dense rows of the forms in ``index``, skipping those a restricted scenario cannot express."""
    rows = []
    for form in forms:
        try:
            rows.append(form.row(index))
        except InvalidParameter:
            continue
    return rows


def dense_nice_equalities(base: Sequence[Row], pivots: Sequence[int],
                          candidates: Sequence[Row]) -> Sequence[Row]:
    """The printed equalities as ``analysis._nice_equalities`` chose them on dense rows.

    ``base`` and ``pivots`` are the :func:`rref` of the equality space; the
    candidates in the span of ``base`` are chosen greedily, each one
    independent of those before it, and ``base`` is kept unless they span it.
    """
    independent = Echelon()
    chosen: list[Row] = []
    for row in candidates:
        if len(chosen) == len(base):
            break
        # the span test comes first: only rows that are kept may enter ``independent``
        if not any(reduce_mod_span(row, base, pivots)) and independent.add(sparse(row)):
            chosen.append(row)
    return chosen if len(chosen) == len(base) else base


def nice_equalities(hrep: HRep, candidates: Sequence[Sequence[int]]) -> HRep:
    """``hrep`` with its equalities printed as ``dense_nice_equalities`` picks them."""
    rows = dense_nice_equalities(*rref(hrep.equalities), candidates)
    return HRep(hrep.dimension, tuple(rows), hrep.inequalities, hrep.labels)


def evaluate(form: LinearForm, values: Sequence[int | float],
             index: CoordinateIndex) -> int | float:
    """The form at ``values``: exact on integers, floating point on floats."""
    return sum(c * values[index.position(m)] for m, c in form.coefficients)


def form_text(form: LinearForm, index: CoordinateIndex) -> str:
    """The form as a signed sum of subset labels, e.g. ``+H(A)-H(AB)``."""
    terms = sorted(form.coefficients, key=lambda mc: index.position(mc[0]))
    return _row_text([c for _, c in terms], [index.label(m) for m, _ in terms])


def snapped(vector: EntropyVector) -> tuple[int, ...] | None:
    """Integer form of the vector, or None unless every entry is exactly an integer.

    Exact for the witnesses: a uniform marginal on 2^k outcomes has dyadic
    probabilities, and its 2^k equal terms k 2^-k sum to exactly k.
    """
    ints = np.rint(vector.values)
    if np.array_equal(ints, vector.values):
        return tuple(int(v) for v in ints)
    return None


def conditional_mutual_information_bits(joint: JointDistribution, x: Sequence[str],
                                        y: Sequence[str], z: Sequence[str]) -> float:
    """I(X:Y|Z) in bits evaluated on a compiled distribution."""
    hxz = shannon_entropy(joint.marginal([*x, *z]).table)
    hyz = shannon_entropy(joint.marginal([*y, *z]).table)
    hxyz = shannon_entropy(joint.marginal([*x, *y, *z]).table)
    hz = shannon_entropy(joint.marginal(list(z)).table) if z else 0.0
    return hxz + hyz - hxyz - hz


def setting_conditionals(model: CausalModel) -> dict[tuple[int, int], np.ndarray]:
    """P(X, Y | A=a, B=b) tables of a compiled reduced-line Bell model."""
    joint = compile_model(model).marginal(["A", "X", "Y", "B"])
    names = joint.variables
    table = np.moveaxis(joint.table, [names.index("A"), names.index("B"),
                                      names.index("X"), names.index("Y")], [0, 1, 2, 3])
    out = {}
    for a in range(2):
        for b in range(2):
            block = table[a, b]
            weight = block.sum()
            if weight <= _PROB_TOL:
                raise InvalidParameter(f"setting (A={a}, B={b}) has zero probability")
            out[(a, b)] = block / weight
    return out


def bc_functional_variants(tables: Mapping[tuple[int, int], np.ndarray]) -> dict[str, float]:
    """All eight orientation variants of the functional, keyed ``xy:ab`` or ``yx:ab``.

    Variant (a*, b*) evaluates the functional on the settings relabelled
    (a, b) -> (a ^ a*, b ^ b*); the ``yx`` variants on the transposed tables.
    """
    out = {}
    for swap in (False, True):
        for a in range(2):
            for b in range(2):
                relabelled = {(x, y): np.asarray(tables[(x ^ a, y ^ b)])
                              for x in range(2) for y in range(2)}
                if swap:
                    relabelled = {key: t.T for key, t in relabelled.items()}
                out[f"{'yx' if swap else 'xy'}:{a}{b}"] = bc_functional(relabelled)
    return out


def bc_functional_oriented(tables: Mapping[tuple[int, int], np.ndarray],
                           minus_setting: tuple[int, int], swap_roles: bool) -> float:
    """The functional in one of its eight orientations, written out directly.

    With ``minus_setting`` (a*, b*) it evaluates
    H(X|Y)_a*,b*' + H(Y|X)_a*',b*' + H(X|Y)_a*',b* - H(X|Y)_a*,b*, primes
    flipping a bit; ``swap_roles`` exchanges X and Y.  Tables are read as
    given, without the checks ``bc_functional`` makes.
    """
    a_star, b_star = minus_setting

    def h(a: int, b: int, given: int) -> float:
        """H(other | given) on table (a, b); axis 0 is X, or Y under the role swap."""
        t = np.asarray(tables[(a, b)], dtype=float)
        t = t.T if swap_roles else t
        return shannon_entropy(t) - shannon_entropy(t.sum(axis=1 - given))

    return (h(a_star, 1 - b_star, 1)
            + h(1 - a_star, 1 - b_star, 0)
            + h(1 - a_star, b_star, 1)
            - h(a_star, b_star, 1))


_SPLIT_MODES = ("keep0", "keep1", "copy")


def split_p3_witness(model: CausalModel, x_mode: str, z_mode: str) -> JointDistribution:
    """Split the outer nodes of a three-node-line joint into setting copies.

    From the observed joint (X, Y, Z) of the model, build a distribution
    over (X0, X1, Y, Z0, Z1) where each outer pair is either (value, 1),
    (1, value) or two perfect copies, per the requested mode.  The float
    oracle of ``split_generated_rays``.
    """
    if x_mode not in _SPLIT_MODES or z_mode not in _SPLIT_MODES:
        raise InvalidParameter(f"modes must be one of {_SPLIT_MODES}")
    if model.structure.observed_ids() != ("X1", "X2", "X3"):
        raise InvalidParameter("model must live on the 3-node line")
    joint = compile_model(model).marginal(["X1", "X2", "X3"])
    nx, ny, nz = joint.alphabet_sizes
    table = np.zeros((nx, nx, ny, nz, nz))
    for (x, y, z), p in np.ndenumerate(joint.table):
        if p == 0:
            continue
        x0, x1 = {"keep0": (x, 1), "keep1": (1, x), "copy": (x, x)}[x_mode]
        z0, z1 = {"keep0": (z, 1), "keep1": (1, z), "copy": (z, z)}[z_mode]
        table[x0, x1, y, z0, z1] += p
    return JointDistribution(("X0", "X1", "Y", "Z0", "Z1"), (nx, nx, ny, nz, nz), table)
