"""Helpers only the tests call: a form's value and text, and the float-route oracles.

The oracles read compiled models and entropy vectors in floating point, so
the exact routes (GF(2) ranks, integer rows) are checked against an
independent computation.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from entrocone.distributions import (_PROB_TOL, CausalModel, EntropyVector, JointDistribution,
                                     bc_functional, compile_model, shannon_entropy)
from entrocone.entropy_space import CoordinateIndex, LinearForm
from entrocone.errors import InvalidParameter
from entrocone.polyhedra import _row_text


def evaluate(form: LinearForm, values: Sequence[int | float],
             index: CoordinateIndex) -> int | float:
    """The form at ``values``: exact on integers, floating point on floats."""
    return sum(c * values[index.position(m)] for m, c in form.coefficients)


def form_text(form: LinearForm, index: CoordinateIndex) -> str:
    """The form as a signed sum of subset labels with its relation, e.g. ``+H(A)-H(AB) >= 0``."""
    terms = sorted(form.coefficients, key=lambda mc: index.position(mc[0]))
    body = _row_text([c for _, c in terms], [index.label(m) for m, _ in terms])
    return f"{body} {form.relation} 0"


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
    """All eight orientation variants of the functional."""
    out = {}
    for swap in (False, True):
        for a in range(2):
            for b in range(2):
                label = f"{'yx' if swap else 'xy'}:{a}{b}"
                out[label] = bc_functional(tables, minus_setting=(a, b), swap_roles=swap)
    return out
