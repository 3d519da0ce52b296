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
