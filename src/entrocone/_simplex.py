"""Exact rational feasibility for conic combinations.

Phase-one simplex with Bland's rule over ``fractions.Fraction``.  Used
only for the certificates of ``polyhedra.remove_redundancies``, which must
produce the combination itself; not a general-purpose LP interface.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def conic_combination(generators: Sequence[Sequence[int]],
                      free: Sequence[Sequence[int]],
                      target: Sequence[int]) -> tuple[list[Fraction], list[Fraction]] | None:
    """Solve target = sum(l_i * generators[i]) + sum(m_j * free[j]), l >= 0.

    Returns (l, m) or None when no such combination exists.  ``free``
    vectors may enter with either sign (they are split into two columns).
    """
    dim = len(target)
    for vec in (*generators, *free):
        if len(vec) != dim:
            raise ValueError("dimension mismatch")
    columns: list[Sequence[int]] = list(generators)
    for vec in free:
        columns.append(vec)
        columns.append([-v for v in vec])
    n_cols = len(columns)
    if n_cols == 0:
        return ([], []) if all(v == 0 for v in target) else None

    # tableau rows: [a_1 .. a_n | artificial block | b], with b >= 0
    rows: list[list[Fraction]] = []
    for r in range(dim):
        sign = -1 if target[r] < 0 else 1
        row = [Fraction(sign * columns[c][r]) for c in range(n_cols)]
        row.append(Fraction(sign * target[r]))
        rows.append(row)
    basis = list(range(n_cols, n_cols + dim))  # artificial variable per row
    # reduced costs for phase 1: cost of artificials is 1, others 0
    cost = [Fraction(0)] * n_cols + [Fraction(1)] * dim
    # objective row: z_j - c_j for structural columns
    obj = [-sum(rows[r][c] for r in range(dim)) for c in range(n_cols)]
    obj_value = -sum(rows[r][-1] for r in range(dim))

    def pivot(pr: int, pc: int) -> None:
        nonlocal obj_value
        piv = rows[pr][pc]
        rows[pr] = [v / piv for v in rows[pr]]
        for r in range(dim):
            if r != pr and rows[r][pc] != 0:
                f = rows[r][pc]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[pr])]
        f = obj[pc]
        if f != 0:
            for c in range(n_cols):
                obj[c] -= f * rows[pr][c]
            obj_value -= f * rows[pr][-1]
        basis[pr] = pc

    while True:
        entering = -1
        for c in range(n_cols):  # Bland: lowest index with negative reduced cost
            if obj[c] < 0:
                entering = c
                break
        if entering < 0:
            break
        leaving = -1
        best: Fraction | None = None
        for r in range(dim):
            a = rows[r][entering]
            if a > 0:
                ratio = rows[r][-1] / a
                if best is None or ratio < best:
                    best, leaving = ratio, r
                elif ratio == best and basis[r] < basis[leaving]:
                    leaving = r
        if leaving < 0:
            return None  # unbounded phase-1 objective cannot happen; defensive
        pivot(leaving, entering)

    if obj_value != 0:
        return None
    solution = [Fraction(0)] * n_cols
    for r, b in enumerate(basis):
        if b < n_cols:
            solution[b] = rows[r][-1]
        elif rows[r][-1] != 0:
            return None  # artificial stuck at a nonzero level
    lambdas = solution[: len(generators)]
    mus = []
    pos = len(generators)
    for _ in free:
        mus.append(solution[pos] - solution[pos + 1])
        pos += 2
    return lambdas, mus

