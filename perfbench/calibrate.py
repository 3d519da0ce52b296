"""Machine-speed calibration for the end-to-end times.

The benchmark host is a small VM that shares its CPUs: the speed of
pure-Python exact arithmetic drifts by up to 1.7x over seconds to
minutes, and process CPU time drifts with it.  Raw pass times of the
same code spread 20-40% across runs, so a fixed calibration task is
timed between jobs and every end-to-end time is reported in reference
seconds: ``raw * REFERENCE_S / calibration``.  The task is exact
``Fraction`` Gauss-Jordan elimination, the same kind of work the program
does, so it slows down with the program.  It is code of the benchmark,
not of the program, so a change to the program cannot change it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Nominal duration of one calibration sample; a normalised time equals the
# raw time on a machine where sample() takes exactly this long.
REFERENCE_S = 0.05

_rng = random.Random(7)
_MATRIX = [[_rng.randint(-3, 3) for _ in range(18)] for _ in range(12)]
_REPEATS = 6


def _eliminate() -> None:
    work = [[Fraction(v) for v in row] for row in _MATRIX]
    rank = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        work[rank] = [v / lead for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [v - f * w for v, w in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break


def sample() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the calibration task."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(_REPEATS):
        _eliminate()
    return time.perf_counter() - wall0, time.process_time() - cpu0
