"""Workload definitions and the answer every job must produce.

A workload is a fixed list of CLI invocations (jobs).  One pass runs every
job once, in an order drawn from the run's seed; the seed changes nothing
else, so every answer below holds for every seed.

Each job is checked from outside the program, on its exit code and its
stdout: structural checks (ray tables, ray counts, verdicts, witnesses)
that name what is wrong, then a SHA-256 digest of the whole stdout,
recorded when the benchmark was added, because the CLI promises
byte-identical output for identical invocations.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Callable

# The 10 extremal rays of the 4-node line cone, which is also the observed
# cone of the Bell structure.  Coordinates: H(A) H(X) H(Y) H(B) H(AX) H(AY)
# H(AB) H(XY) H(XB) H(YB) H(AXY) H(AXB) H(AYB) H(XYB) H(AXYB).
LINE4_RAYS = frozenset({
    (1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3),
    (0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2),
    (1, 1, 1, 0, 2, 2, 1, 2, 1, 1, 2, 2, 2, 2, 2),
    (0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1),
    (0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1),
    (0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1),
    (1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 1),
    (0, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 0, 0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1),
})

# The 20 extremal rays of the post-selected 3-line marginal cone.
# Coordinates: H(X0) H(X1) H(Y) H(Z0) H(Z1) H(X0Y) H(X0Z0) H(X0Z1) H(X1Y)
# H(X1Z0) H(X1Z1) H(YZ0) H(YZ1) H(X0YZ0) H(X0YZ1) H(X1YZ0) H(X1YZ1).
POST_SELECTED3_RAYS = frozenset({
    (1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    (0, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    (0, 1, 1, 0, 1, 1, 0, 1, 2, 1, 2, 1, 2, 1, 2, 2, 2),
    (0, 1, 1, 1, 0, 1, 1, 0, 2, 2, 1, 2, 1, 2, 1, 2, 2),
    (1, 0, 1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2, 2, 2, 2),
    (1, 0, 1, 0, 1, 2, 1, 2, 1, 0, 1, 1, 2, 2, 2, 1, 2),
    (1, 0, 1, 1, 0, 2, 2, 1, 1, 1, 0, 2, 1, 2, 2, 2, 1),
    (1, 1, 1, 0, 1, 2, 1, 2, 2, 1, 2, 1, 2, 2, 2, 2, 2),
    (1, 1, 1, 1, 0, 2, 2, 1, 2, 2, 1, 2, 1, 2, 2, 2, 2),
    (0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1),
    (0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0),
    (0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1),
    (0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1),
    (1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0),
    (0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1),
    (0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1),
    (0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1),
})

_RAY_LINE = re.compile(r"^  \(([ivxlcdm]+)\) ([-\d ]+?)(   <- witness i=\d+ j=\d+)?$")


@dataclass(frozen=True)
class Report:
    """The parts of a text-format cone report that the checks look at."""

    rays: tuple[tuple[int, ...], ...]
    witnessed: int
    notes: tuple[str, ...]
    verdict: str | None


def parse_report(stdout: str) -> Report:
    """Read the ray listing, notes and verdict of a text-format report."""
    rays, witnessed, notes, verdict = [], 0, [], None
    declared = None
    for line in stdout.splitlines():
        if line.startswith("extremal rays ("):
            declared = int(line[len("extremal rays ("):line.index(")")])
        elif line.startswith("  (") and declared is not None and len(rays) < declared:
            match = _RAY_LINE.match(line)
            if match is None:
                raise ValueError(f"unreadable ray line {line!r}")
            rays.append(tuple(int(v) for v in match.group(2).split()))
            witnessed += match.group(3) is not None
        elif line.startswith("note: "):
            notes.append(line[len("note: "):])
        elif line.startswith("verdict: "):
            verdict = line[len("verdict: "):]
    if declared is None or len(rays) != declared:
        raise ValueError(f"ray listing declares {declared} rays, lists {len(rays)}")
    return Report(tuple(rays), witnessed, tuple(notes), verdict)


Check = Callable[[Report], "str | None"]


def ray_set(expected: frozenset, what: str) -> Check:
    def check(report: Report) -> str | None:
        got = set(report.rays)
        if len(report.rays) != len(expected) or got != expected:
            return (f"rays differ from {what}: {len(got - expected)} unexpected, "
                    f"{len(expected - got)} missing")
        return None
    return check


def ray_count(count: int) -> Check:
    def check(report: Report) -> str | None:
        if len(report.rays) != count:
            return f"expected {count} rays, got {len(report.rays)}"
        return None
    return check


def tight_line(n: int) -> Check:
    rays = n * (n + 1) // 2

    def check(report: Report) -> str | None:
        if report.verdict != "tight":
            return f"verdict {report.verdict!r}, expected 'tight'"
        if len(report.rays) != rays or report.witnessed != rays:
            return (f"expected {rays} rays each with one witness, got "
                    f"{len(report.rays)} rays and {report.witnessed} witnesses")
        return None
    return check


def note(text: str) -> Check:
    def check(report: Report) -> str | None:
        return None if text in report.notes else f"missing note {text!r}"
    return check


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its answer must be."""

    argv: tuple[str, ...]
    checks: tuple[Check, ...]
    digest: str  # SHA-256 of stdout when the benchmark was added

    @property
    def name(self) -> str:
        return " ".join(self.argv)

    def check(self, exit_code: int, stdout: str) -> str | None:
        """None when the answer is right, else what is wrong with it."""
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            report = parse_report(stdout)
        except ValueError as exc:
            return str(exc)
        for check in self.checks:
            problem = check(report)
            if problem is not None:
                return problem
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != self.digest:
            return f"stdout digest {digest[:12]} differs from the recorded {self.digest[:12]}"
        return None


def _verify(n: int, digest: str) -> Job:
    return Job(("verify", f"pn:{n}"), (tight_line(n),), digest)


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    "line-verify":
        (_verify(5, "57decdc7db3ad58fc27fe4451badc8c1fc979c17004d8c7dd80d136549fdc510"),
         _verify(6, "e9228c54625443d5dceb18fc257fe929d50c9a69474f6d1a2b8b99f6b7dd689f")),
    "bc-cone-3":
        (Job(("bc-cone", "3"),
             (ray_set(POST_SELECTED3_RAYS, "the 20 post-selected rays"),
              note("non-Shannon members incl. equalities: 36")),
             "cbb455d9864cf9cb7c618ce46756fc577769486ba1903a582175b5c350247c47"),),
    "bell-fm":
        (Job(("--engine", "fm", "marginalize", "bell"),
             (ray_set(LINE4_RAYS, "the 10 rays of the 4-node line"),),
             "e016071a8aa27c2ec76c0386dd86eedba26c7514088b2e083f335988fe43c058"),),
    "line-outer":
        (Job(("outer", "pn:5"), (ray_count(15),),
             "f10e6e7e62420dd0d9ab0a57c23ffc314b0b9ced4245c6b5fa9074242872fcc4"),
         Job(("outer", "pn:6"), (ray_count(21),),
             "5d014ec2bee32a83216032f501e274fc14db6df322635773f687234e385eef67")),
}


def pass_order(jobs: tuple[Job, ...], rng: random.Random) -> list[Job]:
    """The jobs of one pass, in an order drawn from ``rng``."""
    order = list(jobs)
    rng.shuffle(order)
    return order
