"""Run one workload in this process and print its measurements as JSON.

run.py starts this file as a fresh process with PYTHONPATH pointing at
the checkout's ``src`` and ENTROCONE_THREADS removed from the
environment.  Jobs call ``entrocone.cli.main`` in-process with stdout
captured, one after another on a single thread.

Untraced passes come first and give the end-to-end numbers, in
reference seconds (see calibrate.py): after each job the calibration
task runs for about a tenth of the job's time, and each pass is scaled
by the samples taken during it.  With ``--trace 1`` half the time budget
goes to traced passes; the spans of the fastest one give the per-layer
numbers, and all spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Job, pass_order

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION_SHARE = 0.1  # calibration time after a job, as a share of the job's time


@dataclass
class Pass:
    wall_s: float  # the jobs' own time, calibration excluded
    cpu_s: float
    stdout_bytes: int
    job_wall_s: dict[str, float]
    spans_end: int  # len(tracer.spans) when the pass ended; 0 untraced
    calibration: list[tuple[float, float]]  # samples taken during the pass


def run_job(cli, job: Job, failures: list[str]) -> tuple[float, float, int]:
    """Run and check one job; returns its wall and CPU time and stdout size."""
    out, err = io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
        problem = job.check(code, out.getvalue())
    except (Exception, SystemExit) as exc:  # a crashing job is a failed job, not a crashed run
        traceback.print_exc(file=sys.stderr)
        problem = f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if problem is not None:
        stderr = err.getvalue().strip()
        failures.append(f"job '{job.name}': {problem}" + (f" (stderr: {stderr})" if stderr else ""))
    return wall, cpu, len(out.getvalue().encode())


def run_passes(cli, jobs: tuple[Job, ...], rng: random.Random, budget_s: float,
               failures: list[str], tracer: Tracer | None = None) -> list[Pass]:
    """Whole passes while another one fits in the budget; at least one.

    The calibration task runs before the first job and after every job.
    """
    passes: list[Pass] = []
    samples = [calibrate.sample()]
    start = time.perf_counter()
    while (not passes or time.perf_counter() - start
           + passes[-1].wall_s * (1 + CALIBRATION_SHARE) <= budget_s):
        wall = cpu = 0.0
        job_wall, size = {}, 0
        for job in pass_order(jobs, rng):
            if tracer is not None:
                tracer.job = f"{len(passes)}:{job.name}"
            job_wall[job.name], job_cpu, nbytes = run_job(cli, job, failures)
            wall, cpu, size = wall + job_wall[job.name], cpu + job_cpu, size + nbytes
            count = max(1, round(CALIBRATION_SHARE * job_wall[job.name] / calibrate.REFERENCE_S))
            samples.extend(calibrate.sample() for _ in range(count))
        passes.append(Pass(wall, cpu, size, job_wall, len(tracer.spans) if tracer else 0,
                           samples))
        samples = []
    return passes


def reference_seconds(passes: list[Pass]) -> tuple[float, float]:
    """Median pass wall and CPU time, each pass scaled by its own calibration."""
    ref = calibrate.REFERENCE_S
    return (statistics.median(p.wall_s * ref / statistics.mean(s[0] for s in p.calibration)
                              for p in passes),
            statistics.median(p.cpu_s * ref / statistics.mean(s[1] for s in p.calibration)
                              for p in passes))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    import numpy
    from entrocone import cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"worker: imported {cli.__file__}, not the checkout's src", file=sys.stderr)
        return 2

    jobs = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    failures: list[str] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(cli, jobs, rng, budget, failures)
    wall, cpu = reference_seconds(untraced)
    result = {
        "env": {"workload": args.workload, "seed": args.seed,
                "python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "untraced_pass_wall_s": [round(p.wall_s, 4) for p in untraced],
                "calibration_s": round(statistics.mean(s[0] for p in untraced
                                                       for s in p.calibration), 5)},
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": len(untraced) * len(jobs),
        "failures": failures,
    }
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = run_passes(cli, jobs, rng, budget, failures, tracer)
        fastest = min(range(len(traced)), key=lambda i: traced[i].wall_s)
        lo = traced[fastest - 1].spans_end if fastest else 0
        layers = layer_metrics(tracer.spans, lo, traced[fastest].spans_end)
        layers["cli.stdout_bytes"] = traced[fastest].stdout_bytes
        layers["trace.overhead_s"] = reference_seconds(traced)[0] - wall
        result["layers"] = layers
        result["attempted"] += len(traced) * len(jobs)
        result["env"]["traced_pass_wall_s"] = [round(p.wall_s, 4) for p in traced]
        result["spans_file"] = str(write_spans(args, tracer, traced).relative_to(ROOT))
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def write_spans(args: argparse.Namespace, tracer: Tracer, traced: list[Pass]) -> Path:
    """Dump the spans and each job's wall time, times relative to the first span."""
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    payload = {
        "workload": args.workload, "seed": args.seed,
        "fields": ["name", "start_s", "end_s", "parent", "job", "counts"],
        "spans": [[name, start - t0, end - t0, parent, job, counts]
                  for name, start, end, parent, job, counts in tracer.spans],
        "job_wall_s": [p.job_wall_s for p in traced],
    }
    path.write_text(json.dumps(payload))
    return path


if __name__ == "__main__":
    sys.exit(main())
