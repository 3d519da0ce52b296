"""entrocone pipeline benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Measures one workload of BENCHMARK.json against the entrocone source in
this checkout's ``src``: set-up time over several fresh interpreter
processes, then one fresh worker process (perfbench/worker.py) that runs
the workload's jobs in passes for about ``--seconds`` and checks every
answer.  Times are in reference seconds (see calibrate.py).  The last line of stdout is the result as JSON.  With
``--trace 0`` its metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  ``--workload all`` runs every workload in turn and ends
with a table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def worker_env() -> dict[str, str]:
    """The caller's environment without ENTROCONE_THREADS, importing from src."""
    env = {k: v for k, v in os.environ.items() if k != "ENTROCONE_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def probe_setup(env: dict[str, str]) -> float:
    """Seconds from starting a fresh interpreter until it has imported entrocone."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import entrocone.cli; print(entrocone.cli.__file__, flush=True)"],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        raise BenchError("a set-up probe did not exit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not Path(line.strip()).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"set-up probe imported entrocone from {line.strip()!r} "
                         f"(exit {proc.returncode}), not from {ROOT / 'src'}")
    return elapsed


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """One run of one workload: the worker's JSON plus the set-up time."""
    env = worker_env()
    setup = None
    if not trace:
        probe_setup(env)  # unmeasured: lets the first import write bytecode caches
        probes, samples = [], []
        for _ in range(SETUP_PROBES):
            probes.append(probe_setup(env))
            samples.append(calibrate.sample()[0])
        setup = (statistics.median(probes) * calibrate.REFERENCE_S
                 / statistics.median(samples))
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload {workload} did not finish within {DEADLINE_S} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker for {workload} exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup
    return result


def select_metrics(spec: dict, result: dict, trace: int) -> dict:
    """The declared metrics, each with its unit, from one run's result."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    source = result["layers"] if trace else result
    missing = [m["name"] for m in declared if m["name"] not in source]
    if missing:
        raise BenchError(f"no measurement for declared metrics {missing}")
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in declared}


def summary(workload: str, result: dict) -> dict:
    failed = len(result["failures"])
    for failure in result["failures"]:
        print(f"FAILED {workload}: {failure}")
    env = dict(result["env"], jobs_failed_ratio=failed / result["attempted"])
    if "spans_file" in result:
        env["spans_file"] = result["spans_file"]
    print(f"env {json.dumps(env)}")
    return {"correct": failed == 0, "attempted": result["attempted"], "failed": failed}


def main() -> int:
    parser = argparse.ArgumentParser(description="entrocone pipeline benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "entrocone" / "__init__.py").is_file():
            raise BenchError(f"no entrocone source under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if sorted(names) != sorted(WORKLOADS):
            raise BenchError("BENCHMARK.json and perfbench/workloads.py list different workloads")
        if args.workload not in names + ["all"]:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload != "all":
            result = measure(args.workload, args.seed, seconds, args.trace, deadline)
            line = summary(args.workload, result)
            line["metrics"] = select_metrics(spec, result, args.trace)
            print(json.dumps(line))
            return 0
        rows = {}
        for name in names:
            result = measure(name, args.seed, seconds, args.trace, time.monotonic() + DEADLINE_S)
            rows[name] = dict(summary(name, result),
                              metrics=select_metrics(spec, result, args.trace))
            print(f"{name} {json.dumps(rows[name])}", flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"{'metric':40} {'unit':6} " + " ".join(f"{n:>14}" for n in names))
    for metric in rows[names[0]]["metrics"]:
        unit = rows[names[0]]["metrics"][metric]["unit"]
        values = " ".join(f"{rows[n]['metrics'][metric]['value']:>14.6g}" for n in names)
        print(f"{metric:40} {unit:6} {values}")
    ratios = " ".join(f"{rows[n]['failed'] / rows[n]['attempted']:>14.6g}" for n in names)
    print(f"{'jobs_failed_ratio':40} {'ratio':6} {ratios}")
    print(json.dumps({"correct": all(r["correct"] for r in rows.values()),
                      "attempted": sum(r["attempted"] for r in rows.values()),
                      "failed": sum(r["failed"] for r in rows.values()),
                      "metrics": {f"{n}.{m}": v for n, r in rows.items()
                                  for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
