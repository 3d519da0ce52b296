"""Tests of the benchmark itself: answer checks, tracing and determinism.

    python3 -m pytest perfbench -q                  # everything, ~3 min
    python3 -m pytest perfbench -q -m "not slow"    # without bell-fm

The determinism tests run the worker as separate processes, so they also
catch counts that depend on per-process hash seeds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from entrocone import analysis, cli, polyhedra  # noqa: E402
from entrocone.causal import build_line_structure  # noqa: E402

import run  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from worker import run_job  # noqa: E402
from workloads import WORKLOADS, ray_count  # noqa: E402

OUTER5 = next(job for job in WORKLOADS["line-outer"] if job.argv == ("outer", "pn:5"))


def test_right_answer_passes_every_check():
    failures: list[str] = []
    run_job(cli, OUTER5, failures)
    assert failures == []


@pytest.mark.parametrize("wrong", [
    dataclasses.replace(OUTER5, checks=(ray_count(14),)),
    dataclasses.replace(OUTER5, digest="0" * 64),
    dataclasses.replace(OUTER5, argv=("outer", "pn:x")),
], ids=["ray-count", "digest", "exit-code"])
def test_wrong_expected_answer_counts_as_a_named_failure(wrong):
    failures: list[str] = []
    run_job(cli, wrong, failures)
    assert len(failures) == 1
    assert failures[0].startswith(f"job '{wrong.name}': ")


def test_tracer_patches_every_namespace_and_restores_them():
    original = polyhedra.enumerate_rays
    tracer = Tracer()
    with tracer.installed():
        assert analysis.enumerate_rays is polyhedra.enumerate_rays is not original
        assert cli.enumerate_rays is polyhedra.enumerate_rays
        analysis.observed_outer_cone(build_line_structure(3))
    assert analysis.enumerate_rays is cli.enumerate_rays is polyhedra.enumerate_rays is original
    names = {span[0] for span in tracer.spans}
    assert {"analysis.pipeline", "polyhedra.enumerate_rays", "polyhedra.rref",
            "polyhedra.primitive", "entropy_space", "causal"} <= names
    # enumerate_rays reached through analysis' own binding is still a child of the pipeline
    pipeline = next(i for i, span in enumerate(tracer.spans) if span[0] == "analysis.pipeline")
    assert any(span[0] == "polyhedra.enumerate_rays" and span[3] == pipeline
               for span in tracer.spans)


def test_layer_metrics_do_not_count_a_nested_layer_twice():
    spans = [
        ["analysis.pipeline", 0.0, 10.0, -1, "j", None],
        ["causal", 1.0, 5.0, 0, "j", {"constraints_out": 3}],
        ["causal", 2.0, 4.0, 1, "j", {"constraints_out": 2}],
        ["polyhedra.primitive", 6.0, 7.0, 0, "j", None],
    ]
    assert self_times(spans, 0, 4) == [5.0, 2.0, 2.0, 1.0]
    m = layer_metrics(spans)
    assert m["causal.calls"] == 2
    assert m["causal.busy_s"] == 4.0
    assert m["causal.self_s"] == 4.0
    assert m["causal.constraints_out"] == 3
    assert m["analysis.pipeline.self_s"] == 5.0
    assert m["polyhedra.primitive.busy_s"] == 1.0


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bc-cone-3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """One traced worker process: its result and its spans file."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        env=run.worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    return result, json.loads((ROOT / result["spans_file"]).read_text())


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def _check_spans(spans_file: dict) -> None:
    spans = spans_file["spans"]
    job_wall = spans_file["job_wall_s"][0]
    own = self_times([[s[0], s[1], s[2], s[3]] for s in spans], 0, len(spans))
    per_job: dict[str, float] = {}
    for i, (name, start, end, parent, job, _) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start and end <= p[2], f"{name} escapes its parent {p[0]}"
            assert p[4] == job
        per_job[job] = per_job.get(job, 0.0) + own[i]
        assert own[i] >= -1e-9
    assert per_job
    for job, total in per_job.items():
        assert total <= job_wall[job.split(":", 1)[1]]


@pytest.mark.parametrize("workload", [
    "line-verify", "bc-cone-3", "line-outer",
    pytest.param("bell-fm", marks=pytest.mark.slow),
])
def test_counts_repeat_across_runs_and_seeds(workload):
    first, spans = _traced_run(workload, 1)
    again, _ = _traced_run(workload, 1)
    other_seed, _ = _traced_run(workload, 2)
    counts = _counts(first["layers"])
    assert counts["cli.stdout_bytes"] > 0
    assert _counts(again["layers"]) == counts
    assert _counts(other_seed["layers"]) == counts
    _check_spans(spans)

