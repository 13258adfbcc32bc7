"""Smoke test of perfbench/run.py at its smallest size.

    python3 -m pytest perfbench/test_smoke.py -q     (from the repository root)

Every workload runs in both modes; each must print a detail line and a final
line with exactly the declared metrics, each with its declared unit, and a
tree without the program's sources must make run.py fail without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, last = proc.stdout.strip().splitlines()
    out = json.loads(last)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for name, metric in out["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    detail = json.loads(detail_line)["detail"]
    assert detail["all_metrics"]["failed_frac"]["value"] == 0
    assert {"seed", "git_rev", "git_dirty", "exec_signature", "python", "numpy", "nproc"} <= set(
        detail["provenance"]
    )


def test_counters_repeat_between_runs_and_modes():
    plain = [json.loads(run("pow2_edge", 0).stdout.splitlines()[-2])["detail"] for _ in range(2)]
    traced = json.loads(run("pow2_edge", 1).stdout.splitlines()[-2])["detail"]
    assert plain[0]["counters"] == plain[1]["counters"] == traced["counters"]
    assert plain[0]["counters"]["butterflies"] > 0


def test_fails_without_the_program_sources():
    bare = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("work-*", "__pycache__"))
        proc = run("pow2_edge", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
