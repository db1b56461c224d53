"""Smoke test of the benchmark: each workload at a tiny size, untraced and
traced.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def answers_digest(lines: list[str]) -> str:
    return next(line for line in lines if line.startswith("answers sha256"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_tiny_size(workload):
    outputs = {}
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in listed}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        for name, unit in units.items():
            assert any(line.split()[:1] == [name] and f" {unit}" in line for line in lines), name
        outputs[trace] = (lines, result)
    assert outputs[0][1]["metrics"]["ok_ratio"]["value"] == 1.0  # fail_ratio 0
    assert answers_digest(outputs[0][0]) == answers_digest(outputs[1][0])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("dim-all", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
