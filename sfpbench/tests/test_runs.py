"""Tiny runs of every workload through the benchmark's own command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, *args):
    proc = subprocess.run(
        [sys.executable, "sfpbench/run.py", "--size", "tiny", "--seconds", "1",
         "--seed", "5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_its_gates(workload, trace):
    proc = run(ROOT, "--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in metrics.values())
    else:
        assert 0.9 <= metrics["trace.coverage"]["value"] <= 1.1
    assert not (ROOT / ".sfpbench").exists() or not any(
        (ROOT / ".sfpbench").iterdir()
    )


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(
        ROOT / "sfpbench", tmp_path / "sfpbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path, "--workload", "fleet-churn")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
