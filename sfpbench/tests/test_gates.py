"""A failed correctness gate fails the run with a result line; it does not
crash it."""

import argparse
import json
import os
import time

from sfpbench import child, run, workloads
from sfpbench.http_churn import HttpChurn

from conftest import ROOT


def child_args(workload, trace):
    return argparse.Namespace(
        workload=workload, seed=5, seconds=0.5, trace=trace, phase="run",
        size="tiny", t0=time.monotonic(),
    )


def test_a_dataplane_divergence_is_a_gate_failure(monkeypatch):
    monkeypatch.setattr(
        workloads, "differential_check", lambda *args: ["results differ"]
    )
    out = child.run(child_args("dataplane-churn", 0))
    assert "before timing: results differ" in out["problems"]
    assert "after the last op: results differ" in out["problems"]


def test_a_server_trace_miscount_is_a_gate_failure(monkeypatch):
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    )
    command = HttpChurn._command

    def miscount(self, cmd):
        reply = command(self, cmd)
        if cmd == "untrace":
            reply["requests"] += 1
        return reply

    monkeypatch.setattr(HttpChurn, "_command", miscount)
    out = child.run(child_args("http-churn", 1))
    assert any("server traced" in p for p in out["problems"]), out["problems"]


def test_run_prints_the_failed_gate_and_exits_1(monkeypatch, capsys):
    def spawn(args, workload, phase, deadline):
        metrics = {name: 1.0 for name in run.END_TO_END_UNITS}
        return {
            "setup_s": 1.0, "attempted": 3, "failed": 0,
            "samples": {kind: 1 for kind in ("evict", "admit", "modify")},
            "end_to_end": metrics, "problems": ["results differ"],
        }

    monkeypatch.setattr(run, "spawn_child", spawn)
    code = run.main(["--workload", "fleet-churn", "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert "GATE FAILED fleet-churn: results differ" in lines
    assert json.loads(lines[-1])["correct"] is False
