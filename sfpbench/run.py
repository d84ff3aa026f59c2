"""The SFP benchmark: tenant churn over HTTP, churn at fleet scale, and the
compiled dataplane under churn.

    python3 sfpbench/run.py --workload http-churn --seed 1 --seconds 20 --trace 0
    python3 sfpbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every workload runs in fresh processes (:mod:`sfpbench.child`): all but the
last of :data:`SETUPS` of them set up only (so ``setup_s`` is a median that
includes interpreter start and imports), the last one also measures.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced window measured after an untraced one.  The
exit code is non-zero, and no result line is printed, when the program
cannot run; it is 1, after the result line, when a correctness gate fails.
See ``sfpbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("http-churn", "fleet-churn", "dataplane-churn")
#: Wall-clock budget of one workload's processes, in seconds.
BUDGET_S = 170.0
#: Set-ups per untraced run, by ``--size``; ``setup_s`` is their median.
SETUPS = {"full": 3, "tiny": 1}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "admit_p50_ms": "ms",
    "admit_p90_ms": "ms",
    "evict_p50_ms": "ms",
    "modify_p50_ms": "ms",
    "pps": "1/s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ns_per_pkt"):
        return "ns"
    if name.endswith("_frac") or name == "trace.coverage":
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    """The program could not be run to a result."""


def spawn_child(args, workload: str, phase: str, deadline: float) -> dict:
    """Run one :mod:`sfpbench.child` process; returns its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, "-m", "sfpbench.child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--phase", phase, "--size", args.size,
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {phase} process overran the time budget")
    finally:
        # The http-churn server is a grandchild in the same session.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {phase} process exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + BUDGET_S
    setups = [] if args.trace else [
        spawn_child(args, workload, "setup", deadline)["setup_s"]
        for _ in range(SETUPS[args.size] - 1)
    ]
    result = spawn_child(args, workload, "run", deadline)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    return result


def host_meta(args, results: dict) -> dict:
    """Where and on what the numbers were measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **versions,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wal_fs": {
            w: r["wal_fs"] for w, r in results.items() if "wal_fs" in r
        },
    }


def report(workload: str, result: dict, trace: int) -> dict:
    """Print one workload's metrics; return them in the result-line form."""
    print(f"== {workload} ==")
    samples = result["samples"]
    notes = {
        "setup_s": "median of " + ", ".join(
            f"{s:.3f}" for s in result["setup_samples"]) + " s",
        "admit_p50_ms": f"n={samples['admit']}",
        "admit_p90_ms": f"n={samples['admit']}",
        "evict_p50_ms": f"n={samples['evict']}",
        "modify_p50_ms": f"n={samples['modify']}",
    }
    for name, unit in END_TO_END_UNITS.items():
        value = result["end_to_end"][name]
        print(f"  {name:<32} {value:>14.4f} {unit:<6} {notes.get(name, '')}")
    print(
        f"  {'fail_frac':<32} {result['failed'] / result['attempted']:>14.4f} "
        f"{'ratio':<6} {result['failed']} of {result['attempted']} ops"
    )
    if not trace:
        return {
            name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    print("  -- per layer (traced window) --")
    layers = result["per_layer"]
    for name, value in layers.items():
        print(f"  {name:<32} {value:>14.4f} {layer_unit(name)}")
    print("  -- tracing overhead (traced minus untraced) --")
    for name in END_TO_END_UNITS:
        if name in result["traced_end_to_end"]:
            delta = result["traced_end_to_end"][name] - result["end_to_end"][name]
            print(f"  {name:<32} {delta:>+14.4f} {END_TO_END_UNITS[name]}")
    return {
        name: {"value": value, "unit": layer_unit(name)}
        for name, value in layers.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="SFP benchmark: churn over HTTP, at fleet scale, and "
        "through the compiled dataplane."
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a few tenants, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"sfpbench: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(args, workload)
    except BenchError as exc:
        print(f"sfpbench: {exc}", file=sys.stderr)
        return 2
    metrics, problems = {}, []
    for workload, result in results.items():
        shown = report(workload, result, args.trace)
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        metrics.update({prefix + k: v for k, v in shown.items()})
        problems += [f"{workload}: {p}" for p in result["problems"]]
    for problem in problems:
        print(f"GATE FAILED {problem}")
    print(json.dumps({"meta": host_meta(args, results)}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
