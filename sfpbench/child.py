"""One workload process: set up, optionally measure, report one JSON line.

``python -m sfpbench.child --workload W --seed N --seconds S --trace 0|1
--phase setup|run --t0 T`` is spawned by :mod:`sfpbench.run`.  ``--t0`` is
the spawner's ``time.monotonic()`` just before the spawn (the clock is shared
by every process on the host), so ``setup_s`` covers interpreter start,
imports, build, prefill and warmup.  It is scaled to the reference host
speed by a :class:`~sfpbench.measure.SpeedGauge` that bursts at the start
and end of set-up and ticks inside the in-process set-up loops.  A ``run``
phase then measures one untraced window and, with ``--trace 1``, one traced
window after it, runs the correctness gates and prints its findings as the
last stdout line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from sfpbench.measure import KINDS, SpeedGauge, end_to_end, fs_type, per_layer

WORKLOADS = ("http-churn", "fleet-churn", "dataplane-churn")
#: Gauge bursts at each end of set-up (about 5 ms).
EDGE_BURSTS = 20


def make_workload(name: str, seed: int, size: str):
    if name == "http-churn":
        from sfpbench.http_churn import HttpChurn

        return HttpChurn(seed, size)
    from sfpbench.workloads import DataplaneChurn, FleetChurn

    cls = FleetChurn if name == "fleet-churn" else DataplaneChurn
    return cls(seed, size)


def run(args) -> dict:
    from sfpbench.workloads import run_window

    workload = make_workload(args.workload, args.seed, args.size)
    gauge = workload.gauge or SpeedGauge()
    try:
        gauge.burst(EDGE_BURSTS)
        workload.setup()
        gauge.burst(EDGE_BURSTS)
        raw = time.monotonic() - args.t0 - gauge.total_s
        out = {"setup_s": raw * gauge.scale()}
        if args.phase == "setup":
            return out
        plain = run_window(workload, args.seconds, traced=False)
        traced = (
            run_window(workload, args.seconds, traced=True) if args.trace else None
        )
        end = workload.finish()
    finally:
        workload.close()
    problems = list(end["problems"])
    metrics = end_to_end(plain)
    metrics["peak_rss_mb"] = end["peak_rss_mb"]
    out.update(
        attempted=plain.attempted,
        failed=plain.failed,
        samples={kind: len(plain.latencies[kind]) for kind in KINDS},
        end_to_end=metrics,
    )
    if hasattr(workload, "wal_dir"):
        out["wal_fs"] = fs_type(str(workload.wal_dir.parent))
    if traced is not None:
        layers = per_layer(traced, plain)
        out["attempted"] += traced.attempted
        out["failed"] += traced.failed
        out["per_layer"] = layers
        out["traced_end_to_end"] = end_to_end(traced)
        if abs(layers["trace.coverage"] - 1.0) > 0.1:
            problems.append(
                f"layer self times cover {layers['trace.coverage']:.3f} of "
                f"the traced wall time (must be within 0.1 of 1)"
            )
    if out["failed"]:
        problems.append(f"{out['failed']} of {out['attempted']} ops were refused")
    out["problems"] = problems
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    out = run(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
