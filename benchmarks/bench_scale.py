#!/usr/bin/env python
"""Capacity-planning scale benchmark: admission rate, spillover and admit
latency vs fleet size, at 10^5-10^6 tenants.

Offers the same seeded vectorized workload (``synthesize_fill``) to
``ScaleFabric`` fleets of increasing switch count — the slim columnar
capacity model whose admit path replicates the real greedy placement walk
decision for decision — and records admission rate, spillover rate,
p50/p99 admit latency and offer throughput per fleet size into
``BENCH_scale.json``.

Run directly (no pytest needed):

    python benchmarks/bench_scale.py            # full sweep: 10^6 tenants
    python benchmarks/bench_scale.py --smoke    # CI guard: 10^5 tenants

``--smoke`` additionally replays a small prefix of the workload through a
*real* ``FabricOrchestrator`` configured to the scale model's accounting
mode and asserts the two make identical admit/spillover decisions tenant
for tenant, then exits non-zero on any mismatch, a failed aggregate
audit, or a throughput collapse.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.core.spec import SwitchSpec
from repro.rng import DEFAULT_SEED
from repro.scenarios.scale import ScaleFabric, run_fill, synthesize_fill
from repro.traffic.workload import WorkloadConfig

#: Offered tenants: the ISSUE's CI floor and the full-run target.
SMOKE_TENANTS = 100_000
FULL_TENANTS = 1_000_000

#: Fleet sizes swept (switch counts).  A saturated fill walks every
#: switch per rejection, so offer throughput scales ~1/fleet — the full
#: sweep stops at 256 switches to keep the nightly run under half an hour.
SMOKE_FLEETS = (4, 16, 64)
FULL_FLEETS = (16, 64, 256)

#: Collapse guard, not a perf target: the columnar admit path clears
#: thousands of offers/sec even on the largest smoke fleet; below this
#: something regressed badly.
SMOKE_TENANTS_PER_SEC_FLOOR = 500.0

#: Tenants replayed through the real fabric in the smoke differential.
DIFFERENTIAL_TENANTS = 400

WORKLOAD = WorkloadConfig(
    num_sfcs=0, num_types=6, avg_chain_length=3, chain_length_spread=2,
    rules_min=1, rules_max=4, mean_bandwidth_gbps=1.0, max_bandwidth_gbps=4.0,
)

#: Deliberately tight per-switch spec (the campaign library's switch):
#: small fleets saturate visibly, so the admission-rate curve has shape.
SCALE_SPEC = SwitchSpec(
    stages=4, blocks_per_stage=6, block_bits=6400, rule_bits=64,
    capacity_gbps=60.0,
)


def run_one(workload_arrays, num_switches: int, churn_fraction: float) -> dict:
    """Fill one fleet size and collect its report row."""
    fabric = ScaleFabric(
        num_switches,
        switch=SCALE_SPEC,
        max_recirculations=1,
        num_types=WORKLOAD.num_types,
        capacity_hint=workload_arrays.num_tenants,
    )
    report = run_fill(
        fabric, workload_arrays, churn_fraction=churn_fraction, rng=DEFAULT_SEED
    )
    row = report.summary()
    row["live_tenants"] = fabric.live_tenants
    row["admit_p50_us"] = (
        None if row["admit_p50_us"] is None else round(row["admit_p50_us"], 2)
    )
    row["admit_p99_us"] = (
        None if row["admit_p99_us"] is None else round(row["admit_p99_us"], 2)
    )
    row["admission_rate"] = round(row["admission_rate"], 5)
    row["spillover_rate"] = round(row["spillover_rate"], 5)
    row["tenants_per_sec"] = round(row["tenants_per_sec"], 1)
    row["wall_s"] = round(row["wall_s"], 3)
    return row


def differential_check(num_switches: int = 3) -> dict:
    """Decision-identity audit: the same lognormal-bandwidth workload
    through the scale model and through a real no-link fabric in the
    matching accounting mode must admit the same tenants to the same
    preference ranks."""
    from repro.controller.admission import AdmissionPolicy
    from repro.fabric import FabricOrchestrator, ModuloPartitioner
    from repro.fabric.topology import FabricTopology, SwitchNode

    arrays = synthesize_fill(WORKLOAD, DIFFERENTIAL_TENANTS, rng=DEFAULT_SEED)
    scale = ScaleFabric(
        num_switches, switch=SCALE_SPEC, max_recirculations=1,
        num_types=WORKLOAD.num_types,
    )
    topology = FabricTopology(
        nodes=[
            SwitchNode(name, spec=SCALE_SPEC, max_recirculations=1)
            for name in scale.switch_names
        ],
        links=(),  # no links => no stitching, matching the scale model
    )
    real = FabricOrchestrator(
        topology,
        num_types=WORKLOAD.num_types,
        partitioner=ModuloPartitioner(),
        with_dataplane=False,
        policy=AdmissionPolicy(check_memory=False, check_backplane=False),
        consolidate=False,
        reserve_physical_block=False,
    )
    mismatches = []
    for i in range(arrays.num_tenants):
        j = int(arrays.lengths[i])
        ok_s, rank_s, _ = scale.admit(
            i, arrays.types[i, :j], arrays.rules[i, :j],
            float(arrays.bandwidths[i]),
        )
        result = real.admit(arrays.sfc(i))
        if ok_s != result.ok or (ok_s and rank_s != result.spillover):
            mismatches.append(
                {"tenant": i, "scale": [ok_s, rank_s],
                 "real": [result.ok, result.spillover]}
            )
    return {
        "tenants": arrays.num_tenants,
        "scale_admitted": scale.admitted,
        "real_admitted": len(real.tenants),
        "mismatches": mismatches,
        "scale_check_ok": scale.check() == [],
        "real_invariant_ok": real.check_invariant() == [],
    }


def run(num_tenants: int, fleets, churn_fraction: float) -> dict:
    """Sweep fleet sizes over one seeded workload and assemble the report."""
    arrays = synthesize_fill(WORKLOAD, num_tenants, rng=DEFAULT_SEED)
    rows = [run_one(arrays, n, churn_fraction) for n in fleets]
    return {
        "benchmark": "scale-fill",
        "seed": DEFAULT_SEED,
        "python": sys.version.split()[0],
        "tenants": num_tenants,
        "churn_fraction": churn_fraction,
        "rows": rows,
    }


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI guard: 10^5 tenants, differential decision-identity audit, "
             "throughput floor",
    )
    parser.add_argument(
        "--tenants", type=int, default=None,
        help="override offered tenant count",
    )
    parser.add_argument(
        "--churn-fraction", type=float, default=0.0,
        help="probability an admit is followed by a random eviction "
             "(0 = pure fill)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCH_scale.json"),
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)

    num_tenants = args.tenants or (SMOKE_TENANTS if args.smoke else FULL_TENANTS)
    fleets = SMOKE_FLEETS if args.smoke else FULL_FLEETS
    report = run(num_tenants, fleets, args.churn_fraction)

    failed = False
    for row in report["rows"]:
        p99 = row["admit_p99_us"]
        print(
            f"{row['switches']} switches: {row['offered_tenants']:,} offered, "
            f"{row['admitted']:,} admitted ({row['admission_rate']:.2%}), "
            f"spillover {row['spillover_rate']:.2%}, "
            f"p99 admit {'n/a' if p99 is None else f'{p99:.1f}us'}, "
            f"{row['tenants_per_sec']:,.0f} tenants/s, "
            f"audit {'OK' if row['check_ok'] else 'FAILED'}"
        )
        if not row["check_ok"]:
            failed = True
        if args.smoke:
            if row["offered_tenants"] < SMOKE_TENANTS:
                print(
                    f"FAIL: smoke must offer >= {SMOKE_TENANTS:,} tenants, "
                    f"got {row['offered_tenants']:,}",
                    file=sys.stderr,
                )
                failed = True
            if row["tenants_per_sec"] < SMOKE_TENANTS_PER_SEC_FLOOR:
                print(
                    f"FAIL: {row['tenants_per_sec']:,.0f} tenants/s is below "
                    f"the {SMOKE_TENANTS_PER_SEC_FLOOR:,.0f}/s floor",
                    file=sys.stderr,
                )
                failed = True

    if args.smoke:
        diff = differential_check()
        report["differential"] = diff
        ident = not diff["mismatches"] and (
            diff["scale_admitted"] == diff["real_admitted"]
        )
        print(
            f"differential: {diff['tenants']} tenants, scale admitted "
            f"{diff['scale_admitted']} vs real {diff['real_admitted']}, "
            f"{len(diff['mismatches'])} mismatches, audits "
            f"{'OK' if diff['scale_check_ok'] and diff['real_invariant_ok'] else 'FAILED'}"
        )
        if not (ident and diff["scale_check_ok"] and diff["real_invariant_ok"]):
            print("FAIL: scale model diverged from the real fabric",
                  file=sys.stderr)
            failed = True

    if failed:
        print("FAIL: scale guard violated", file=sys.stderr)
        return 1

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")
    if args.smoke:
        best = max(r["tenants_per_sec"] for r in report["rows"])
        print(
            f"smoke ok: {num_tenants:,} tenants offered per fleet, up to "
            f"{best:,.0f} tenants/s across {len(report['rows'])} fleet sizes"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
