"""Hitless migration execution: make-before-break, audited, WAL-journaled.

One :class:`~repro.globalopt.plan.MigrationStep` executes as a single
fabric transaction under the fabric-wide lock:

1. **Build up** the target placement while the old one still forwards:
   target segments landing on switches the tenant does not occupy are
   admitted fresh (old segments untouched); switches in both placements
   swap in place through the shard's own two-phase hitless ``modify``;
   segments that are byte-identical on both sides are left alone.
2. **Flip** the fabric directory to the new segments and link path
   through the fabric's one directory write path, which releases the old
   path's link charge and commits the new one's in exact integer units
   (the accounting cut-over is atomic under the directory lock, so old
   and new links are never charged simultaneously).
3. **Probe** the *new* placement end to end (``probe_tenant``) while the
   old segments are still installed — zero tenant-visible downtime means
   the new path must forward before the old one is torn down.
4. **Tear down** old segments on switches the target abandoned.
5. **Audit** the fabric bit-identity invariant, then **journal** the step
   as a ``reopt_step`` fabric WAL record carrying the full recorded target
   (switches, split, link path, stages) plus the post-step digest — so a
   crash mid-migration recovers onto the last *committed* step, and replay
   re-executes each committed step deterministically.

Any shard refusal or failed probe rolls the step back (evict what was
admitted, swap overlap shards back) and aborts the remaining plan: the
fabric is left exactly as the last committed step journaled it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.state import stable_digest
from repro.fabric.orchestrator import FabricTenant, Segment
from repro.fabric.stitching import split_chain
from repro.globalopt.model import TenantPlan
from repro.globalopt.plan import MigrationPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.orchestrator import FabricOrchestrator


@dataclass
class StepResult:
    """One migration step's outcome."""

    tenant_id: int
    action: str  # "executed" | "skipped" | "failed"
    reason: str = ""
    probed: bool = False
    stages: tuple[tuple[int, ...], ...] = ()
    invariant_problems: tuple[str, ...] = ()
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.action != "failed"


@dataclass
class MigrationReport:
    """A whole plan's execution: per-step results plus the tallies the
    benchmark and the frontend summary surface."""

    results: list[StepResult] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    failed: int = 0
    aborted: bool = False
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the fabric is healthy after the run.  A step the shards
        refused (or whose probe failed) rolled back cleanly and does not
        taint the fleet — only an aborted run (invariant violation) does.
        """
        return not self.aborted

    def summary(self) -> dict:
        """Counters for logs and the frontend response."""
        return {
            "moves_executed": self.executed,
            "moves_skipped": self.skipped,
            "moves_failed": self.failed,
            "aborted": self.aborted,
            "wall_s": self.wall_s,
        }


def _desired_segments(
    sfc, target: TenantPlan
) -> list[tuple[str, object, int, int]]:
    """``(switch, segment_sfc, start, stop)`` per target segment."""
    if not target.stitched:
        return [(target.switches[0], sfc, 0, sfc.length)]
    head, tail = split_chain(sfc, target.split)
    return [
        (target.switches[0], head, 0, target.split),
        (target.switches[1], tail, target.split, sfc.length),
    ]


def execute_step(
    fabric: "FabricOrchestrator",
    target: TenantPlan,
    expect_sfc_digest: str | None = None,
    probe: bool | None = None,
    audit: bool = True,
    journal: bool = True,
) -> StepResult:
    """Migrate one tenant to ``target`` (see the module docstring).  Safe
    to call standalone; recovery replays journaled steps through exactly
    this path with ``probe=False, audit=False, journal=False``."""
    t0 = time.perf_counter()
    tenant_id = target.tenant_id
    if probe is None:
        probe = fabric.with_dataplane
    with fabric._fabric_locked():
        record = fabric.tenants.get(tenant_id)
        if record is None:
            return StepResult(tenant_id, "skipped", "tenant-departed")
        if (
            expect_sfc_digest is not None
            and stable_digest(record.sfc.to_dict()) != expect_sfc_digest
        ):
            return StepResult(tenant_id, "skipped", "chain-changed")
        old_segments = record.segments
        old_links = record.links
        desired = _desired_segments(record.sfc, target)
        same_layout = (
            tuple(seg.switch for seg in old_segments)
            == tuple(sw for sw, *_rest in desired)
            and tuple((seg.start, seg.stop) for seg in old_segments)
            == tuple((start, stop) for _sw, _sfc, start, stop in desired)
            and old_links == target.links
        )
        if same_layout:
            return StepResult(tenant_id, "skipped", "no-op")
        bw = record.sfc.bandwidth_units
        for key in target.links:
            if key not in old_links and not fabric.links[key].fits(bw):
                return StepResult(tenant_id, "skipped", "no-link-capacity")

        old_by_switch = {seg.switch: seg for seg in old_segments}
        undo: list[tuple[str, str, object]] = []

        def rollback() -> None:
            """Unwind the shard mutations in reverse.  An overlap shard's
            swap-back may deterministically land the old segment on
            different stages than it historically held, so the directory
            record is refreshed to whatever the shards now say — keeping
            directory and shards bit-consistent even on the failure path.
            """
            restored: dict[str, tuple[int, ...]] = {}
            for op, switch, payload in reversed(undo):
                if op == "admit":
                    fabric.shards[switch].evict(tenant_id)
                else:  # re-swap the overlap shard back to its old segment
                    res = fabric.shards[switch].modify(tenant_id, payload)
                    if res.ok and res.stages is not None:
                        restored[switch] = res.stages
                    else:  # pragma: no cover - resources were just freed
                        fabric.metrics.inc("globalopt.rollback_failed")
            if restored:
                segments = tuple(
                    replace(seg, stages=restored.get(seg.switch, seg.stages))
                    for seg in old_segments
                )
                fabric._set_tenant(tenant_id, replace(record, segments=segments))

        new_segments: list[Segment] = []
        for switch, seg_sfc, start, stop in desired:
            old_seg = old_by_switch.get(switch)
            if (
                old_seg is not None
                and old_seg.sfc == seg_sfc
                and (old_seg.start, old_seg.stop) == (start, stop)
            ):
                new_segments.append(old_seg)
                continue
            if old_seg is not None:
                res = fabric.shards[switch].modify(tenant_id, seg_sfc)
                step = ("modify", switch, old_seg.sfc)
            else:
                res = fabric.shards[switch].admit(seg_sfc)
                step = ("admit", switch, None)
            if not res.ok:
                rollback()
                fabric.metrics.inc("globalopt.moves_failed")
                return StepResult(
                    tenant_id, "failed",
                    f"shard {switch} refused {step[0]}: {res.reason}",
                    latency_s=time.perf_counter() - t0,
                )
            undo.append(step)
            assert res.stages is not None
            new_segments.append(Segment(switch, seg_sfc, start, stop, res.stages))

        fabric._set_tenant(
            tenant_id, FabricTenant(record.sfc, tuple(new_segments), target.links)
        )

        probed = False
        if probe:
            probed = True
            if not fabric.probe_tenant(tenant_id):
                # New path does not forward: restore the directory, then
                # unwind the shard mutations — the old placement was never
                # torn down, so the tenant never lost service.
                fabric._set_tenant(tenant_id, record)
                rollback()
                fabric.metrics.inc("globalopt.moves_failed")
                return StepResult(
                    tenant_id, "failed", "probe-failed", probed=True,
                    latency_s=time.perf_counter() - t0,
                )

        new_switches = {seg.switch for seg in new_segments}
        for seg in old_segments:
            if seg.switch not in new_switches:
                fabric.shards[seg.switch].evict(tenant_id)
        fabric._refresh_gauges()

        problems: tuple[str, ...] = ()
        if audit:
            problems = tuple(fabric.check_invariant())
            if problems:
                fabric.metrics.inc("globalopt.moves_failed")
                return StepResult(
                    tenant_id, "failed", "invariant-violated",
                    probed=probed,
                    invariant_problems=problems,
                    latency_s=time.perf_counter() - t0,
                )

        stages = tuple(tuple(seg.stages) for seg in new_segments)
        if journal:
            fabric._commit_durable(
                "reopt_step",
                {
                    "tenant_id": tenant_id,
                    "switches": list(target.switches),
                    "split": target.split,
                    "links": [list(key) for key in target.links],
                    "stages": [list(s) for s in stages],
                },
            )
        fabric.metrics.inc("globalopt.moves_executed")
        fabric.metrics.inc(f"globalopt.migrations.tenant.{tenant_id}")
        elapsed = time.perf_counter() - t0
        fabric.metrics.observe("globalopt.step_s", elapsed)
        fabric.recorder.record_state(
            "globalopt.migrate",
            tenant=tenant_id,
            switches=list(target.switches),
            split=target.split,
            probed=probed,
        )
        return StepResult(
            tenant_id, "executed",
            probed=probed, stages=stages, latency_s=elapsed,
        )


def execute_plan(
    fabric: "FabricOrchestrator",
    plan: MigrationPlan,
    probe: bool | None = None,
    audit: bool = True,
) -> MigrationReport:
    """Execute the plan step by step.  Every step is its own transaction
    (built up, probed, rolled back on refusal), so a failed step leaves
    the fleet exactly as before it and execution continues — the advisory
    model being optimistic about one target must not forfeit the rest of
    the plan.  The one exception is an invariant violation: the fabric's
    health is in question, so the remainder is abandoned."""
    t0 = time.perf_counter()
    report = MigrationReport()
    steps = list(plan.steps)
    for idx, step in enumerate(steps):
        result = execute_step(
            fabric,
            step.target,
            expect_sfc_digest=step.sfc_digest or None,
            probe=probe,
            audit=audit,
        )
        report.results.append(result)
        if result.action == "executed":
            report.executed += 1
        elif result.action == "skipped":
            report.skipped += 1
            fabric.metrics.inc("globalopt.moves_skipped")
        else:
            report.failed += 1
            if result.invariant_problems:
                report.aborted = True
                for rest in steps[idx + 1:]:
                    report.results.append(
                        StepResult(rest.tenant_id, "skipped", "plan-aborted")
                    )
                    report.skipped += 1
                    fabric.metrics.inc("globalopt.moves_skipped")
                break
    report.wall_s = time.perf_counter() - t0
    return report


def apply_recorded_step(fabric: "FabricOrchestrator", record) -> list[str]:
    """Recovery dispatch for one journaled ``reopt_step`` WAL record:
    re-execute the migration to the *recorded* target and verify the
    segments land on the recorded stages.  (The caller separately verifies
    the record's post-op fabric digest.)"""
    data = record.data
    target = TenantPlan(
        tenant_id=int(data["tenant_id"]),
        switches=tuple(data["switches"]),
        split=int(data.get("split", 0)),
        links=tuple(tuple(k) for k in data.get("links", ())),
    )
    result = execute_step(
        fabric, target, probe=False, audit=False, journal=False
    )
    problems: list[str] = []
    if result.action != "executed":
        problems.append(
            f"lsn {record.lsn}: replayed reopt_step for tenant "
            f"{target.tenant_id} {result.action}: {result.reason}"
        )
        return problems
    recorded = [tuple(int(k) for k in s) for s in data.get("stages", ())]
    if recorded and list(result.stages) != recorded:
        problems.append(
            f"lsn {record.lsn}: reopt_step for tenant {target.tenant_id} "
            f"re-placed at {list(result.stages)} != recorded {recorded}"
        )
    return problems


__all__ = [
    "MigrationReport",
    "StepResult",
    "apply_recorded_step",
    "execute_plan",
    "execute_step",
]
