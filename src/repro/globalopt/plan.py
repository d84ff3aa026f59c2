"""Diff a :class:`~repro.globalopt.solver.GlobalSolution` against the
current placement into a dependency-ordered, headroom-safe migration plan.

Each differing tenant becomes one candidate :class:`MigrationStep`.  Two
gates stand between a candidate and the executable plan:

* **Cost/benefit** — a step's benefit scores segments removed (unstitching
  is the whole point), link charges dropped, and the backplane-balance
  improvement; its cost is the rule mass that must physically move.
  Steps under ``min_benefit`` are skipped as low-yield, so the optimizer
  never churns the fabric for marginal wins.
* **Headroom ordering** — steps execute make-before-break, so *during* a
  step the tenant's old and new footprints coexist (except on overlap
  switches, where the in-place modify swaps atomically).  The planner
  replays candidates against a cloned :class:`~repro.globalopt.model.
  Usage`, repeatedly emitting the highest-benefit step whose transient
  double-footprint fits the simulated fleet; steps that never fit are
  skipped as ``no-headroom`` rather than risked.  The emitted order is
  therefore a proof that every intermediate fleet state fits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.globalopt.model import (
    ConstraintSet,
    FabricModel,
    TenantPlan,
    Usage,
)
from repro.globalopt.solver import GlobalSolution

#: Benefit weight per segment removed (2 -> 1 segments = one unstitch).
W_UNSTITCH = 4.0
#: Benefit weight per link charge dropped.
W_LINK = 1.0
#: Benefit weight on the backplane balance improvement (sum of squared
#: utilizations over the involved switches; lower is better spread).
W_BALANCE = 1.0


@dataclass(frozen=True)
class MigrationStep:
    """One tenant's move: from ``current`` to ``target``."""

    tenant_id: int
    current: TenantPlan
    target: TenantPlan
    benefit: float
    cost: float
    #: Snapshot-time digest of the tenant's chain; the executor skips the
    #: step if the chain changed underneath the plan.
    sfc_digest: str = ""

    @property
    def kind(self) -> str:
        if len(self.target.switches) < len(self.current.switches):
            return "unstitch"
        if len(self.target.switches) > len(self.current.switches):
            return "stitch"
        if self.target.switches != self.current.switches:
            return "move"
        return "restitch"


@dataclass
class MigrationPlan:
    """The executable, order-proved migration sequence."""

    steps: tuple[MigrationStep, ...] = ()
    skipped: tuple[tuple[MigrationStep, str], ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def moves_planned(self) -> int:
        return len(self.steps)

    @property
    def moves_skipped(self) -> int:
        return len(self.skipped)

    def summary(self) -> dict:
        """Counters for logs and the frontend response."""
        return {
            "moves_planned": self.moves_planned,
            "moves_skipped": self.moves_skipped,
            "unstitches": sum(
                1 for s in self.steps if s.kind == "unstitch"
            ),
            "total_benefit": sum(s.benefit for s in self.steps),
            "total_cost": sum(s.cost for s in self.steps),
        }


def _step_cost(
    model: FabricModel, step_current: TenantPlan, target: TenantPlan
) -> float:
    """Rule mass that must physically move: every target segment landing
    on a switch that does not already hold that exact segment."""
    cur = {
        (switch, tuple(rules))
        for switch, _nf, rules, _len in model.plan_demands(step_current)
    }
    moved = 0
    for switch, _nf, rules, _len in model.plan_demands(target):
        if (switch, tuple(rules)) not in cur:
            moved += sum(rules)
    return float(moved)


def _balance_gain(
    usage: Usage, current: TenantPlan, target: TenantPlan
) -> float:
    """Drop in the sum of squared backplane utilizations over the switches
    a step touches (positive = better spread after the move)."""
    involved = sorted(set(current.switches) | set(target.switches))
    before = sum(usage.utilization(s) ** 2 for s in involved)
    trial = usage.clone()
    trial.release(current)
    trial.charge(target)
    after = sum(trial.utilization(s) ** 2 for s in involved)
    return before - after


def _step_benefit(
    usage: Usage, current: TenantPlan, target: TenantPlan
) -> float:
    segments_removed = len(current.switches) - len(target.switches)
    links_dropped = len(current.links) - len(target.links)
    return (
        W_UNSTITCH * segments_removed
        + W_LINK * links_dropped
        + W_BALANCE * _balance_gain(usage, current, target)
    )


def _transient_fits(
    usage: Usage,
    model: FabricModel,
    step: MigrationStep,
    constraints: ConstraintSet,
) -> bool:
    """Whether the make-before-break transient fits: new segments on
    switches the tenant does not currently occupy must fit *on top of* the
    old footprint; overlap switches swap in place, so there the old
    segment's resources are released first."""
    foot = model.tenants[step.tenant_id]
    old_on = {
        switch: (rules, length)
        for switch, _nf, rules, length in model.plan_demands(step.current)
    }
    trial = usage.clone()
    for switch, nf_types, rules, length in model.plan_demands(step.target):
        if switch in old_on:
            old_rules, old_len = old_on[switch]
            trial.blocks[switch] -= model.blocks_needed(old_rules, switch)
            trial.backplane[switch] -= model.backplane_needed(
                old_len, foot.bandwidth_units, switch
            )
        if not trial.segment_fits(
            foot, switch, nf_types, rules, length, constraints
        ):
            return False
        trial.blocks[switch] += model.blocks_needed(rules, switch)
        trial.backplane[switch] += model.backplane_needed(
            length, foot.bandwidth_units, switch
        )
    old_links = set(step.current.links)
    return all(
        trial.link_fits(key, foot.bandwidth_units)
        for key in step.target.links
        if key not in old_links
    )


def build_plan(
    model: FabricModel,
    solution: GlobalSolution,
    constraints: ConstraintSet | None = None,
    min_benefit: float = 0.5,
    max_moves: int | None = None,
) -> MigrationPlan:
    """Order the solution's deltas into an executable migration plan (see
    the module docstring for the two gates)."""
    constraints = constraints or ConstraintSet()
    usage = Usage.from_current(model)
    candidates: list[MigrationStep] = []
    skipped: list[tuple[MigrationStep, str]] = []
    for tenant_id in sorted(model.current):
        current = model.current[tenant_id]
        target = solution.plans.get(tenant_id, current)
        if target == current:
            continue
        step = MigrationStep(
            tenant_id=tenant_id,
            current=current,
            target=target,
            benefit=_step_benefit(usage, current, target),
            cost=_step_cost(model, current, target),
            sfc_digest=model.tenants[tenant_id].sfc_digest,
        )
        if step.benefit < min_benefit:
            skipped.append((step, "low-yield"))
            continue
        candidates.append(step)

    ordered: list[MigrationStep] = []
    pending = sorted(
        candidates, key=lambda s: (-s.benefit, s.tenant_id)
    )
    while pending:
        if max_moves is not None and len(ordered) >= max_moves:
            skipped.extend((step, "move-cap") for step in pending)
            break
        placed = None
        for idx, step in enumerate(pending):
            if _transient_fits(usage, model, step, constraints):
                placed = idx
                break
        if placed is None:
            skipped.extend((step, "no-headroom") for step in pending)
            break
        step = pending.pop(placed)
        usage.release(step.current)
        usage.charge(step.target)
        ordered.append(step)
    return MigrationPlan(
        steps=tuple(ordered),
        skipped=tuple(skipped),
        notes=solution.notes,
    )


__all__ = [
    "MigrationPlan",
    "MigrationStep",
    "build_plan",
]
