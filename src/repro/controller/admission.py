"""Admission control: cheap necessary-condition checks run *before* the
placement solver.

The controller screens every tenant request against the live
:class:`~repro.core.state.PipelineState` so that obviously infeasible chains
are rejected in O(S) without burning a solver attempt: chains longer than
the unrolled pipeline, NF types outside the provider catalog, aggregate
backplane demand beyond Equation (12)'s capacity, and rule totals beyond the
residual SRAM.  Passing admission does **not** guarantee a placement exists
(the checks are necessary, not sufficient — fragmentation can still defeat
the solver); failing it guarantees one does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.spec import SFC
from repro.core.state import PipelineState
from repro.units import units_to_gbps

#: Reason codes an :class:`AdmissionDecision` (or the controller itself) can
#: carry; the metrics layer mirrors them as ``rejected.<reason>`` counters.
REASONS = (
    "duplicate-tenant",
    "capacity-tenants",
    "chain-too-long",
    "unknown-nf-type",
    "memory-exhausted",
    "backplane-exhausted",
    "no-feasible-placement",
    "dataplane-rejected",
)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs for the admission screen.

    ``max_tenants`` caps concurrently admitted tenants (``None`` = unlimited);
    the boolean flags allow switching individual checks off for experiments
    that want the solver to see every candidate (e.g. the fig. 11 replay,
    which reproduces the original greedy admission exactly).
    """

    max_tenants: int | None = None
    check_memory: bool = True
    check_backplane: bool = True


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of the admission screen: admitted or a coded rejection."""

    admitted: bool
    reason: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.admitted


ADMIT = AdmissionDecision(admitted=True)


def check_admission(
    sfc: SFC,
    state: PipelineState,
    policy: AdmissionPolicy | None = None,
    live_tenants: int = 0,
) -> AdmissionDecision:
    """Screen one SFC request against the live resource state.

    Checks, in order: tenant-count cap, chain-order feasibility (J <= K),
    catalog membership of every NF type, backplane budget (Eq. 12 with the
    chain's minimum pass count), and residual stage memory (total rules vs.
    free blocks plus the slack in already part-filled blocks of the chain's
    own types).  Returns the first failure, or an admitted decision.
    """
    policy = policy or AdmissionPolicy()
    instance = state.instance
    switch = state.switch

    if policy.max_tenants is not None and live_tenants >= policy.max_tenants:
        return AdmissionDecision(
            admitted=False,
            reason="capacity-tenants",
            detail=f"{live_tenants} live tenants >= cap {policy.max_tenants}",
        )

    K = instance.virtual_stages
    if sfc.length > K:
        return AdmissionDecision(
            admitted=False,
            reason="chain-too-long",
            detail=f"chain length {sfc.length} > K={K} virtual stages",
        )

    bad = [t for t in sfc.nf_types if not 1 <= t <= instance.num_types]
    if bad:
        return AdmissionDecision(
            admitted=False,
            reason="unknown-nf-type",
            detail=f"type ids {bad} outside catalog [1, {instance.num_types}]",
        )

    if policy.check_backplane:
        # A chain of J NFs needs at least ceil(J / S) passes, each carrying
        # the tenant's full bandwidth across the backplane (Eq. 12 LHS).
        min_passes = -(-sfc.length // switch.stages)
        demand = min_passes * sfc.bandwidth_units
        residual = switch.capacity_units - state.backplane_units
        if demand > residual:
            return AdmissionDecision(
                admitted=False,
                reason="backplane-exhausted",
                detail=(
                    f"needs >= {units_to_gbps(demand):.1f} Gbps backplane "
                    f"({min_passes} passes x {sfc.bandwidth_gbps:.1f} Gbps), "
                    f"residual {units_to_gbps(residual):.1f} Gbps"
                ),
            )

    if policy.check_memory:
        # Optimistic capacity: whole free blocks everywhere, plus the slack
        # left in part-filled blocks already charged to this chain's own NF
        # types (consolidated accounting lets same-type rules share blocks).
        epb = switch.entries_per_block
        capacity = sum(state.free_blocks(s) for s in range(switch.stages)) * epb
        if state.consolidate:
            for i in set(t - 1 for t in sfc.nf_types):
                for s in range(switch.stages):
                    used = int(state.entries[i, s])
                    if used > 0 and used % epb:
                        capacity += epb - used % epb
        if sfc.total_rules > capacity:
            return AdmissionDecision(
                admitted=False,
                reason="memory-exhausted",
                detail=(
                    f"chain needs {sfc.total_rules} rule entries, at most "
                    f"{capacity} available across all stages"
                ),
            )

    return ADMIT
