"""Property: fabric accounting is exact by construction.

Random admit / evict / modify scripts with lognormal, off-grid bandwidths
(none of them a binary fraction, so float sums would depend on order) run
through a stitching fabric.  Afterwards every shard's state digest and
every link's load must equal a from-scratch rebuild that charges the
surviving tenants in a *shuffled* order — integer units make the
accumulation order irrelevant, with no re-summing pass to repair it.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.spec import SFC, SwitchSpec
from repro.core.state import LinkState, PipelineState
from repro.fabric import FabricOrchestrator, FabricTopology
from repro.traffic.distributions import lognormal_bandwidth

SPEC = SwitchSpec(
    stages=2, blocks_per_stage=8, block_bits=6400, rule_bits=64,
    capacity_gbps=12.0,
)
TENANTS = 10

ops = st.lists(
    st.tuples(
        st.sampled_from(["admit", "admit", "evict", "modify"]),
        st.integers(0, TENANTS - 1),  # tenant
        st.integers(1, 7),  # chain length (> 4 must stitch: K = 4)
    ),
    min_size=1,
    max_size=40,
)


def make_chain(tenant_id: int, length: int, gbps: float) -> SFC:
    return SFC(
        name=f"tenant-{tenant_id}",
        nf_types=tuple(1 + (tenant_id + j) % 3 for j in range(length)),
        rules=tuple(5 + (tenant_id * 7 + j) % 20 for j in range(length)),
        bandwidth_gbps=gbps,
        tenant_id=tenant_id,
    )


def rebuilt_shard_digest(shard, order: random.Random) -> str:
    """Charge the shard's surviving tenants into a fresh state in a
    shuffled order (the physical layout, which outlives evicted tenants,
    is taken as-is)."""
    state = PipelineState(
        shard.base,
        consolidate=shard.consolidate,
        reserve_physical_block=shard.reserve_physical_block,
    )
    state.physical = shard.state.physical
    S = shard.base.switch.stages
    tenants = list(shard.tenants.values())
    order.shuffle(tenants)
    for record in tenants:
        for j, k in enumerate(record.stages):
            state.add_logical_nf(
                record.sfc.nf_types[j] - 1, (k - 1) % S, record.sfc.rules[j]
            )
        state.add_backplane(record.backplane_units(S))
    return state.digest()


@given(script=ops, seed=st.integers(0, 2**32 - 1))
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_totals_equal_a_shuffled_rebuild(script, seed):
    fabric = FabricOrchestrator(
        FabricTopology.full_mesh(
            3, spec=SPEC, link_capacity_gbps=4.0, max_recirculations=1
        ),
        num_types=3,
        with_dataplane=False,
    )
    bandwidths = iter(
        lognormal_bandwidth(seed, len(script), mean_gbps=1.3, min_gbps=0.05)
    )
    for kind, tenant_id, length in script:
        gbps = float(next(bandwidths))
        if kind == "admit":
            fabric.admit(make_chain(tenant_id, length, gbps))
        elif kind == "evict":
            fabric.evict(tenant_id)
        else:
            fabric.modify(tenant_id, make_chain(tenant_id, length, gbps))

    order = random.Random(seed)
    for name, shard in fabric.shards.items():
        assert shard.state.digest() == rebuilt_shard_digest(shard, order), name
    links = {key: LinkState(link.capacity_gbps) for key, link in fabric.links.items()}
    stitched = [record for record in fabric.tenants.values() if record.links]
    order.shuffle(stitched)
    for record in stitched:
        for key in record.links:
            links[key].add_load(record.sfc.bandwidth_units)
    for key, link in fabric.links.items():
        assert link.load_units == links[key].load_units, key
        assert link.digest() == links[key].digest(), key
    assert fabric.check_invariant() == []
