"""Shared fixtures for the HA suite: a deterministic fake clock, the churn
stream the replication and failover tests replay, and the per-LSN digest
oracle an uninterrupted run journals."""

import pytest

from repro.controller import ChurnConfig, apply_event, synthesize_churn
from repro.durability import FabricDurability
from repro.traffic.workload import WorkloadConfig
from tests.durability.conftest import SWEEP_SEED, make_fabric

#: A shorter stream than the durability sweep's (every failover point
#: replays it from scratch): ~60 committed ops with arrivals, departures
#: and modifies, enough to cross several checkpoint/compaction cycles at
#: checkpoint_every=16.
HA_CHURN = ChurnConfig(
    duration_s=6.0,
    arrival_rate_per_s=10.0,
    mean_lifetime_s=4.0,
    modify_fraction=0.25,
    workload=WorkloadConfig(
        num_sfcs=0, num_types=6, avg_chain_length=3, chain_length_spread=2,
        rules_min=1, rules_max=4, mean_bandwidth_gbps=1.0,
        max_bandwidth_gbps=4.0,
    ),
)


class FakeClock:
    """An injectable clock whose ``sleep`` *is* the passage of time — lease
    expiry and failover waits run deterministically and instantly."""

    def __init__(self, now: float = 1_000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt

    def sleep(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture(scope="session")
def ha_events():
    events = synthesize_churn(HA_CHURN, SWEEP_SEED)
    assert len(events) >= 50
    return events


@pytest.fixture(scope="session")
def ha_oracle(ha_events, tmp_path_factory):
    """LSN -> post-op fabric digest for the uninterrupted run of
    ``ha_events`` (LSN 0 = the genesis digest)."""
    directory = tmp_path_factory.mktemp("ha-oracle")
    fabric = make_fabric()
    durability = FabricDurability(directory, fsync="always", checkpoint_every=0)
    durability.attach(fabric)
    digests = {0: fabric.digest()}
    for event in ha_events:
        apply_event(fabric, event)
    for record in durability.wal.records():
        digests[record.lsn] = record.data["digest"]
    durability.close()
    return digests
