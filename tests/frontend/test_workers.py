"""ShardWorkerPool tests: concurrent-mode flag flipping, fast-path vs
escalated execution, concurrent admission correctness, and shutdown."""

import pytest

from repro.errors import FrontendError
from repro.frontend import FrontendClient, Intent, IntentQueue, ShardWorkerPool

from .conftest import chain


@pytest.fixture
def pool(fabric):
    pool = ShardWorkerPool(fabric)
    yield pool
    pool.stop(timeout=10.0)


def test_start_flips_and_stop_restores_concurrent_mode(fabric, tmp_path):
    from repro.durability.checkpoint import FabricDurability

    FabricDurability(tmp_path, fsync="off").attach(fabric)
    assert fabric.journal_digests and fabric.durability.auto_checkpoints
    pool = ShardWorkerPool(fabric)
    pool.start()
    assert not fabric.journal_digests
    assert not fabric.durability.auto_checkpoints
    with pytest.raises(FrontendError):
        pool.start()  # already running
    pool.stop(timeout=10.0)
    assert fabric.journal_digests and fabric.durability.auto_checkpoints


def test_concurrent_admits_land_on_all_shards(fabric, pool):
    pool.start()
    client = FrontendClient(pool, timeout=10.0)
    results = [client.admit(chain(t)) for t in range(40)]
    assert all(r.ok for r in results)
    assert len(fabric.tenants) == 40
    pool.stop(timeout=10.0)
    assert fabric.check_invariant() == []
    # Every shard worker executed something (hash partitioner spreads).
    snap = pool.snapshot()
    assert all(w["executed"] > 0 for w in snap["workers"].values())


def test_evict_and_modify_fast_paths(fabric, pool):
    pool.start()
    client = FrontendClient(pool, timeout=10.0)
    assert client.admit(chain(1)).ok
    assert client.modify(1, chain(1, rules=(20, 20, 20))).ok
    assert client.evict(1).ok
    pool.stop(timeout=10.0)
    assert fabric.tenants == {}
    assert fabric.check_invariant() == []


def test_decided_rejections_come_back_through_tickets(fabric, pool):
    pool.start()
    client = FrontendClient(pool, timeout=10.0)
    assert client.admit(chain(1)).ok
    dup = client.admit(chain(1))
    assert not dup.ok and dup.reason == "duplicate-tenant"
    missing = client.evict(99)
    assert not missing.ok and missing.reason == "unknown-tenant"
    gone = client.modify(99, chain(99))
    assert not gone.ok and gone.reason == "unknown-tenant"


def test_drain_escalates_and_rehomes(fabric, pool):
    pool.start()
    client = FrontendClient(pool, timeout=10.0)
    for t in range(12):
        assert client.admit(chain(t)).ok
    victim = fabric.tenants[0].switches[0]
    report = client.drain(victim)
    assert set(report.rehomed) | set(report.evicted)
    client.undrain(victim)
    pool.stop(timeout=10.0)
    assert fabric.check_invariant() == []
    assert sum(w.escalated for w in pool.workers) >= 2  # drain + undrain


def test_pool_counts_fast_vs_escalated(fabric, pool):
    pool.start()
    client = FrontendClient(pool, timeout=10.0)
    for t in range(8):
        assert client.admit(chain(t)).ok
    pool.stop(timeout=10.0)
    executed = sum(w.executed for w in pool.workers)
    escalated = sum(w.escalated for w in pool.workers)
    assert executed == 8
    # Plain admits on an empty fabric all take the single-shard fast path.
    assert escalated == 0
    snap = fabric.metrics_snapshot()
    assert snap["counters"]["frontend.intents_executed"] == 8


def test_unrouted_intents_run_on_any_worker(fabric, pool):
    """Operator intents route to None — any worker may claim them."""
    pool.start()
    ticket = pool.submit(Intent(kind="undrain", switch="sw0"))
    assert ticket.result(timeout=10.0) is None  # undrain of live switch
    pool.stop(timeout=10.0)


def test_worker_errors_propagate_not_wedge(fabric, pool):
    pool.start()
    ticket = pool.submit(Intent(kind="drain", switch="no-such-switch"))
    with pytest.raises(Exception):
        ticket.result(timeout=10.0)
    # The pool keeps serving after an execution error.
    client = FrontendClient(pool, timeout=10.0)
    assert client.admit(chain(5)).ok
    pool.stop(timeout=10.0)
    assert fabric.metrics_snapshot()["counters"]["frontend.intent_errors"] == 1


def test_stop_is_idempotent_and_leaves_a_quiesced_fabric(fabric):
    pool = ShardWorkerPool(fabric, queue=IntentQueue())
    pool.stop()  # never started: a no-op, not an error
    pool.start()
    FrontendClient(pool, timeout=10.0).admit(chain(3))
    pool.stop(timeout=10.0)
    pool.stop(timeout=10.0)  # second stop is a no-op
    # After a clean stop the fabric digests and audits like a serial one.
    assert fabric.digest()
    assert fabric.check_invariant() == []


def test_replay_drives_the_client_exactly_like_the_fabric(spec, fabric, pool):
    """The one churn driver takes any admit/evict/modify target: the same
    stream through the in-process client and straight into an identical
    fabric yields the same decisions and the same final state."""
    from repro.controller import ChurnConfig, replay, synthesize_churn
    from repro.fabric import FabricOrchestrator, FabricTopology
    from repro.traffic.workload import WorkloadConfig

    config = ChurnConfig(
        duration_s=4.0, arrival_rate_per_s=10.0, mean_lifetime_s=2.0,
        workload=WorkloadConfig(num_sfcs=0, num_types=3, avg_chain_length=2,
                                chain_length_spread=1, rules_min=1, rules_max=5),
    )
    events = synthesize_churn(config, rng=5)
    direct = FabricOrchestrator(
        FabricTopology.full_mesh(4, spec=spec), num_types=3, with_dataplane=False
    )
    expected = replay(direct, events)
    pool.start()
    served = replay(FrontendClient(pool, timeout=10.0), events)
    pool.stop(timeout=10.0)
    assert served.num_events == len(events) and served.wall_seconds > 0
    assert served.summary()["admitted"] > 10
    assert [r.ok for _e, r in served.results] == [
        r.ok for _e, r in expected.results
    ]
    assert fabric.digest() == direct.digest()
