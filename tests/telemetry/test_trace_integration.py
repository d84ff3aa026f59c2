"""End-to-end telemetry acceptance: one traced fabric admit yields one
connected span tree down to the runtime writes; a traced probe packet on a
recirculating chain yields a postcard with hops in every pass; the flight
recorder snaps automatically on invariant and drain failures."""

import pytest

from repro.core.spec import SFC
from repro.dataplane.packet import Packet
from repro.fabric.orchestrator import FabricOrchestrator
from repro.fabric.topology import FabricTopology
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.spans import Tracer


def chain(tenant_id: int, length: int = 3, bandwidth_gbps: float = 1.0) -> SFC:
    return SFC(
        name=f"tenant-{tenant_id}",
        nf_types=tuple((j % 3) + 1 for j in range(length)),
        rules=(2,) * length,
        bandwidth_gbps=bandwidth_gbps,
        tenant_id=tenant_id,
    )


@pytest.fixture
def traced_fabric():
    tracer = Tracer()
    fabric = FabricOrchestrator(
        FabricTopology.full_mesh(2), num_types=3, tracer=tracer
    )
    return fabric, tracer


def test_one_admit_yields_one_connected_span_tree(traced_fabric):
    fabric, tracer = traced_fabric
    result = fabric.admit(chain(1))
    assert result.ok

    roots = tracer.roots()
    assert len(roots) == 1 and roots[0].name == "fabric.admit"
    assert len({s.trace_id for s in tracer.finished}) == 1

    # Walk the causal chain: fabric -> controller -> install -> runtime.
    [controller_admit] = [
        s for s in tracer.children(roots[0]) if s.name == "controller.admit"
    ]
    kid_names = [s.name for s in tracer.children(controller_admit)]
    assert kid_names == [
        "controller.admission", "controller.placement", "install.install",
    ]
    [install] = [
        s for s in tracer.children(controller_admit)
        if s.name == "install.install"
    ]
    writes = tracer.children(install)
    assert [s.name for s in writes] == ["runtime.write", "runtime.write"]
    # Phase 1 writes the chain's rules, phase 2 the single map entry.
    assert writes[0].attrs["ops"] == 3
    assert writes[1].attrs["ops"] == 1
    assert all(s.status == "ok" for s in tracer.finished)
    # Every span's interval nests inside its parent's.
    by_id = {s.span_id: s for s in tracer.finished}
    for span in tracer.finished:
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert parent.start_ns <= span.start_ns
            assert span.end_ns <= parent.end_ns


def test_traced_probe_packet_has_hops_in_every_recirculation_pass(traced_fabric):
    fabric, _tracer = traced_fabric
    # Longer than the 8-stage pipeline => the fold recirculates.
    result = fabric.admit(chain(1, length=10))
    assert result.ok
    shard = fabric.shards[result.switches[0]]
    probe = shard.pipeline.process(Packet(tenant_id=1, pass_id=1), trace=True)
    card = probe.postcard
    assert card is not None
    assert probe.passes > 1
    assert card.passes == probe.passes
    for pass_id in range(1, probe.passes + 1):
        assert len(card.hops_for_pass(pass_id)) >= 1
    # The legacy trace flag is a thin wrapper over the same card.
    assert probe.trace == card.trace_rows()


def test_rejections_and_ops_are_spanned_and_timed(traced_fabric):
    fabric, tracer = traced_fabric
    assert fabric.admit(chain(1)).ok
    duplicate = fabric.admit(chain(1))
    assert not duplicate.ok
    [rejected] = [
        s for s in tracer.finished
        if s.name == "fabric.admit" and s.attrs.get("ok") is False
    ]
    assert rejected.status == "ok"  # a rejection is a result, not a crash
    assert fabric.evict(1).ok
    hists = fabric.metrics.snapshot()["histograms"]
    assert hists["op_latency_s.admit"]["count"] == 2
    assert hists["op_latency_s.evict"]["count"] == 1


def test_recorder_collects_state_transitions_by_default():
    fabric = FabricOrchestrator(FabricTopology.full_mesh(2), num_types=3)
    fabric.admit(chain(1))
    fabric.evict(1)
    states = [
        e["data"]["event"] for e in fabric.recorder.events
        if e["kind"] == "state"
    ]
    assert "controller.admit" in states
    assert "fabric.admit" in states
    assert "fabric.evict" in states


def test_invariant_violation_snaps_the_flight_recorder():
    fabric = FabricOrchestrator(FabricTopology.full_mesh(2), num_types=3)
    fabric.admit(chain(1))
    assert fabric.check_invariant() == []
    assert fabric.recorder.dumps_snapped == 0
    fabric.shards["sw0"].state.backplane_units += 1  # induce drift
    fabric.shards["sw1"].state.backplane_units += 1
    problems = fabric.check_invariant()
    assert problems
    assert fabric.recorder.dumps_snapped == 1
    [dump] = fabric.recorder.dumps
    assert dump["reason"] == "fabric-invariant-violated"
    assert dump["context"]["problems"] == problems
    # The run-up (the admit that preceded the drift) is in the dump.
    events = [e["data"].get("event") for e in dump["events"]]
    assert "fabric.admit" in events


def test_drain_snap_when_tenants_cannot_be_rehomed():
    recorder = FlightRecorder()
    fabric = FabricOrchestrator(
        FabricTopology.full_mesh(2), num_types=3, recorder=recorder
    )
    assert fabric.admit(chain(1)).ok
    # Drain the empty switch first, then the tenant's home: nowhere to go.
    tenant_home = fabric.tenants[1].segments[0].switch
    other = "sw1" if tenant_home == "sw0" else "sw0"
    assert fabric.drain(other).num_evicted == 0
    assert recorder.dumps_snapped == 0
    report = fabric.drain(tenant_home)
    assert report.evicted == (1,)
    assert recorder.dumps_snapped == 1
    [dump] = recorder.dumps
    assert dump["reason"] == "drain-evicted-tenants"
    assert dump["context"] == {"switch": tenant_home, "evicted": [1]}
    assert fabric.check_invariant() == []
