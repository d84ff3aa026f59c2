"""Coverage gap: drain/undrain while cross-switch *stitched* tenants are
active.  Draining a switch that hosts stitch segments must re-home or
evict every affected tenant, release link loads, and leave the fabric
bit-identity invariant intact; undraining must return the switch to
service for new stitched admits."""

import pytest

from repro.fabric import FabricOrchestrator, FabricTopology

from .conftest import chain

#: A 6-NF chain cannot single-home on the short 2-stage pipeline
#: (K = 2 * (1+1) = 4 virtual stages), so admits must stitch.
LONG = dict(nf_types=(1, 2, 3, 4, 5, 6), rules=(2, 2, 2, 2, 2, 2))


@pytest.fixture
def stitched_fabric(short_spec):
    """A 3-switch mesh pre-loaded with stitched tenants, plus the map of
    tenant -> switches for those that span two switches."""
    topo = FabricTopology.full_mesh(3, spec=short_spec, max_recirculations=1)
    fabric = FabricOrchestrator(topo, num_types=6, with_dataplane=False)
    stitched = {}
    for tenant in range(1, 9):
        result = fabric.admit(chain(tenant, **LONG))
        if result.ok and result.stitched:
            stitched[tenant] = tuple(result.switches)
    assert stitched, "the short pipeline was expected to force stitching"
    assert fabric.check_invariant() == []
    return fabric, stitched


def test_drain_rehomes_or_evicts_stitched_tenants(stitched_fabric):
    fabric, stitched = stitched_fabric
    victim = stitched[min(stitched)][0]
    affected = {t for t, switches in stitched.items() if victim in switches}
    assert affected

    report = fabric.drain(victim)
    assert report.switch == victim
    # Every tenant that had a segment on the victim was handled, one way
    # or the other — none may silently keep state on a drained switch.
    assert affected <= set(report.rehomed) | set(report.evicted)
    assert fabric.shards[victim].tenants == {}
    assert victim not in fabric.active_switches
    # The paper-critical audit: placement state, backplane accounting and
    # link loads all recompute bit-identically after the drain.
    assert fabric.check_invariant() == []

    # Survivors only reference active switches.
    for tenant, record in sorted(fabric.tenants.items()):
        assert victim not in record.switches, f"tenant {tenant}"


def test_undrain_returns_the_switch_to_stitching_service(stitched_fabric):
    fabric, stitched = stitched_fabric
    victim = stitched[min(stitched)][0]
    fabric.drain(victim)
    assert fabric.check_invariant() == []

    fabric.undrain(victim)
    assert victim in fabric.active_switches
    assert fabric.check_invariant() == []

    # New long chains admit again, and the fabric may stitch through the
    # returned switch.
    admitted = []
    for tenant in range(100, 110):
        result = fabric.admit(chain(tenant, **LONG))
        if result.ok:
            admitted.append((tenant, tuple(result.switches)))
    assert admitted
    assert any(victim in switches for _t, switches in admitted)
    assert fabric.check_invariant() == []


def test_rolling_drain_under_stitched_load_keeps_the_invariant(short_spec):
    topo = FabricTopology.full_mesh(4, spec=short_spec, max_recirculations=1)
    fabric = FabricOrchestrator(topo, num_types=6, with_dataplane=False)
    for tenant in range(1, 10):
        fabric.admit(chain(tenant, **LONG))
    assert any(record.stitched for record in fabric.tenants.values())
    # Serially drain and undrain every switch — the rolling-upgrade drill
    # — auditing the fabric after each administrative step.
    for name in list(fabric.topology.switch_names):
        report = fabric.drain(name)
        assert report.switch == name
        assert fabric.shards[name].tenants == {}
        assert fabric.check_invariant() == [], f"after drain {name}"
        fabric.undrain(name)
        assert fabric.check_invariant() == [], f"after undrain {name}"
    assert fabric.tenants, "rolling drain evicted every tenant"
