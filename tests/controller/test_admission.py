"""Admission-control screens: every reason code fires on the scenario it
guards, and the screen never rejects a placeable chain by mistake."""

import pytest

from repro.controller.admission import AdmissionPolicy, check_admission
from repro.core.state import PipelineState
from repro.units import gbps_to_units

from tests.controller.conftest import chain


@pytest.fixture
def state(tiny_instance) -> PipelineState:
    return PipelineState(tiny_instance)


def test_admits_a_small_chain(state):
    decision = check_admission(chain(1), state)
    assert decision.admitted
    assert bool(decision)
    assert decision.reason is None


def test_tenant_cap(state):
    policy = AdmissionPolicy(max_tenants=2)
    decision = check_admission(chain(1), state, policy, live_tenants=2)
    assert not decision
    assert decision.reason == "capacity-tenants"
    assert check_admission(chain(1), state, policy, live_tenants=1).admitted


def test_chain_too_long(state):
    # K = 3 stages * (2 + 1) = 9 virtual stages; a 10-NF chain cannot keep
    # strictly increasing stages.  Types repeat to keep the spec valid.
    sfc = chain(1, nf_types=(1, 2, 3) * 3 + (1,), rules=(1,) * 10)
    decision = check_admission(sfc, state)
    assert decision.reason == "chain-too-long"


def test_unknown_nf_type(state):
    sfc = chain(1, nf_types=(1, 9), rules=(5, 5))
    decision = check_admission(sfc, state)
    assert decision.reason == "unknown-nf-type"
    assert "9" in decision.detail


def test_backplane_exhausted(state):
    state.add_backplane(gbps_to_units(99.5))
    decision = check_admission(chain(1, bandwidth_gbps=1.0), state)
    assert decision.reason == "backplane-exhausted"
    # Disabling the check lets it through (the solver would still fail).
    relaxed = AdmissionPolicy(check_backplane=False)
    assert check_admission(chain(1, bandwidth_gbps=1.0), state, relaxed).admitted


def test_backplane_counts_minimum_passes(state):
    # A 4-NF chain on a 3-stage switch needs >= 2 passes, so 2x bandwidth.
    state.add_backplane(gbps_to_units(100.0 - 45.0))
    one_pass = chain(1, nf_types=(1, 2, 3), rules=(1, 1, 1), bandwidth_gbps=40.0)
    two_pass = chain(2, nf_types=(1, 2, 3, 1), rules=(1, 1, 1, 1), bandwidth_gbps=40.0)
    assert check_admission(one_pass, state).admitted
    assert check_admission(two_pass, state).reason == "backplane-exhausted"


def test_memory_exhausted(state):
    # 12 blocks x 100 entries = 1200 entries total; ask for more.
    sfc = chain(1, nf_types=(1, 2, 3), rules=(500, 500, 500))
    decision = check_admission(sfc, state)
    assert decision.reason == "memory-exhausted"
    relaxed = AdmissionPolicy(check_memory=False)
    assert check_admission(sfc, state, relaxed).admitted


def test_memory_counts_partial_block_slack(state):
    # Fill stage memory so only the slack inside type-1's part-filled block
    # remains: stages 1-2 fully packed by type 2, stage 0 holds 3 full
    # type-2 blocks plus 40 entries of type 1 (60 entries of slack).
    state.add_logical_nf(1, 1, 400)
    state.add_logical_nf(1, 2, 400)
    state.add_logical_nf(1, 0, 300)
    state.add_logical_nf(0, 0, 40)
    assert all(state.free_blocks(s) == 0 for s in range(3))
    fits_slack = chain(1, nf_types=(1,), rules=(60,))
    too_big = chain(2, nf_types=(1,), rules=(61,))
    assert check_admission(fits_slack, state).admitted
    assert check_admission(too_big, state).reason == "memory-exhausted"
