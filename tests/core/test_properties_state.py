"""Property-based tests for PipelineState snapshot()/restore() round-trips.

The controller's try-then-commit pattern (and the fabric's read-only
``can_host`` probes) lean on one guarantee: whatever interleaving of
``add_backplane`` / ``release_backplane`` / ``add_logical_nf`` /
``remove_logical_nf`` happens after a snapshot, ``restore`` brings the state
back **bit-identically** — arrays, cached block charges, and the backplane
units all exact, with no aliasing between the snapshot and the live state.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.spec import ProblemInstance, SwitchSpec
from repro.core.state import PipelineState
from repro.units import gbps_to_units


@st.composite
def instances(draw):
    num_types = draw(st.integers(2, 4))
    switch = SwitchSpec(
        stages=draw(st.integers(2, 4)),
        blocks_per_stage=draw(st.integers(2, 6)),
        block_bits=6400,
        rule_bits=64,
        capacity_gbps=draw(st.sampled_from([50.0, 100.0, 200.0])),
    )
    return ProblemInstance(
        switch=switch, sfcs=(), num_types=num_types,
        max_recirculations=draw(st.integers(0, 2)),
    )


@st.composite
def op_scripts(draw):
    """A seeded interleaving of state mutations (executed with guards, so
    every drawn script is valid on every instance)."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add_nf", "remove_nf", "add_bp", "release_bp"]),
                st.integers(0, 10_000),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return ops


def apply_script(state: PipelineState, instance: ProblemInstance, ops, placed):
    """Execute a script, skipping steps the current state cannot take (the
    guards keep scripts instance-agnostic without filtering examples)."""
    for kind, raw in ops:
        if kind == "add_nf":
            i = raw % instance.num_types
            s = (raw // 7) % instance.switch.stages
            rules = 1 + raw % 130
            if state.fits(i, s, rules):
                state.add_logical_nf(i, s, rules)
                placed.append((i, s, rules))
        elif kind == "remove_nf":
            if placed:
                i, s, rules = placed.pop(raw % len(placed))
                state.remove_logical_nf(i, s, rules)
        elif kind == "add_bp":
            units = gbps_to_units(0.1 + (raw % 400) / 10.0)
            if state.backplane_units + units <= instance.switch.capacity_units:
                state.add_backplane(units)
        else:
            units = gbps_to_units((raw % 400) / 10.0)
            state.release_backplane(min(units, state.backplane_units))


def capture(state: PipelineState, instance: ProblemInstance):
    return (
        state.physical.copy(),
        state.entries.copy(),
        state.nf_blocks.copy(),
        [state.blocks_at_stage(s) for s in range(instance.switch.stages)],
        [state.free_blocks(s) for s in range(instance.switch.stages)],
        state.backplane_units,
    )


def assert_matches(state: PipelineState, instance: ProblemInstance, cap):
    physical, entries, nf_blocks, stage_blocks, free, backplane = cap
    assert np.array_equal(state.physical, physical)
    assert np.array_equal(state.entries, entries)
    assert np.array_equal(state.nf_blocks, nf_blocks)
    for s in range(instance.switch.stages):
        assert state.blocks_at_stage(s) == stage_blocks[s]
        assert state.free_blocks(s) == free[s]
    assert state.backplane_units == backplane  # exact, not approx


COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(instance=instances(), prefix=op_scripts(), suffix=op_scripts())
@settings(max_examples=200, **COMMON)
def test_snapshot_restore_roundtrip_under_interleaved_churn(
    instance, prefix, suffix
):
    state = PipelineState(instance)
    placed = []
    apply_script(state, instance, prefix, placed)

    before = capture(state, instance)
    snap = state.snapshot()
    apply_script(state, instance, suffix, list(placed))
    state.restore(snap)
    assert_matches(state, instance, before)

    # The snapshot holds copies, not views: mutating the restored state
    # does not corrupt it, so restoring twice is idempotent.
    apply_script(state, instance, suffix, list(placed))
    state.restore(snap)
    assert_matches(state, instance, before)


@given(instance=instances(), scripts=st.lists(op_scripts(), min_size=2, max_size=4))
@settings(max_examples=50, **COMMON)
def test_nested_snapshots_unwind_in_lifo_order(instance, scripts):
    state = PipelineState(instance)
    placed = []
    stack = []
    for script in scripts:
        stack.append((state.snapshot(), capture(state, instance)))
        apply_script(state, instance, script, placed)
    for snap, cap in reversed(stack):
        state.restore(snap)
        assert_matches(state, instance, cap)


@given(instance=instances(), script=op_scripts())
@settings(max_examples=100, **COMMON)
def test_interleaved_churn_never_goes_negative(instance, script):
    state = PipelineState(instance)
    apply_script(state, instance, script, [])
    assert (state.entries >= 0).all()
    assert (state.nf_blocks >= 0).all()
    assert state.backplane_gbps >= 0.0
    for s in range(instance.switch.stages):
        assert 0 <= state.blocks_at_stage(s) <= instance.switch.blocks_per_stage
