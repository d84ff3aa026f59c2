"""Tests for the greedy baseline (Algorithm 2)."""

import pytest

from repro.core.greedy import greedy_place, order_sfcs, sfc_metric, try_place_chain
from repro.core.ilp import solve_ilp
from repro.core.spec import SFC, ProblemInstance, SwitchSpec
from repro.core.state import PipelineState
from repro.core.verify import check_placement


def test_metric_formula():
    sfc = SFC(name="s", nf_types=(1, 2), rules=(100, 100), bandwidth_gbps=8.0)
    # T / (J * sum F) = 8 / (2 * 200)
    assert sfc_metric(sfc) == pytest.approx(8.0 / 400.0)


def test_metric_zero_rules_is_infinite():
    sfc = SFC(name="s", nf_types=(1,), rules=(0,), bandwidth_gbps=1.0)
    assert sfc_metric(sfc) == float("inf")


def test_order_prefers_high_metric(tiny_switch):
    cheap = SFC(name="cheap", nf_types=(1,), rules=(10,), bandwidth_gbps=50.0)
    heavy = SFC(name="heavy", nf_types=(1,), rules=(300,), bandwidth_gbps=1.0)
    inst = ProblemInstance(switch=tiny_switch, sfcs=(heavy, cheap), num_types=1)
    assert order_sfcs(inst) == [1, 0]


def test_greedy_places_feasible(tiny_instance):
    placement = greedy_place(tiny_instance)
    assert placement.algorithm == "greedy"
    assert check_placement(placement) == []
    assert placement.num_placed >= 1


def test_greedy_never_beats_ilp(tiny_instance):
    greedy = greedy_place(tiny_instance)
    optimal = solve_ilp(tiny_instance, backend="scipy")
    assert greedy.objective <= optimal.objective + 1e-6


def test_greedy_respects_capacity(tiny_switch):
    sfcs = tuple(
        SFC(name=f"s{i}", nf_types=(1,), rules=(10,), bandwidth_gbps=40.0)
        for i in range(5)
    )
    inst = ProblemInstance(switch=tiny_switch, sfcs=sfcs, num_types=1)
    placement = greedy_place(inst)
    assert placement.backplane_gbps <= tiny_switch.capacity_gbps
    assert placement.num_placed == 2  # 2 x 40 <= 100 < 3 x 40


def test_greedy_folds_out_of_order_chain():
    switch = SwitchSpec(
        stages=3, blocks_per_stage=1, block_bits=6400, rule_bits=64,
        capacity_gbps=100.0,
    )
    sfcs = (
        SFC(name="fwd", nf_types=(1, 2, 3), rules=(10, 10, 10), bandwidth_gbps=30.0),
        SFC(name="rev", nf_types=(3, 2, 1), rules=(10, 10, 10), bandwidth_gbps=1.0),
    )
    inst = ProblemInstance(switch=switch, sfcs=sfcs, num_types=3, max_recirculations=2)
    placement = greedy_place(inst)
    assert check_placement(placement) == []
    # The forward chain is placed first (higher metric); the reverse chain
    # must recirculate.
    assert placement.num_placed == 2
    assert placement.passes(1) >= 2


def test_try_place_chain_rolls_back_on_failure(tiny_instance):
    state = PipelineState(tiny_instance)
    impossible = SFC(
        name="huge", nf_types=(1,), rules=(10_000,), bandwidth_gbps=1.0
    )
    before = state.snapshot()
    result = try_place_chain(state, impossible, tiny_instance.virtual_stages)
    assert result is None
    assert (state.physical == before.physical).all()
    assert (state.entries == before.entries).all()
    assert state.backplane_units == before.backplane_units


def test_try_place_chain_prefers_existing_physical(tiny_instance):
    state = PipelineState(tiny_instance)
    state.install_physical(0, 2)  # type 1 at stage 2
    sfc = SFC(name="s", nf_types=(1,), rules=(10,), bandwidth_gbps=1.0)
    stages = try_place_chain(state, sfc, tiny_instance.virtual_stages)
    # Reuses the installed NF at stage 2 (virtual stage 3) instead of
    # installing a new physical NF at stage 0.
    assert stages == (3,)


def test_greedy_installs_all_types_for_constraint4(tiny_instance):
    placement = greedy_place(tiny_instance, require_all_types=True)
    assert placement.physical.any(axis=1).all()


def test_greedy_skip_set(tiny_instance):
    placement = greedy_place(tiny_instance, skip={0, 1, 2})
    assert placement.num_placed == 0


def test_greedy_solve_time_recorded(tiny_instance):
    placement = greedy_place(tiny_instance)
    assert placement.solve_seconds > 0
