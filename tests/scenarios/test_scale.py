"""Scale-mode correctness: the columnar :class:`ScaleFabric` must make
*identical* admit/spillover decisions to a real fabric configured to the
matching accounting mode, audit its own aggregates, and stay exact under
eviction churn and tenant-column growth."""

import numpy as np
import pytest

from repro.controller.admission import AdmissionPolicy
from repro.core.spec import SwitchSpec
from repro.errors import ScenarioError
from repro.fabric import FabricOrchestrator, ModuloPartitioner
from repro.fabric.topology import FabricTopology, SwitchNode
from repro.rng import make_rng
from repro.scenarios.scale import ScaleFabric, run_fill, synthesize_fill
from tests.scenarios.conftest import TINY_SWITCH, TINY_WORKLOAD


def make_scale(num_switches=3, **kwargs):
    kwargs.setdefault("switch", TINY_SWITCH)
    kwargs.setdefault("max_recirculations", 1)
    kwargs.setdefault("num_types", TINY_WORKLOAD.num_types)
    return ScaleFabric(num_switches, **kwargs)


def make_real_twin(scale: ScaleFabric) -> FabricOrchestrator:
    """The real fabric the scale model claims to mirror: no links (so the
    stitch path never fires), modulo routing, raw greedy accounting."""
    topology = FabricTopology(
        nodes=[
            SwitchNode(
                name, spec=scale.switch,
                max_recirculations=scale.max_recirculations,
            )
            for name in scale.switch_names
        ],
        links=(),
    )
    return FabricOrchestrator(
        topology,
        num_types=scale.num_types,
        partitioner=ModuloPartitioner(),
        with_dataplane=False,
        policy=AdmissionPolicy(check_memory=False, check_backplane=False),
        consolidate=False,
        reserve_physical_block=False,
    )


class TestSynthesizeFill:
    def test_shapes_and_ranges(self):
        arrays = synthesize_fill(TINY_WORKLOAD, 500, rng=7)
        assert arrays.num_tenants == 500
        lo = TINY_WORKLOAD.avg_chain_length - TINY_WORKLOAD.chain_length_spread
        hi = TINY_WORKLOAD.avg_chain_length + TINY_WORKLOAD.chain_length_spread
        assert arrays.lengths.min() >= lo and arrays.lengths.max() <= hi
        assert arrays.rules.min() >= TINY_WORKLOAD.rules_min
        assert arrays.rules.max() <= TINY_WORKLOAD.rules_max
        assert arrays.bandwidths.max() <= TINY_WORKLOAD.max_bandwidth_gbps

    def test_types_are_sampled_without_replacement(self):
        arrays = synthesize_fill(TINY_WORKLOAD, 200, rng=7)
        for i in range(arrays.num_tenants):
            row = arrays.types[i, : int(arrays.lengths[i])]
            assert len(set(row.tolist())) == len(row)
            assert row.min() >= 1 and row.max() <= TINY_WORKLOAD.num_types

    def test_same_seed_same_arrays(self):
        a = synthesize_fill(TINY_WORKLOAD, 100, rng=11)
        b = synthesize_fill(TINY_WORKLOAD, 100, rng=11)
        assert np.array_equal(a.lengths, b.lengths)
        assert np.array_equal(a.types, b.types)
        assert np.array_equal(a.rules, b.rules)
        assert np.array_equal(a.bandwidths, b.bandwidths)

    def test_sfc_materializer_matches_the_row(self):
        arrays = synthesize_fill(TINY_WORKLOAD, 10, rng=3)
        sfc = arrays.sfc(4)
        assert sfc.tenant_id == 4
        assert len(sfc.nf_types) == int(arrays.lengths[4])
        assert sfc.bandwidth_gbps == float(arrays.bandwidths[4])


class TestScaleFabricUnit:
    def test_admit_then_evict_restores_the_fabric_exactly(self):
        fabric = make_scale()
        before_free = fabric.stage_free.copy()
        ok, rank, reason = fabric.admit(5, [1, 2, 3], [2, 2, 2], 1.5)
        assert ok and reason is None
        assert fabric.live_tenants == 1
        assert not np.array_equal(before_free, fabric.stage_free)
        assert fabric.evict(5)
        assert np.array_equal(before_free, fabric.stage_free)
        assert fabric.used_units.sum() == 0
        assert fabric.live_tenants == 0

    def test_duplicate_and_malformed_admits_are_rejected(self):
        fabric = make_scale()
        assert fabric.admit(1, [1, 2], [1, 1], 1.0)[0]
        ok, _rank, reason = fabric.admit(1, [1, 2], [1, 1], 1.0)
        assert not ok and reason == "duplicate-tenant"
        too_long = list(range(1, fabric.K + 2))
        ok, _rank, reason = fabric.admit(2, [1] * (fabric.K + 1), [1] * (fabric.K + 1), 1.0)
        assert not ok and reason == "chain-too-long"
        assert len(too_long) > fabric.K
        ok, _rank, reason = fabric.admit(3, [1, 99], [1, 1], 1.0)
        assert not ok and reason == "unknown-nf-type"

    def test_evict_of_unknown_tenant_is_a_noop(self):
        fabric = make_scale()
        assert not fabric.evict(12345)
        assert fabric.check() == []

    def test_modulo_routing_starts_at_tenant_mod_n(self):
        fabric = make_scale(num_switches=3)
        for tenant in range(3):
            ok, rank, _ = fabric.admit(tenant, [1], [1], 0.5)
            assert ok and rank == 0
            assert int(fabric._t_switch[tenant]) == tenant % 3

    def test_tenant_columns_grow_on_demand(self):
        fabric = make_scale(capacity_hint=16)
        ok, _rank, _reason = fabric.admit(50_000, [1, 2], [1, 1], 1.0)
        assert ok
        assert fabric.live_tenants == 1
        assert len(fabric._t_switch) > 50_000
        assert fabric.check() == []

    def test_check_catches_drifted_aggregates(self):
        fabric = make_scale()
        assert fabric.admit(0, [1, 2, 3], [2, 2, 2], 1.0)[0]
        assert fabric.check() == []
        fabric.stage_free[0, 0] += 1
        problems = fabric.check()
        assert problems and "free-block" in problems[0]
        fabric.stage_free[0, 0] -= 1
        fabric.used_units[0] += 1  # one unit (1 kbps) of drift is caught
        assert any("backplane" in p for p in fabric.check())
        fabric.used_units[0] -= 1
        fabric.live_tenants += 1
        assert any("live counter" in p for p in fabric.check())

    def test_rejections_roll_back_cleanly(self):
        fabric = make_scale(num_switches=1)
        granted = 0
        for tenant in range(200):
            if fabric.admit(tenant, [1, 2, 3], [4, 4, 4], 3.5)[0]:
                granted += 1
        assert 0 < granted < 200  # the tight switch must saturate
        assert fabric.check() == []
        assert (fabric.stage_free >= 0).all()

    def test_summary_shape(self):
        fabric = make_scale()
        fabric.admit(0, [1], [1], 1.0)
        summary = fabric.summary()
        assert summary["live_tenants"] == 1
        assert len(summary["backplane_gbps"]) == 3
        assert len(summary["free_blocks"]) == 3


class TestDecisionIdentity:
    @pytest.mark.parametrize("num_switches", [1, 3, 4])
    def test_scale_matches_real_fabric_admit_for_admit(self, num_switches):
        arrays = synthesize_fill(TINY_WORKLOAD, 250, rng=20260807)
        scale = make_scale(num_switches=num_switches)
        real = make_real_twin(scale)
        for i in range(arrays.num_tenants):
            j = int(arrays.lengths[i])
            ok_s, rank_s, _ = scale.admit(
                i, arrays.types[i, :j], arrays.rules[i, :j],
                float(arrays.bandwidths[i]),
            )
            result = real.admit(arrays.sfc(i))
            assert ok_s == result.ok, f"tenant {i} decision diverged"
            if ok_s:
                assert rank_s == result.spillover, f"tenant {i} rank diverged"
        assert scale.live_tenants == len(real.tenants)
        assert scale.check() == []
        assert real.check_invariant() == []

    def test_per_switch_backplane_matches_exactly(self):
        arrays = synthesize_fill(TINY_WORKLOAD, 200, rng=99)
        scale = make_scale()
        real = make_real_twin(scale)
        for i in range(arrays.num_tenants):
            j = int(arrays.lengths[i])
            scale.admit(
                i, arrays.types[i, :j], arrays.rules[i, :j],
                float(arrays.bandwidths[i]),
            )
            real.admit(arrays.sfc(i))
        for idx, name in enumerate(scale.switch_names):
            # Lognormal, off-grid bandwidths: both sides sum whole units,
            # so the totals agree exactly, not approximately.
            assert int(scale.used_units[idx]) == (
                real.shards[name].state.backplane_units
            )

    def test_interleaved_evictions_stay_identical(self):
        arrays = synthesize_fill(TINY_WORKLOAD, 150, rng=41)
        scale = make_scale()
        real = make_real_twin(scale)
        rng = make_rng(5)
        live: list[int] = []
        for i in range(arrays.num_tenants):
            j = int(arrays.lengths[i])
            ok_s, rank_s, _ = scale.admit(
                i, arrays.types[i, :j], arrays.rules[i, :j],
                float(arrays.bandwidths[i]),
            )
            result = real.admit(arrays.sfc(i))
            assert ok_s == result.ok
            if ok_s:
                assert rank_s == result.spillover
                live.append(i)
            if ok_s and len(live) > 3 and rng.random() < 0.4:
                victim = live.pop(int(rng.integers(0, len(live))))
                assert scale.evict(victim)
                assert real.evict(victim).ok
        assert scale.live_tenants == len(real.tenants)
        assert scale.check() == []
        assert real.check_invariant() == []


class TestRunFill:
    def test_counters_are_consistent(self):
        fabric = make_scale()
        arrays = synthesize_fill(TINY_WORKLOAD, 400, rng=13)
        report = run_fill(fabric, arrays, rng=13)
        assert report.offered == 400
        assert report.admitted + report.rejected == report.offered
        assert report.evicted == 0
        assert report.admitted == fabric.live_tenants
        assert len(report.latencies_s) == report.admitted
        assert report.check_problems == []
        assert 0.0 < report.admission_rate <= 1.0

    def test_churn_keeps_the_audit_clean(self):
        fabric = make_scale()
        arrays = synthesize_fill(TINY_WORKLOAD, 400, rng=17)
        report = run_fill(fabric, arrays, churn_fraction=0.5, rng=17)
        assert report.evicted > 0
        assert fabric.live_tenants == report.admitted - report.evicted
        assert report.check_problems == []

    def test_churn_fraction_is_validated(self):
        fabric = make_scale()
        arrays = synthesize_fill(TINY_WORKLOAD, 10, rng=1)
        with pytest.raises(ScenarioError):
            run_fill(fabric, arrays, churn_fraction=1.5)

    def test_tight_switch_spec_saturates(self):
        spec = SwitchSpec(
            stages=2, blocks_per_stage=2, block_bits=6400, rule_bits=64,
            capacity_gbps=5.0,
        )
        fabric = make_scale(num_switches=2, switch=spec)
        arrays = synthesize_fill(TINY_WORKLOAD, 300, rng=23)
        report = run_fill(fabric, arrays, rng=23)
        assert report.rejected > 0
        assert report.check_problems == []
