"""Unit tests for the problem data model (Table I)."""

import pytest

from repro.core.spec import (
    SFC,
    NFType,
    ProblemInstance,
    SwitchSpec,
    default_nf_catalog,
)
from repro.errors import PlacementError


class TestNFType:
    def test_one_based_ids(self):
        with pytest.raises(PlacementError):
            NFType(type_id=0, name="bad")

    def test_catalog_defaults(self):
        catalog = default_nf_catalog()
        assert len(catalog) == 10
        assert [nf.type_id for nf in catalog] == list(range(1, 11))
        assert catalog[0].name == "firewall"

    def test_catalog_subset(self):
        assert len(default_nf_catalog(4)) == 4

    def test_catalog_bounds(self):
        with pytest.raises(PlacementError):
            default_nf_catalog(0)
        with pytest.raises(PlacementError):
            default_nf_catalog(11)


class TestSFC:
    def test_basic_properties(self):
        sfc = SFC(name="s", nf_types=(1, 3, 2), rules=(100, 200, 300), bandwidth_gbps=5.0)
        assert sfc.length == 3
        assert sfc.total_rules == 600
        assert sfc.weight == pytest.approx(15.0)

    def test_empty_chain_rejected(self):
        with pytest.raises(PlacementError):
            SFC(name="s", nf_types=(), rules=(), bandwidth_gbps=1.0)

    def test_mismatched_rules_rejected(self):
        with pytest.raises(PlacementError):
            SFC(name="s", nf_types=(1, 2), rules=(100,), bandwidth_gbps=1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(PlacementError):
            SFC(name="s", nf_types=(1,), rules=(10,), bandwidth_gbps=0.0)

    def test_bandwidth_converts_once_to_whole_units(self):
        sfc = SFC(name="s", nf_types=(1,), rules=(1,), bandwidth_gbps=1.23456789)
        assert sfc.bandwidth_units == 1_234_568  # 1 kbps units, rounded
        assert sfc.bandwidth_gbps == 1.234568  # the view of those units
        assert SFC.from_dict(sfc.to_dict()) == sfc
        assert SFC.from_dict(sfc.to_dict()).bandwidth_units == 1_234_568

    @pytest.mark.parametrize(
        "bandwidth", [float("nan"), float("inf"), -1.0, 1e-12, "5", True]
    )
    def test_non_finite_or_sub_unit_bandwidth_rejected(self, bandwidth):
        with pytest.raises(PlacementError):
            SFC(name="s", nf_types=(1,), rules=(10,), bandwidth_gbps=bandwidth)

    def test_non_integral_fields_rejected_not_truncated(self):
        with pytest.raises(PlacementError):
            SFC(name="s", nf_types=(1.7, 2), rules=(1, 1), bandwidth_gbps=1.0)
        with pytest.raises(PlacementError):
            SFC(name="s", nf_types=(1,), rules=(10.5,), bandwidth_gbps=1.0)
        with pytest.raises(PlacementError):
            SFC(name=["x"], nf_types=(1,), rules=(1,), bandwidth_gbps=1.0)

    def test_zero_based_type_rejected(self):
        with pytest.raises(PlacementError):
            SFC(name="s", nf_types=(0,), rules=(10,), bandwidth_gbps=1.0)

    def test_negative_rules_rejected(self):
        with pytest.raises(PlacementError):
            SFC(name="s", nf_types=(1,), rules=(-1,), bandwidth_gbps=1.0)


class TestSwitchSpec:
    def test_paper_defaults(self):
        spec = SwitchSpec()
        assert spec.stages == 8
        assert spec.blocks_per_stage == 20
        assert spec.entries_per_block == 1000
        assert spec.capacity_gbps == 400.0

    def test_entries_per_stage(self):
        assert SwitchSpec().entries_per_stage == 20_000

    def test_blocks_for_entries_is_ceil(self):
        spec = SwitchSpec()
        assert spec.blocks_for_entries(0) == 0
        assert spec.blocks_for_entries(1) == 1
        assert spec.blocks_for_entries(1000) == 1
        assert spec.blocks_for_entries(1001) == 2

    def test_blocks_for_negative_entries(self):
        with pytest.raises(PlacementError):
            SwitchSpec().blocks_for_entries(-1)

    def test_block_not_multiple_of_rule_rejected(self):
        with pytest.raises(PlacementError):
            SwitchSpec(block_bits=100, rule_bits=64)

    def test_invalid_dimensions(self):
        with pytest.raises(PlacementError):
            SwitchSpec(stages=0)
        with pytest.raises(PlacementError):
            SwitchSpec(blocks_per_stage=0)
        with pytest.raises(PlacementError):
            SwitchSpec(capacity_gbps=0)


class TestProblemInstance:
    def test_virtual_stages(self, tiny_instance):
        assert tiny_instance.virtual_stages == 6  # 3 stages * (1 + 1)

    def test_type_beyond_catalog_rejected(self, tiny_switch):
        sfc = SFC(name="s", nf_types=(9,), rules=(10,), bandwidth_gbps=1.0)
        with pytest.raises(PlacementError):
            ProblemInstance(switch=tiny_switch, sfcs=(sfc,), num_types=3)

    def test_with_sfcs_copies(self, tiny_instance):
        smaller = tiny_instance.with_sfcs(list(tiny_instance.sfcs[:1]))
        assert smaller.num_sfcs == 1
        assert tiny_instance.num_sfcs == 3
        assert smaller.switch is tiny_instance.switch

    def test_with_recirculations(self, tiny_instance):
        more = tiny_instance.with_recirculations(3)
        assert more.virtual_stages == 12
        assert tiny_instance.max_recirculations == 1

    def test_negative_recirculations_rejected(self, tiny_switch):
        with pytest.raises(PlacementError):
            ProblemInstance(switch=tiny_switch, sfcs=(), num_types=1, max_recirculations=-1)
