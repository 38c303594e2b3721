"""Tests for MachineConfig and friends (Table I / Table II encoding)."""

import dataclasses

import pytest

from repro.common.config import (
    AttackModel,
    CacheConfig,
    MachineConfig,
    MemLevel,
    PredictorKind,
    ProtectionConfig,
    ProtectionKind,
)


class TestMemLevel:
    def test_ordering_matches_hierarchy_depth(self):
        assert MemLevel.L1 < MemLevel.L2 < MemLevel.L3 < MemLevel.DRAM

    def test_pretty_names(self):
        assert [level.pretty for level in MemLevel] == ["L1", "L2", "L3", "DRAM"]

    def test_accuracy_semantics(self):
        # Data at L1 with prediction L2: accurate (i <= j) but imprecise.
        actual, predicted = MemLevel.L1, MemLevel.L2
        assert actual <= predicted
        assert actual != predicted


class TestCacheConfig:
    def test_table1_l1d_geometry(self):
        config = MachineConfig().l1d
        assert config.size == 32 * 1024
        assert config.line_size == 64
        assert config.assoc == 8
        assert config.latency == 2
        assert config.num_sets == 64

    def test_table1_l2_and_l3(self):
        machine = MachineConfig()
        assert machine.l2.size == 256 * 1024
        assert machine.l2.latency == 12
        assert machine.l3.size == 2 * 1024 * 1024
        assert machine.l3.latency == 40
        assert machine.l3.slices == 8

    def test_rejects_non_divisible_size(self):
        with pytest.raises(ValueError, match="not divisible"):
            CacheConfig("bad", size=1000, line_size=64, assoc=8, latency=1)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError, match="power of two"):
            CacheConfig("bad", size=3 * 64 * 8, line_size=64, assoc=8, latency=1)


class TestProtectionConfig:
    def test_sdo_requires_predictor(self):
        with pytest.raises(ValueError, match="predictor"):
            ProtectionConfig(kind=ProtectionKind.STT_SDO)

    def test_non_sdo_rejects_predictor(self):
        with pytest.raises(ValueError):
            ProtectionConfig(kind=ProtectionKind.STT, predictor=PredictorKind.HYBRID)

    @pytest.mark.parametrize(
        "kind,predictor,fp,label",
        [
            (ProtectionKind.UNSAFE, None, False, "Unsafe"),
            (ProtectionKind.STT, None, False, "STT{ld}"),
            (ProtectionKind.STT, None, True, "STT{ld+fp}"),
            (ProtectionKind.STT_SDO, PredictorKind.STATIC_L2, True, "Static L2"),
            (ProtectionKind.STT_SDO, PredictorKind.HYBRID, True, "Hybrid"),
            (ProtectionKind.STT_SDO, PredictorKind.PERFECT, True, "Perfect"),
        ],
    )
    def test_labels_match_table2(self, kind, predictor, fp, label):
        config = ProtectionConfig(kind=kind, predictor=predictor, fp_transmitters=fp)
        assert config.label == label


class TestMachineConfig:
    def test_level_latencies_accumulate(self):
        machine = MachineConfig()
        assert machine.level_latency(MemLevel.L1) == 2
        assert machine.level_latency(MemLevel.L2) == 2 + 12
        assert machine.level_latency(MemLevel.L3) == 2 + 12 + 40
        assert machine.level_latency(MemLevel.DRAM) == 2 + 12 + 40 + 100

    def test_with_protection_is_pure(self):
        machine = MachineConfig()
        secured = machine.with_protection(
            ProtectionConfig(kind=ProtectionKind.STT, attack_model=AttackModel.FUTURISTIC)
        )
        assert machine.protection.kind is ProtectionKind.UNSAFE
        assert secured.protection.kind is ProtectionKind.STT
        assert secured.l1d == machine.l1d

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            MachineConfig().mesh_hop_latency = 5

    def test_table1_pipeline_row(self):
        core = MachineConfig().core
        assert core.fetch_width == 8
        assert core.rob_entries == 192
        assert core.lq_entries == 32
        assert core.sq_entries == 32
