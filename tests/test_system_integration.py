"""Integration tests: whole systems running workloads end to end."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.events import SpeculationKind
from repro.sim.config import (
    CheckpointConfig,
    InterconnectConfig,
    ProtocolKind,
    ProtocolVariant,
    RoutingPolicy,
    SystemConfig,
    WorkloadConfig,
)
from repro.system import DirectorySystem, SnoopingSystem, build_system


class TestBuilder:
    def test_builds_directory_system(self, small_config):
        assert isinstance(build_system(small_config), DirectorySystem)

    def test_builds_snooping_system(self, snooping_config):
        assert isinstance(build_system(snooping_config), SnoopingSystem)

    def test_label_defaults_describe_configuration(self, small_config):
        system = build_system(small_config)
        assert "speculative" in system.label

    def test_custom_label(self, small_config):
        assert build_system(small_config, label="mine").label == "mine"


class TestDirectorySystemRuns:
    def test_run_completes_all_references(self, completed_directory_run):
        system, result = completed_directory_run
        assert result.finished
        expected = (system.config.num_processors
                    * system.config.workload.references_per_processor)
        assert result.references_completed >= expected

    def test_no_recoveries_under_static_routing(self, completed_directory_run):
        _, result = completed_directory_run
        assert result.recoveries == 0
        assert result.reorder_rate_overall == 0.0

    def test_coherence_invariants_hold_at_end(self, completed_directory_run):
        system, _ = completed_directory_run
        assert system.invariant_errors() == []

    def test_checkpoints_were_taken(self, completed_directory_run):
        _, result = completed_directory_run
        assert result.checkpoints_taken > 1
        assert result.peak_log_entries > 0

    def test_network_traffic_happened(self, completed_directory_run):
        _, result = completed_directory_run
        assert result.messages_delivered > 0
        assert result.mean_message_latency > 0
        assert 0.0 < result.mean_link_utilization <= 1.0

    def test_l2_statistics_populated(self, completed_directory_run):
        _, result = completed_directory_run
        assert result.l2_misses > 0
        assert 0.0 < result.l2_miss_rate <= 1.0

    def test_same_seed_reproduces_runtime(self):
        config = SystemConfig.small(num_processors=4, references=150, seed=21)
        first = build_system(config).run()
        second = build_system(SystemConfig.small(num_processors=4,
                                                 references=150, seed=21)).run()
        assert first.runtime_cycles == second.runtime_cycles
        assert first.references_completed == second.references_completed

    def test_different_seed_changes_timing(self):
        a = build_system(SystemConfig.small(num_processors=4, references=150, seed=1)).run()
        b = build_system(SystemConfig.small(num_processors=4, references=150, seed=2)).run()
        assert a.runtime_cycles != b.runtime_cycles


class TestAdaptiveSpeculativeSystem:
    def test_adaptive_run_completes_with_rare_recoveries(self, completed_adaptive_run):
        system, result = completed_adaptive_run
        assert result.finished
        # The paper's headline: mis-speculations are rare.  Allow a handful.
        assert result.recoveries <= 5
        assert system.invariant_errors() == []

    def test_reorder_rate_is_below_one_percent(self, completed_adaptive_run):
        _, result = completed_adaptive_run
        assert result.reorder_rate_overall < 0.01

    def test_recoveries_only_of_expected_kinds(self, completed_adaptive_run):
        _, result = completed_adaptive_run
        allowed = {SpeculationKind.DIRECTORY_P2P_ORDER.value,
                   SpeculationKind.INTERCONNECT_DEADLOCK.value}
        assert set(result.recoveries_by_kind) <= allowed


class TestRecoveryInjection:
    def test_injected_recoveries_slow_but_do_not_break_the_system(self):
        base_cfg = SystemConfig.small(num_processors=4, references=250, seed=13)
        baseline = build_system(base_cfg).run()
        injected_cfg = SystemConfig.small(num_processors=4, references=250, seed=13)
        system = build_system(injected_cfg)
        system.attach_recovery_injector(rate_per_second=20)
        result = system.run(max_cycles=20 * baseline.runtime_cycles)
        assert result.finished
        assert result.recoveries > 0
        assert result.runtime_cycles >= baseline.runtime_cycles
        assert system.invariant_errors() == []
        # Results are still functionally complete: every reference retired.
        assert result.references_completed >= baseline.references_completed

    def test_zero_rate_injector_is_noop(self):
        config = SystemConfig.small(num_processors=4, references=100, seed=13)
        system = build_system(config)
        system.attach_recovery_injector(rate_per_second=0)
        result = system.run()
        assert result.recoveries == 0


class TestNoVcNetworkSystem:
    def _config(self, buffer_capacity: int) -> SystemConfig:
        cfg = SystemConfig.small(num_processors=16, references=150, seed=3)
        return dataclasses.replace(
            cfg,
            interconnect=InterconnectConfig(
                routing=RoutingPolicy.STATIC,
                link_bandwidth_bytes_per_sec=800e6, link_latency_cycles=4,
                switch_buffer_capacity=buffer_capacity,
                speculative_no_vc=True, nic_injection_limit=4),
            checkpoint=CheckpointConfig(directory_interval_cycles=20_000,
                                        recovery_latency_cycles=2_000),
            workload=WorkloadConfig(name="oltp", references_per_processor=150, seed=3))

    def test_ample_buffers_incur_no_deadlock(self):
        system = build_system(self._config(32))
        result = system.run(max_cycles=4_000_000)
        assert result.finished
        assert result.recoveries_of(SpeculationKind.INTERCONNECT_DEADLOCK) == 0

    def test_tiny_buffers_deadlock_and_recover(self):
        system = build_system(self._config(4))
        result = system.run(max_cycles=4_000_000)
        # Deadlocks are detected by timeout and recovered from; the system
        # keeps making forward progress (references retire) even if it does
        # not finish inside the bounded horizon.
        assert result.recoveries_of(SpeculationKind.INTERCONNECT_DEADLOCK) > 0
        assert result.references_completed > 0
        assert system.invariant_errors() == []


class TestSnoopingSystemRuns:
    def test_run_completes(self, completed_snooping_run):
        system, result = completed_snooping_run
        assert result.finished
        assert result.references_completed >= (
            system.config.num_processors
            * system.config.workload.references_per_processor)

    def test_no_corner_case_recoveries_in_normal_runs(self, completed_snooping_run):
        _, result = completed_snooping_run
        assert result.recoveries_of(SpeculationKind.SNOOPING_CORNER_CASE) == 0

    def test_swmr_invariant(self, completed_snooping_run):
        system, _ = completed_snooping_run
        assert system.invariant_errors() == []

    def test_bus_requests_counted(self, completed_snooping_run):
        _, result = completed_snooping_run
        assert result.messages_delivered > 0

    def test_full_and_speculative_variants_perform_identically_without_races(self):
        base = SystemConfig.small(num_processors=4, references=200, seed=17).with_updates(
            protocol=ProtocolKind.SNOOPING, variant=ProtocolVariant.SPECULATIVE)
        spec = build_system(base).run()
        full = build_system(base.with_updates(variant=ProtocolVariant.FULL)).run()
        assert spec.recoveries == 0
        assert spec.runtime_cycles == full.runtime_cycles


class TestRunResult:
    def test_normalized_to_and_summary(self, completed_directory_run):
        _, result = completed_directory_run
        assert result.normalized_to(result) == pytest.approx(1.0)
        line = result.summary_line()
        assert result.workload in line
        assert "runtime" in line

    def test_normalization_rejects_mismatched_workloads(self, completed_directory_run):
        _, result = completed_directory_run
        import copy
        other = copy.copy(result)
        other.workload = "different"
        from repro.analysis.metrics import normalized_performance
        with pytest.raises(ValueError):
            normalized_performance(result, other)
