"""Tests for the unified speculation subsystem.

Covers the pinned cache key of a Figure 4 design point, the
:class:`SpeculationManager` lifecycle (arming, coalescing, per-kind
attribution derived from its ``events`` and ``records`` lists), the shared
:class:`System` base class, and the
``speculation_matrix`` campaign experiment's determinism contract
(serial == parallel == cached, byte-identical).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaign import (
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    canonical_json,
)
from repro.core.events import MisspeculationEvent, RecoveryRecord, SpeculationKind
from repro.core.forward_progress import (
    CombinedPolicy,
    DisableAdaptiveRoutingPolicy,
    NoOpPolicy,
    SlowStartPolicy,
)
from repro.experiments import speculation_matrix
from repro.experiments.fig4_misspeculation_rate import _injection_config
from repro.interconnect.deadlock import DeadlockReport, detect_network_deadlock
from repro.safetynet.manager import SafetyNet
from repro.sim.config import (
    CheckpointConfig,
    ProtocolKind,
    ProtocolVariant,
    SystemConfig,
)
from repro.sim.engine import Simulator
from repro.speculation import (
    PeriodicInjectionSpeculation,
    Speculation,
    SpeculationManager,
)
from repro.system import DirectorySystem, SnoopingSystem, System, build_system
from repro.system.results import RunResult
from test_system_ids import MAX_CYCLES, deadlocking_config

#: Content hash of the Figure 4 jbb baseline design point under the
#: ``repro.campaign.spec/v2`` encoding.  If this pin breaks, every cached
#: campaign result silently invalidates — bump ``SPEC_SCHEMA`` when the
#: encoding changes on purpose, then re-pin.
FIG4_JBB_BASELINE_HASH = "c88359c4baa6c4472b37"


def small_config(**updates) -> SystemConfig:
    config = SystemConfig.small(num_processors=4, references=120)
    return config.with_updates(**updates) if updates else config


def make_manager():
    sim = Simulator()
    safetynet = SafetyNet(sim, CheckpointConfig(
        directory_interval_cycles=1_000, recovery_latency_cycles=100,
        register_checkpoint_latency_cycles=10), num_nodes=1, interval_cycles=1_000)
    return sim, safetynet, SpeculationManager(sim, safetynet)


def armed_kinds(system):
    """The kinds whose design registered a forward-progress policy (what
    arming a Table 1 design does; ``table1`` checks its wiring the same
    way)."""
    return {kind for kind in SpeculationKind
            if not isinstance(system.speculation.policy_for(kind), NoOpPolicy)}


class TestSpeculationConfig:
    def test_fig4_baseline_hash_is_pinned(self):
        """The Figure 4 baseline design point keeps its cache key."""
        spec = RunSpec(config=_injection_config("jbb", seed=1, references=400),
                       label="no-injection")
        assert spec.content_hash() == FIG4_JBB_BASELINE_HASH


class TestArming:
    def test_directory_speculative_arms_s1_and_watchdog(self):
        system = build_system(small_config())
        assert armed_kinds(system) == {SpeculationKind.DIRECTORY_P2P_ORDER,
                                       SpeculationKind.INTERCONNECT_DEADLOCK}
        assert all(c.p2p_detection_enabled for c in system.cache_controllers())
        assert isinstance(
            system.speculation.policy_for(SpeculationKind.DIRECTORY_P2P_ORDER),
            DisableAdaptiveRoutingPolicy)
        assert isinstance(
            system.speculation.policy_for(SpeculationKind.INTERCONNECT_DEADLOCK),
            CombinedPolicy)

    def test_directory_full_variant_arms_only_the_watchdog(self):
        system = build_system(small_config(variant=ProtocolVariant.FULL))
        assert armed_kinds(system) == {SpeculationKind.INTERCONNECT_DEADLOCK}
        assert not any(c.p2p_detection_enabled for c in system.cache_controllers())

    def test_snooping_arms_s2_and_watchdog(self):
        system = build_system(small_config(protocol=ProtocolKind.SNOOPING))
        assert armed_kinds(system) == {SpeculationKind.SNOOPING_CORNER_CASE,
                                       SpeculationKind.INTERCONNECT_DEADLOCK}
        assert isinstance(
            system.speculation.policy_for(SpeculationKind.SNOOPING_CORNER_CASE),
            SlowStartPolicy)
        assert isinstance(
            system.speculation.policy_for(SpeculationKind.INTERCONNECT_DEADLOCK),
            SlowStartPolicy)

    def test_timeouts_are_three_checkpoint_intervals(self):
        directory = build_system(small_config())
        expected = 3 * directory.config.checkpoint.directory_interval_cycles
        assert all(c.timeout_cycles == expected
                   for c in directory.cache_controllers())
        snooping = build_system(small_config(protocol=ProtocolKind.SNOOPING))
        assert all(c.timeout_cycles == 3 * snooping.checkpoint_interval_cycles()
                   for c in snooping.cache_controllers())

    def test_no_vc_flag_forces_the_section4_network(self):
        config = small_config()
        config = config.with_updates(interconnect=dataclasses.replace(
            config.interconnect, speculative_no_vc=True))
        system = build_system(config)
        assert system.network.config.speculative_no_vc
        assert system.label.endswith("no-vc")

    def test_ground_truth_scan_available_on_directory_systems(self):
        """The wait-for-graph scan, the ground truth behind the timeout
        detector, runs on a directory system's packet-switched network (a
        snooping system has none)."""
        system = build_system(small_config())
        report = detect_network_deadlock(system.network)
        assert isinstance(report, DeadlockReport)
        assert not report.deadlocked
        assert report.to_json()["deadlocked"] is False
        snooping = build_system(small_config(protocol=ProtocolKind.SNOOPING))
        assert getattr(snooping, "network", None) is None


class TestCoalescing:
    """Satellite: concurrent detections coalesce into a single rollback."""

    def _event(self, kind: SpeculationKind, at: int) -> MisspeculationEvent:
        return MisspeculationEvent(kind=kind, detected_at=at, node=0, address=0x40)

    def test_two_detections_during_rollback_produce_one_recovery(self):
        sim, safetynet, manager = make_manager()
        first = manager.report(self._event(SpeculationKind.DIRECTORY_P2P_ORDER,
                                           sim.now))
        assert isinstance(first, RecoveryRecord)
        assert sim.now < safetynet.stalled_until
        # Two more detections fire while the rollback is still in flight —
        # one of the same kind, one from the deadlock watchdog observing the
        # same broken (already rolled back) state.
        assert manager.report(self._event(SpeculationKind.DIRECTORY_P2P_ORDER,
                                          sim.now)) is None
        assert manager.report(self._event(SpeculationKind.INTERCONNECT_DEADLOCK,
                                          sim.now)) is None

        # Every detection is recorded, in order; only the first recovered.
        assert [e.kind for e in manager.events] == [
            SpeculationKind.DIRECTORY_P2P_ORDER,
            SpeculationKind.DIRECTORY_P2P_ORDER,
            SpeculationKind.INTERCONNECT_DEADLOCK]
        assert manager.records == [first]
        # Per-kind attribution: the recovery belongs to the first detection's
        # kind; the coalesced kinds are counted as detections only.
        assert manager.stats.counters() == {
            "speculation.detected.directory-p2p-order": 2,
            "speculation.detected.interconnect-deadlock": 1,
            "speculation.coalesced": 2,
        }
        assert safetynet.stats.counters("safetynet.recoveries") == {
            "safetynet.recoveries": 1,
            "safetynet.recoveries.directory-p2p-order": 1,
        }


class TestInjectorSpeculation:
    def test_attach_point_is_uniform_across_systems(self):
        for config in (small_config(),
                       small_config(protocol=ProtocolKind.SNOOPING)):
            system = build_system(config)
            # Period = cycles_per_second / rate = 2,500 cycles: short enough
            # to fire inside even the quick snooping run (~12k cycles).
            injector = system.attach_recovery_injector(rate_per_second=400)
            assert isinstance(injector, PeriodicInjectionSpeculation)
            assert isinstance(injector, Speculation)
            assert system.injector is injector
            assert injector.manager is system.speculation
            result = system.run()
            assert injector.injections > 0
            assert injector.injections == result.detections
            assert result.recoveries_by_kind.get("injected") == result.recoveries

    def test_injection_recoveries_attributed_per_kind(self):
        system = build_system(small_config())
        system.attach_recovery_injector(rate_per_second=50)
        result = system.run()
        assert result.recoveries > 0
        assert result.recoveries_of(SpeculationKind.INJECTED) == result.recoveries
        assert result.detections_of(SpeculationKind.INJECTED) >= result.recoveries


class TestSystemBase:
    def test_build_system_returns_system_subclasses(self):
        directory = build_system(small_config())
        snooping = build_system(small_config(protocol=ProtocolKind.SNOOPING))
        assert isinstance(directory, System) and isinstance(directory,
                                                            DirectorySystem)
        assert isinstance(snooping, System) and isinstance(snooping,
                                                           SnoopingSystem)

    def test_shared_surface(self):
        for config in (small_config(),
                       small_config(protocol=ProtocolKind.SNOOPING)):
            system = build_system(config)
            assert system.kind == config.protocol
            system.load_workload()
            assert all(node.processor.references for node in system.nodes)
            assert len(system.cache_controllers()) == config.num_processors
            assert system.checkpoint_interval_cycles() > 0
            assert system.invariant_errors() == []

    def test_snooping_node_invariant_surface(self):
        system = build_system(small_config(protocol=ProtocolKind.SNOOPING))
        assert all(node.invariant_errors() == [] for node in system.nodes)


class TestResultAccounting:
    """Satellite: per-kind counts survive the JSON round-trip and surface."""

    def test_detections_by_kind_round_trips(self):
        system = build_system(small_config())
        system.attach_recovery_injector(rate_per_second=50)
        result = system.run()
        assert result.detections_by_kind  # injector fired
        clone = RunResult.from_json(json.loads(canonical_json(result.to_json())))
        assert clone.detections_by_kind == result.detections_by_kind
        assert clone.recoveries_by_kind == result.recoveries_by_kind
        assert canonical_json(clone.to_json()) == canonical_json(result.to_json())

    def test_counts_agree_with_records_and_counters(self):
        """Every detection and recovery count of a result is derived from
        the manager's ``events`` and ``records`` lists, so it agrees with
        ``recovery_records`` and with the ``speculation.*`` and
        ``safetynet.*`` counters, on injected runs of both protocols and on
        a no-VC run that deadlocks."""
        results = []
        for protocol in (ProtocolKind.DIRECTORY, ProtocolKind.SNOOPING):
            system = build_system(small_config(protocol=protocol))
            system.attach_recovery_injector(rate_per_second=400)
            results.append(system.run())
        deadlocked = build_system(deadlocking_config(3)).run(
            max_cycles=MAX_CYCLES)
        assert deadlocked.recoveries_of(SpeculationKind.INTERCONNECT_DEADLOCK)
        results.append(deadlocked)
        for result in results:
            counters = result.counters
            records = result.recovery_records
            assert result.recoveries > 0
            assert sum(result.detections_by_kind.values()) == result.detections
            assert (result.recoveries == len(records)
                    == counters.get("safetynet.recoveries", 0))
            assert {name for name in counters
                    if name.startswith("safetynet.recoveries.")} == {
                "safetynet.recoveries." + kind
                for kind in result.recoveries_by_kind}
            for kind, count in result.recoveries_by_kind.items():
                assert count == counters["safetynet.recoveries." + kind]
                assert count == sum(1 for r in records if r.kind.value == kind)
            for kind, count in result.detections_by_kind.items():
                assert count == counters["speculation.detected." + kind]
            assert (result.detections - result.recoveries
                    == counters.get("speculation.coalesced", 0))

    def test_summary_line_breaks_recoveries_down_per_kind(self):
        result = RunResult(
            workload="jbb", config_label="x", runtime_cycles=10,
            references_completed=1, instructions_retired=1, finished=True,
            recoveries=3,
            recoveries_by_kind={"injected": 2, "interconnect-deadlock": 1})
        line = result.summary_line()
        assert "recoveries=3 (injected=2, interconnect-deadlock=1)" in line

    def test_summary_line_stays_compact_without_recoveries(self):
        result = RunResult(
            workload="jbb", config_label="x", runtime_cycles=10,
            references_completed=1, instructions_retired=1, finished=True)
        assert "recoveries=0," in result.summary_line()
        assert "(" not in result.summary_line().split("]")[1]

    def test_v1_result_payloads_are_rejected_not_half_loaded(self):
        """v1 cache entries lack detections_by_kind; loading one would report
        silently empty per-kind counts, so the schema bump rejects them and
        the result cache re-simulates instead."""
        result = RunResult(
            workload="jbb", config_label="x", runtime_cycles=10,
            references_completed=1, instructions_retired=1, finished=True)
        payload = result.to_json()
        assert payload["schema"] == "repro.system.results/v2"
        payload["schema"] = "repro.system.results/v1"
        del payload["detections_by_kind"]
        with pytest.raises(ValueError, match="unsupported result schema"):
            RunResult.from_json(payload)


class TestSpeculationMatrix:
    SUBSET = dict(combinations=((False, False, False), (True, True, True)),
                  topologies=("torus",), scales=(4,), references=60)

    def test_rows_cover_the_grid(self):
        result = speculation_matrix.run("jbb", **self.SUBSET)
        assert set(result.rows) == {
            "directory/none@torus/4", "snooping/none@torus/4",
            "directory/S1+S2+S3@torus/4", "snooping/S1+S2+S3@torus/4"}
        for row in result.rows.values():
            assert row["finished"]
        none_row = result.rows["directory/none@torus/4"]
        assert (none_row["p2p_recoveries"] == none_row["corner_case_recoveries"]
                == none_row["deadlock_recoveries"] == 0)

    def test_combination_label(self):
        assert speculation_matrix.combination_label(False, False, False) == "none"
        assert speculation_matrix.combination_label(True, False, True) == "S1+S3"

    def test_point_config_maps_own_speculation_to_variant(self):
        directory_off = speculation_matrix._point_config(
            "jbb", ProtocolKind.DIRECTORY, (False, True, False), "torus", 4,
            references=60, seed=1)
        assert directory_off.variant == ProtocolVariant.FULL
        snooping_on = speculation_matrix._point_config(
            "jbb", ProtocolKind.SNOOPING, (False, True, False), "torus", 4,
            references=60, seed=1)
        assert snooping_on.variant == ProtocolVariant.SPECULATIVE
        s3_point = speculation_matrix._point_config(
            "jbb", ProtocolKind.DIRECTORY, (False, False, True), "torus", 4,
            references=60, seed=1)
        assert s3_point.interconnect.speculative_no_vc

    def test_serial_parallel_and_cached_are_byte_identical(self, tmp_path):
        serial = speculation_matrix.run("jbb", executor=SerialExecutor(),
                                        **self.SUBSET)
        with ParallelExecutor(max_workers=2) as executor:
            parallel = speculation_matrix.run("jbb", executor=executor,
                                              **self.SUBSET)
        cache = ResultCache(str(tmp_path / "cache"))
        warm = speculation_matrix.run(
            "jbb", executor=SerialExecutor(cache=cache), **self.SUBSET)
        cached = speculation_matrix.run(
            "jbb", executor=SerialExecutor(cache=cache), **self.SUBSET)
        assert cache.hits > 0
        blobs = {canonical_json(r.to_json())
                 for r in (serial, parallel, warm, cached)}
        assert len(blobs) == 1

    def test_registered_with_the_campaign(self):
        from repro.campaign import discover, experiment_names
        discover()
        assert "speculation_matrix" in experiment_names()
