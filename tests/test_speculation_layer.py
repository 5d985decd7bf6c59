"""Tests for the unified speculation subsystem.

Covers the registry, the registry-backed :class:`SpeculationConfig`
(including the canonical-encoding back-compat contract), the
:class:`SpeculationManager` lifecycle (arming, coalescing, per-kind
attribution), the shared :class:`System` base class, and the
``speculation_matrix`` campaign experiment's determinism contract
(serial == parallel == cached, byte-identical).
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    canonical_json,
)
from repro.campaign.spec import config_to_dict
from repro.core.events import MisspeculationEvent, RecoveryRecord, SpeculationKind
from repro.core.forward_progress import (
    CombinedPolicy,
    DisableAdaptiveRoutingPolicy,
    NoOpPolicy,
    SlowStartPolicy,
)
from repro.experiments import speculation_matrix
from repro.experiments.fig4_misspeculation_rate import _injection_config
from repro.interconnect.deadlock import DeadlockReport
from repro.safetynet.manager import SafetyNet
from repro.sim.config import (
    CheckpointConfig,
    ProtocolKind,
    ProtocolVariant,
    SpeculationConfig,
    SystemConfig,
)
from repro.sim.engine import Simulator
from repro.speculation import (
    DirectoryP2POrderSpeculation,
    InterconnectDeadlockSpeculation,
    PeriodicInjectionSpeculation,
    SnoopingCornerCaseSpeculation,
    Speculation,
    SpeculationManager,
    get_speculation,
    speculation_names,
)
from repro.system import DirectorySystem, SnoopingSystem, System, build_system
from repro.system.results import RunResult

#: Content hash of the Figure 4 jbb baseline design point as produced by
#: the pre-speculation-layer encoding.  If this pin breaks, every cached
#: campaign result silently invalidates — see config_to_dict's contract.
FIG4_JBB_BASELINE_HASH = "43f1969363af133b4631"


def small_config(**updates) -> SystemConfig:
    config = SystemConfig.small(num_processors=4, references=120)
    return config.with_updates(**updates) if updates else config


def make_manager():
    sim = Simulator()
    safetynet = SafetyNet(sim, CheckpointConfig(
        directory_interval_cycles=1_000, recovery_latency_cycles=100,
        register_checkpoint_latency_cycles=10), num_nodes=1, interval_cycles=1_000)
    return sim, safetynet, SpeculationManager(sim, safetynet)


class TestRegistry:
    def test_kind_values_are_the_registry_names(self):
        assert set(speculation_names()) == {k.value for k in SpeculationKind}

    def test_lookup_returns_registered_classes(self):
        assert get_speculation("directory-p2p-order") is DirectoryP2POrderSpeculation
        assert get_speculation("snooping-corner-case") is SnoopingCornerCaseSpeculation
        assert (get_speculation("interconnect-deadlock")
                is InterconnectDeadlockSpeculation)
        assert get_speculation("injected") is PeriodicInjectionSpeculation

    def test_unknown_name_raises_with_known_listing(self):
        with pytest.raises(KeyError, match="interconnect-deadlock"):
            get_speculation("nope")

    def test_registry_name_property_roundtrips(self):
        for kind in SpeculationKind:
            assert get_speculation(kind.registry_name).kind == kind


class TestSpeculationConfig:
    def test_default_enabled_set(self):
        assert SpeculationConfig().enabled_speculations() == (
            "directory-p2p-order", "snooping-corner-case",
            "interconnect-deadlock")

    def test_flags_shrink_the_derived_set(self):
        spec = SpeculationConfig(directory_p2p_speculation=False,
                                 snooping_corner_case_speculation=False)
        assert spec.enabled_speculations() == ("interconnect-deadlock",)

    def test_detectors_override_wins(self):
        spec = SpeculationConfig(detectors=["snooping-corner-case"])
        assert spec.enabled_speculations() == ("snooping-corner-case",)
        assert spec.speculates("snooping-corner-case")
        assert not spec.speculates("interconnect-deadlock")

    def test_with_designs(self):
        spec = SpeculationConfig().with_designs(s1=False, s3=True)
        assert not spec.directory_p2p_speculation
        assert spec.snooping_corner_case_speculation
        assert spec.interconnect_no_vc_speculation

    def test_canonical_encoding_omits_default_detectors(self):
        payload = config_to_dict(small_config())
        assert "detectors" not in payload["speculation"]
        explicit = small_config(
            speculation=SpeculationConfig(detectors=("interconnect-deadlock",)))
        assert (config_to_dict(explicit)["speculation"]["detectors"]
                == ["interconnect-deadlock"])

    def test_explicit_detectors_change_the_content_hash(self):
        base = RunSpec(config=small_config())
        explicit = RunSpec(config=small_config(
            speculation=SpeculationConfig(detectors=(
                "directory-p2p-order", "snooping-corner-case",
                "interconnect-deadlock"))))
        assert base.content_hash() != explicit.content_hash()

    def test_fig4_baseline_hash_is_pinned(self):
        """Pre-existing design points must keep their pre-layer cache keys."""
        spec = RunSpec(config=_injection_config("jbb", seed=1, references=400),
                       label="no-injection")
        assert spec.content_hash() == FIG4_JBB_BASELINE_HASH

    def test_no_vc_flag_encoding_diverges_from_the_inert_era(self):
        """The flag used to be inert; it now forces the no-VC network, so
        flag-True canonical forms must not collide with pre-layer cache
        entries simulated under the old no-op semantics."""
        payload = config_to_dict(small_config(
            speculation=SpeculationConfig(interconnect_no_vc_speculation=True)))
        assert (payload["speculation"]["interconnect_no_vc_speculation"]
                == "forces-no-vc-network/v2")
        # Flag-False configs (every pre-existing design point) still encode
        # the plain boolean.
        base = config_to_dict(small_config())
        assert base["speculation"]["interconnect_no_vc_speculation"] is False


class TestArming:
    def test_directory_speculative_arms_s1_and_watchdog(self):
        system = build_system(small_config())
        names = {s.name for s in system.speculation.speculations}
        assert names == {"directory-p2p-order", "interconnect-deadlock"}
        assert all(s.armed_on == system.label
                   for s in system.speculation.speculations)
        assert isinstance(
            system.speculation.policy_for(SpeculationKind.DIRECTORY_P2P_ORDER),
            DisableAdaptiveRoutingPolicy)
        assert isinstance(
            system.speculation.policy_for(SpeculationKind.INTERCONNECT_DEADLOCK),
            CombinedPolicy)

    def test_directory_full_variant_arms_only_the_watchdog(self):
        system = build_system(small_config(variant=ProtocolVariant.FULL))
        names = {s.name for s in system.speculation.speculations}
        assert names == {"interconnect-deadlock"}
        assert not any(c.p2p_detection_enabled for c in system.cache_controllers())

    def test_snooping_arms_s2_and_watchdog(self):
        system = build_system(small_config(protocol=ProtocolKind.SNOOPING))
        names = {s.name for s in system.speculation.speculations}
        assert names == {"snooping-corner-case", "interconnect-deadlock"}
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

    def test_empty_detector_set_disarms_everything(self):
        config = small_config(speculation=SpeculationConfig(detectors=()))
        system = build_system(config)
        assert system.speculation.speculations == []
        assert all(c.timeout_cycles is None for c in system.cache_controllers())
        assert not any(c.p2p_detection_enabled for c in system.cache_controllers())
        assert isinstance(
            system.speculation.policy_for(SpeculationKind.DIRECTORY_P2P_ORDER),
            NoOpPolicy)

    def test_no_vc_flag_forces_the_section4_network(self):
        config = small_config(
            speculation=SpeculationConfig(interconnect_no_vc_speculation=True))
        system = build_system(config)
        assert system.network.config.speculative_no_vc
        assert system.label.endswith("no-vc")
        # The configuration object itself is untouched (it hashes as-is).
        assert not config.interconnect.speculative_no_vc

    def test_ground_truth_scan_available_on_directory_systems(self):
        system = build_system(small_config())
        watchdog = system.speculation.speculation_for(
            SpeculationKind.INTERCONNECT_DEADLOCK)
        report = watchdog.ground_truth_report(system)
        assert isinstance(report, DeadlockReport)
        assert not report.deadlocked
        assert report.to_json()["deadlocked"] is False
        snooping = build_system(small_config(protocol=ProtocolKind.SNOOPING))
        snoop_watchdog = snooping.speculation.speculation_for(
            SpeculationKind.INTERCONNECT_DEADLOCK)
        assert snoop_watchdog.ground_truth_report(snooping) is None


class TestCoalescing:
    """Satellite: concurrent detections coalesce into a single rollback."""

    def _event(self, kind: SpeculationKind, at: int) -> MisspeculationEvent:
        return MisspeculationEvent(kind=kind, detected_at=at, node=0, address=0x40)

    def test_two_detections_during_rollback_produce_one_recovery(self):
        sim, safetynet, manager = make_manager()
        s1 = manager.attach(DirectoryP2POrderSpeculation(manager))
        watchdog = manager.attach(InterconnectDeadlockSpeculation(manager))

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

        assert safetynet.recovery_count() == 1
        assert manager.recovery_count() == 1
        fs = manager.framework_stats
        assert fs.detections == 3 and fs.coalesced == 2
        # Per-kind attribution: the recovery belongs to the first detection's
        # kind; the coalesced kinds are accounted as detections only.
        assert fs.recoveries_by_kind == {SpeculationKind.DIRECTORY_P2P_ORDER: 1}
        assert fs.detections_by_kind == {
            SpeculationKind.DIRECTORY_P2P_ORDER: 2,
            SpeculationKind.INTERCONNECT_DEADLOCK: 1}
        # The per-instance accounting matches.
        assert (s1.detections, s1.coalesced, s1.recoveries) == (2, 1, 1)
        assert (watchdog.detections, watchdog.coalesced,
                watchdog.recoveries) == (1, 1, 0)

    def test_recovery_listener_attributes_external_recoveries(self):
        sim, safetynet, manager = make_manager()
        watchdog = manager.attach(InterconnectDeadlockSpeculation(manager))
        # A recovery triggered directly on SafetyNet (outside the manager)
        # still notifies the attached speculation of its kind.
        safetynet.recover(self._event(SpeculationKind.INTERCONNECT_DEADLOCK,
                                      sim.now))
        assert watchdog.recoveries == 1
        assert watchdog.stats()["recoveries"] == 1

    def test_summary_includes_per_speculation_stats(self):
        sim, safetynet, manager = make_manager()
        manager.attach(DirectoryP2POrderSpeculation(manager))
        manager.report(self._event(SpeculationKind.DIRECTORY_P2P_ORDER, sim.now))
        summary = manager.summary()
        assert summary["detections_by_kind"] == {"directory-p2p-order": 1}
        names = [s["name"] for s in summary["speculations"]]
        assert names == ["directory-p2p-order"]


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
            assert system.speculation.speculation_for(
                SpeculationKind.INJECTED) is injector
            result = system.run()
            assert injector.injections > 0
            assert result.recoveries_by_kind.get("injected") == result.recoveries
            assert injector.stats()["injections"] == injector.injections

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
        assert s3_point.speculation.interconnect_no_vc_speculation

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
