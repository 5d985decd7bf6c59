"""Unit tests for the speculation-for-simplicity framework (repro.core)."""

from __future__ import annotations

from types import SimpleNamespace
from typing import List

import pytest

from repro.core.catalog import TABLE1_MECHANISMS, mechanism_for, table1_rows
from repro.core.events import MisspeculationEvent, RecoveryRecord, SpeculationKind
from repro.core.forward_progress import (
    CombinedPolicy,
    DisableAdaptiveRoutingPolicy,
    NoOpPolicy,
    SlowStartGate,
    SlowStartPolicy,
)
from repro.safetynet.manager import SafetyNet
from repro.sim.config import CheckpointConfig, SpeculationConfig
from repro.sim.engine import Simulator
from repro.speculation.detectors import (
    PeriodicInjectionSpeculation,
    transaction_timeout_cycles,
)
from repro.speculation.manager import SpeculationManager


def _event(kind=SpeculationKind.DIRECTORY_P2P_ORDER, at=0) -> MisspeculationEvent:
    return MisspeculationEvent(kind=kind, detected_at=at, node=1, address=0x40)


def make_framework():
    sim = Simulator()
    safetynet = SafetyNet(sim, CheckpointConfig(
        directory_interval_cycles=1_000, recovery_latency_cycles=100,
        register_checkpoint_latency_cycles=10), num_nodes=1, interval_cycles=1_000)
    return sim, safetynet, SpeculationManager(sim, safetynet)


def make_injector(sim: Simulator, report, *, rate_per_second: float,
                  cycles_per_second: float) -> PeriodicInjectionSpeculation:
    """An injector reporting to ``report`` instead of a built system's
    manager (the injector only reads ``sim`` and ``report`` from it)."""
    return PeriodicInjectionSpeculation(
        SimpleNamespace(sim=sim, report=report),
        rate_per_second=rate_per_second, cycles_per_second=cycles_per_second)


class TestFramework:
    def test_report_triggers_recovery_and_policy(self):
        sim, safetynet, framework = make_framework()
        applied: List[MisspeculationEvent] = []

        class Probe(NoOpPolicy):
            def apply(self, event):
                applied.append(event)

        framework.set_policy(SpeculationKind.DIRECTORY_P2P_ORDER, Probe())
        event = _event()
        record = framework.report(event)
        assert isinstance(record, RecoveryRecord)
        assert applied and applied[0].kind == SpeculationKind.DIRECTORY_P2P_ORDER
        assert framework.events == [event]
        assert framework.records == [record]
        assert safetynet.stats.counters("safetynet.recoveries") == {
            "safetynet.recoveries": 1,
            "safetynet.recoveries.directory-p2p-order": 1}

    def test_detections_during_recovery_are_coalesced(self):
        sim, safetynet, framework = make_framework()
        first = framework.report(_event())
        assert first is not None
        # A second detection before the resume point observes rolled-back
        # state and must not trigger another recovery.
        second = framework.report(_event(at=sim.now))
        assert second is None
        assert len(framework.events) == 2
        assert framework.records == [first]
        assert framework.stats.counters("speculation.coalesced") == {
            "speculation.coalesced": 1}

    def test_unregistered_kind_uses_noop_policy(self):
        sim, safetynet, framework = make_framework()
        assert isinstance(framework.policy_for(SpeculationKind.INJECTED), NoOpPolicy)


class TestForwardProgress:
    def test_slow_start_gate_limits_outstanding(self):
        sim = Simulator()
        gate = SlowStartGate(sim)
        gate.enter_slow_start(max_outstanding=1, duration_cycles=100)
        assert gate.may_issue(0)
        assert not gate.may_issue(1)
        gate.retired(0)
        assert gate.may_issue(1)
        assert gate.denials == 1

    def test_slow_start_expires(self):
        sim = Simulator()
        gate = SlowStartGate(sim)
        gate.enter_slow_start(max_outstanding=1, duration_cycles=50)
        sim.schedule(60, lambda: None)
        sim.run()
        assert not gate.active
        assert gate.may_issue(0)
        assert gate.may_issue(1)

    def test_slow_start_reset_outstanding(self):
        sim = Simulator()
        gate = SlowStartGate(sim)
        gate.may_issue(0)
        gate.may_issue(1)
        gate.reset_outstanding()
        assert gate.outstanding == 0

    def test_slow_start_validation(self):
        gate = SlowStartGate(Simulator())
        with pytest.raises(ValueError):
            gate.enter_slow_start(max_outstanding=0, duration_cycles=10)

    def test_slow_start_policy_applies_gate(self):
        sim = Simulator()
        gate = SlowStartGate(sim)
        policy = SlowStartPolicy(gate, max_outstanding=1, duration_cycles=100)
        policy.apply(_event())
        assert gate.active

    def test_disable_adaptive_routing_policy(self):
        calls = []
        policy = DisableAdaptiveRoutingPolicy(calls.append, window_cycles=5_000)
        policy.apply(_event())
        assert calls == [5_000]
        with pytest.raises(ValueError):
            DisableAdaptiveRoutingPolicy(calls.append, window_cycles=-1)

    def test_combined_policy_escalates_after_free_retries(self):
        sim = Simulator()
        heavy_calls = []

        class Heavy(NoOpPolicy):
            def apply(self, event):
                heavy_calls.append(event)

        policy = CombinedPolicy(sim, Heavy(), free_retries=1, window_cycles=10_000)
        policy.apply(_event())
        assert heavy_calls == []           # first recovery: just resume
        policy.apply(_event())
        assert len(heavy_calls) == 1       # second within window: escalate

    def test_combined_policy_window_expires(self):
        sim = Simulator()
        heavy_calls = []

        class Heavy(NoOpPolicy):
            def apply(self, event):
                heavy_calls.append(event)

        policy = CombinedPolicy(sim, Heavy(), free_retries=1, window_cycles=100)
        policy.apply(_event())
        sim.schedule(500, lambda: None)
        sim.run()
        policy.apply(_event())
        assert heavy_calls == []  # outside the window: counts reset


class TestDetectionHelpers:
    def test_timeout_is_three_checkpoint_intervals(self):
        timeout = transaction_timeout_cycles(
            CheckpointConfig(directory_interval_cycles=100_000), SpeculationConfig())
        assert timeout == 300_000

    def test_timeout_override_interval(self):
        timeout = transaction_timeout_cycles(
            CheckpointConfig(), SpeculationConfig(timeout_checkpoint_intervals=2),
            checkpoint_interval_cycles=5_000)
        assert timeout == 10_000

    def test_injector_period(self):
        sim = Simulator()
        injector = make_injector(sim, lambda e: None, rate_per_second=10,
                                 cycles_per_second=1e6)
        assert injector.period_cycles == 100_000
        zero = make_injector(sim, lambda e: None, rate_per_second=0,
                             cycles_per_second=1e6)
        assert zero.period_cycles is None

    def test_injector_fires_at_rate(self):
        sim = Simulator()
        events = []
        injector = make_injector(sim, events.append, rate_per_second=5,
                                 cycles_per_second=10_000)
        injector.start()
        sim.schedule(10_000, lambda: None)
        sim.run(until=10_000)
        assert len(events) == 5
        assert all(e.kind == SpeculationKind.INJECTED for e in events)

    def test_injector_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            make_injector(sim, lambda e: None, rate_per_second=-1,
                          cycles_per_second=1e6)
        with pytest.raises(ValueError):
            make_injector(sim, lambda e: None, rate_per_second=1,
                          cycles_per_second=0)


class TestCatalog:
    def test_three_mechanisms(self):
        assert len(TABLE1_MECHANISMS) == 3
        kinds = {m.kind for m in TABLE1_MECHANISMS}
        assert kinds == {SpeculationKind.DIRECTORY_P2P_ORDER,
                         SpeculationKind.SNOOPING_CORNER_CASE,
                         SpeculationKind.INTERCONNECT_DEADLOCK}

    def test_all_use_safetynet_recovery(self):
        assert all(m.recovery == "SafetyNet" for m in TABLE1_MECHANISMS)

    def test_mechanism_lookup(self):
        mech = mechanism_for(SpeculationKind.SNOOPING_CORNER_CASE)
        assert "snooping" in mech.title.lower()
        with pytest.raises(KeyError):
            mechanism_for(SpeculationKind.INJECTED)

    def test_table1_rows_structure(self):
        rows = table1_rows()
        assert "(1) Infrequency of mis-speculation" in rows
        assert "(4) Forward Progress" in rows
        assert all(len(cells) == 3 for cells in rows.values())

    def test_implemented_by_points_to_real_modules(self):
        import importlib
        for mechanism in TABLE1_MECHANISMS:
            module_name = mechanism.implemented_by.split()[0].rstrip(",")
            importlib.import_module(module_name)
