"""Property-based end-to-end tests.

Hypothesis drives small but complete multiprocessor runs across random
seeds, workloads and routing policies, asserting the invariants the paper's
correctness argument rests on: every run terminates with all references
retired, the coherence state is consistent (SWMR, directory/cache
agreement), recoveries only ever happen for the speculation kinds that are
actually armed, and the run is deterministic for a fixed seed.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.events import SpeculationKind
from repro.sim.config import (
    InterconnectConfig,
    ProtocolKind,
    ProtocolVariant,
    RoutingPolicy,
    SystemConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.system import build_system

WORKLOADS = ["jbb", "apache", "slashcode", "oltp", "barnes"]

_slow_settings = settings(max_examples=8, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow,
                                                 HealthCheck.data_too_large])


@given(seed=st.integers(0, 1_000), workload=st.sampled_from(WORKLOADS),
       routing=st.sampled_from([RoutingPolicy.STATIC, RoutingPolicy.ADAPTIVE]))
@_slow_settings
def test_directory_runs_terminate_with_consistent_state(seed, workload, routing):
    config = SystemConfig.small(num_processors=4, references=120, seed=seed)
    config = config.with_updates(
        workload=WorkloadConfig(name=workload, references_per_processor=120, seed=seed),
        interconnect=InterconnectConfig(
            topology=TopologyConfig("torus", (2, 2)),
            link_latency_cycles=4, switch_buffer_capacity=16,
            routing=routing))
    system = build_system(config)
    result = system.run(max_cycles=3_000_000)
    assert result.finished
    assert result.references_completed >= 4 * 120
    assert system.invariant_errors() == []
    # Recoveries, if any, must come from armed speculation kinds only.
    assert set(result.recoveries_by_kind) <= {
        SpeculationKind.DIRECTORY_P2P_ORDER.value,
        SpeculationKind.INTERCONNECT_DEADLOCK.value}


@given(seed=st.integers(0, 1_000), workload=st.sampled_from(WORKLOADS),
       variant=st.sampled_from([ProtocolVariant.SPECULATIVE, ProtocolVariant.FULL]))
@_slow_settings
def test_snooping_runs_terminate_with_consistent_state(seed, workload, variant):
    config = SystemConfig.small(num_processors=4, references=120, seed=seed)
    config = config.with_updates(
        protocol=ProtocolKind.SNOOPING, variant=variant,
        workload=WorkloadConfig(name=workload, references_per_processor=120, seed=seed))
    system = build_system(config)
    result = system.run(max_cycles=3_000_000)
    assert result.finished
    assert result.references_completed >= 4 * 120
    assert system.invariant_errors() == []


@given(seed=st.integers(0, 200))
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_runs_are_deterministic_for_a_fixed_seed(seed):
    config = SystemConfig.small(num_processors=4, references=80, seed=seed)
    first = build_system(config).run()
    second = build_system(SystemConfig.small(num_processors=4, references=80,
                                             seed=seed)).run()
    assert first.runtime_cycles == second.runtime_cycles
    assert first.messages_delivered == second.messages_delivered
    assert first.l2_misses == second.l2_misses


@given(seed=st.integers(0, 200), rate=st.sampled_from([5.0, 20.0]))
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_recovery_never_loses_or_duplicates_work(seed, rate):
    """Injected recoveries roll work back but every reference still retires
    exactly to completion (no run finishes with fewer retired references)."""
    config = SystemConfig.small(num_processors=4, references=120, seed=seed)
    system = build_system(config)
    system.attach_recovery_injector(rate_per_second=rate)
    result = system.run(max_cycles=10_000_000)
    assert result.finished
    assert result.references_completed >= 4 * 120
    assert system.invariant_errors() == []
