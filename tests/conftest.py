"""Shared fixtures for the test suite."""

from __future__ import annotations

import types

import pytest

from repro import kernel
from repro.campaign import clear_memos
from repro.sim import engine as pure_engine
from repro.sim.config import (
    CacheConfig,
    CheckpointConfig,
    InterconnectConfig,
    ProtocolKind,
    ProtocolVariant,
    RoutingPolicy,
    SystemConfig,
    WorkloadConfig,
)
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.system import build_system


@pytest.fixture(autouse=True)
def cold_memos() -> None:
    """Every test starts with cold memos, so a run an earlier test left in
    the run memo is simulated again rather than replayed."""
    clear_memos()


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def engine() -> types.SimpleNamespace:
    """The event kernel of the selected tier (``REPRO_KERNEL``).

    ``Simulator`` and ``EventQueue`` come from the compiled extension when
    that tier is selected, else from :mod:`repro.sim.engine`.  The
    compaction bound always comes from the pure class: the C macro copies
    its value, so the compiled queue is held to it.  A compiled request
    without a usable extension skips.
    """
    try:
        impl = kernel.engine_impl()
    except kernel.KernelTierError as exc:
        pytest.skip(str(exc))
    if impl is None:
        impl = pure_engine
    return types.SimpleNamespace(
        Simulator=impl.Simulator, EventQueue=impl.EventQueue,
        COMPACT_MIN_ENTRIES=pure_engine.EventQueue.COMPACT_MIN_ENTRIES)


@pytest.fixture
def stats() -> StatsRegistry:
    return StatsRegistry()


@pytest.fixture
def small_config() -> SystemConfig:
    """A 4-node directory system small enough for per-test runs."""
    return SystemConfig.small(num_processors=4, references=300, seed=11)


@pytest.fixture
def snooping_config() -> SystemConfig:
    cfg = SystemConfig.small(num_processors=4, references=300, seed=11)
    return cfg.with_updates(protocol=ProtocolKind.SNOOPING)


@pytest.fixture
def tiny_interconnect_config() -> InterconnectConfig:
    return InterconnectConfig(link_latency_cycles=4,
                              switch_buffer_capacity=8)


@pytest.fixture(scope="session")
def completed_directory_run():
    """One completed 4-node directory run shared by read-only assertions."""
    config = SystemConfig.small(num_processors=4, references=400, seed=5)
    system = build_system(config)
    result = system.run()
    return system, result


@pytest.fixture(scope="session")
def completed_snooping_run():
    """One completed 4-node snooping run shared by read-only assertions."""
    config = SystemConfig.small(num_processors=4, references=400, seed=5).with_updates(
        protocol=ProtocolKind.SNOOPING)
    system = build_system(config)
    result = system.run()
    return system, result


@pytest.fixture(scope="session")
def completed_adaptive_run():
    """A 16-node speculative run with adaptive routing (read-only)."""
    config = SystemConfig.small(num_processors=16, references=250, seed=9)
    config = config.with_updates(interconnect=InterconnectConfig(
        routing=RoutingPolicy.ADAPTIVE,
        link_latency_cycles=4, switch_buffer_capacity=16,
        link_bandwidth_bytes_per_sec=800e6))
    system = build_system(config)
    result = system.run(max_cycles=4_000_000)
    return system, result
