"""Per-system transaction ids.

Every system owns its transaction id counter (``System.txn_ids``); both
cache controllers and the compiled cores draw from it.  A run's ids, and
with them its recovery records, therefore never depend on what else ran
or is still live in the same process.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro import kernel
from repro.campaign import RunSpec, canonical_json, execute_spec
from repro.core.events import SpeculationKind
from repro.sim.config import (
    CheckpointConfig,
    InterconnectConfig,
    ProtocolKind,
    RoutingPolicy,
    SystemConfig,
    WorkloadConfig,
)
from repro.system import base as system_base
from repro.system import build_system

HAVE_COMPILED = kernel.compiled_available()

TIERS = ["pure", pytest.param("compiled", marks=pytest.mark.skipif(
    not HAVE_COMPILED,
    reason="repro._ckernel extension not built (run tools/build_kernel.py)"))]

MAX_CYCLES = 400_000


@pytest.fixture(autouse=True)
def _restore_tier():
    yield
    kernel.set_kernel_tier(None)


def deadlocking_config(seed: int) -> SystemConfig:
    """16 nodes on a no-VC torus with 4-entry switch buffers: the run
    deadlocks, and every timeout recovery records a transaction id."""
    cfg = SystemConfig.small(num_processors=16, references=150, seed=seed)
    return dataclasses.replace(
        cfg,
        interconnect=InterconnectConfig(
            routing=RoutingPolicy.STATIC,
            link_bandwidth_bytes_per_sec=800e6, link_latency_cycles=4,
            switch_buffer_capacity=4, speculative_no_vc=True,
            nic_injection_limit=4),
        checkpoint=CheckpointConfig(directory_interval_cycles=20_000,
                                    recovery_latency_cycles=2_000),
        workload=WorkloadConfig(name="oltp", references_per_processor=150,
                                seed=seed))


def result_bytes(result) -> str:
    return canonical_json(result.to_json())


@pytest.mark.parametrize("tier", TIERS)
def test_two_live_systems_keep_their_own_ids(tier):
    kernel.set_kernel_tier(tier)
    system_a = build_system(deadlocking_config(3))
    system_b = build_system(deadlocking_config(4))
    result_b = system_b.run(max_cycles=MAX_CYCLES)
    result_a = system_a.run(max_cycles=MAX_CYCLES)
    assert any("txn_id" in record.event.details
               for record in result_a.recovery_records)
    assert result_a.recoveries_of(SpeculationKind.INTERCONNECT_DEADLOCK) > 0
    for seed, result in ((3, result_a), (4, result_b)):
        fresh = execute_spec(RunSpec(config=deadlocking_config(seed),
                                     max_cycles=MAX_CYCLES))
        assert result_bytes(result) == result_bytes(fresh), f"seed {seed}"


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("protocol", [ProtocolKind.DIRECTORY,
                                      ProtocolKind.SNOOPING])
def test_controllers_draw_every_id_from_the_system(tier, protocol):
    kernel.set_kernel_tier(tier)
    config = SystemConfig.small(4, references=200, seed=2).with_updates(
        protocol=protocol)
    system = build_system(config)
    result = system.run()
    issued = sum(value for name, value in result.counters.items()
                 if name.endswith(".transactions_issued"))
    assert issued > 0
    assert next(system.txn_ids) == issued


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("protocol", [ProtocolKind.DIRECTORY,
                                      ProtocolKind.SNOOPING])
def test_exhausted_id_stream_raises_stop_iteration(tier, protocol,
                                                    monkeypatch):
    """The compiled cores raise what pure ``next()`` raises."""
    kernel.set_kernel_tier(tier)
    monkeypatch.setattr(system_base, "itertools",
                        SimpleNamespace(count=lambda: iter(())))
    config = SystemConfig.small(4, references=50, seed=1).with_updates(
        protocol=protocol)
    system = build_system(config)
    with pytest.raises(StopIteration) as excinfo:
        system.run()
    raised_in_pure_issue = excinfo.traceback[-1].name == "_issue_transaction"
    assert raised_in_pure_issue == (tier == "pure")
