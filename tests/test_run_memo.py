"""Tests for the run memo of :func:`repro.campaign.executor.execute_spec`.

A spec that provably repeats a finished run is answered from the memo
instead of being simulated (DESIGN.md §9).  The load-bearing properties:
every replayed result is byte-identical to a fresh simulation, and every
spec outside the rule of :meth:`repro.system.base.System.replays` is
simulated.  The tests run on the kernel tier ``REPRO_KERNEL`` selects.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro import kernel
from repro.campaign import (
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    canonical_json,
    clear_memos,
    execute_spec,
    memo_stats,
)
from repro.campaign import executor as executor_module
from repro.campaign.executor import PERF_COUNTERS, RUN_MEMO_CAPACITY
from repro.core.events import SpeculationKind
from repro.experiments import fig4_misspeculation_rate as fig4
from repro.experiments import workload_matrix
from repro.sim.config import ProtocolKind, SystemConfig
from repro.speculation.detectors import injection_period_cycles
from repro.system.builder import system_class
from repro.system.results import RunResult


def small_spec(references: int = 60, seed: int = 1, **spec_kwargs) -> RunSpec:
    return RunSpec(config=SystemConfig.small(4, references=references, seed=seed),
                   **spec_kwargs)


def result_bytes(result: RunResult) -> str:
    return canonical_json(result.to_json())


def run_counted(spec: RunSpec):
    """Execute ``spec``; return its result and whether it was simulated."""
    runs = PERF_COUNTERS["runs"]
    result = execute_spec(spec)
    return result, PERF_COUNTERS["runs"] == runs + 1


def run_memo_len() -> int:
    """Number of runs stored for the active kernel tier."""
    return len(executor_module._RUN_MEMO[kernel.active_tier()])


def rate_first_firing_at(cycle: int, config: SystemConfig) -> float:
    """An injection rate whose injector first fires at ``cycle``."""
    rate = config.cycles_per_second / cycle
    assert injection_period_cycles(rate, config.cycles_per_second) == cycle
    return rate


@pytest.fixture
def stored():
    """A finished, uninjected run in the memo: ``(spec, result)``."""
    spec = small_spec(label="stored")
    result, simulated = run_counted(spec)
    assert simulated and result.finished and run_memo_len() == 1
    return spec, result


class TestFig4:
    def test_only_baselines_and_100_per_second_points_are_simulated(
            self, monkeypatch):
        """At 60 references every baseline finishes long before the 1/s
        and 10/s injectors first fire, so those ten points replay their
        baseline; each replay equals a fresh simulation byte for byte."""
        calls = []
        original = executor_module.execute_spec

        def recording(spec):
            runs = PERF_COUNTERS["runs"]
            result = original(spec)
            calls.append((spec, result, PERF_COUNTERS["runs"] == runs + 1))
            return result

        monkeypatch.setattr(executor_module, "execute_spec", recording)
        fig4.run(references=60, seed=1, executor=SerialExecutor())
        simulated = sorted((spec.workload, spec.label)
                           for spec, _, ran in calls if ran)
        replayed = [(spec, result) for spec, result, ran in calls if not ran]
        workloads = sorted({spec.workload for spec, _, _ in calls})
        assert len(workloads) == 5
        assert simulated == sorted(
            (workload, label) for workload in workloads
            for label in ("no-injection", "inject-100s"))
        assert sorted((spec.workload, spec.label) for spec, _ in replayed) \
            == sorted((workload, label) for workload in workloads
                      for label in ("inject-1s", "inject-10s"))
        assert memo_stats()["run_hits"] == 10
        for spec, result in replayed:
            clear_memos()
            fresh, simulated_now = run_counted(spec)
            assert simulated_now
            assert result_bytes(result) == result_bytes(fresh), spec.label


class TestReplayRule:
    def test_replay_carries_the_spec_label(self, stored):
        spec, result = stored
        labelled, simulated = run_counted(replace(spec, label="again"))
        assert not simulated
        assert labelled.config_label == "again"
        unlabelled, simulated = run_counted(replace(spec, label=None))
        assert not simulated
        clear_memos()
        fresh, _ = run_counted(replace(spec, label=None))
        assert result_bytes(unlabelled) == result_bytes(fresh)
        assert result_bytes(labelled) == result_bytes(
            replace(fresh, config_label="again"))

    def test_first_injection_at_the_stored_runtime_is_simulated(self, stored):
        spec, result = stored
        stopped_at = result.runtime_cycles
        on_time = replace(spec, recovery_rate_per_second=rate_first_firing_at(
            stopped_at, spec.config))
        injected, simulated = run_counted(on_time)
        assert simulated
        assert injected.detections_of(SpeculationKind.INJECTED) >= 1
        late = replace(spec, recovery_rate_per_second=rate_first_firing_at(
            stopped_at + 1, spec.config))
        replayed, simulated = run_counted(late)
        assert not simulated
        assert result_bytes(replayed) == result_bytes(result)

    def test_zero_rate_and_bound_at_the_stored_runtime_replay(self, stored):
        spec, result = stored
        for point in (replace(spec, recovery_rate_per_second=0.0),
                      replace(spec, max_cycles=result.runtime_cycles)):
            replayed, simulated = run_counted(point)
            assert not simulated
            assert result_bytes(replayed) == result_bytes(result)

    def test_bound_below_the_stored_runtime_is_simulated(self, stored):
        spec, result = stored
        cut, simulated = run_counted(
            replace(spec, max_cycles=result.runtime_cycles - 1))
        assert simulated and not cut.finished

    def test_unfinished_run_is_not_stored(self):
        spec = small_spec()
        cut, simulated = run_counted(replace(spec, max_cycles=1_000))
        assert simulated and not cut.finished
        assert run_memo_len() == 0
        _, simulated = run_counted(spec)
        assert simulated

    def test_injected_run_is_not_stored(self, stored):
        spec, result = stored
        clear_memos()
        injected, simulated = run_counted(replace(
            spec, recovery_rate_per_second=rate_first_firing_at(
                result.runtime_cycles - 1, spec.config)))
        assert simulated and injected.finished
        assert injected.detections_of(SpeculationKind.INJECTED) >= 1
        assert run_memo_len() == 0
        # Whatever spec asks, an injected run never stands in for another.
        assert not system_class(spec.config).replays(
            injected, spec.config, rate_per_second=None, max_cycles=None)
        _, simulated = run_counted(spec)
        assert simulated

    def test_configs_differing_in_one_field_are_simulated(self):
        """grid's snooping twins differ only in ``speculative_no_vc``, which
        the bus-based system ignores: still two configurations."""
        vc, no_vc = (workload_matrix._point_config(
            "jbb", ProtocolKind.SNOOPING, s3, references=10, seed=1)
            for s3 in (False, True))
        assert vc != no_vc
        assert vc == no_vc.with_updates(interconnect=replace(
            no_vc.interconnect, speculative_no_vc=False))
        for config in (vc, no_vc):
            _, simulated = run_counted(RunSpec(
                config=config, max_cycles=workload_matrix.MAX_CYCLES))
            assert simulated

    def test_run_stored_on_the_other_tier_is_simulated(self, stored,
                                                       monkeypatch):
        """The memo is looked up under the tier the executor sees; the
        system itself is still built on the selected tier."""
        spec, _ = stored
        other = "compiled" if kernel.active_tier() == "pure" else "pure"
        monkeypatch.setattr(executor_module, "kernel",
                            SimpleNamespace(active_tier=lambda: other))
        _, simulated = run_counted(spec)
        assert simulated

    def test_memo_never_exceeds_its_capacity(self):
        specs = [small_spec(references=10, seed=seed)
                 for seed in range(RUN_MEMO_CAPACITY + 2)]
        for spec in specs:
            _, simulated = run_counted(spec)
            assert simulated
            assert run_memo_len() <= RUN_MEMO_CAPACITY
        assert run_memo_len() == RUN_MEMO_CAPACITY
        _, simulated = run_counted(specs[-1])
        assert not simulated
        _, simulated = run_counted(specs[0])  # least recently used: dropped
        assert simulated


class TestParallelWorkers:
    def test_workers_start_with_an_empty_run_memo(self, stored):
        """A forked worker would inherit the parent's memo; the doctored
        entry below would then come back instead of a simulated run."""
        spec, result = stored
        tier = kernel.active_tier()
        doctored = replace(result, l2_hits=result.l2_hits + 1)
        executor_module._RUN_MEMO[tier][0] = (spec.config, doctored)
        assert execute_spec(spec).l2_hits == doctored.l2_hits
        with ParallelExecutor(max_workers=1) as executor:
            [parallel] = executor.map([spec])
        assert result_bytes(parallel) == result_bytes(result)
