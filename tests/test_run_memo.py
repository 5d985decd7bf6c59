"""Tests for the run memo of :func:`repro.campaign.executor.execute_spec`.

A spec that provably repeats a finished run is answered from the memo
instead of being simulated (DESIGN.md §9).  The load-bearing properties:
every replayed result is byte-identical to a fresh simulation, and every
spec outside the rule of :meth:`repro.system.base.System.stands_for` and
:meth:`~repro.system.base.System.replays` is simulated.  The tests run on
the kernel tier ``REPRO_KERNEL`` selects.
"""

from __future__ import annotations

import json
from dataclasses import replace
from types import FunctionType, SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from repro.campaign.executor import (PERF_COUNTERS, RUN_MEMO_CAPACITY,
                                     RUN_MEMO_STATS)
from repro.coherence.common import MemoryOp, MemoryRequest
from repro.coherence.directory.messages import CoherencePayload
from repro.coherence.snooping.bus import BusRequest, BusRequestType
from repro.core.events import SpeculationKind
from repro.experiments import fig4_misspeculation_rate as fig4
from repro.experiments import (
    runner,
    snooping_cornercase,
    speculation_matrix,
    workload_matrix,
)
from repro.experiments.common import benchmark_config, default_workloads
from repro.interconnect.message import MessageClass, NetworkMessage
from repro.sim.config import (
    CacheConfig,
    ProtocolKind,
    ProtocolVariant,
    RoutingPolicy,
    SystemConfig,
    WorkloadConfig,
)
from repro.speculation.detectors import injection_period_cycles
from repro.system import build_system
from repro.system.builder import system_class
from repro.system.directory_system import DirectorySystem
from repro.system.results import RunResult
from repro.system.snooping_system import SnoopingSystem

FULL, SPECULATIVE = ProtocolVariant.FULL, ProtocolVariant.SPECULATIVE


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


def record_executions(monkeypatch) -> list:
    """Record ``(spec, result, simulated)`` of every spec the executors run."""
    calls = []
    original = executor_module.execute_spec

    def recording(spec):
        runs = PERF_COUNTERS["runs"]
        result = original(spec)
        calls.append((spec, result, PERF_COUNTERS["runs"] == runs + 1))
        return result

    monkeypatch.setattr(executor_module, "execute_spec", recording)
    return calls


def twin(config: SystemConfig) -> SystemConfig:
    """The configuration that differs from ``config`` only in ``variant``."""
    return config.with_updates(
        variant=SPECULATIVE if config.variant is FULL else FULL)


def site_counters(counters, cls) -> dict:
    """The counters of ``counters`` that name one of ``cls``'s variant sites."""
    return {name: value for name, value in counters.items()
            if name.rpartition(".")[2] in cls.VARIANT_SITES}


def small_snooping() -> SystemConfig:
    """A small FULL snooping configuration."""
    return SystemConfig.small(4, references=60).with_updates(
        protocol=ProtocolKind.SNOOPING, variant=FULL)


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
        baseline, and the five 100/s points are resumed from their baseline
        in forked children: only the baselines are simulated.  Each replay
        and each resumed result equals a fresh simulation byte for byte."""
        calls = []
        original = executor_module.execute_spec

        def recording(spec):
            before = dict(RUN_MEMO_STATS)
            result = original(spec)
            moved, = (key for key in RUN_MEMO_STATS
                      if RUN_MEMO_STATS[key] != before[key])
            calls.append((spec, result, moved))
            return result

        monkeypatch.setattr(executor_module, "execute_spec", recording)
        fig4.run(references=60, seed=1, executor=SerialExecutor())
        workloads = sorted({spec.workload for spec, _, _ in calls})
        assert len(workloads) == 5

        def points(outcome):
            return sorted((spec.workload, spec.label)
                          for spec, _, moved in calls if moved == outcome)

        def expected(*labels):
            return sorted((workload, label) for workload in workloads
                          for label in labels)

        assert points("run_misses") == expected("no-injection")
        assert points("run_resumes") == expected("inject-100s")
        assert points("run_hits") == expected("inject-1s", "inject-10s")
        stats = memo_stats()
        assert (stats["run_hits"], stats["run_resumes"]) == (10, 5)
        for spec, result, moved in calls:
            if moved == "run_misses":
                continue
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

    def test_runner_counts_every_worker_run(self, tmp_path):
        """Under ``--parallel`` the workers' memo tallies reach the report.
        Which specs replay depends on which worker ran the baseline, so
        only the total is fixed: quick fig4 has eight specs."""
        path = tmp_path / "report.json"
        assert runner.main(["--only", "fig4", "--quick", "--parallel", "2",
                            "--json", str(path)]) == 0
        memos = json.loads(path.read_text())["execution"]["memos"]
        assert memos["run_hits"] + memos["run_misses"] == 8


def small_dir_l2(workload: str, variant: ProtocolVariant) -> SystemConfig:
    """A directory point whose 8 KB 2-way L2 writes back often enough for
    jbb to reach the directory's writeback race."""
    return benchmark_config(workload, seed=1, references=200,
                            variant=variant).with_updates(
        l2=CacheConfig(8192, 2))


class TestVariantTwins:
    """A stored run also stands for its variant twin when its counters
    name none of the system's variant sites."""

    def test_snooping_cornercase_simulates_only_its_full_points(
            self, monkeypatch):
        calls = record_executions(monkeypatch)
        snooping_cornercase.run(references=200, seed=1,
                                executor=SerialExecutor())
        simulated = sorted((spec.workload, spec.config.variant.value)
                           for spec, _, ran in calls if ran)
        replayed = [(spec, result) for spec, result, ran in calls if not ran]
        workloads = sorted(default_workloads())
        assert len(workloads) == 5 and len(calls) == 10
        assert simulated == [(workload, "full") for workload in workloads]
        assert sorted((spec.workload, spec.config.variant.value)
                      for spec, _ in replayed) \
            == [(workload, "speculative") for workload in workloads]
        assert memo_stats()["run_hits"] == 5
        for spec, result in replayed:
            assert result.config_label == "snooping-speculative"
            clear_memos()
            fresh, simulated_now = run_counted(spec)
            assert simulated_now
            assert result_bytes(result) == result_bytes(fresh), spec.workload

    def test_speculative_first_replays_too(self):
        replayed = []
        for workload in default_workloads():
            for variant in (SPECULATIVE, FULL):
                spec = RunSpec(config=benchmark_config(
                    workload, seed=1, references=200,
                    protocol=ProtocolKind.SNOOPING, variant=variant))
                result, simulated = run_counted(spec)
                assert simulated is (variant is SPECULATIVE)
                if not simulated:
                    replayed.append((spec, result))
        assert len(replayed) == 5
        for spec, result in replayed:
            clear_memos()
            fresh, _ = run_counted(spec)
            assert result_bytes(result) == result_bytes(fresh), spec.workload

    def test_directory_writeback_race_is_simulated(self):
        """The counter-example: jbb reaches the directory's writeback race,
        where the FULL directory also sends the data itself, and the twins
        really differ."""
        full, simulated = run_counted(RunSpec(config=small_dir_l2("jbb", FULL)))
        assert simulated
        races = site_counters(full.counters, DirectorySystem)
        assert list(races.values()) == [1]
        assert all(name.endswith(".writeback_races") for name in races)
        speculative, simulated = run_counted(
            RunSpec(config=small_dir_l2("jbb", SPECULATIVE)))
        assert simulated
        assert site_counters(speculative.counters, DirectorySystem) == races
        assert (full.runtime_cycles, speculative.runtime_cycles) \
            == (507_682, 507_596)

    @pytest.mark.parametrize("workload", ["oltp", "hotspot"])
    def test_directory_twins_that_reach_no_site_replay(self, workload):
        full, simulated = run_counted(
            RunSpec(config=small_dir_l2(workload, FULL)))
        assert simulated
        assert site_counters(full.counters, DirectorySystem) == {}
        spec = RunSpec(config=small_dir_l2(workload, SPECULATIVE))
        replayed, simulated = run_counted(spec)
        assert not simulated
        clear_memos()
        fresh, _ = run_counted(spec)
        assert result_bytes(replayed) == result_bytes(fresh)

    def test_twin_of_a_run_that_names_a_site_is_simulated(self):
        config = small_snooping()
        _, simulated = run_counted(RunSpec(config=config))
        assert simulated
        replayed, simulated = run_counted(RunSpec(config=twin(config)))
        assert not simulated  # the clean twin replays ...
        assert replayed.config_label == "snooping-speculative"
        clear_memos()
        run_counted(RunSpec(config=config))
        [(stored, result)] = executor_module._RUN_MEMO[kernel.active_tier()]
        doctored = replace(result, counters={
            **result.counters, "snoopctrl1.corner_case_handled": 1})
        executor_module._RUN_MEMO[kernel.active_tier()][0] = (stored, doctored)
        _, simulated = run_counted(RunSpec(config=twin(config)))
        assert simulated  # ... the one that reached the corner case is not

    def test_exact_entry_that_names_a_site_replays(self):
        """The sites restrict twins only: an equal configuration replays
        whatever its run reached."""
        config = small_snooping()
        result, _ = run_counted(RunSpec(config=config))
        doctored = replace(result, counters={
            **result.counters, "snoopctrl1.corner_case_handled": 1})
        executor_module._RUN_MEMO[kernel.active_tier()][0] = (config, doctored)
        replayed, simulated = run_counted(RunSpec(config=config))
        assert not simulated
        assert result_bytes(replayed) == result_bytes(doctored)

    def test_twin_that_names_a_site_is_skipped_and_the_scan_goes_on(self):
        config = small_snooping()
        result, _ = run_counted(RunSpec(config=config))
        doctored = replace(result, l2_hits=result.l2_hits + 1, counters={
            **result.counters, "snoopctrl1.corner_case_detections": 1})
        executor_module._RUN_MEMO[kernel.active_tier()].insert(
            0, (twin(config), doctored))
        replayed, simulated = run_counted(RunSpec(config=config))
        assert not simulated
        assert result_bytes(replayed) == result_bytes(result)

    def test_twin_stored_on_the_other_tier_is_simulated(self, monkeypatch):
        config = small_snooping()
        run_counted(RunSpec(config=config))
        other = "compiled" if kernel.active_tier() == "pure" else "pure"
        monkeypatch.setattr(executor_module, "kernel",
                            SimpleNamespace(active_tier=lambda: other))
        _, simulated = run_counted(RunSpec(config=twin(config)))
        assert simulated

    def test_twins_differing_in_one_more_field_are_simulated(self):
        """``speculative_no_vc`` is ignored by the bus-based system, but a
        configuration that differs in it is not a variant twin."""
        config = small_snooping()
        run_counted(RunSpec(config=config))
        other = twin(config).with_updates(interconnect=replace(
            config.interconnect, speculative_no_vc=True))
        _, simulated = run_counted(RunSpec(config=other))
        assert simulated


@given(seed=st.integers(0, 1_000),
       workload=st.sampled_from(default_workloads()),
       protocol=st.sampled_from(list(ProtocolKind)))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_twin_runs_that_reach_no_site_are_identical(seed, workload, protocol):
    """The argument behind the twin rule, checked on two real simulations
    (no memo): when the FULL run's counters name no variant site, the
    SPECULATIVE run equals it byte for byte apart from the label.  The
    small L2 and adaptive routing make writebacks, races and reordering
    likely, so some examples reach a site."""
    config = SystemConfig.small(4, references=120, seed=seed).with_updates(
        protocol=protocol, variant=FULL, l2=CacheConfig(16 * 1024, 2),
        workload=WorkloadConfig(name=workload, references_per_processor=120,
                                seed=seed))
    config = config.with_updates(interconnect=replace(
        config.interconnect, routing=RoutingPolicy.ADAPTIVE))
    full = build_system(config, label="twin").run()
    if not system_class(config).stands_for(config, full, twin(config)):
        return
    speculative = build_system(twin(config), label="twin").run()
    assert result_bytes(speculative) == result_bytes(full)


class TestSpeculationMatrix:
    def test_full_grid_simulates_one_point_per_group(self):
        """Submitted protocol, topology, scale, S3, combination, each group
        of four equal or twin points is one simulation; the rows keep their
        combination-major order."""
        runs = PERF_COUNTERS["runs"]
        result = speculation_matrix.run(references=20,
                                        executor=SerialExecutor())
        assert PERF_COUNTERS["runs"] - runs == 24
        assert memo_stats()["run_hits"] == 72
        assert list(result.rows)[:3] == [
            "directory/none@torus/4", "directory/none@torus/16",
            "directory/none@mesh/4"]


def forced_snooping_corner_case(variant: ProtocolVariant):
    """examples/snooping_corner_case.py's forced corner case on node 1."""
    system = build_system(SystemConfig.small(
        num_processors=4, references=0).with_updates(
            protocol=ProtocolKind.SNOOPING, variant=variant))
    ctrl = system.nodes[1].cache_controller
    if kernel.active_tier() == "compiled":
        # The compiled SnoopCore reaches the site through ``_corner_case``.
        assert ctrl.snoop == ctrl._snoop_core.snoop
    ctrl.access(MemoryRequest(node=1, op=MemoryOp.STORE, address=0x2000,
                              value=7), lambda request: None)
    system.sim.run()
    ctrl._evict(system.nodes[1].l2_array.peek(0x2000))
    for requestor in (2, 3):
        ctrl.snoop(BusRequest(requestor=requestor, address=0x2000,
                              rtype=BusRequestType.GETX))
    system.sim.run()
    return system


def forwarded_request_without_data(variant: ProtocolVariant):
    """A ForwardedRequestReadWrite delivered to node 1, which holds neither
    the block nor a writeback of it."""
    system = build_system(SystemConfig.small(
        num_processors=4, references=0).with_updates(variant=variant))
    receive = system.network._endpoints[1].receive
    if kernel.active_tier() == "compiled":
        assert not isinstance(receive, FunctionType)
    receive(NetworkMessage(
        src=0, dst=1, msg_class=MessageClass.FORWARDED_REQUEST_READ_WRITE,
        size_bytes=8, payload=CoherencePayload(requestor=2), address=0x2000))
    system.sim.run()
    return system


class TestVariantSites:
    """Each declared counter is counted at its site, on the selected tier
    (the jbb counter-example above covers ``writeback_races``)."""

    @pytest.mark.parametrize("variant, counter", [
        (FULL, "snoopctrl1.corner_case_handled"),
        (SPECULATIVE, "snoopctrl1.corner_case_detections")])
    def test_snooping_corner_case(self, variant, counter):
        system = forced_snooping_corner_case(variant)
        assert site_counters(system.stats.counters(), SnoopingSystem) \
            == {counter: 1}
        assert len(system.speculation.records) == (variant is SPECULATIVE)

    @pytest.mark.parametrize("variant, counter", [
        (FULL, "l2ctrl1.race_forward_ignored"),
        (SPECULATIVE, "l2ctrl1.p2p_order_detections")])
    def test_forwarded_request_without_data(self, variant, counter):
        system = forwarded_request_without_data(variant)
        assert site_counters(system.stats.counters(), DirectorySystem) \
            == {counter: 1}
        assert len(system.speculation.records) == (variant is SPECULATIVE)
