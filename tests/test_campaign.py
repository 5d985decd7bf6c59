"""Tests for the campaign layer: specs, registry, executors, caching.

The determinism contract is the load-bearing property: the same
:class:`RunSpec` must produce byte-identical ``RunResult`` JSON whether it
runs serially, in a worker process, or out of the on-disk cache.
"""

from __future__ import annotations

import json
import subprocess
import sys
import weakref
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignContext,
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    SweepSpec,
    all_experiments,
    canonical_json,
    clear_memos,
    discover,
    execute_spec,
    experiment_names,
    get_experiment,
    make_executor,
    memo_stats,
    register_experiment,
)
from repro.campaign import executor as executor_module
from repro.campaign.executor import clear_run_memo
from repro.campaign import registry as registry_module
from repro.coherence import cache as cache_module
from repro.core.events import MisspeculationEvent, RecoveryRecord, SpeculationKind
from repro.experiments import common, runner
from repro.sim.config import ProtocolKind, RoutingPolicy, SystemConfig
from repro.system.results import RunResult
from repro.system.snooping_system import SnoopingSystem


def small_spec(references: int = 200, seed: int = 1, **spec_kwargs) -> RunSpec:
    return RunSpec(config=SystemConfig.small(4, references=references, seed=seed),
                   **spec_kwargs)


def adaptive_twin(spec: RunSpec) -> RunSpec:
    """``spec`` on adaptive routing: another machine on the same streams."""
    config = spec.config
    return RunSpec(config=config.with_updates(interconnect=replace(
        config.interconnect, routing=RoutingPolicy.ADAPTIVE)))


def result_bytes(result: RunResult) -> str:
    return canonical_json(result.to_json())


class TestRunSpec:
    def test_content_hash_is_stable(self):
        assert small_spec().content_hash() == small_spec().content_hash()

    def test_content_hash_changes_with_any_knob(self):
        base = small_spec()
        assert base.content_hash() != small_spec(seed=2).content_hash()
        assert base.content_hash() != small_spec(label="x").content_hash()
        assert base.content_hash() != small_spec(max_cycles=10).content_hash()
        assert base.content_hash() != small_spec(
            recovery_rate_per_second=0.0).content_hash()

    def test_zero_rate_differs_from_no_injector(self):
        """None (no injector) and 0.0 (idle injector) are distinct design points."""
        assert (small_spec(recovery_rate_per_second=None).content_hash()
                != small_spec(recovery_rate_per_second=0.0).content_hash())

    def test_spec_equality_and_json(self):
        assert small_spec() == small_spec()
        assert small_spec() != small_spec(seed=9)
        payload = small_spec(label="point").to_json()
        assert payload["label"] == "point"
        assert payload["config"]["num_processors"] == 4
        json.dumps(payload)  # must already be JSON-safe

    def test_sweep_spec(self):
        sweep = SweepSpec.of("demo", [small_spec(label="a"), small_spec(label="b")])
        assert len(sweep) == 2
        assert sweep.labels() == ["a", "b"]
        assert sweep.content_hash() != SweepSpec.of("demo", [small_spec()]).content_hash()

    def test_executor_maps_sweep_spec_batches(self):
        sweep = SweepSpec.of("demo", [small_spec(references=120),
                                      small_spec(references=120, seed=2)])
        results = SerialExecutor().map(sweep)
        assert [result_bytes(r) for r in results] == \
               [result_bytes(r) for r in SerialExecutor().map(list(sweep))]


class TestResultSerialization:
    def test_run_result_round_trips_with_recovery_records(self):
        record = RecoveryRecord(
            event=MisspeculationEvent(kind=SpeculationKind.INJECTED,
                                      detected_at=123, node=2, address=64,
                                      description="test", details={"txn_id": 7}),
            started_at=123, recovery_point=100, resumed_at=150,
            work_lost_cycles=23, messages_squashed=4, log_entries_undone=9)
        result = RunResult(workload="jbb", config_label="t", runtime_cycles=10,
                           references_completed=5, instructions_retired=20,
                           finished=True, recoveries=1,
                           recoveries_by_kind={"injected": 1},
                           recovery_records=[record],
                           counters={"net.sent": 11})
        clone = RunResult.from_json(json.loads(canonical_json(result.to_json())))
        assert result_bytes(clone) == result_bytes(result)
        assert clone.recovery_records[0].event.kind is SpeculationKind.INJECTED
        assert clone.recovery_records[0].total_cost_cycles == record.total_cost_cycles

    def test_from_json_rejects_unknown_schema(self):
        payload = RunResult(workload="jbb", config_label="t", runtime_cycles=1,
                            references_completed=1, instructions_retired=1,
                            finished=True).to_json()
        payload["schema"] = "bogus/v9"
        with pytest.raises(ValueError):
            RunResult.from_json(payload)


class TestExecutors:
    def test_serial_and_parallel_results_are_byte_identical(self):
        specs = [small_spec(references=150),
                 small_spec(references=150, seed=2),
                 small_spec(references=120, recovery_rate_per_second=0.0)]
        serial = SerialExecutor().map(specs)
        with ParallelExecutor(max_workers=2) as executor:
            parallel = executor.map(specs)
        assert [result_bytes(r) for r in serial] == \
               [result_bytes(r) for r in parallel]

    def test_results_do_not_depend_on_run_order(self):
        spec = small_spec(references=150)
        executor = SerialExecutor()
        first = executor.run(spec)
        executor.run(small_spec(references=150, seed=5))  # warm the process
        clear_run_memo()  # simulate the spec again instead of replaying it
        again = executor.run(spec)
        assert result_bytes(first) == result_bytes(again)

    def test_cache_hit_returns_identical_result(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        executor = SerialExecutor(cache=cache)
        spec = small_spec(references=150)
        fresh = executor.run(spec)
        assert len(cache) == 1
        hit = executor.run(spec)
        assert cache.hits >= 1
        assert result_bytes(hit) == result_bytes(fresh)

    def test_cache_is_shared_across_executor_kinds(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = small_spec(references=150)
        fresh = SerialExecutor(cache=cache).run(spec)
        with ParallelExecutor(max_workers=2, cache=cache) as executor:
            hit = executor.run(spec)
        assert cache.hits >= 1
        assert result_bytes(hit) == result_bytes(fresh)

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = small_spec(references=120)
        with open(cache.path_for(spec), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        executor = SerialExecutor(cache=cache)
        result = executor.run(spec)
        assert result.references_completed > 0
        assert cache.misses >= 1

    def test_fresh_array_after_map_holds_only_the_sentinel(self):
        """A batch leaves no run state in the cache module: a fresh array
        starts with every set on the shared empty mapping."""
        SerialExecutor().map([small_spec(references=60)])
        config = SystemConfig.small(4)
        fresh = cache_module.CacheArray("fresh", config.l2, None)
        assert all(entry is cache_module._NO_LINES for entry in fresh._sets)
        assert len(cache_module._NO_LINES) == 0
        containers = [name for name, value in vars(cache_module).items()
                      if not name.startswith("__")
                      and isinstance(value, (dict, list, set))]
        assert containers == []

    def test_memo_stats_counts_hits(self):
        clear_memos()
        spec_a = small_spec(references=80, seed=7)
        spec_b = adaptive_twin(spec_a)
        SerialExecutor().map([spec_a, spec_b])
        stats = memo_stats()
        assert stats["stream_misses"] >= 1
        assert stats["stream_hits"] >= 1

    def test_finished_machines_are_freed(self, monkeypatch):
        """No machine outlives the collection that follows its run; one
        still referenced at that point would be promoted out of reach of
        every later collection inside the campaign."""
        machines = []
        build_system = executor_module.build_system

        def recording_build(*args, **kwargs):
            system = build_system(*args, **kwargs)
            machines.append(weakref.ref(system))
            return system

        monkeypatch.setattr(executor_module, "build_system", recording_build)
        SerialExecutor().map([small_spec(references=60, seed=seed)
                              for seed in (1, 2, 3)])
        assert len(machines) == 3
        assert [ref() is None for ref in machines] == [True, True, True]

    def test_make_executor_selects_kind(self):
        assert isinstance(make_executor(0), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        parallel = make_executor(3)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.max_workers == 3
        parallel.close()

    def test_zero_rate_attaches_idle_injector(self, monkeypatch):
        """Regression: a falsy 0.0 rate used to silently skip the injector."""
        attached = []
        original = SnoopingSystem.attach_recovery_injector

        def spy(self, rate):
            attached.append(rate)
            return original(self, rate)

        monkeypatch.setattr(SnoopingSystem, "attach_recovery_injector", spy)
        config = SystemConfig.small(4, references=50).with_updates(
            protocol=ProtocolKind.SNOOPING)
        execute_spec(RunSpec(config=config, recovery_rate_per_second=0.0))
        assert attached == [0.0]
        attached.clear()
        execute_spec(RunSpec(config=config, recovery_rate_per_second=None))
        assert attached == []

    def test_run_config_forwards_explicit_zero_rate(self, monkeypatch):
        attached = []
        original = SnoopingSystem.attach_recovery_injector

        def spy(self, rate):
            attached.append(rate)
            return original(self, rate)

        monkeypatch.setattr(SnoopingSystem, "attach_recovery_injector", spy)
        config = SystemConfig.small(4, references=50).with_updates(
            protocol=ProtocolKind.SNOOPING)
        result = common.run_config(config, recovery_rate_per_second=0.0)
        assert attached == [0.0]
        assert result.recoveries_of(SpeculationKind.INJECTED) == 0


class TestRegistry:
    def test_discover_finds_every_driver(self):
        discover()
        assert experiment_names() == [
            "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4",
            "fig5", "topology_scale", "speculation_matrix", "workload_matrix",
            "dir_reordering", "snooping_cornercase", "buffer_sweep"]

    def test_entries_expose_structured_results_protocol(self):
        discover()
        for entry in all_experiments():
            assert entry.title
            assert callable(entry.runner)

    def test_get_experiment_unknown_name(self):
        discover()
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("nope")

    def test_duplicate_registration_rejected(self, monkeypatch):
        monkeypatch.setattr(registry_module, "_REGISTRY",
                            dict(registry_module._REGISTRY))
        register_experiment("dup-test", title="x", order=999)(lambda ctx: None)
        with pytest.raises(ValueError, match="registered twice"):
            register_experiment("dup-test", title="x", order=999)(lambda ctx: None)

    def test_structural_experiment_via_registry(self):
        discover()
        entry = get_experiment("table2")
        result = entry.runner(CampaignContext())
        assert "paper scale" in result.format()
        rows = result.to_rows()
        assert any(row["parameter"] == "L1 Cache (I and D)" for row in rows)
        json.dumps(result.to_json())


class TestRunnerCLI:
    def test_list_flag(self, capsys):
        assert runner.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "buffer_sweep" in out

    def test_only_validates_names(self):
        with pytest.raises(ValueError, match="unknown experiments"):
            runner.run_campaign(only=["missing"])

    def test_only_subset_with_json_report(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        text_path = tmp_path / "report.txt"
        code = runner.main(["--only", "table2", "--only", "fig2",
                            "--json", str(json_path),
                            "--output", str(text_path)])
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == runner.REPORT_SCHEMA
        assert set(payload["experiments"]) == {"table2", "fig2"}
        text = text_path.read_text()
        assert "Table 2" in text and "Figure 2" in text
        assert runner.SECTION_SEPARATOR.strip("\n") in text

    def test_memos_block_is_execution_side(self, tmp_path):
        """The runner surfaces memo_stats() in the execution block, next to
        the kernel tier, and compare_reports strips it: reports stay
        byte-comparable.  Quick fig4 simulates its two baselines, replays
        its four 1/s and 10/s points from the run memo and resumes its two
        100/s points from their baselines in forked children."""
        path = tmp_path / "report.json"
        assert runner.main(["--only", "fig4", "--quick",
                            "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        memos = payload["execution"]["memos"]
        assert {"stream_hits", "stream_misses"} <= set(memos)
        assert (memos["run_hits"], memos["run_misses"],
                memos["run_resumes"]) == (4, 2, 2)
        assert {"kernel", "memos"} <= set(payload["execution"])

        doctored = tmp_path / "doctored.json"
        edited = dict(payload)
        edited["execution"] = dict(payload["execution"],
                                   memos={k: v + 17 for k, v in memos.items()})
        doctored.write_text(json.dumps(edited))
        proc = subprocess.run(
            [sys.executable, "tools/compare_reports.py",
             str(path), str(doctored)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_report_sections_follow_registry_order(self):
        results = runner.run_campaign(only=["fig2", "table2"])
        assert list(results) == ["table2", "fig2"]
