"""Tests for the shared-precomputation layer (DESIGN.md §9).

The load-bearing property is that the memos are invisible to results: a
run served from warm workload/topology artifacts must produce byte
-identical ``RunResult`` JSON to a cold run, and the memo keys must miss
whenever any ingredient of the generated content changes.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.campaign import (
    ResultCache,
    RunSpec,
    SerialExecutor,
    canonical_json,
    clear_memos,
    execute_spec,
    make_executor,
    memo_stats,
)
from repro.campaign.executor import clear_run_memo
from repro.interconnect.topology import (
    TOPOLOGY_MEMO_STATS,
    clear_topology_memo,
    shared_topology,
)
from repro.sim.config import RoutingPolicy, SystemConfig
from repro.system.results import RunResult
from repro.workloads import get_family, make_workload
from repro.workloads.memo import (
    MEMO_STATS,
    clear_stream_memo,
    shared_streams,
    stream_key,
    stream_memo_len,
)


def small_spec(references: int = 150, seed: int = 1, **spec_kwargs) -> RunSpec:
    return RunSpec(config=SystemConfig.small(4, references=references, seed=seed),
                   **spec_kwargs)


def adaptive_twin(spec: RunSpec) -> RunSpec:
    """``spec`` on adaptive routing: another machine on the same streams."""
    config = spec.config
    return RunSpec(config=config.with_updates(interconnect=replace(
        config.interconnect, routing=RoutingPolicy.ADAPTIVE)))


def result_bytes(result: RunResult) -> str:
    return canonical_json(result.to_json())


BASE_KEY_KWARGS = dict(num_processors=4, block_bytes=64, seed=1,
                       params=None, references_per_processor=100)


class TestStreamMemo:
    def test_warm_hit_returns_same_artifact(self):
        clear_stream_memo()
        cold = shared_streams("jbb", **BASE_KEY_KWARGS)
        warm = shared_streams("jbb", **BASE_KEY_KWARGS)
        assert warm is cold
        assert MEMO_STATS == {"stream_hits": 1, "stream_misses": 1}
        assert stream_memo_len() == 1

    def test_artifact_matches_fresh_generation(self):
        clear_stream_memo()
        artifact = shared_streams("jbb", **BASE_KEY_KWARGS)
        fresh = make_workload("jbb", num_processors=4, block_bytes=64,
                              seed=1).generate_all(100)
        for node in range(4):
            assert artifact.cursor(node) == fresh[node]

    def test_cursor_is_a_fresh_per_run_copy(self):
        clear_stream_memo()
        artifact = shared_streams("jbb", **BASE_KEY_KWARGS)
        first = artifact.cursor(0)
        second = artifact.cursor(0)
        assert first == second and first is not second
        first.clear()  # consuming one run's cursor never touches the artifact
        assert artifact.cursor(0) == second

    def test_key_misses_on_every_content_ingredient(self):
        base = stream_key("jbb", **BASE_KEY_KWARGS)
        assert base == stream_key("jbb", **BASE_KEY_KWARGS)
        assert base != stream_key("oltp", **BASE_KEY_KWARGS)
        assert base != stream_key("jbb", **{**BASE_KEY_KWARGS, "seed": 2})
        assert base != stream_key("jbb", **{**BASE_KEY_KWARGS,
                                            "num_processors": 8})
        assert base != stream_key("jbb", **{**BASE_KEY_KWARGS,
                                            "block_bytes": 32})
        assert base != stream_key("jbb", **{**BASE_KEY_KWARGS,
                                            "references_per_processor": 200})

    def test_params_canonicalize_through_the_family(self):
        """``params=None`` and an explicit copy of the registered defaults
        generate the same stream, so they must share one memo entry; any
        overridden value must miss."""
        defaults = dict(get_family("hotspot").defaults)
        kwargs = {**BASE_KEY_KWARGS, "params": None}
        explicit = {**BASE_KEY_KWARGS, "params": dict(defaults)}
        assert stream_key("hotspot", **kwargs) == stream_key("hotspot",
                                                             **explicit)
        knob = next(iter(defaults))
        changed = dict(defaults)
        changed[knob] = defaults[knob] * 2
        assert stream_key("hotspot", **kwargs) != stream_key(
            "hotspot", **{**BASE_KEY_KWARGS, "params": changed})


class TestTopologyMemo:
    def test_shared_instance_with_prebuilt_tables(self):
        clear_topology_memo()
        first = shared_topology("torus", (4, 4))
        second = shared_topology("torus", (4, 4))
        assert second is first
        assert TOPOLOGY_MEMO_STATS == {"topology_hits": 1,
                                       "topology_misses": 1}
        # The artifact is fully precomputed: both tables exist already.
        assert first._dim_order_table and first._minimal_table

    def test_key_misses_on_kind_and_dims(self):
        clear_topology_memo()
        torus = shared_topology("torus", (4, 4))
        assert shared_topology("mesh", (4, 4)) is not torus
        assert shared_topology("torus", (2, 2)) is not torus
        # List dims normalise to the tuple key.
        assert shared_topology("torus", [4, 4]) is torus


class TestColdWarmDeterminism:
    def test_cold_and_warm_runs_are_byte_identical(self):
        spec = small_spec()
        clear_memos()
        cold = result_bytes(execute_spec(spec))
        stats = memo_stats()
        assert stats["stream_misses"] == 1 and stats["stream_hits"] == 0
        clear_run_memo()  # simulate on the warm streams, do not replay
        warm = result_bytes(execute_spec(spec))
        stats = memo_stats()
        assert stats["stream_hits"] == 1
        assert warm == cold

    def test_explicit_workload_object_bypasses_the_memo(self):
        spec = small_spec()
        clear_memos()
        memoized = execute_spec(spec)
        cfg = spec.config
        from repro.system import build_system
        system = build_system(cfg, label=spec.label)
        workload = make_workload(cfg.workload.name,
                                 num_processors=cfg.num_processors,
                                 block_bytes=cfg.block_bytes,
                                 seed=cfg.workload.seed,
                                 params=cfg.workload.params)
        system_result = system.run(workload=workload,
                                   max_cycles=spec.max_cycles)
        assert result_bytes(system_result) == result_bytes(memoized)


class TestBatchExecutor:
    def test_make_executor_selects_batched(self):
        """The default executor runs a batch in one process, sharing the
        memos across its specs; no separate batched strategy remains."""
        executor = make_executor()
        assert isinstance(executor, SerialExecutor)
        with pytest.raises(TypeError):
            make_executor(batched=True)
        clear_memos()
        spec = small_spec(references=80, seed=7)
        executor.map([spec, adaptive_twin(spec)])
        assert memo_stats()["stream_hits"] >= 1


class TestResultCacheCounters:
    def test_stats_track_hits_misses_and_stores(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = small_spec(references=100)
        executor = SerialExecutor(cache=cache)
        first = executor.run(spec)
        assert cache.stats() == {"hits": 0, "misses": 1, "stored": 1}
        second = executor.run(spec)
        assert cache.stats() == {"hits": 1, "misses": 1, "stored": 1}
        assert result_bytes(second) == result_bytes(first)
        assert len(cache) == 1
