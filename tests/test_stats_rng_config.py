"""Unit tests for statistics, deterministic RNG and system configuration."""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.config import (
    CacheConfig,
    CheckpointConfig,
    InterconnectConfig,
    ProtocolKind,
    RoutingPolicy,
    SystemConfig,
    WorkloadConfig,
)
from repro.sim.rng import DeterministicRng
from repro.sim.stats import Counter, Histogram, StatsRegistry, weighted_mean


class TestCounters:
    def test_counter_accumulates(self):
        counter = Counter("x")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_counter_reset(self):
        counter = Counter("x")
        counter.add(3)
        counter.reset()
        assert counter.value == 0

    def test_registry_returns_same_counter(self):
        registry = StatsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_registry_prefix_filter(self):
        registry = StatsRegistry()
        registry.counter("net.sent").add(3)
        registry.counter("net.recv").add(2)
        registry.counter("cache.hits").add(7)
        assert registry.counters("net.") == {"net.sent": 3, "net.recv": 2}
        assert registry.total("net.") == 5

    def test_registry_merge(self):
        a, b = StatsRegistry(), StatsRegistry()
        a.counter("x").add(1)
        b.counter("x").add(2)
        b.counter("y").add(3)
        a.merge_from(b)
        assert a.counter("x").value == 3
        assert a.counter("y").value == 3

    def test_as_rows_sorted(self):
        registry = StatsRegistry()
        registry.counter("b").add(1)
        registry.counter("a").add(2)
        assert registry.as_rows() == [("a", 2), ("b", 1)]


class TestHistogram:
    def test_mean_and_extremes(self):
        hist = Histogram("lat", bucket_width=10)
        for value in (5, 15, 25):
            hist.record(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(15.0)
        assert hist.min == 5
        assert hist.max == 25

    def test_percentile_monotonic(self):
        hist = Histogram("lat", bucket_width=8)
        for value in range(100):
            hist.record(value)
        assert hist.percentile(0.5) <= hist.percentile(0.9) <= hist.percentile(1.0)

    def test_percentile_empty(self):
        assert Histogram("lat").percentile(0.9) == 0

    def test_invalid_bucket_width(self):
        with pytest.raises(ValueError):
            Histogram("lat", bucket_width=0)

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            Histogram("lat").percentile(1.5)


class TestSamplerAndHelpers:
    def test_weighted_mean(self):
        assert weighted_mean([(1.0, 1.0), (3.0, 3.0)]) == pytest.approx(2.5)
        assert weighted_mean([]) == 0.0


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.randint("s", 0, 100) for _ in range(10)] == \
               [b.randint("s", 0, 100) for _ in range(10)]

    def test_different_names_are_independent(self):
        rng = DeterministicRng(42)
        first = [rng.randint("a", 0, 1000) for _ in range(5)]
        second = [rng.randint("b", 0, 1000) for _ in range(5)]
        assert first != second

    def test_spawn_is_deterministic(self):
        a = DeterministicRng(1).spawn("child")
        b = DeterministicRng(1).spawn("child")
        assert a.randint("x", 0, 10**9) == b.randint("x", 0, 10**9)

    def test_choice_and_bounds(self):
        rng = DeterministicRng(7)
        options = ["a", "b", "c"]
        for _ in range(20):
            assert rng.choice("c", options) in options
        with pytest.raises(ValueError):
            rng.choice("c", [])

    def test_geometric_positive(self):
        rng = DeterministicRng(3)
        assert all(rng.geometric("g", 0.5) >= 1 for _ in range(20))
        with pytest.raises(ValueError):
            rng.geometric("g", 0.0)

    def test_zipf_index_in_range(self):
        rng = DeterministicRng(5)
        assert all(0 <= rng.zipf_index("z", 50, 1.3) < 50 for _ in range(50))


class TestCacheConfig:
    def test_geometry(self):
        cfg = CacheConfig(size_bytes=64 * 1024, associativity=4, block_bytes=64)
        assert cfg.num_sets == 256
        assert cfg.num_blocks == 1024

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, associativity=3, block_bytes=64)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0, associativity=1)


class TestSystemConfig:
    def test_paper_defaults_match_table2(self):
        rows = SystemConfig.paper_defaults().table2_rows()
        assert rows["L1 Cache (I and D)"].startswith("128 KB")
        assert rows["L2 Cache"].startswith("4 MB")
        assert "100000 cycles" in rows["Checkpoint Interval"]
        assert "512 kbytes" in rows["Checkpoint Log Buffer"]

    def test_small_preset_is_valid_and_fast(self):
        cfg = SystemConfig.small(num_processors=4, references=100)
        assert cfg.num_processors == 4
        assert cfg.workload.references_per_processor == 100
        assert cfg.interconnect.num_switches >= 4

    def test_torus_must_fit_processors(self):
        with pytest.raises(ValueError):
            SystemConfig(num_processors=32,
                         interconnect=InterconnectConfig())

    def test_block_size_must_match(self):
        with pytest.raises(ValueError):
            SystemConfig(l1=CacheConfig(128 * 1024, 4, block_bytes=32))

    def test_with_updates_returns_copy(self):
        cfg = SystemConfig.small()
        other = cfg.with_updates(protocol=ProtocolKind.SNOOPING)
        assert other.protocol == ProtocolKind.SNOOPING
        assert cfg.protocol == ProtocolKind.DIRECTORY

    def test_serialization_cycles_scale_with_bandwidth(self):
        slow = InterconnectConfig(link_bandwidth_bytes_per_sec=400e6)
        fast = InterconnectConfig(link_bandwidth_bytes_per_sec=3.2e9)
        assert slow.serialization_cycles(72, 4e9) > fast.serialization_cycles(72, 4e9)

    def test_checkpoint_log_entries(self):
        cp = CheckpointConfig()
        assert cp.log_entries == (512 * 1024) // 72
