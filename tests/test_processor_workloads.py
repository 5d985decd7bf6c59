"""Unit and property tests for the processor model and synthetic workloads."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import pytest

from repro.coherence.common import MemoryOp, MemoryRequest
from repro.coherence.directory.states import CacheState
from repro.processor.core import BlockingProcessor
from repro.processor.l1 import L1FilterCache
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.engine import Simulator
from repro.workloads import (
    PROFILES,
    get_profile,
    make_workload,
    paper_workload_names,
    table3_rows,
    workload_names,
)
from repro.workloads.base import SyntheticWorkload, WorkloadProfile, mix_statistics


class FakeMemorySystem:
    """Completes every reference after a fixed latency; records them."""

    def __init__(self, sim: Simulator, latency: int = 20) -> None:
        self.sim = sim
        self.latency = latency
        self.requests = []
        self.states = {}

    def access(self, request: MemoryRequest, on_complete) -> None:
        self.requests.append(request)
        self.states[request.address] = (
            CacheState.MODIFIED if request.op == MemoryOp.STORE else CacheState.SHARED)
        self.sim.schedule(self.latency, lambda: on_complete(request))

    def state_of(self, address: int) -> CacheState:
        return self.states.get(address, CacheState.INVALID)


def build_processor(references, *, with_l1=True, latency=20):
    sim = Simulator()
    config = SystemConfig.small(num_processors=4, references=len(references))
    memory = FakeMemorySystem(sim, latency=latency)
    l1 = L1FilterCache("l1", config.l1) if with_l1 else None
    proc = BlockingProcessor(0, sim, config, references, l1=l1)
    proc.l2_access = memory.access
    proc.l2_state_of = memory.state_of
    return sim, proc, memory


class TestBlockingProcessor:
    def test_executes_entire_stream(self):
        refs = [(MemoryOp.LOAD, 64 * i) for i in range(50)]
        sim, proc, memory = build_processor(refs)
        proc.start()
        sim.run()
        assert proc.done
        assert proc.references_completed == 50
        assert proc.finished_at is not None

    def test_blocking_one_reference_at_a_time(self):
        refs = [(MemoryOp.LOAD, 64 * i) for i in range(10)]
        sim, proc, memory = build_processor(refs, with_l1=False, latency=100)
        proc.start()
        sim.run()
        # With a 100-cycle memory and no L1, runtime must be at least
        # references * latency (strictly serialised).
        assert proc.finished_at >= 10 * 100

    def test_l1_filters_repeated_accesses(self):
        refs = [(MemoryOp.LOAD, 0x40)] * 20
        sim, proc, memory = build_processor(refs)
        proc.start()
        sim.run()
        # Only the first miss reaches the memory system.
        assert len(memory.requests) == 1
        assert proc.stats.counters()["proc0.l1_hits"] == 19

    def test_store_requires_write_permission_for_l1_hit(self):
        refs = [(MemoryOp.LOAD, 0x40), (MemoryOp.STORE, 0x40), (MemoryOp.STORE, 0x40)]
        sim, proc, memory = build_processor(refs)
        proc.start()
        sim.run()
        # Load miss + store upgrade go to memory; second store hits in L1.
        assert len(memory.requests) == 2

    def test_store_values_monotonic_and_unique(self):
        refs = [(MemoryOp.STORE, 64 * i) for i in range(10)]
        sim, proc, memory = build_processor(refs, with_l1=False)
        proc.start()
        sim.run()
        values = [r.value for r in memory.requests]
        assert len(set(values)) == len(values)
        assert all(v is not None for v in values)

    def test_on_finished_callback(self):
        refs = [(MemoryOp.LOAD, 0x40)]
        sim, proc, memory = build_processor(refs)
        finished = []
        proc.start(finished.append)
        sim.run()
        assert finished == [0]

    def test_cannot_start_twice(self):
        sim, proc, memory = build_processor([])
        proc.start()
        with pytest.raises(RuntimeError):
            proc.start()

    def test_snapshot_excludes_in_flight_reference(self):
        refs = [(MemoryOp.LOAD, 64 * i) for i in range(5)]
        sim, proc, memory = build_processor(refs, with_l1=False, latency=1_000)
        proc.start()
        sim.run(until=50)  # first reference still outstanding
        snapshot = proc.checkpoint_snapshot()
        assert snapshot.stream_index == 0
        assert proc._waiting_for_memory

    def test_restore_rolls_back_and_resumes(self):
        refs = [(MemoryOp.LOAD, 64 * i) for i in range(20)]
        sim, proc, memory = build_processor(refs, with_l1=False, latency=10)
        proc.start()
        sim.run(until=100)
        snapshot = proc.checkpoint_snapshot()
        completed_at_snapshot = snapshot.references_completed
        sim.run(until=150)
        proc.checkpoint_restore(snapshot, resume_at=sim.now + 500)
        assert proc.references_completed == completed_at_snapshot
        assert proc.stalled_until >= sim.now + 500
        sim.run()
        assert proc.done
        assert proc.references_completed == 20

    def test_progress_fraction(self):
        refs = [(MemoryOp.LOAD, 64 * i) for i in range(4)]
        sim, proc, memory = build_processor(refs)
        assert proc.progress == 0.0
        proc.start()
        sim.run()
        assert proc.progress == 1.0
        empty_sim, empty_proc, _ = build_processor([])
        assert empty_proc.progress == 1.0


class TestL1Filter:
    def test_hit_requires_tag_and_l2_permission(self):
        l1 = L1FilterCache("l1", CacheConfig(1024, 2))
        l1.fill(0x40)
        assert l1.hit(0x40, MemoryOp.LOAD, CacheState.SHARED)
        assert not l1.hit(0x40, MemoryOp.LOAD, CacheState.INVALID)
        assert not l1.hit(0x40, MemoryOp.STORE, CacheState.SHARED)
        assert l1.hit(0x40, MemoryOp.STORE, CacheState.MODIFIED)
        assert not l1.hit(0x80, MemoryOp.LOAD, CacheState.SHARED)

    def test_invalidate(self):
        l1 = L1FilterCache("l1", CacheConfig(1024, 2))
        l1.fill(0x40)
        l1.invalidate(0x40)
        assert not l1.hit(0x40, MemoryOp.LOAD, CacheState.SHARED)
        l1.invalidate(0x80)  # absent: no-op


class TestWorkloads:
    def test_paper_five_lead_the_registry_in_figure_order(self):
        paper = ["jbb", "apache", "slashcode", "oltp", "barnes"]
        assert workload_names()[:5] == paper
        assert paper_workload_names() == paper
        assert list(PROFILES) == paper
        assert set(table3_rows()) == set(workload_names())

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            get_profile("tpcc")

    def test_streams_are_deterministic(self):
        a = make_workload("oltp", num_processors=4, seed=3).generate(1, 500)
        b = make_workload("oltp", num_processors=4, seed=3).generate(1, 500)
        assert a == b

    def test_different_seeds_differ(self):
        a = make_workload("oltp", num_processors=4, seed=3).generate(1, 500)
        b = make_workload("oltp", num_processors=4, seed=4).generate(1, 500)
        assert a != b

    def test_different_nodes_have_distinct_private_regions(self):
        workload = make_workload("jbb", num_processors=4, seed=1)
        a = {addr for _, addr in workload.generate(0, 400)}
        b = {addr for _, addr in workload.generate(1, 400)}
        shared_limit = workload._private_base
        private_a = {x for x in a if x >= shared_limit}
        private_b = {x for x in b if x >= shared_limit}
        assert private_a.isdisjoint(private_b)

    def test_addresses_are_block_aligned(self):
        workload = make_workload("apache", num_processors=2, seed=1)
        assert all(addr % 64 == 0 for _, addr in workload.generate(0, 500))

    def test_apache_is_read_heavier_than_jbb(self):
        apache = mix_statistics(make_workload("apache", num_processors=2, seed=1).generate(0, 3000))
        jbb = mix_statistics(make_workload("jbb", num_processors=2, seed=1).generate(0, 3000))
        assert apache["stores"] < jbb["stores"]

    def test_oltp_has_largest_shared_fraction_of_commercial(self):
        assert PROFILES["oltp"].shared_fraction >= PROFILES["jbb"].shared_fraction

    def test_generate_all_covers_every_processor(self):
        workload = make_workload("barnes", num_processors=4, seed=1)
        streams = workload.generate_all(100)
        assert set(streams) == {0, 1, 2, 3}
        assert all(len(s) == 100 for s in streams.values())

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", shared_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", private_blocks=0)

    def test_mix_statistics_empty(self):
        assert mix_statistics([])["unique_blocks"] == 0.0

    def test_summary_fields(self):
        workload = make_workload("slashcode", num_processors=8, seed=1)
        summary = workload.summary()
        assert summary["name"] == "slashcode"
        assert summary["processors"] == 8
        assert summary["footprint_blocks"] == workload.footprint_blocks

    @given(name=st.sampled_from(["jbb", "apache", "slashcode", "oltp", "barnes"]),
           node=st.integers(0, 3), count=st.integers(0, 400), seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_generated_streams_are_well_formed(self, name, node, count, seed):
        """Property: requested length, block-aligned, ops are loads/stores."""
        workload = make_workload(name, num_processors=4, seed=seed)
        stream = workload.generate(node, count)
        assert len(stream) == count
        footprint_bytes = workload.footprint_blocks * 64
        for op, address in stream:
            assert op in (MemoryOp.LOAD, MemoryOp.STORE)
            assert address % 64 == 0
            assert 0 <= address < footprint_bytes

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_store_fraction_tracks_profile(self, seed):
        """Property: measured store fraction is within sane bounds of profile."""
        workload = make_workload("jbb", num_processors=2, seed=seed)
        stats = mix_statistics(workload.generate(0, 2000))
        assert 0.15 < stats["stores"] < 0.75
