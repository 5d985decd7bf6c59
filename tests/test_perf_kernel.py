"""Tests for the kernel hot-path overhaul (PR 2).

Covers the behaviours the optimizations must preserve and the new
machinery they introduce:

* fused batch dispatch order, one object per event (a kept handle reaches
  only its own event), permanent events, heap compaction and the cancel
  reference-hygiene rule of the event kernel, on the tier the ``engine``
  fixture selects (``tests/conftest.py``);
* O(1) occupancy and overflow-stall accounting in the SafetyNet log;
* explicit floor+half-up serialization rounding in ``repro.interconnect``;
* precomputed routing tables vs. the raw geometry;
* chunk-buffered RNG draws being bit-identical to scalar draws;
* golden pins of the vectorized workload generator's emitted streams
  (stream schema v2): any change to substream names, chunk size or draw
  order shows up here as a hash mismatch.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.coherence.common import MemoryOp
from repro.interconnect.link import Link, serialization_cycles_for
from repro.interconnect.routing import AdaptiveMinimalRouting, DimensionOrderRouting
from repro.interconnect.topology import Direction, TorusTopology
from repro.safetynet.log import CheckpointLogBuffer, UndoRecord
from repro.sim.config import InterconnectConfig
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng
from repro.workloads import make_workload
from repro.workloads.base import SyntheticWorkload, WorkloadProfile


# ===================================================================== engine
class TestBatchDispatch:
    def test_same_cycle_fifo_order_preserved(self, engine):
        sim = engine.Simulator()
        order = []
        for i in range(8):
            sim.schedule(5, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(8))

    def test_event_scheduled_during_cycle_runs_after_queued_ones(self, engine):
        sim = engine.Simulator()
        order = []
        sim.schedule(5, lambda: (order.append("a"),
                                 sim.schedule(0, lambda: order.append("late"))))
        sim.schedule(5, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "late"]

    def test_callback_cancelling_later_same_cycle_event(self, engine):
        sim = engine.Simulator()
        order = []
        sim.schedule(3, lambda: (order.append("killer"), victim.cancel()))
        victim = sim.schedule(3, lambda: order.append("victim"))
        sim.schedule(3, lambda: order.append("survivor"))
        sim.run()
        assert order == ["killer", "survivor"]
        assert len(sim.queue) == 0

    def test_stop_mid_cycle_resumes_cleanly(self, engine):
        sim = engine.Simulator()
        order = []
        sim.schedule(2, lambda: (order.append("a"), sim.stop()))
        sim.schedule(2, lambda: order.append("b"))
        sim.run()
        assert order == ["a"]
        sim.run()
        assert order == ["a", "b"]

    def test_max_events_is_exact(self, engine):
        sim = engine.Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1, lambda i=i: fired.append(i))
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]
        sim.run()
        assert fired == list(range(10))


class TestEventPool:
    """Every push is a new event object, so a kept handle reaches only its
    own event."""

    def test_cancel_drops_callback_reference(self, engine):
        sim = engine.Simulator()
        ev = sim.schedule(1, lambda: None)
        ev.cancel()
        assert ev.callback is None
        sim.run()

    def test_cancel_after_fire_is_harmless_without_reuse(self, engine):
        sim = engine.Simulator()
        ev = sim.schedule(1, lambda: None)
        sim.run()
        live_before = len(sim.queue)
        ev.cancel()
        assert len(sim.queue) == live_before

    def test_stale_handle_cannot_cancel_a_later_event(self, engine):
        sim = engine.Simulator()
        fired = []
        stale = sim.schedule(1, lambda: fired.append("first"))
        sim.run()
        sim.schedule(1, lambda: fired.append("second"))
        stale.cancel()
        sim.run()
        assert fired == ["first", "second"]

    def test_static_event_requeues_itself_from_its_callback(self, engine):
        sim = engine.Simulator()
        queue = sim.queue
        fired = []

        def tick() -> None:
            fired.append(sim.now)
            if sim.now < 5:
                queue.push_static(event, sim.now + 2)

        event = queue.new_static_event(tick, "tick")
        queue.push_static(event, 1)
        sim.run()
        assert fired == [1, 3, 5]
        assert len(queue) == 0


class TestHeapCompaction:
    def test_compaction_triggers_and_preserves_order(self, engine):
        sim = engine.Simulator()
        queue = sim.queue
        fired = []
        kill = []
        for i in range(1500):
            ev = queue.push(10_000 + i, lambda i=i: fired.append(i))
            if i % 10:
                kill.append(ev)
        for ev in kill:
            ev.cancel()
        keep = [i for i in range(1500) if i % 10 == 0]
        assert queue.compactions >= 1
        assert len(queue) == len(keep)
        # Compaction bounds the heap: lingering cancelled entries stay below
        # the compaction threshold instead of accumulating without limit.
        assert len(keep) <= len(queue._heap) < engine.COMPACT_MIN_ENTRIES
        sim.run()
        assert fired == keep
        assert len(queue) == 0

    def test_no_compaction_below_threshold(self, engine):
        queue = engine.EventQueue()
        events = [queue.push(i, lambda: None) for i in range(100)]
        for ev in events[:80]:
            ev.cancel()
        assert queue.compactions == 0
        assert len(queue) == 20


# =============================================================== safetynet log
class TestLogOccupancyAccounting:
    def _record(self, seq: int, addr: int = 0) -> UndoRecord:
        return UndoRecord(checkpoint_seq=seq, target_id="t", address=addr,
                          field="state", old_value=1, logged_at=0)

    def test_overflow_stall_fill_commit_refill(self):
        # capacity 4 entries
        log = CheckpointLogBuffer("l", capacity_bytes=288, entry_bytes=72)
        for i in range(6):
            log.append(self._record(0, addr=i))
        assert log.overflow_stalls == 2  # appends 5 and 6
        assert log.occupancy_entries == 6
        # A later checkpoint, then commit the overflowing one.
        log.append(self._record(1))
        assert log.overflow_stalls == 3
        freed = log.commit_through(0)
        assert freed == 6
        assert log.occupancy_entries == 1
        # Refill past capacity again: every over-capacity append stalls,
        # regardless of the earlier peak.
        for i in range(5):
            log.append(self._record(1, addr=100 + i))
        assert log.occupancy_entries == 6
        assert log.overflow_stalls == 3 + 2
        assert log.peak_occupancy == 7

    def test_running_occupancy_matches_ground_truth(self):
        log = CheckpointLogBuffer("l", capacity_bytes=72_000, entry_bytes=72)
        rng = DeterministicRng(3).stream("ops")
        seq = 0
        for step in range(400):
            action = rng.random()
            if action < 0.75:
                log.append(self._record(seq, addr=step))
                if rng.random() < 0.1:
                    seq += 1
            elif action < 0.85 and seq > 1:
                log.commit_through(seq - 2)
            elif seq > 0:
                log.discard_since(seq)
            ground_truth = len(log.records_since(0))
            assert log.occupancy_entries == ground_truth
        # Appends after structural mutations keep working (tail cache).
        log.append(self._record(seq))
        assert log.occupancy_entries == len(log.records_since(0))


# ============================================================== link rounding
class TestSerializationRounding:
    def test_half_cycle_boundaries_round_half_up(self):
        # 0.5 cycles/byte: banker's rounding would give 2, 2, 4, 4 for
        # sizes 3, 5, 7, 9 — half-up must give ceil at every .5 boundary.
        assert [serialization_cycles_for(n, 0.5) for n in range(1, 10)] == \
            [1, 1, 2, 2, 3, 3, 4, 4, 5]

    def test_quarter_cycle_boundaries(self):
        assert [serialization_cycles_for(n, 0.25) for n in (2, 6, 10)] == \
            [1, 2, 3]  # 0.5 -> 1 (floor+half-up), 1.5 -> 2, 2.5 -> 3

    def test_minimum_one_cycle(self):
        assert serialization_cycles_for(1, 0.001) == 1

    def test_link_memoises_and_matches_function(self):
        link = Link("l", Simulator(), latency_cycles=2, cycles_per_byte=0.5)
        assert link.serialization_cycles(5) == 3
        assert link.serialization_cycles(5) == 3  # cached path
        assert link._ser_cache == {5: 3}

    def test_config_serialization_matches_link_rounding(self):
        cfg = InterconnectConfig(link_bandwidth_bytes_per_sec=8.0e9)
        freq = 4.0e9  # -> 0.5 cycles/byte
        for size in (1, 3, 5, 8, 64, 72):
            assert cfg.serialization_cycles(size, freq) == \
                serialization_cycles_for(size, 0.5)


# ============================================================= routing tables
class TestRoutingTables:
    @pytest.mark.parametrize("width,height", [(1, 4), (2, 2), (4, 4), (5, 3)])
    def test_tables_match_raw_geometry(self, width, height):
        topo = TorusTopology(width, height)
        fresh = TorusTopology(width, height)
        n = topo.num_switches
        dim_table = topo.dimension_order_table()
        min_table = topo.minimal_directions_table()
        for src in range(n):
            for dst in range(n):
                assert min_table[src][dst] == \
                    fresh._minimal_directions_uncached(src, dst)
                assert dim_table[src][dst] == \
                    topo.dimension_order_direction(src, dst)
                if src != dst:
                    assert dim_table[src][dst] in min_table[src][dst]

    def test_out_of_range_still_raises(self):
        topo = TorusTopology(4, 4)
        topo.dimension_order_direction(0, 5)  # build tables
        with pytest.raises(ValueError):
            topo.dimension_order_direction(0, 16)
        with pytest.raises(ValueError):
            topo.minimal_directions(-1, 3)

    def test_routers_use_shared_tables(self):
        topo = TorusTopology(4, 4)
        static = DimensionOrderRouting(topo)
        adaptive = AdaptiveMinimalRouting(topo)
        assert static._table is topo.dimension_order_table()
        assert adaptive._minimal_table is topo.minimal_directions_table()


# ============================================================== buffered rng
class TestBufferedRandint:
    def test_bit_identical_to_scalar_sequence(self):
        buffered = DeterministicRng(11)
        scalar = DeterministicRng(11)
        a = [buffered.buffered_randint("gap", 0, 7) for _ in range(10_000)]
        b = [scalar.randint("gap", 0, 7) for _ in range(10_000)]
        assert a == b

    def test_distinct_bounds_use_distinct_buffers(self):
        rng = DeterministicRng(1)
        rng.buffered_randint("s", 0, 3)
        rng.buffered_randint("s", 0, 5)
        assert set(rng._int_buffers) == {("s", 0, 3), ("s", 0, 5)}


# ======================================================== workload stream v2
def _stream_digest(refs) -> str:
    h = hashlib.sha256()
    for op, addr in refs:
        h.update(f"{op.value}:{addr};".encode())
    return h.hexdigest()[:16]


class TestWorkloadStreamPinning:
    """Golden pins of the v2 vectorized generator's emitted streams.

    A mismatch here means the stream schema changed (substream names, chunk
    size, draw order, rejection strategy...).  That is sometimes a
    deliberate choice — then these constants must be re-pinned and the
    change called out, because every simulated result shifts with them.
    """

    def test_jbb_streams_pinned(self):
        w = make_workload("jbb", num_processors=4, seed=7)
        assert _stream_digest(w.generate(0, 1000)) == "6a427854685bc753"
        assert _stream_digest(w.generate(1, 1000)) == "61d82666c4fc41b6"

    def test_custom_profile_pinned_across_chunk_boundary(self):
        profile = WorkloadProfile(
            name="pin", shared_zipf_alpha=1.3, lock_fraction=0.1,
            migratory_fraction=0.1, shared_fraction=0.3,
            sequential_run_probability=0.6)
        short = SyntheticWorkload(profile, num_processors=2, seed=42)
        assert _stream_digest(short.generate(0, 2500)) == "34444801f9e49cd3"
        # > CHUNK_ITERATIONS references: exercises chunk-boundary run carry.
        long = SyntheticWorkload(profile, num_processors=2, seed=42)
        assert _stream_digest(long.generate(0, 20000)) == "fc79b9b1ae531ce8"

    def test_repeated_generate_continues_streams(self):
        a = make_workload("oltp", num_processors=2, seed=5)
        first, second = a.generate(0, 300), a.generate(0, 300)
        b = make_workload("oltp", num_processors=2, seed=5)
        assert first == b.generate(0, 300)
        assert second != first  # the second call advances the node's streams

    def test_lock_and_migratory_are_read_modify_write_pairs(self):
        profile = WorkloadProfile(name="rmw", lock_fraction=0.5,
                                  migratory_fraction=0.5, shared_fraction=0.0,
                                  sequential_run_probability=0.0)
        w = SyntheticWorkload(profile, num_processors=1, seed=9)
        refs = w.generate(0, 400)
        for i in range(0, 398, 2):
            op_a, addr_a = refs[i]
            op_b, addr_b = refs[i + 1]
            assert (op_a, op_b) == (MemoryOp.LOAD, MemoryOp.STORE)
            assert addr_a == addr_b

    def test_category_fractions_approximate_profile(self):
        profile = WorkloadProfile(name="frac", lock_fraction=0.0,
                                  migratory_fraction=0.0, shared_fraction=0.25)
        w = SyntheticWorkload(profile, num_processors=2, seed=13)
        refs = w.generate(0, 40_000)
        shared_limit = w._private_base
        shared = sum(1 for _, addr in refs if addr < shared_limit)
        assert 0.22 < shared / len(refs) < 0.28
        stores = sum(1 for op, _ in refs if op == MemoryOp.STORE)
        # 0.25 * 0.2 + 0.75 * 0.3 = 0.275 expected store fraction.
        assert 0.24 < stores / len(refs) < 0.31

    def test_sequential_runs_present(self):
        profile = WorkloadProfile(name="seq", lock_fraction=0.0,
                                  migratory_fraction=0.0, shared_fraction=0.0,
                                  sequential_run_probability=1.0,
                                  sequential_run_length=8)
        w = SyntheticWorkload(profile, num_processors=1, seed=3)
        refs = w.generate(0, 2_000)
        consecutive = sum(
            1 for i in range(1, len(refs))
            if refs[i][1] - refs[i - 1][1] == w.block_bytes)
        # Runs of mean length ~9 -> the overwhelming majority of steps are
        # +1 block.
        assert consecutive / len(refs) > 0.7