"""Unit and property tests for the set-associative cache array."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import pytest

from repro.coherence.cache import _NO_LINES, CacheArray, CacheLine
from repro.coherence.directory.states import CacheState
from repro.sim.config import CacheConfig


def make_cache(size=4 * 1024, assoc=2, block=64) -> CacheArray:
    return CacheArray("test", CacheConfig(size, assoc, block), CacheState.INVALID)


class TestBasicOperations:
    def test_allocate_and_lookup(self):
        cache = make_cache()
        cache.allocate(0x1000, CacheState.SHARED, value=7)
        line = cache.lookup(0x1000)
        assert line is not None
        assert line.state == CacheState.SHARED
        assert line.value == 7

    def test_missing_block_is_invalid(self):
        cache = make_cache()
        assert cache.lookup(0x40) is None
        assert cache.get_state(0x40) == CacheState.INVALID
        assert not cache.contains(0x40)

    def test_set_state_transition(self):
        cache = make_cache()
        cache.allocate(0x80, CacheState.SHARED)
        cache.set_state(0x80, CacheState.MODIFIED)
        assert cache.get_state(0x80) == CacheState.MODIFIED

    def test_invalidation_removes_line(self):
        cache = make_cache()
        cache.allocate(0x80, CacheState.MODIFIED, value=3)
        cache.set_state(0x80, CacheState.INVALID)
        assert not cache.contains(0x80)
        assert cache.occupancy == 0

    def test_set_state_on_missing_block_raises(self):
        cache = make_cache()
        with pytest.raises(KeyError):
            cache.set_state(0x80, CacheState.SHARED)
        # Setting a missing block invalid is a no-op, not an error.
        cache.set_state(0x80, CacheState.INVALID)

    def test_set_value(self):
        cache = make_cache()
        cache.allocate(0x80, CacheState.MODIFIED, value=1)
        cache.set_value(0x80, 99)
        assert cache.peek(0x80).value == 99
        with pytest.raises(KeyError):
            cache.set_value(0x4000, 1)

    def test_set_index_wraps_by_block(self):
        cache = make_cache(size=4 * 1024, assoc=2, block=64)
        # 32 sets: addresses 64 * 32 apart map to the same set.
        assert cache.set_index(0) == cache.set_index(64 * 32)
        assert cache.set_index(0) != cache.set_index(64)


class TestEviction:
    def test_lru_victim_selected(self):
        cache = make_cache(size=256, assoc=2, block=64)  # 2 sets, 2 ways
        set_stride = 64 * cache.config.num_sets
        cache.allocate(0, CacheState.SHARED)
        cache.allocate(set_stride, CacheState.SHARED)
        cache.lookup(0)  # touch block 0 so block set_stride is LRU
        _, victim = cache.allocate(2 * set_stride, CacheState.SHARED)
        assert victim is not None
        assert victim.address == set_stride

    def test_eviction_respects_filter(self):
        cache = make_cache(size=256, assoc=2, block=64)
        stride = 64 * cache.config.num_sets
        cache.allocate(0, CacheState.MODIFIED)
        cache.allocate(stride, CacheState.SHARED)
        victim = cache.find_victim(2 * stride,
                                   evictable=lambda line: line.state == CacheState.SHARED)
        assert victim is not None and victim.address == stride

    def test_allocate_existing_updates_in_place(self):
        cache = make_cache()
        cache.allocate(0x40, CacheState.SHARED, value=1)
        line, victim = cache.allocate(0x40, CacheState.MODIFIED, value=2)
        assert victim is None
        assert line.state == CacheState.MODIFIED
        assert cache.occupancy == 1

    def test_eviction_counter(self):
        cache = make_cache(size=256, assoc=2, block=64)
        stride = 64 * cache.config.num_sets
        for i in range(4):
            cache.allocate(i * stride, CacheState.SHARED)
        assert cache.evictions == 2


class TestObserver:
    def test_observer_sees_state_changes(self):
        cache = make_cache()
        events = []
        cache.set_observer(lambda addr, field, old, new: events.append((addr, field, old, new)))
        cache.allocate(0x40, CacheState.SHARED)
        cache.set_state(0x40, CacheState.MODIFIED)
        assert (0x40, "state", CacheState.INVALID, CacheState.SHARED) in events
        assert (0x40, "state", CacheState.SHARED, CacheState.MODIFIED) in events

    def test_observer_sees_value_on_invalidate(self):
        cache = make_cache()
        events = []
        cache.allocate(0x40, CacheState.MODIFIED, value=5)
        cache.set_observer(lambda addr, field, old, new: events.append((field, old, new)))
        cache.set_state(0x40, CacheState.INVALID)
        assert ("value", 5, None) in events

    def test_observer_not_called_for_noop(self):
        cache = make_cache()
        events = []
        cache.allocate(0x40, CacheState.SHARED)
        cache.set_observer(lambda *a: events.append(a))
        cache.set_state(0x40, CacheState.SHARED)
        assert events == []

    def test_restore_field_bypasses_observer(self):
        cache = make_cache()
        events = []
        cache.set_observer(lambda *a: events.append(a))
        cache.restore_field(0x40, "state", CacheState.SHARED)
        assert cache.get_state(0x40) == CacheState.SHARED
        assert events == []


class TestRestore:
    def test_restore_round_trip(self):
        """Replaying logged old values in reverse restores the original state."""
        cache = make_cache()
        log = []
        cache.set_observer(lambda addr, field, old, new: log.append((addr, field, old)))
        cache.allocate(0x40, CacheState.SHARED, value=1)
        cache.set_state(0x40, CacheState.MODIFIED)
        cache.set_value(0x40, 9)
        cache.set_state(0x40, CacheState.INVALID)
        cache.allocate(0x80, CacheState.MODIFIED, value=3)
        for addr, field, old in reversed(log):
            cache.restore_field(addr, field, old)
        assert not cache.contains(0x40)
        assert not cache.contains(0x80)
        assert cache.occupancy == 0

    def test_force_line(self):
        cache = make_cache()
        cache.force_line(0x40, CacheState.OWNED, 5)
        assert cache.get_state(0x40) == CacheState.OWNED
        cache.force_line(0x40, CacheState.INVALID, None)
        assert not cache.contains(0x40)

    def test_restore_unknown_field_raises(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.restore_field(0x40, "bogus", 1)


class TestSetLayout:
    """Every set starts as one shared, read-only empty mapping and gets a
    dict of its own on the first install into it."""

    @staticmethod
    def created_sets(cache: CacheArray) -> list:
        return [index for index, entry in enumerate(cache._sets)
                if entry is not _NO_LINES]

    def test_fresh_array_holds_only_the_sentinel(self):
        cache = make_cache()
        assert len(cache._sets) == cache.config.num_sets
        assert self.created_sets(cache) == []
        assert len(_NO_LINES) == 0

    def test_probing_an_untouched_set_misses_and_creates_nothing(self):
        cache = make_cache()
        assert cache.lookup(0x40) is None
        assert cache.peek(0x40) is None
        assert not cache.contains(0x40)
        assert cache.get_state(0x40) == CacheState.INVALID
        assert cache.find_victim(0x40) is None
        assert cache.occupancy_of_set(0x40) == 0
        cache.set_state(0x40, CacheState.INVALID)
        cache.remove(0x40)
        cache.restore_field(0x40, "value", 3)
        assert list(cache.lines()) == []
        assert self.created_sets(cache) == []

    def test_install_creates_exactly_one_set(self):
        cache = make_cache()
        cache.allocate(0x40, CacheState.SHARED)
        assert self.created_sets(cache) == [cache.set_index(0x40)]
        assert type(cache._sets[cache.set_index(0x40)]) is dict
        # A second install into the same set reuses its dict.
        cache.allocate(0x40 + 64 * cache.config.num_sets, CacheState.SHARED)
        assert self.created_sets(cache) == [cache.set_index(0x40)]

    def test_force_line_and_restore_field_on_untouched_sets(self):
        cache = make_cache()
        cache.force_line(0x40, CacheState.OWNED, 5)
        assert cache.peek(0x40).value == 5
        cache.restore_field(0x80, "state", CacheState.SHARED)
        assert cache.get_state(0x80) == CacheState.SHARED
        # Removing from an untouched set is a no-op that creates nothing.
        cache.force_line(0xC0, CacheState.INVALID, None)
        cache.restore_field(0x100, "state", CacheState.INVALID)
        assert self.created_sets(cache) == sorted(
            [cache.set_index(0x40), cache.set_index(0x80)])

    def test_writing_into_an_untouched_set_raises(self):
        cache = make_cache()
        with pytest.raises(TypeError):
            cache._sets[0][0x0] = CacheLine(0x0, CacheState.SHARED)
        assert len(_NO_LINES) == 0
        assert not cache.contains(0x0)

    def test_two_arrays_never_share_a_set_dict(self):
        first, second = make_cache(), make_cache()
        for cache in (first, second):
            for block in range(cache.config.num_sets):
                cache.allocate(block * 64, CacheState.SHARED)
        first_sets = {id(entry) for entry in first._sets}
        second_sets = {id(entry) for entry in second._sets}
        assert len(first_sets) == first.config.num_sets
        assert first_sets.isdisjoint(second_sets)


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 63), st.sampled_from(list(CacheState))),
                    min_size=1, max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_bounded_by_geometry(self, operations):
        """Property: occupancy never exceeds ways*sets and no set overflows."""
        cache = make_cache(size=1024, assoc=2, block=64)  # 8 sets x 2 ways
        for block_index, state in operations:
            address = block_index * 64
            if state == CacheState.INVALID:
                if cache.contains(address):
                    cache.set_state(address, CacheState.INVALID)
            else:
                cache.allocate(address, state)
            assert cache.occupancy <= cache.config.num_blocks
        for set_index in range(cache.config.num_sets):
            resident = [line for line in cache.lines()
                        if cache.set_index(line.address) == set_index]
            assert len(resident) <= cache.config.associativity

    @given(st.lists(st.integers(0, 31), min_size=1, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_log_and_restore_always_round_trips(self, blocks):
        """Property: undo-log replay restores the exact initial contents."""
        cache = make_cache(size=2048, assoc=2, block=64)
        # Pre-populate a known baseline.
        cache.allocate(0, CacheState.SHARED, value=100)
        baseline = {line.address: (line.state, line.value) for line in cache.lines()}
        log = []
        cache.set_observer(lambda addr, field, old, new: log.append((addr, field, old)))
        for block_index in blocks:
            address = block_index * 64
            if cache.contains(address) and block_index % 3 == 0:
                cache.set_state(address, CacheState.INVALID)
            else:
                cache.allocate(address, CacheState.MODIFIED, value=block_index)
        cache.set_observer(None)
        for addr, field, old in reversed(log):
            cache.restore_field(addr, field, old)
        restored = {line.address: (line.state, line.value) for line in cache.lines()}
        assert restored == baseline
