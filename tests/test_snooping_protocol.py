"""Protocol-level tests for the MOESI broadcast snooping protocol.

A harness builds real snooping cache controllers, the ordered address bus
and the memory controller, so individual transitions — including the
Section 3.2 corner case — can be exercised deterministically.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

import pytest

from repro.coherence.cache import CacheArray
from repro.coherence.common import MemoryOp, MemoryRequest
from repro.coherence.snooping.bus import AddressBus, BusRequest, BusRequestType
from repro.coherence.snooping.cache_controller import SnoopingCacheController
from repro.coherence.snooping.memory_controller import SnoopingMemoryController
from repro.coherence.snooping.states import SnoopState, WritebackPhase
from repro.core.events import MisspeculationEvent, SpeculationKind
from repro.sim.config import CacheConfig, ProtocolVariant, SystemConfig
from repro.sim.engine import Simulator


BLOCK = 64


class SnoopHarness:
    """Snooping cache controllers + bus + memory, directly wired."""

    def __init__(self, num_nodes: int = 4,
                 variant: ProtocolVariant = ProtocolVariant.SPECULATIVE) -> None:
        self.config = SystemConfig.small(num_processors=num_nodes, references=0)
        self.config = self.config.with_updates(variant=variant)
        self.sim = Simulator()
        self.bus = AddressBus(self.sim)
        self.events: List[MisspeculationEvent] = []
        self.caches: Dict[int, CacheArray] = {}
        self.ctrls: Dict[int, SnoopingCacheController] = {}
        self.memory = SnoopingMemoryController(
            self.sim, memory_latency_cycles=100, deliver_data=self._deliver)
        self.txn_ids = itertools.count()
        for node in range(num_nodes):
            cache = CacheArray(f"snoop-l2.{node}", self.config.l2, SnoopState.INVALID)
            ctrl = SnoopingCacheController(
                node, self.sim, self.config, cache, self.bus, self._deliver,
                txn_ids=self.txn_ids,
                misspeculation_reporter=self.events.append)
            self.caches[node] = cache
            self.ctrls[node] = ctrl
            self.bus.attach_controller(ctrl)
        self.bus.attach_memory(self.memory.snoop)

    def _deliver(self, dst: int, address: int, value: int) -> None:
        self.ctrls[dst].receive_data(address, value)

    def access(self, node: int, op: MemoryOp, address: int,
               value: Optional[int] = None) -> MemoryRequest:
        request = MemoryRequest(node=node, op=op, address=address, value=value)
        done = []
        self.ctrls[node].access(request, lambda r: done.append(r))
        self.sim.run()
        assert done, f"{op} {address:#x} at node {node} did not complete"
        return done[0]

    def state(self, node: int, address: int) -> SnoopState:
        return self.caches[node].get_state(address)

    def evict(self, node: int, address: int) -> None:
        """Force eviction of ``address`` by touching conflicting blocks."""
        stride = self.config.l2.num_sets * BLOCK
        for i in range(self.config.l2.associativity):
            self.access(node, MemoryOp.LOAD, address + stride * (i + 1))


class TestBasicTransitions:
    def test_load_miss_installs_shared(self):
        h = SnoopHarness()
        h.access(1, MemoryOp.LOAD, 0x1000)
        assert h.state(1, 0x1000) == SnoopState.SHARED

    def test_store_miss_installs_modified(self):
        h = SnoopHarness()
        h.access(1, MemoryOp.STORE, 0x1000, value=5)
        assert h.state(1, 0x1000) == SnoopState.MODIFIED

    def test_store_value_visible_to_other_nodes(self):
        h = SnoopHarness()
        h.access(1, MemoryOp.STORE, 0x2000, value=77)
        assert h.access(2, MemoryOp.LOAD, 0x2000).value == 77

    def test_owner_downgrades_to_owned_on_foreign_read(self):
        h = SnoopHarness()
        h.access(1, MemoryOp.STORE, 0x3000, value=3)
        h.access(2, MemoryOp.LOAD, 0x3000)
        assert h.state(1, 0x3000) == SnoopState.OWNED
        assert h.state(2, 0x3000) == SnoopState.SHARED

    def test_foreign_write_invalidates_all_copies(self):
        h = SnoopHarness()
        h.access(1, MemoryOp.LOAD, 0x4000)
        h.access(2, MemoryOp.LOAD, 0x4000)
        h.access(3, MemoryOp.STORE, 0x4000, value=9)
        assert h.state(1, 0x4000) == SnoopState.INVALID
        assert h.state(2, 0x4000) == SnoopState.INVALID
        assert h.state(3, 0x4000) == SnoopState.MODIFIED

    def test_write_after_write_transfers_ownership(self):
        h = SnoopHarness()
        h.access(1, MemoryOp.STORE, 0x5000, value=1)
        h.access(2, MemoryOp.STORE, 0x5000, value=2)
        assert h.state(1, 0x5000) == SnoopState.INVALID
        assert h.state(2, 0x5000) == SnoopState.MODIFIED
        assert h.access(3, MemoryOp.LOAD, 0x5000).value == 2

    def test_upgrade_from_shared_completes_from_own_copy(self):
        h = SnoopHarness()
        h.access(1, MemoryOp.LOAD, 0x6000)
        h.access(1, MemoryOp.STORE, 0x6000, value=6)
        assert h.state(1, 0x6000) == SnoopState.MODIFIED

    def test_store_hit_in_exclusive_upgrades_silently(self):
        h = SnoopHarness()
        h.access(1, MemoryOp.STORE, 0x6100, value=1)
        before = h.bus.requests_ordered
        h.access(1, MemoryOp.STORE, 0x6100, value=2)
        assert h.bus.requests_ordered == before  # hit, no bus traffic

    def test_bus_orders_every_request(self):
        h = SnoopHarness()
        for node in range(4):
            h.access(node, MemoryOp.LOAD, 0x7000)
        assert h.bus.requests_ordered == 4

    def test_memory_supplies_when_no_owner(self):
        h = SnoopHarness()
        h.access(2, MemoryOp.LOAD, 0x8000)
        assert h.memory.stats is not None
        assert h.state(2, 0x8000) == SnoopState.SHARED


class TestWritebacks:
    def test_dirty_eviction_writes_memory(self):
        h = SnoopHarness()
        h.access(1, MemoryOp.STORE, 0x1000, value=42)
        h.evict(1, 0x1000)
        assert h.state(1, 0x1000) == SnoopState.INVALID
        assert h.memory.read(0x1000) == 42

    def test_clean_eviction_is_silent(self):
        h = SnoopHarness()
        h.access(1, MemoryOp.LOAD, 0x1000)
        before = h.bus.requests_ordered
        h.evict(1, 0x1000)
        # Only the conflicting loads appear on the bus, no Writeback.
        assert h.bus.requests_ordered == before + h.config.l2.associativity

    def test_writeback_record_cleared_after_own_wb_ordered(self):
        h = SnoopHarness()
        h.access(1, MemoryOp.STORE, 0x1000, value=1)
        h.evict(1, 0x1000)
        assert not h.ctrls[1].writebacks

    def test_reader_during_writeback_window_gets_data(self):
        """The WAITING_OWN_WB transient still supplies data to readers."""
        h = SnoopHarness()
        h.access(1, MemoryOp.STORE, 0x1000, value=13)
        # Trigger the eviction but do not run the bus to completion: inject
        # a foreign GETS while the writeback is still queued.
        line = h.caches[1].peek(0x1000)
        h.ctrls[1]._evict(line)
        record = h.ctrls[1].writebacks[0x1000]
        assert record.phase == WritebackPhase.WAITING_OWN_WB
        assert h.access(2, MemoryOp.LOAD, 0x1000).value == 13


class TestSection32CornerCase:
    def _enter_lost_ownership(self, h: SnoopHarness, address: int):
        """Drive node 1 into the LOST_OWNERSHIP transient for ``address``."""
        h.access(1, MemoryOp.STORE, address, value=111)
        line = h.caches[1].peek(address)
        h.ctrls[1]._evict(line)           # Writeback issued, not yet ordered
        record = h.ctrls[1].writebacks[address]
        assert record.phase == WritebackPhase.WAITING_OWN_WB
        # First foreign RequestReadWrite is observed before our Writeback.
        first = BusRequest(requestor=2, address=address, rtype=BusRequestType.GETX)
        h.ctrls[1].snoop(first)
        assert record.phase == WritebackPhase.LOST_OWNERSHIP
        return record

    def test_first_racing_getx_supplies_data_and_loses_ownership(self):
        h = SnoopHarness()
        record = self._enter_lost_ownership(h, 0x2000)
        assert record.request.value is None  # stale writeback will be dropped
        assert not h.events

    def test_second_racing_getx_is_detected_in_speculative_variant(self):
        h = SnoopHarness(variant=ProtocolVariant.SPECULATIVE)
        self._enter_lost_ownership(h, 0x2000)
        second = BusRequest(requestor=3, address=0x2000, rtype=BusRequestType.GETX)
        h.ctrls[1].snoop(second)
        assert len(h.events) == 1
        event = h.events[0]
        assert event.kind == SpeculationKind.SNOOPING_CORNER_CASE
        assert event.node == 1
        assert event.address == 0x2000

    def test_second_racing_getx_is_handled_in_full_variant(self):
        h = SnoopHarness(variant=ProtocolVariant.FULL)
        self._enter_lost_ownership(h, 0x2000)
        second = BusRequest(requestor=3, address=0x2000, rtype=BusRequestType.GETX)
        h.ctrls[1].snoop(second)
        assert not h.events
        assert h.ctrls[1].stats.counters()[
            "snoopctrl1.corner_case_handled"] == 1

    def test_corner_case_requires_two_distinct_racing_writers(self):
        """A single racing RequestReadWrite never triggers detection."""
        h = SnoopHarness(variant=ProtocolVariant.SPECULATIVE)
        self._enter_lost_ownership(h, 0x2000)
        assert not h.events

    def test_stale_writeback_does_not_clobber_new_owner_data(self):
        h = SnoopHarness(variant=ProtocolVariant.FULL)
        self._enter_lost_ownership(h, 0x2000)
        # New owner (node 2) writes; then node 1's stale Writeback is ordered
        # and must be dropped by the memory controller.
        h.access(2, MemoryOp.STORE, 0x2000, value=999)
        h.sim.run()
        assert h.access(3, MemoryOp.LOAD, 0x2000).value == 999

    def test_full_run_keeps_swmr_invariant(self):
        h = SnoopHarness()
        for i in range(16):
            h.access(i % 4, MemoryOp.STORE, 0x3000, value=i)
        exclusive_holders = [n for n in range(4)
                             if h.state(n, 0x3000) in (SnoopState.MODIFIED,
                                                       SnoopState.EXCLUSIVE)]
        assert len(exclusive_holders) == 1


class TestBusAndMemory:
    def test_bus_flush_drops_queued_requests(self):
        h = SnoopHarness()
        h.bus.issue(BusRequest(requestor=0, address=0x100, rtype=BusRequestType.GETS))
        h.bus.issue(BusRequest(requestor=1, address=0x200, rtype=BusRequestType.GETS))
        dropped = h.bus.flush()
        assert dropped == 2

    def test_ordered_hook_called_per_request(self):
        h = SnoopHarness()
        calls = []
        h.bus.add_ordered_hook(lambda req: calls.append(req.address))
        h.access(0, MemoryOp.LOAD, 0x100)
        h.access(1, MemoryOp.LOAD, 0x200)
        assert calls == [0x100, 0x200]

    def test_snoop_filter_delivers_to_requestor_and_holders_only(self):
        h = SnoopHarness()
        h.access(1, MemoryOp.LOAD, 0x1000)
        delivered = []

        def recording(node, snoop):
            def snoop_and_record(request):
                delivered.append(node)
                return snoop(request)
            return snoop_and_record

        for node, ctrl in h.ctrls.items():
            ctrl.snoop = recording(node, ctrl.snoop)
        ordered = []
        h.bus.add_ordered_hook(lambda req: ordered.append(req.rtype))
        h.access(2, MemoryOp.STORE, 0x1000, value=4)
        assert delivered == [1, 2]
        # A Writeback reaches its writer only; memory still absorbs it.
        delivered.clear()
        h.ctrls[2]._evict(h.caches[2].peek(0x1000))
        h.sim.run()
        assert delivered == [2]
        assert ordered == [BusRequestType.GETX, BusRequestType.WRITEBACK]
        assert h.memory.read(0x1000) == 4

    def test_bus_rejects_mixed_l2_geometry(self):
        h = SnoopHarness()
        larger = CacheConfig(h.config.l2.size_bytes * 2,
                             h.config.l2.associativity)
        cache = CacheArray("snoop-l2.4", larger, SnoopState.INVALID)
        ctrl = SnoopingCacheController(4, h.sim, h.config, cache, h.bus,
                                       h._deliver, txn_ids=h.txn_ids)
        with pytest.raises(ValueError, match="geometry"):
            h.bus.attach_controller(ctrl)

    def test_memory_restore_field(self):
        h = SnoopHarness()
        h.memory.write(0x100, 5)
        h.memory.restore_field(0x100, "value", 2)
        assert h.memory.read(0x100) == 2
        with pytest.raises(ValueError):
            h.memory.restore_field(0x100, "state", 1)

    def test_memory_observer_logs_changes(self):
        h = SnoopHarness()
        log = []
        h.memory.set_observer(lambda addr, field, old, new: log.append((addr, old, new)))
        h.memory.write(0x100, 9)
        assert log == [(0x100, 0, 9)]

    def test_bus_arbitration_parameter_validation(self):
        with pytest.raises(ValueError):
            AddressBus(Simulator(), arbitration_cycles=0)

    def test_squash_transient_state(self):
        h = SnoopHarness()
        h.access(1, MemoryOp.STORE, 0x1000, value=1)
        line = h.caches[1].peek(0x1000)
        h.ctrls[1]._evict(line)
        assert h.ctrls[1].writebacks
        h.ctrls[1].squash_transient_state()
        assert not h.ctrls[1].writebacks
        assert h.ctrls[1].transaction is None
