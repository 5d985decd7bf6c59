"""Protocol-level tests for the MOSI directory protocol.

These tests wire real cache controllers and directory controllers through a
direct-delivery harness (no torus in between) so individual transitions and
races can be exercised deterministically — including the Section 3.1
writeback race, reproduced by delaying the ForwardedRequestReadWrite behind
the WritebackAck exactly as an adaptively routed network would.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

import pytest

from repro.coherence.cache import CacheArray
from repro.coherence.common import MemoryOp, MemoryRequest, home_node
from repro.coherence.directory.cache_controller import DirectoryCacheController
from repro.coherence.directory.directory_controller import DirectoryController
from repro.coherence.directory.states import CacheState, DirectoryState
from repro.core.events import MisspeculationEvent, SpeculationKind
from repro.interconnect.message import MessageClass, NetworkMessage, VirtualNetwork
from repro.sim.config import ProtocolVariant, SystemConfig
from repro.sim.engine import Simulator


class DirectHarness:
    """Cache + directory controllers connected by a direct-delivery fabric."""

    def __init__(self, num_nodes: int = 4,
                 variant: ProtocolVariant = ProtocolVariant.SPECULATIVE) -> None:
        self.config = SystemConfig.small(num_processors=num_nodes, references=0)
        self.config = self.config.with_updates(variant=variant)
        self.sim = Simulator()
        self.num_nodes = num_nodes
        self.events: List[MisspeculationEvent] = []
        self.sent_messages: List[NetworkMessage] = []
        #: Message classes to hold back instead of delivering (per dst).
        self.held: List[NetworkMessage] = []
        self.hold_classes: set = set()
        self.caches: Dict[int, CacheArray] = {}
        self.cache_ctrls: Dict[int, DirectoryCacheController] = {}
        self.directories: Dict[int, DirectoryController] = {}
        txn_ids = itertools.count()
        for node in range(num_nodes):
            cache = CacheArray(f"l2.{node}", self.config.l2, CacheState.INVALID)
            self.caches[node] = cache
            self.cache_ctrls[node] = DirectoryCacheController(
                node, self.sim, self.config, cache,
                self._make_send(node), self._home, txn_ids=txn_ids,
                misspeculation_reporter=self.events.append)
            self.directories[node] = DirectoryController(
                node, self.sim, self.config, self._make_send(node))

    def _home(self, address: int) -> int:
        return home_node(address, self.num_nodes, self.config.block_bytes)

    def _make_send(self, src: int):
        def send(dst: int, msg_class: MessageClass, address: int, payload) -> None:
            message = NetworkMessage(src=src, dst=dst, msg_class=msg_class,
                                     size_bytes=8, payload=payload, address=address)
            self.sent_messages.append(message)
            if msg_class in self.hold_classes:
                self.held.append(message)
                return
            self.deliver(message)
        return send

    def deliver(self, message: NetworkMessage, delay: int = 1) -> None:
        def _deliver() -> None:
            if message.virtual_network in (VirtualNetwork.REQUEST, VirtualNetwork.FINAL_ACK):
                self.directories[message.dst].handle_message(message)
            else:
                self.cache_ctrls[message.dst].handle_message(message)
        self.sim.schedule(delay, _deliver)

    def release_held(self) -> None:
        held, self.held = self.held, []
        for message in held:
            self.deliver(message)

    # ------------------------------------------------------------ conveniences
    def access(self, node: int, op: MemoryOp, address: int,
               value: Optional[int] = None) -> MemoryRequest:
        """Issue one blocking reference and run it to completion."""
        request = MemoryRequest(node=node, op=op, address=address, value=value)
        done = []
        self.cache_ctrls[node].access(request, lambda r: done.append(r))
        self.sim.run()
        assert done, f"reference {op} {address:#x} at node {node} did not complete"
        return done[0]

    def state(self, node: int, address: int) -> CacheState:
        return self.caches[node].get_state(address)

    def dir_entry(self, address: int):
        return self.directories[self._home(address)].entry(address)


BLOCK = 64


class TestBasicTransitions:
    def test_load_miss_installs_shared(self):
        h = DirectHarness()
        before = h.sim.now
        h.access(1, MemoryOp.LOAD, 0x1000)
        assert h.state(1, 0x1000) == CacheState.SHARED
        assert h.sim.now > before
        entry = h.dir_entry(0x1000)
        assert entry.state == DirectoryState.SHARED
        assert 1 in entry.sharers

    def test_store_miss_installs_modified(self):
        h = DirectHarness()
        h.access(1, MemoryOp.STORE, 0x2000, value=77)
        assert h.state(1, 0x2000) == CacheState.MODIFIED
        entry = h.dir_entry(0x2000)
        assert entry.state == DirectoryState.OWNED
        assert entry.owner == 1

    def test_load_hit_after_install(self):
        h = DirectHarness()
        h.access(1, MemoryOp.LOAD, 0x1000)
        before = h.caches[1].misses
        h.access(1, MemoryOp.LOAD, 0x1000)
        assert h.caches[1].misses == before

    def test_store_value_visible_to_other_node(self):
        h = DirectHarness()
        h.access(1, MemoryOp.STORE, 0x3000, value=1234)
        request = h.access(2, MemoryOp.LOAD, 0x3000)
        assert request.value == 1234

    def test_multiple_readers_share(self):
        h = DirectHarness()
        for node in (0, 1, 2, 3):
            h.access(node, MemoryOp.LOAD, 0x4000)
        for node in (0, 1, 2, 3):
            assert h.state(node, 0x4000) == CacheState.SHARED
        assert h.dir_entry(0x4000).sharers == {0, 1, 2, 3}

    def test_store_invalidates_sharers(self):
        h = DirectHarness()
        h.access(1, MemoryOp.LOAD, 0x5000)
        h.access(2, MemoryOp.LOAD, 0x5000)
        h.access(3, MemoryOp.STORE, 0x5000, value=5)
        assert h.state(1, 0x5000) == CacheState.INVALID
        assert h.state(2, 0x5000) == CacheState.INVALID
        assert h.state(3, 0x5000) == CacheState.MODIFIED

    def test_read_after_write_forwards_and_downgrades_owner(self):
        h = DirectHarness()
        h.access(1, MemoryOp.STORE, 0x6000, value=6)
        request = h.access(2, MemoryOp.LOAD, 0x6000)
        assert request.value == 6
        assert h.state(1, 0x6000) == CacheState.OWNED
        assert h.state(2, 0x6000) == CacheState.SHARED

    def test_write_after_write_transfers_ownership(self):
        h = DirectHarness()
        h.access(1, MemoryOp.STORE, 0x7000, value=1)
        h.access(2, MemoryOp.STORE, 0x7000, value=2)
        assert h.state(1, 0x7000) == CacheState.INVALID
        assert h.state(2, 0x7000) == CacheState.MODIFIED
        assert h.dir_entry(0x7000).owner == 2
        assert h.access(3, MemoryOp.LOAD, 0x7000).value == 2

    def test_upgrade_from_owned_keeps_local_data(self):
        h = DirectHarness()
        h.access(1, MemoryOp.STORE, 0x8000, value=11)
        h.access(2, MemoryOp.LOAD, 0x8000)          # owner 1 becomes O
        h.access(1, MemoryOp.STORE, 0x8000, value=22)  # upgrade O -> M
        assert h.state(1, 0x8000) == CacheState.MODIFIED
        assert h.state(2, 0x8000) == CacheState.INVALID
        assert h.access(3, MemoryOp.LOAD, 0x8000).value == 22

    def test_directory_unblocks_after_final_ack(self):
        h = DirectHarness()
        h.access(1, MemoryOp.STORE, 0x9000, value=1)
        entry = h.dir_entry(0x9000)
        assert not entry.is_busy
        assert not entry.pending

    def test_load_from_uncached_block_returns_memory_default(self):
        h = DirectHarness()
        request = h.access(2, MemoryOp.LOAD, 0xA000)
        assert request.value == 0

    def test_final_ack_for_squashed_transaction_is_ignored(self):
        h = DirectHarness()
        # A FinalAck arriving when the directory is not busy must not crash.
        h.directories[h._home(0xB000)]._handle_final_ack(0xB000, 1)
        assert not h.dir_entry(0xB000).is_busy


class TestWritebacks:
    def _fill_set(self, h: DirectHarness, node: int, address: int, ways: int):
        """Touch enough conflicting blocks to force eviction of ``address``."""
        stride = h.config.l2.num_sets * BLOCK
        conflicts = [address + stride * (i + 1) for i in range(ways)]
        for conflict in conflicts:
            h.access(node, MemoryOp.LOAD, conflict)
        return conflicts

    def test_eviction_of_dirty_block_issues_writeback(self):
        h = DirectHarness()
        h.access(1, MemoryOp.STORE, 0x1000, value=42)
        self._fill_set(h, 1, 0x1000, h.config.l2.associativity)
        assert h.state(1, 0x1000) == CacheState.INVALID
        writebacks = [m for m in h.sent_messages
                      if m.msg_class == MessageClass.WRITEBACK and m.address == 0x1000]
        assert writebacks
        # The written-back value survives in memory and reaches the next reader.
        assert h.access(2, MemoryOp.LOAD, 0x1000).value == 42

    def test_clean_eviction_is_silent(self):
        h = DirectHarness()
        h.access(1, MemoryOp.LOAD, 0x1000)
        self._fill_set(h, 1, 0x1000, h.config.l2.associativity)
        writebacks = [m for m in h.sent_messages
                      if m.msg_class == MessageClass.WRITEBACK and m.address == 0x1000]
        assert not writebacks

    def test_writeback_updates_directory_state(self):
        h = DirectHarness()
        h.access(1, MemoryOp.STORE, 0x1000, value=9)
        self._fill_set(h, 1, 0x1000, h.config.l2.associativity)
        entry = h.dir_entry(0x1000)
        assert entry.owner is None
        assert entry.state in (DirectoryState.UNCACHED, DirectoryState.SHARED)

    def test_writeback_ack_clears_pending_record(self):
        h = DirectHarness()
        h.access(1, MemoryOp.STORE, 0x1000, value=9)
        self._fill_set(h, 1, 0x1000, h.config.l2.associativity)
        assert not h.cache_ctrls[1].writebacks


class TestSection31Race:
    """The writeback / forwarded-request race of Section 3.1.

    Setup (matching the paper's description): the owner P1 sends a Writeback
    while another processor P2 sends a RequestReadWrite for the same block,
    and the RequestReadWrite reaches the directory first.  The directory
    therefore sends a ForwardedRequestReadWrite and then a WritebackAck to
    P1 on the same virtual network; the harness holds both so each test can
    deliver them in order (point-to-point order respected) or reversed (the
    reordering an adaptively routed network can produce).
    """

    def _setup_race(self, h: DirectHarness, address: int):
        """Create the race; returns (done_list, fwd_messages, wback_messages)."""
        h.access(1, MemoryOp.STORE, address, value=111)
        # Evict the dirty block but hold its Writeback so the directory still
        # believes node 1 is the owner (node 1 is in the MI_A transient).
        h.hold_classes = {MessageClass.WRITEBACK}
        stride = h.config.l2.num_sets * BLOCK
        for i in range(h.config.l2.associativity):
            h.access(1, MemoryOp.LOAD, address + stride * (i + 1))
        assert address in h.cache_ctrls[1].writebacks
        held_writebacks = [m for m in h.held if m.msg_class == MessageClass.WRITEBACK]
        assert held_writebacks
        h.held = [m for m in h.held if m.msg_class != MessageClass.WRITEBACK]

        # Node 2's RequestReadWrite reaches the directory first: it forwards
        # to the presumed owner (node 1).  Hold the forward and the upcoming
        # WritebackAck so the delivery order is under test control.
        h.hold_classes = {MessageClass.FORWARDED_REQUEST_READ_WRITE,
                          MessageClass.WRITEBACK_ACK}
        done = []
        h.cache_ctrls[2].access(MemoryRequest(node=2, op=MemoryOp.STORE,
                                              address=address, value=222),
                                lambda r: done.append(r))
        h.sim.run()
        # Now the racing Writeback arrives at the (busy) directory.
        for message in held_writebacks:
            h.deliver(message)
        h.sim.run()
        fwd = [m for m in h.held
               if m.msg_class == MessageClass.FORWARDED_REQUEST_READ_WRITE]
        wback = [m for m in h.held if m.msg_class == MessageClass.WRITEBACK_ACK]
        assert fwd and wback
        h.hold_classes = set()
        h.held = []
        return done, fwd, wback

    def test_in_order_delivery_completes_without_misspeculation(self):
        h = DirectHarness(variant=ProtocolVariant.SPECULATIVE)
        done, fwd, wback = self._setup_race(h, 0x1000)
        # Deliver in sent order (point-to-point order respected).
        for message in fwd + wback:
            h.deliver(message)
        h.sim.run()
        assert len(done) == 1
        assert not h.events
        assert h.state(2, 0x1000) == CacheState.MODIFIED
        assert h.access(3, MemoryOp.LOAD, 0x1000).value == 222

    def test_reordered_delivery_triggers_misspeculation(self):
        h = DirectHarness(variant=ProtocolVariant.SPECULATIVE)
        done, fwd, wback = self._setup_race(h, 0x1000)
        # Deliver the WritebackAck first: the reordering adaptive routing can
        # produce.  Node 1 retires its writeback, then the forwarded request
        # finds no data -> the one specific invalid transition.
        for message in wback + fwd:
            h.deliver(message)
        h.sim.run()
        assert len(h.events) == 1
        event = h.events[0]
        assert event.kind == SpeculationKind.DIRECTORY_P2P_ORDER
        assert event.node == 1
        assert event.address == 0x1000

    def test_full_variant_tolerates_reordering(self):
        h = DirectHarness(variant=ProtocolVariant.FULL)
        done, fwd, wback = self._setup_race(h, 0x1000)
        for message in wback + fwd:
            h.deliver(message)
        h.sim.run()
        # The full protocol handles the race (data came from the directory):
        # no mis-speculation, and the store completes with ownership.
        assert not h.events
        assert done
        assert h.state(2, 0x1000) == CacheState.MODIFIED

    def test_forwarded_read_served_from_writeback_buffer(self):
        h = DirectHarness(variant=ProtocolVariant.SPECULATIVE)
        h.access(1, MemoryOp.STORE, 0x1000, value=111)
        # Evict the block while holding the WritebackAck so the MI_A
        # transient stays live at node 1.
        h.hold_classes = {MessageClass.WRITEBACK_ACK}
        stride = h.config.l2.num_sets * BLOCK
        for i in range(h.config.l2.associativity):
            h.access(1, MemoryOp.LOAD, 0x1000 + stride * (i + 1))
        assert 0x1000 in h.cache_ctrls[1].writebacks
        # A reader arrives while the writeback is still outstanding; the data
        # comes from memory (the directory already absorbed the writeback).
        request = h.access(3, MemoryOp.LOAD, 0x1000)
        assert request.value == 111
        assert not h.events
        h.hold_classes = set()
        h.release_held()
        h.sim.run()


class TestDetectionAndInvariants:
    def test_timeout_reports_deadlock_misspeculation(self):
        h = DirectHarness()
        ctrl = h.cache_ctrls[1]
        ctrl.timeout_cycles = 500
        # Swallow the request so the transaction can never complete.
        h.hold_classes = {MessageClass.REQUEST_READ_WRITE}
        done = []
        ctrl.access(MemoryRequest(node=1, op=MemoryOp.STORE, address=0x2000, value=1),
                    lambda r: done.append(r))
        h.sim.run()
        assert not done
        assert len(h.events) == 1
        assert h.events[0].kind == SpeculationKind.INTERCONNECT_DEADLOCK

    def test_timeout_cancelled_on_completion(self):
        h = DirectHarness()
        h.cache_ctrls[1].timeout_cycles = 10_000
        h.access(1, MemoryOp.LOAD, 0x2000)
        h.sim.run()
        assert not h.events

    def test_invalidation_for_absent_block_still_acked(self):
        h = DirectHarness()
        from repro.coherence.directory.messages import CoherencePayload
        h.cache_ctrls[2]._handle_invalidation(0x3000, CoherencePayload(requestor=1))
        acks = [m for m in h.sent_messages if m.msg_class == MessageClass.ACK]
        assert acks and acks[-1].dst == 1

    def test_directory_invariants_hold_after_traffic(self):
        h = DirectHarness()
        pattern = [(1, MemoryOp.STORE), (2, MemoryOp.LOAD), (3, MemoryOp.STORE),
                   (0, MemoryOp.LOAD), (2, MemoryOp.STORE), (1, MemoryOp.LOAD)]
        for i, (node, op) in enumerate(pattern * 3):
            h.access(node, op, 0x4000 + BLOCK * (i % 5), value=i)
        for directory in h.directories.values():
            assert directory.invariant_errors() == []
        for ctrl in h.cache_ctrls.values():
            assert ctrl.invariant_errors() == []

    def test_single_writer_invariant_across_nodes(self):
        h = DirectHarness()
        for i in range(12):
            h.access(i % 4, MemoryOp.STORE, 0x5000, value=i)
        owners = [node for node in range(4)
                  if h.state(node, 0x5000) == CacheState.MODIFIED]
        assert len(owners) == 1

    def test_squash_transient_state_clears_outstanding(self):
        h = DirectHarness()
        h.hold_classes = {MessageClass.DATA}
        done = []
        h.cache_ctrls[1].access(MemoryRequest(node=1, op=MemoryOp.LOAD, address=0x6000),
                                lambda r: done.append(r))
        h.sim.run()
        assert h.cache_ctrls[1].transaction is not None
        h.cache_ctrls[1].squash_transient_state()
        assert h.cache_ctrls[1].transaction is None
        h.directories[h._home(0x6000)].squash_transient_state()
        assert not h.dir_entry(0x6000).is_busy
