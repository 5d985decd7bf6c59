"""Directory controller (home node) of the MOSI directory protocol.

One directory controller lives on every node and owns the directory entries
and memory for the blocks whose home is that node (blocks are interleaved
across nodes by block address).

The controller is a *blocking* directory: while a transaction that required
forwarding or invalidation is in flight, further requests for the same block
are queued and dispatched when the requestor's FinalAck arrives.  This is a
standard simplification that removes a large family of races and leaves
exactly the writeback race of Section 3.1 — the race whose handling the
speculative design chooses to *not* implement and instead detect.

Variant behaviour on a Writeback that races with an in-flight forwarded
request (the block's owner wrote the block back while the directory had
already forwarded another processor's request to it):

* ``SPECULATIVE`` — the directory acknowledges the writeback and relies on
  point-to-point ordering to guarantee the owner saw the forwarded request
  before the WritebackAck (so the owner supplied data to the requestor
  before downgrading).  If the network reordered the two messages, the cache
  controller detects it (see
  :mod:`repro.coherence.directory.cache_controller`).
* ``FULL`` — in addition, the directory sends the written-back data straight
  to the racing requestor, so correctness no longer depends on message
  ordering.  This is the extra design complexity the paper's approach avoids.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.coherence.common import BlockAddress, MemoryOp
from repro.coherence.directory.messages import CoherencePayload
from repro.coherence.directory.states import DirectoryState
from repro.interconnect.message import MessageClass, NetworkMessage
from repro.sim.component import Component
from repro.sim.config import ProtocolVariant, SystemConfig
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

#: Signature used to hand outbound messages to the network layer:
#: send(dst, msg_class, address, payload)
SendFn = Callable[[int, MessageClass, BlockAddress, CoherencePayload], None]

#: Observer of directory-entry changes: (address, field, old, new).
EntryObserver = Callable[[BlockAddress, str, object, object], None]


@dataclass
class _BusyTransaction:
    """The in-flight transaction a busy directory entry is waiting on."""

    requestor: int
    op: MemoryOp
    acks_expected: int = 0


@dataclass
class DirectoryEntry:
    """Directory state for one memory block."""

    address: BlockAddress
    state: DirectoryState = DirectoryState.UNCACHED
    owner: Optional[int] = None
    sharers: Set[int] = field(default_factory=set)
    value: int = 0
    busy: Optional[_BusyTransaction] = None
    pending: Deque[Tuple[int, MessageClass, CoherencePayload]] = field(default_factory=deque)

    @property
    def is_busy(self) -> bool:
        return self.busy is not None


class DirectoryController(Component):
    """The directory + memory controller of one home node."""

    #: Latency of a directory lookup that does not touch DRAM.
    DIRECTORY_LOOKUP_CYCLES = 20

    def __init__(self, node_id: int, sim: Simulator, config: SystemConfig,
                 send: SendFn, *, stats: Optional[StatsRegistry] = None) -> None:
        super().__init__(f"dir{node_id}", sim, stats)
        self.node_id = node_id
        self.config = config
        #: Hoisted str-enum comparison (checked per writeback race).
        self._full_variant = config.variant == ProtocolVariant.FULL
        self.send = send
        self.entries: Dict[BlockAddress, DirectoryEntry] = {}
        self._observer: Optional[EntryObserver] = None
        #: Bumped on every recovery; delayed protocol actions scheduled under
        #: an older generation are dropped when they fire.
        self.generation = 0

    def _schedule_protocol(self, delay: int, action: Callable[[], None]) -> None:
        """Schedule a protocol action that is void if a recovery intervenes."""
        generation = self.generation

        def _run() -> None:
            if generation == self.generation:
                action()
        # Inline of Component.schedule: one push per protocol action.
        sim = self.sim
        sim.queue.push(sim._now + delay, _run, self.name)

    # -------------------------------------------------------------- observers
    def set_observer(self, observer: Optional[EntryObserver]) -> None:
        """Install the change observer (used by the SafetyNet undo log)."""
        self._observer = observer

    def _notify(self, address: BlockAddress, field_name: str, old, new) -> None:
        if self._observer is not None and old != new:
            self._observer(address, field_name, old, new)

    # ----------------------------------------------------------------- entries
    def entry(self, address: BlockAddress) -> DirectoryEntry:
        entry = self.entries.get(address)
        if entry is None:
            entry = self.entries[address] = DirectoryEntry(address=address)
        return entry

    def _set_state(self, entry: DirectoryEntry, state: DirectoryState) -> None:
        self._notify(entry.address, "state", entry.state, state)
        entry.state = state

    def _set_owner(self, entry: DirectoryEntry, owner: Optional[int]) -> None:
        self._notify(entry.address, "owner", entry.owner, owner)
        entry.owner = owner

    def _set_sharers(self, entry: DirectoryEntry, sharers: Set[int]) -> None:
        # Takes ownership of ``sharers`` (every caller passes a set built
        # for the purpose), so no defensive copy.  Only materialise the
        # frozenset snapshots when the observer will actually see them (same
        # old != new gate as _notify); this runs on every gets/getx and the
        # allocations dominate its cost.
        if self._observer is not None and entry.sharers != sharers:
            self._observer(entry.address, "sharers",
                           frozenset(entry.sharers), frozenset(sharers))
        entry.sharers = sharers

    def _set_value(self, entry: DirectoryEntry, value: int) -> None:
        self._notify(entry.address, "value", entry.value, value)
        entry.value = value

    # ------------------------------------------------------------- dispatching
    def handle_message(self, message: NetworkMessage) -> None:
        """Entry point for Request-class messages arriving from the network."""
        payload: CoherencePayload = message.payload
        address = message.address
        assert address is not None
        msg_class = message.msg_class
        if msg_class is MessageClass.REQUEST_READ_ONLY:
            self._handle_request(address, message.src, MessageClass.REQUEST_READ_ONLY, payload)
        elif msg_class is MessageClass.REQUEST_READ_WRITE:
            self._handle_request(address, message.src, MessageClass.REQUEST_READ_WRITE, payload)
        elif msg_class is MessageClass.WRITEBACK:
            self._handle_writeback(address, message.src, payload)
        elif msg_class is MessageClass.FINAL_ACK:
            self._handle_final_ack(address, message.src)
        else:
            raise ValueError(f"{self.name}: unexpected message {message.msg_class}")

    # --------------------------------------------------------------- requests
    def _handle_request(self, address: BlockAddress, requestor: int,
                        kind: MessageClass, payload: CoherencePayload) -> None:
        # Inline of entry(): one call per protocol request.
        entry = self.entries.get(address)
        if entry is None:
            entry = self.entries[address] = DirectoryEntry(address=address)
        if entry.busy is not None:
            entry.pending.append((requestor, kind, payload))
            self.count("stalled_requests")
            return
        if kind is MessageClass.REQUEST_READ_ONLY:
            self._do_gets(entry, requestor, payload)
        else:
            self._do_getx(entry, requestor, payload)

    def _do_gets(self, entry: DirectoryEntry, requestor: int,
                 payload: CoherencePayload) -> None:
        """RequestReadOnly."""
        self.count("gets")
        state = entry.state
        if state is DirectoryState.UNCACHED or state is DirectoryState.SHARED:
            # Data comes from memory; no forwarding, no busy period needed
            # beyond the response (the requestor's FinalAck unblocks).
            entry.busy = _BusyTransaction(requestor=requestor, op=MemoryOp.LOAD)
            sharers = set(entry.sharers)
            sharers.add(requestor)
            self._set_sharers(entry, sharers)
            self._set_state(entry, DirectoryState.SHARED)
            self._send_data(requestor, entry, acks=0, value=entry.value,
                            delay=self.config.memory_latency_cycles)
            return
        # Some cache owns the block: forward the read to the owner.
        assert entry.owner is not None
        entry.busy = _BusyTransaction(requestor=requestor, op=MemoryOp.LOAD)
        sharers = set(entry.sharers)
        sharers.add(requestor)
        self._set_sharers(entry, sharers)
        owner = entry.owner
        self._schedule_protocol(self.DIRECTORY_LOOKUP_CYCLES, lambda: self.send(
            owner, MessageClass.FORWARDED_REQUEST_READ_ONLY, entry.address,
            CoherencePayload(requestor=requestor, acks_expected=0,
                             txn_id=payload.txn_id)))

    def _do_getx(self, entry: DirectoryEntry, requestor: int,
                 payload: CoherencePayload) -> None:
        """RequestReadWrite."""
        self.count("getx")
        invalidatees = [n for n in entry.sharers if n != requestor]
        acks = len(invalidatees)
        entry.busy = _BusyTransaction(requestor=requestor, op=MemoryOp.STORE,
                                      acks_expected=acks)

        if entry.state is DirectoryState.UNCACHED:
            self._set_owner(entry, requestor)
            self._set_sharers(entry, set())
            self._set_state(entry, DirectoryState.OWNED)
            self._send_data(requestor, entry, acks=0, value=entry.value,
                            delay=self.config.memory_latency_cycles)
            return

        if entry.state is DirectoryState.SHARED:
            for node in invalidatees:
                self.send(node, MessageClass.INVALIDATION, entry.address,
                          CoherencePayload(requestor=requestor, txn_id=payload.txn_id))
            self._set_owner(entry, requestor)
            self._set_sharers(entry, set())
            self._set_state(entry, DirectoryState.OWNED)
            self._send_data(requestor, entry, acks=acks, value=entry.value,
                            delay=self.config.memory_latency_cycles)
            return

        # DirectoryState.OWNED: some cache owns the block.
        assert entry.owner is not None
        old_owner = entry.owner
        if old_owner == requestor:
            # Upgrade: the requestor is already the owner (state O with
            # sharers); invalidate the sharers and tell the requestor it can
            # keep its own data (value None).
            for node in invalidatees:
                self.send(node, MessageClass.INVALIDATION, entry.address,
                          CoherencePayload(requestor=requestor, txn_id=payload.txn_id))
            self._set_sharers(entry, set())
            self._send_data(requestor, entry, acks=acks, value=None,
                            delay=self.DIRECTORY_LOOKUP_CYCLES)
            return

        invalidatees = [n for n in invalidatees if n != old_owner]
        acks = len(invalidatees)
        entry.busy.acks_expected = acks
        for node in invalidatees:
            self.send(node, MessageClass.INVALIDATION, entry.address,
                      CoherencePayload(requestor=requestor, txn_id=payload.txn_id))
        self._schedule_protocol(self.DIRECTORY_LOOKUP_CYCLES, lambda: self.send(
            old_owner, MessageClass.FORWARDED_REQUEST_READ_WRITE, entry.address,
            CoherencePayload(requestor=requestor, acks_expected=acks,
                             txn_id=payload.txn_id)))
        self._set_owner(entry, requestor)
        self._set_sharers(entry, set())
        self._set_state(entry, DirectoryState.OWNED)

    def _send_data(self, requestor: int, entry: DirectoryEntry, *, acks: int,
                   value: Optional[int], delay: int) -> None:
        value_at_send = value
        self._schedule_protocol(delay, lambda: self.send(
            requestor, MessageClass.DATA, entry.address,
            CoherencePayload(requestor=requestor, acks_expected=acks,
                             value=value_at_send)))

    # -------------------------------------------------------------- writebacks
    def _handle_writeback(self, address: BlockAddress, writer: int,
                          payload: CoherencePayload) -> None:
        entry = self.entry(address)
        self.count("writebacks")
        if payload.value is not None:
            self._set_value(entry, payload.value)

        if entry.busy is None:
            if entry.owner == writer:
                self._set_owner(entry, None)
                new_state = (DirectoryState.SHARED if entry.sharers
                             else DirectoryState.UNCACHED)
                self._set_state(entry, new_state)
            # A writeback from a non-owner is stale (it lost ownership to a
            # later transaction); acknowledge it either way so the writer can
            # retire its writeback buffer entry.
            self.send(writer, MessageClass.WRITEBACK_ACK, address,
                      CoherencePayload(requestor=writer))
            return

        # Busy: the writeback races with an in-flight transaction for the
        # same block (Section 3.1's race).
        self.count("writeback_races")
        busy = entry.busy
        assert busy is not None
        if busy.op is MemoryOp.LOAD and entry.owner == writer:
            # The forwarded read is in flight to the writer; after the
            # writeback the block's only up-to-date copy is memory.
            self._set_owner(entry, None)
            self._set_state(entry, DirectoryState.SHARED if entry.sharers
                            else DirectoryState.UNCACHED)
        if self._full_variant:
            # Full protocol: make correctness independent of message order by
            # also sending the written-back data straight to the requestor.
            self.count("race_data_from_directory")
            self.send(busy.requestor, MessageClass.DATA, address,
                      CoherencePayload(requestor=busy.requestor,
                                       acks_expected=busy.acks_expected,
                                       value=entry.value))
        self.send(writer, MessageClass.WRITEBACK_ACK, address,
                  CoherencePayload(requestor=writer))

    # --------------------------------------------------------------- final ack
    def _handle_final_ack(self, address: BlockAddress, requestor: int) -> None:
        # Inline of entry(): one call per completed transaction.
        entry = self.entries.get(address)
        if entry is None:
            entry = self.entries[address] = DirectoryEntry(address=address)
        self.count("final_acks")
        if entry.busy is None:
            # A FinalAck for a transaction that was squashed by a recovery.
            return
        entry.busy = None
        if entry.pending:
            next_requestor, kind, payload = entry.pending.popleft()
            # Re-dispatch through the normal path on the next cycle.
            self._schedule_protocol(1, lambda: self._handle_request(
                address, next_requestor, kind, payload))

    # ----------------------------------------------------------------- recovery
    def squash_transient_state(self) -> None:
        """Drop busy markers and queued requests (system-wide recovery).

        The stable part of each entry (state/owner/sharers/value) is restored
        by the SafetyNet undo log; the transient part corresponds to
        transactions whose requestors have been rolled back and will re-issue
        their requests.
        """
        self.generation += 1
        for entry in self.entries.values():
            entry.busy = None
            entry.pending.clear()

    def restore_entry(self, address: BlockAddress, field_name: str, value) -> None:
        """Apply one undo-log record (called during recovery)."""
        entry = self.entry(address)
        if field_name == "state":
            entry.state = value
        elif field_name == "owner":
            entry.owner = value
        elif field_name == "sharers":
            entry.sharers = set(value)
        elif field_name == "value":
            entry.value = value
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown directory field {field_name!r}")

    # ------------------------------------------------------------------ checks
    def invariant_errors(self) -> List[str]:
        """Structural invariant violations (used by tests), empty when clean."""
        errors: List[str] = []
        for address, entry in self.entries.items():
            if entry.state == DirectoryState.OWNED and entry.owner is None:
                errors.append(f"block {address:#x}: OWNED with no owner")
            if entry.state == DirectoryState.UNCACHED and (entry.owner or entry.sharers):
                errors.append(f"block {address:#x}: UNCACHED but has owner/sharers")
            if entry.owner is not None and entry.owner in entry.sharers:
                errors.append(f"block {address:#x}: owner listed as sharer")
        return errors
