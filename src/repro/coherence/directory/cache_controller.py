"""Cache controller (L2) of the MOSI directory protocol.

One cache controller lives on every node.  The processor issues loads and
stores to it; misses become coherence transactions over the torus network.
Transient states are represented structurally:

* an outstanding :class:`repro.coherence.common.Transaction` is the classic
  IS_D / IM_AD transient (request issued, waiting for Data and, for stores,
  invalidation acks), and
* an outstanding :class:`WritebackRecord` is the MI_A / OI_A / II_A
  transient (Writeback issued, waiting for the WritebackAck; the record
  keeps the block's data so racing forwarded requests can still be served).

Mis-speculation detection (the speculative variant):  a ForwardedRequest for
a block that this controller has neither a valid copy of nor a pending
writeback for is the "one specific invalid transition" of Section 3.1 —
it can only be produced by the network delivering the directory's
WritebackAck ahead of an earlier ForwardedRequest — and triggers a system
recovery through the mis-speculation reporter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.coherence.cache import CacheArray, CacheLine
from repro.coherence.common import BlockAddress, MemoryOp, MemoryRequest, Transaction
from repro.coherence.directory.messages import CoherencePayload
from repro.coherence.directory.states import CacheState
from repro.core.events import MisspeculationEvent, SpeculationKind
from repro.interconnect.message import MessageClass, NetworkMessage
from repro.sim.component import Component
from repro.sim.config import ProtocolVariant, SystemConfig
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

SendFn = Callable[[int, MessageClass, BlockAddress, CoherencePayload], None]
HomeFn = Callable[[BlockAddress], int]
MisspeculationReporter = Callable[[MisspeculationEvent], None]


@dataclass
class WritebackRecord:
    """State of one outstanding Writeback (the MI_A / OI_A transient)."""

    address: BlockAddress
    value: int
    #: False once a ForwardedRequestReadWrite took ownership away while the
    #: writeback was still outstanding (the II_A transient).
    still_owner: bool = True
    issued_at: int = 0


class DirectoryCacheController(Component):
    """Per-node L2 cache controller speaking the MOSI directory protocol."""

    def __init__(self, node_id: int, sim: Simulator, config: SystemConfig,
                 cache: CacheArray, send: SendFn, home: HomeFn, *,
                 txn_ids: Iterator[int],
                 misspeculation_reporter: Optional[MisspeculationReporter] = None,
                 stats: Optional[StatsRegistry] = None) -> None:
        super().__init__(f"l2ctrl{node_id}", sim, stats)
        self.node_id = node_id
        self.config = config
        self.variant = config.variant
        #: Whether the S1 detection path is live: the speculative variant
        #: with the ``directory-p2p-order`` design enabled.  Derived from
        #: the configuration so directly constructed controllers (unit
        #: tests) behave like system-built ones; the speculation layer
        #: (:mod:`repro.speculation.detectors`) arms the matching
        #: forward-progress policy.
        self.p2p_detection_enabled = (
            config.variant == ProtocolVariant.SPECULATIVE
            and config.speculation.speculates(
                SpeculationKind.DIRECTORY_P2P_ORDER.value))
        self.cache = cache
        self.send = send
        self.home = home
        self.misspeculation_reporter = misspeculation_reporter
        #: The owning system's transaction id stream (shared by every
        #: controller of one system; the compiled core draws from it too).
        self._txn_ids = txn_ids
        #: At most one outstanding demand transaction (blocking processor).
        self.transaction: Optional[Transaction] = None
        #: Outstanding writebacks by address.
        self.writebacks: Dict[BlockAddress, WritebackRecord] = {}
        #: Hook installed by the system to bound outstanding transactions
        #: during slow-start; returns True when a new transaction may issue.
        self.may_issue: Callable[[int], bool] = lambda node: True
        #: Hook called when a transaction is retired (slow-start accounting).
        self.on_retire: Callable[[int], None] = lambda node: None
        #: Timeout configuration; installed by the system builder.
        self.timeout_cycles: Optional[int] = None
        self.detected_misspeculations = 0
        #: Bumped on every recovery; delayed actions from before a recovery
        #: (slow-start retries, install retries) are dropped when they fire.
        self.generation = 0
        #: Lazily bound miss-latency histogram (bound once per controller).
        self._miss_latency_hist = None
        #: Completion context of the outstanding transaction.  The blocking
        #: processor guarantees at most one, so the (request, on_complete)
        #: pair lives on the controller instead of a per-transaction closure
        #: (one closure per miss is measurable at protocol rates, and the
        #: compiled transaction core completes through the same attributes).
        self._pending_request: Optional[MemoryRequest] = None
        self._pending_on_complete: Optional[Callable[[MemoryRequest], None]] = None
        #: Message dispatch table, built once (a fresh dict per message is
        #: measurable at protocol rates).
        self._handlers: Dict[MessageClass, Callable[[BlockAddress, CoherencePayload], None]] = {
            MessageClass.FORWARDED_REQUEST_READ_ONLY: self._handle_fwd_gets,
            MessageClass.FORWARDED_REQUEST_READ_WRITE: self._handle_fwd_getx,
            MessageClass.INVALIDATION: self._handle_invalidation,
            MessageClass.WRITEBACK_ACK: self._handle_writeback_ack,
            MessageClass.DATA: self._handle_data,
            MessageClass.ACK: self._handle_ack,
            MessageClass.NACK: self._handle_nack,
        }

    # ================================================================ processor
    def access(self, request: MemoryRequest,
               on_complete: Callable[[MemoryRequest], None]) -> None:
        """Handle one processor memory reference.

        ``on_complete`` is called (possibly after coherence activity) exactly
        once when the reference retires.  The caller (processor model) only
        ever has one reference outstanding.
        """
        address = request.address
        request.issued_at = self.sim._now
        cache = self.cache
        line = cache.lookup(address)
        state = line.state if line is not None else CacheState.INVALID

        # Identity tests on the enum members (hot path: once per L1 miss;
        # str-enum `==` and the state properties route through str compare).
        is_load = request.op is MemoryOp.LOAD
        if is_load and state is not CacheState.INVALID:
            cache.hits += 1
            self.count("load_hits")
            request.value = line.value
            self._finish(request, on_complete, self.config.processor.l2_hit_cycles)
            return
        if not is_load and state is CacheState.MODIFIED:
            cache.hits += 1
            self.count("store_hits")
            cache.set_value(address, request.value)
            self._finish(request, on_complete, self.config.processor.l2_hit_cycles)
            return

        # Miss (or upgrade): issue a coherence transaction.
        cache.misses += 1
        self.count("load_misses" if is_load else "store_misses")
        self._issue_transaction(request, on_complete)

    def _finish(self, request: MemoryRequest,
                on_complete: Callable[[MemoryRequest], None], delay: int) -> None:
        def _done() -> None:
            request.completed_at = self.sim.now
            on_complete(request)
        self.schedule(delay, _done)

    # ============================================================= transactions
    def _issue_transaction(self, request: MemoryRequest,
                           on_complete: Callable[[MemoryRequest], None]) -> None:
        if self.transaction is not None:
            raise RuntimeError(
                f"{self.name}: blocking processor issued a second reference")
        if not self.may_issue(self.node_id):
            self._retry_issue(request, on_complete)
            return

        txn = Transaction(node=self.node_id, address=request.address,
                          op=request.op, started_at=self.sim._now,
                          txn_id=next(self._txn_ids))
        self._pending_request = request
        self._pending_on_complete = on_complete
        txn.on_complete = self._complete_current
        self.transaction = txn

        if self.timeout_cycles is not None:
            txn.timeout_event = self.schedule(
                self.timeout_cycles, lambda: self._transaction_timeout(txn),
                label=f"{self.name}.timeout")

        msg_class = (MessageClass.REQUEST_READ_ONLY if request.op is MemoryOp.LOAD
                     else MessageClass.REQUEST_READ_WRITE)
        self.send(self.home(request.address), msg_class, request.address,
                  CoherencePayload(requestor=self.node_id, txn_id=txn.txn_id))
        self.count("transactions_issued")

    def _retry_issue(self, request: MemoryRequest,
                     on_complete: Callable[[MemoryRequest], None]) -> None:
        # Slow-start gating: retry shortly (void if a recovery intervenes,
        # because the rolled-back processor will re-issue the reference).
        generation = self.generation
        self.schedule(50, lambda: (self._issue_transaction(request, on_complete)
                                   if generation == self.generation else None))

    def _complete_current(self, txn: Transaction) -> None:
        """``on_complete`` of the controller's single outstanding transaction."""
        self._transaction_done(txn, self._pending_request,
                               self._pending_on_complete)

    def _transaction_done(self, txn: Transaction, request: MemoryRequest,
                          on_complete: Callable[[MemoryRequest], None]) -> None:
        self.transaction = None
        self.on_retire(self.node_id)
        # Send the FinalAck that unblocks the directory for this block.
        self.send(self.home(txn.address), MessageClass.FINAL_ACK, txn.address,
                  CoherencePayload(requestor=self.node_id, txn_id=txn.txn_id))
        self.count("transactions_completed")
        hist = self._miss_latency_hist
        if hist is None:
            hist = self._miss_latency_hist = self.stats.histogram(
                "l2.miss_latency", bucket_width=64)
        hist.record(self.sim._now - txn.started_at)
        if request.op is MemoryOp.STORE:
            # Apply the store's value now that the block is writable here.
            if self.cache.contains(txn.address) and request.value is not None:
                self.cache.set_value(txn.address, request.value)
        else:
            request.value = self._read_value(txn.address)
        request.completed_at = self.sim.now
        on_complete(request)

    def _read_value(self, address: BlockAddress) -> Optional[int]:
        line = self.cache.peek(address)
        return line.value if line is not None else None

    def _transaction_timeout(self, txn: Transaction) -> None:
        """A coherence transaction timed out: the Section 4 deadlock detector."""
        # The timeout event has fired: its handle is dead (the kernel pools
        # fired events) and must not be cancelled later.
        txn.timeout_event = None
        if txn.completed or self.transaction is not txn:
            return
        self.detected_misspeculations += 1
        self.count("timeout_detections")
        self._report(MisspeculationEvent(
            kind=SpeculationKind.INTERCONNECT_DEADLOCK,
            detected_at=self.sim.now,
            node=self.node_id,
            address=txn.address,
            description=(f"transaction {txn.txn_id} ({txn.op.value} {txn.address:#x}) "
                         f"timed out after {self.timeout_cycles} cycles"),
            details={"txn_id": txn.txn_id}))

    # ============================================================ network input
    def handle_message(self, message: NetworkMessage) -> None:
        """Entry point for ForwardedRequest / Response messages."""
        payload: CoherencePayload = message.payload
        address = message.address
        assert address is not None
        handler = self._handlers.get(message.msg_class)
        if handler is None:
            raise ValueError(f"{self.name}: unexpected message {message.msg_class}")
        handler(address, payload)

    # -------------------------------------------------------- forwarded requests
    def _handle_fwd_gets(self, address: BlockAddress, payload: CoherencePayload) -> None:
        line = self.cache.peek(address)
        if line is not None and (line.state is CacheState.MODIFIED
                                 or line.state is CacheState.OWNED):
            # Stay owner, downgrade M -> O, supply data to the requestor.
            if line.state is CacheState.MODIFIED:
                self.cache.set_state(address, CacheState.OWNED)
            self._send_data_to(payload.requestor, address, line.value,
                               acks=payload.acks_expected)
            self.count("fwd_gets_served")
            return
        record = self.writebacks.get(address)
        if record is not None and record.still_owner:
            # MI_A / OI_A: the writeback is still in flight, we still have
            # the data in the writeback buffer.
            self._send_data_to(payload.requestor, address, record.value,
                               acks=payload.acks_expected)
            self.count("fwd_gets_served_from_wb")
            return
        self._forwarded_request_without_data(
            address, payload, MessageClass.FORWARDED_REQUEST_READ_ONLY)

    def _handle_fwd_getx(self, address: BlockAddress, payload: CoherencePayload) -> None:
        line = self.cache.peek(address)
        if line is not None and (line.state is CacheState.MODIFIED
                                 or line.state is CacheState.OWNED):
            self._send_data_to(payload.requestor, address, line.value,
                               acks=payload.acks_expected)
            self.cache.set_state(address, CacheState.INVALID)
            self.count("fwd_getx_served")
            return
        record = self.writebacks.get(address)
        if record is not None and record.still_owner:
            # MI_A -> II_A: supply data, give up ownership, keep waiting for
            # the WritebackAck.
            self._send_data_to(payload.requestor, address, record.value,
                               acks=payload.acks_expected)
            record.still_owner = False
            self.count("fwd_getx_served_from_wb")
            return
        self._forwarded_request_without_data(
            address, payload, MessageClass.FORWARDED_REQUEST_READ_WRITE)

    def _forwarded_request_without_data(self, address: BlockAddress,
                                        payload: CoherencePayload,
                                        msg_class: MessageClass) -> None:
        """A forwarded request arrived for a block we cannot supply.

        With point-to-point ordering this transition is unreachable: the
        directory only forwards to the current owner, and an owner only loses
        its data after the directory's WritebackAck, which was sent *after*
        the forwarded request on the same virtual network.  Observing it
        therefore proves the network reordered the two messages.
        """
        if self.p2p_detection_enabled:
            self.detected_misspeculations += 1
            self.count("p2p_order_detections")
            self._report(MisspeculationEvent(
                kind=SpeculationKind.DIRECTORY_P2P_ORDER,
                detected_at=self.sim.now,
                node=self.node_id,
                address=address,
                description=(f"{msg_class.value} received in state I "
                             "(WritebackAck overtook a ForwardedRequest)"),
                details={"requestor": payload.requestor}))
        else:
            # Full protocol (or S1 disabled): the directory already supplied
            # data to the requestor when it observed the racing writeback,
            # so the stale forward can be ignored.
            self.count("race_forward_ignored")

    # ------------------------------------------------------------ invalidations
    def _handle_invalidation(self, address: BlockAddress, payload: CoherencePayload) -> None:
        line = self.cache.peek(address)
        if line is not None:
            self.cache.set_state(address, CacheState.INVALID)
        # Acknowledge to the requestor even if we had already silently
        # evicted our Shared copy.
        self.send(payload.requestor, MessageClass.ACK, address,
                  CoherencePayload(requestor=payload.requestor))
        self.count("invalidations")

    # -------------------------------------------------------------- writebacks
    def _handle_writeback_ack(self, address: BlockAddress, payload: CoherencePayload) -> None:
        record = self.writebacks.pop(address, None)
        if record is None:
            self.count("spurious_writeback_acks")
            return
        self.count("writebacks_retired")

    # ---------------------------------------------------------------- responses
    def _handle_data(self, address: BlockAddress, payload: CoherencePayload) -> None:
        txn = self.transaction
        if txn is None or txn.address != address or txn.completed:
            # Duplicate data (full-variant race handling) or data for a
            # transaction squashed by recovery.
            self.count("stale_data_messages")
            return
        if txn.data_received:
            self.count("duplicate_data_messages")
            return
        txn.data_received = True
        txn.acks_needed = max(txn.acks_needed, payload.acks_expected)
        self._install_line(txn, payload.value)
        self._maybe_complete(txn)

    def _handle_ack(self, address: BlockAddress, payload: CoherencePayload) -> None:
        txn = self.transaction
        if txn is None or txn.address != address or txn.completed:
            self.count("stale_acks")
            return
        txn.acks_received += 1
        self._maybe_complete(txn)

    def _handle_nack(self, address: BlockAddress, payload: CoherencePayload) -> None:
        """Nacked request: re-issue after a short backoff (not used by default)."""
        txn = self.transaction
        if txn is None or txn.address != address:
            return
        self.count("nacks")
        msg_class = (MessageClass.REQUEST_READ_ONLY if txn.op == MemoryOp.LOAD
                     else MessageClass.REQUEST_READ_WRITE)
        self.schedule(100, lambda: self.send(
            self.home(address), msg_class, address,
            CoherencePayload(requestor=self.node_id, txn_id=txn.txn_id)))

    def _maybe_complete(self, txn: Transaction) -> None:
        if txn.satisfied and not txn.completed:
            txn.complete()

    # ----------------------------------------------------------- line handling
    def _install_line(self, txn: Transaction, value: Optional[int]) -> None:
        target_state = (CacheState.SHARED if txn.op is MemoryOp.LOAD
                        else CacheState.MODIFIED)
        existing = self.cache.peek(txn.address)
        if existing is not None:
            # Upgrade: keep our (fresher) data when the directory sent None.
            self.cache.set_state(txn.address, target_state)
            if value is not None:
                self.cache.set_value(txn.address, value)
            return
        install_value = value if value is not None else 0
        victim = self.cache.find_victim(
            txn.address, evictable=lambda line: self._evictable(line))
        cache_set_full = (self.cache.occupancy_of_set(txn.address)
                          >= self.config.l2.associativity)
        if cache_set_full and victim is None:
            # Every line in the set is mid-transaction; extremely rare with
            # 4-way sets and a blocking processor.  Retry shortly.
            generation = self.generation
            self.schedule(20, lambda: (self._install_line(txn, value)
                                       if generation == self.generation else None))
            return
        if cache_set_full and victim is not None:
            self._evict(victim)
        self.cache.allocate(txn.address, target_state, install_value)

    def _evictable(self, line: CacheLine) -> bool:
        return line.address not in self.writebacks and (
            self.transaction is None or line.address != self.transaction.address)

    def _evict(self, victim: CacheLine) -> None:
        """Evict a line chosen by LRU, issuing a Writeback if it is dirty."""
        state: CacheState = victim.state
        if state is CacheState.MODIFIED or state is CacheState.OWNED:
            record = WritebackRecord(address=victim.address,
                                     value=victim.value if victim.value is not None else 0,
                                     issued_at=self.sim.now)
            self.writebacks[victim.address] = record
            self.send(self.home(victim.address), MessageClass.WRITEBACK,
                      victim.address,
                      CoherencePayload(requestor=self.node_id, value=record.value))
            self.count("writebacks_issued")
        else:
            self.count("silent_evictions")
        self.cache.set_state(victim.address, CacheState.INVALID)

    def _send_data_to(self, requestor: int, address: BlockAddress,
                      value: Optional[int], *, acks: int) -> None:
        self.send(requestor, MessageClass.DATA, address,
                  CoherencePayload(requestor=requestor, acks_expected=acks,
                                   value=value if value is not None else 0))

    # ---------------------------------------------------------------- recovery
    def squash_transient_state(self) -> None:
        """Drop outstanding transactions and writebacks (system recovery).

        The processor that owns the squashed transaction is rolled back by
        the recovery manager and will re-issue its reference; cache stable
        state is restored from the SafetyNet undo log.
        """
        self.generation += 1
        if self.transaction is not None and self.transaction.timeout_event is not None:
            self.transaction.timeout_event.cancel()
            self.transaction.timeout_event = None
        self.transaction = None
        self.writebacks.clear()

    # --------------------------------------------------------------- reporting
    def _report(self, event: MisspeculationEvent) -> None:
        if self.misspeculation_reporter is not None:
            self.misspeculation_reporter(event)

    # ------------------------------------------------------------------ checks
    def invariant_errors(self) -> List[str]:
        errors: List[str] = []
        for line in self.cache.lines():
            if line.state == CacheState.INVALID:
                errors.append(f"{self.name}: invalid line left in array {line.address:#x}")
        return errors
