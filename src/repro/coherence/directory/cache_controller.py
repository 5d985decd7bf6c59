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
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.coherence.cache import CacheArray, CacheLine
from repro.coherence.common import BlockAddress, MemoryOp, Transaction
from repro.coherence.controller import BlockingCacheController, MisspeculationReporter
from repro.coherence.directory.messages import CoherencePayload
from repro.coherence.directory.states import CacheState
from repro.core.events import MisspeculationEvent, SpeculationKind
from repro.interconnect.message import MessageClass, NetworkMessage
from repro.sim.config import ProtocolVariant, SystemConfig
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

SendFn = Callable[[int, MessageClass, BlockAddress, CoherencePayload], None]
HomeFn = Callable[[BlockAddress], int]


@dataclass
class WritebackRecord:
    """State of one outstanding Writeback (the MI_A / OI_A transient)."""

    address: BlockAddress
    value: int
    #: False once a ForwardedRequestReadWrite took ownership away while the
    #: writeback was still outstanding (the II_A transient).
    still_owner: bool = True


class DirectoryCacheController(BlockingCacheController):
    """Per-node L2 cache controller speaking the MOSI directory protocol."""

    INVALID = CacheState.INVALID
    SHARED = CacheState.SHARED
    MODIFIED = CacheState.MODIFIED
    WRITABLE = (CacheState.MODIFIED,)

    def __init__(self, node_id: int, sim: Simulator, config: SystemConfig,
                 cache: CacheArray, send: SendFn, home: HomeFn, *,
                 txn_ids: Iterator[int],
                 misspeculation_reporter: Optional[MisspeculationReporter] = None,
                 stats: Optional[StatsRegistry] = None) -> None:
        super().__init__(f"l2ctrl{node_id}", node_id, sim, config, cache,
                         txn_ids=txn_ids,
                         misspeculation_reporter=misspeculation_reporter,
                         stats=stats)
        #: Whether the S1 detection path is live: the speculative variant.
        #: Derived from the configuration so directly constructed
        #: controllers (unit tests) behave like system-built ones; the
        #: speculation layer (:mod:`repro.speculation.detectors`) arms the
        #: matching forward-progress policy.
        self.p2p_detection_enabled = (
            config.variant == ProtocolVariant.SPECULATIVE)
        self.send = send
        self.home = home
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

    # ============================================================= transactions
    def _request(self, txn: Transaction) -> None:
        msg_class = (MessageClass.REQUEST_READ_ONLY if txn.op is MemoryOp.LOAD
                     else MessageClass.REQUEST_READ_WRITE)
        self.send(self.home(txn.address), msg_class, txn.address,
                  CoherencePayload(requestor=self.node_id, txn_id=txn.txn_id))

    def _transaction_done(self, txn: Transaction) -> None:
        # Send the FinalAck that unblocks the directory for this block.
        self.send(self.home(txn.address), MessageClass.FINAL_ACK, txn.address,
                  CoherencePayload(requestor=self.node_id, txn_id=txn.txn_id))

    def _timeout_description(self, txn: Transaction) -> Tuple[str, Dict[str, Any]]:
        return (f"transaction {txn.txn_id} ({txn.op.value} {txn.address:#x}) "
                f"timed out after {self.timeout_cycles} cycles",
                {"txn_id": txn.txn_id})

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
            # Full protocol: the directory already supplied data to the
            # requestor when it observed the racing writeback, so the stale
            # forward can be ignored.
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
        self.schedule(100, lambda: self._request(txn))

    def _maybe_complete(self, txn: Transaction) -> None:
        if txn.satisfied and not txn.completed:
            txn.complete()

    # ----------------------------------------------------------- line handling
    def _install_line(self, txn: Transaction, value: Optional[int]) -> None:
        target_state = self.SHARED if txn.op is MemoryOp.LOAD else self.MODIFIED
        if self.cache.contains(txn.address):
            # Upgrade: keep our (fresher) data when the directory sent None.
            self.cache.set_state(txn.address, target_state)
            if value is not None:
                self.cache.set_value(txn.address, value)
            return
        self._allocate_line(txn, target_state, value)

    def _evict(self, victim: CacheLine) -> None:
        """Evict a line chosen by LRU, issuing a Writeback if it is dirty."""
        state: CacheState = victim.state
        if state is CacheState.MODIFIED or state is CacheState.OWNED:
            record = WritebackRecord(address=victim.address,
                                     value=victim.value if victim.value is not None else 0)
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
