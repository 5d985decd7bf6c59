"""Snooping cache controller (MOESI).

The controller issues requests on the ordered address network, snoops the
ordered requests that can concern it (the bus filters out the rest, see
:mod:`repro.coherence.snooping.bus`), and supplies data when it is the
owner.  The Section 3.2 corner case is modelled faithfully via
:class:`SnoopWritebackRecord` (see
:class:`repro.coherence.snooping.states.WritebackPhase`).

Speculative vs. full variant:

* ``SPECULATIVE`` — observing a second foreign RequestReadWrite while in the
  LOST_OWNERSHIP transient is "the unspecified coherence transition"; the
  controller reports a mis-speculation and the system recovers.
* ``FULL`` — the transition is specified: the controller is no longer the
  owner, so it supplies nothing and simply remains in LOST_OWNERSHIP until
  its own Writeback is ordered (at which point the stale Writeback is
  dropped by the memory controller).  The extra specification (and the extra
  verification obligation that comes with it) is exactly what the
  speculative design avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.coherence.cache import CacheArray, CacheLine
from repro.coherence.common import BlockAddress, MemoryOp, Transaction
from repro.coherence.controller import BlockingCacheController, MisspeculationReporter
from repro.coherence.snooping.bus import AddressBus, BusRequest, BusRequestType
from repro.coherence.snooping.states import SnoopState, WritebackPhase
from repro.core.events import MisspeculationEvent, SpeculationKind
from repro.sim.config import ProtocolVariant, SystemConfig
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

#: Deliver data to another node: (dst_node, address, value).
DataDelivery = Callable[[int, BlockAddress, int], None]


@dataclass
class SnoopWritebackRecord:
    """One outstanding Writeback and its transient-state phase."""

    address: BlockAddress
    value: int
    request: BusRequest
    phase: WritebackPhase = WritebackPhase.WAITING_OWN_WB


class SnoopingCacheController(BlockingCacheController):
    """Per-node cache controller of the broadcast snooping system."""

    INVALID = SnoopState.INVALID
    SHARED = SnoopState.SHARED
    MODIFIED = SnoopState.MODIFIED
    WRITABLE = (SnoopState.MODIFIED, SnoopState.EXCLUSIVE)

    #: Latency of a cache-to-cache data transfer on the data network.
    CACHE_TO_CACHE_CYCLES = 40

    def __init__(self, node_id: int, sim: Simulator, config: SystemConfig,
                 cache: CacheArray, bus: AddressBus, deliver_data: DataDelivery, *,
                 txn_ids: Iterator[int],
                 misspeculation_reporter: Optional[MisspeculationReporter] = None,
                 stats: Optional[StatsRegistry] = None) -> None:
        super().__init__(f"snoopctrl{node_id}", node_id, sim, config, cache,
                         txn_ids=txn_ids,
                         misspeculation_reporter=misspeculation_reporter,
                         stats=stats)
        #: Whether the S2 detection path is live: the speculative variant.
        #: Derived from the configuration so directly constructed
        #: controllers (unit tests) behave like system-built ones; the
        #: speculation layer arms the matching slow-start policy.
        self.corner_case_detection_enabled = (
            config.variant == ProtocolVariant.SPECULATIVE)
        self.bus = bus
        self.deliver_data = deliver_data
        #: Foreign requests ordered after our own RequestReadWrite but before
        #: our data arrived; we owe them a data forward once we install
        #: Modified (the classic IM_AD "remember to forward" transient).
        self._pending_forwards: Dict[BlockAddress, List[BusRequest]] = {}
        #: Addresses for which ownership has already been passed on to a
        #: later RequestReadWrite (we stop collecting forwards for them).
        self._ownership_passed: set = set()

    # ============================================================= transactions
    def _request(self, txn: Transaction) -> None:
        rtype = (BusRequestType.GETS if txn.op is MemoryOp.LOAD
                 else BusRequestType.GETX)
        self.bus.issue(BusRequest(requestor=self.node_id, address=txn.address,
                                  rtype=rtype))

    def _timeout_description(self, txn: Transaction) -> Tuple[str, Dict[str, Any]]:
        return f"snooping transaction {txn.txn_id} timed out", {}

    # ================================================================== snooping
    def snoop(self, request: BusRequest) -> bool:
        """Observe an ordered request; returns True if we will supply data.

        The compiled tier rebinds this to ``SnoopCore.snoop``, which runs
        the stable-state snoops itself and calls ``_snoop_own`` (our own
        Writeback) and ``_snoop_foreign`` (a foreign request for a block
        with a Writeback record here, or for our transaction's block) for
        every snoop that meets transient state.
        """
        if request.requestor == self.node_id:
            return self._snoop_own(request)
        return self._snoop_foreign(request)

    # ------------------------------------------------------------- own requests
    def _snoop_own(self, request: BusRequest) -> bool:
        if request.rtype == BusRequestType.WRITEBACK:
            record = self.writebacks.pop(request.address, None)
            if record is not None:
                self.count("writebacks_ordered")
            return False
        # Own GETS/GETX ordered.
        txn = self.transaction
        if txn is not None and txn.address == request.address:
            self.count("own_request_ordered")
            txn.bus_ordered = True  # type: ignore[attr-defined]
            line = self.cache.peek(request.address)
            if line is not None and line.state.has_valid_data:
                # Upgrade: we already hold valid data (e.g. Shared -> store);
                # the global order of our request is what grants permission,
                # so we can complete from our own copy without a data
                # transfer.  Other sharers invalidate on their snoop.
                value = line.value if line.value is not None else 0
                self.schedule(1, lambda: self.receive_data(request.address, value))
                return True
        return False

    # --------------------------------------------------------- foreign requests
    def _snoop_foreign(self, request: BusRequest) -> bool:
        if request.rtype == BusRequestType.WRITEBACK:
            # Another node's writeback does not affect our state.
            return False
        address = request.address
        line = self.cache.peek(address)
        state = line.state if line is not None else SnoopState.INVALID
        record = self.writebacks.get(address)

        if request.rtype == BusRequestType.GETS:
            return self._snoop_foreign_gets(request, line, state, record)
        return self._snoop_foreign_getx(request, line, state, record)

    def _pending_store_txn(self, address: BlockAddress) -> Optional[Transaction]:
        """Our outstanding, already-ordered RequestReadWrite for ``address``."""
        txn = self.transaction
        if (txn is not None and txn.address == address and not txn.completed
                and txn.op == MemoryOp.STORE and not txn.data_received
                and getattr(txn, "bus_ordered", False)
                and address not in self._ownership_passed):
            return txn
        return None

    def _snoop_foreign_gets(self, request: BusRequest, line: Optional[CacheLine],
                            state: SnoopState,
                            record: Optional[SnoopWritebackRecord]) -> bool:
        if state.is_owner:
            # Supply data and keep a shared copy (M/E -> O keeps ownership of
            # the dirty data; O stays O).
            if state in (SnoopState.MODIFIED, SnoopState.EXCLUSIVE):
                self.cache.set_state(request.address, SnoopState.OWNED)
            self._supply(request, line.value if line is not None else 0)
            return True
        if record is not None and record.phase == WritebackPhase.WAITING_OWN_WB:
            # Still the owner until our Writeback is ordered.
            self._supply(request, record.value)
            return True
        if self._pending_store_txn(request.address) is not None:
            # The global order has already made us the next owner; we owe
            # this reader a forward once our data arrives (IM_AD transient).
            self._pending_forwards.setdefault(request.address, []).append(request)
            self.count("forwards_deferred")
            return True
        return False

    def _snoop_foreign_getx(self, request: BusRequest, line: Optional[CacheLine],
                            state: SnoopState,
                            record: Optional[SnoopWritebackRecord]) -> bool:
        supplied = False
        if state.is_owner:
            self._supply(request, line.value if line is not None else 0)
            supplied = True
        if state.has_valid_data:
            self.cache.set_state(request.address, SnoopState.INVALID)

        if self._pending_store_txn(request.address) is not None:
            # We are the owner-to-be; forward to this writer once our data
            # arrives, and stop collecting further forwards (ownership passes
            # to it in the global order).
            self._pending_forwards.setdefault(request.address, []).append(request)
            self._ownership_passed.add(request.address)
            self.count("forwards_deferred")
            supplied = True
        elif (self.transaction is not None
              and self.transaction.address == request.address
              and not self.transaction.completed
              and self.transaction.op == MemoryOp.LOAD
              and getattr(self.transaction, "bus_ordered", False)
              and not self.transaction.data_received):
            # Our ordered read will receive data that this later writer
            # immediately invalidates: use the value for the one load but do
            # not keep the line (IS_A "late invalidate" transient).
            self.transaction.invalidate_on_install = True  # type: ignore[attr-defined]
            self.count("late_invalidates")

        if record is not None:
            if record.phase == WritebackPhase.WAITING_OWN_WB:
                # First racing RequestReadWrite: supply data, lose ownership,
                # keep waiting for our own Writeback to be ordered.
                self._supply(request, record.value)
                record.phase = WritebackPhase.LOST_OWNERSHIP
                record.request.value = None  # our writeback is now stale
                self.count("writeback_race_first_getx")
                supplied = True
            elif record.phase == WritebackPhase.LOST_OWNERSHIP:
                # Second racing RequestReadWrite: the Section 3.2 corner case.
                self._corner_case(request)
        return supplied

    def _corner_case(self, request: BusRequest) -> None:
        if self.corner_case_detection_enabled:
            self.count("corner_case_detections")
            self._report(MisspeculationEvent(
                kind=SpeculationKind.SNOOPING_CORNER_CASE,
                detected_at=self.sim.now, node=self.node_id,
                address=request.address,
                description=("second foreign RequestReadWrite observed while "
                             "awaiting own Writeback with ownership already lost"),
                details={"second_requestor": request.requestor}))
        else:
            # Full protocol: the transition is specified — we are no longer
            # the owner, the current owner supplies data, nothing to do.
            self.count("corner_case_handled")

    def _supply(self, request: BusRequest, value: Optional[int]) -> None:
        self.count("cache_to_cache_transfers")
        self.schedule(self.CACHE_TO_CACHE_CYCLES,
                      lambda: self.deliver_data(request.requestor, request.address,
                                                value if value is not None else 0))

    # ================================================================== data path
    def receive_data(self, address: BlockAddress, value: int) -> None:
        """Data response arriving on the data network."""
        txn = self.transaction
        if txn is None or txn.address != address or txn.completed:
            self.count("stale_data")
            return
        if txn.data_received:
            self.count("duplicate_data")
            return
        txn.data_received = True
        txn.value_hint = value  # type: ignore[attr-defined]
        self._install_line(txn, value)
        if getattr(txn, "invalidate_on_install", False) and self.cache.contains(address):
            # Late invalidate: the value satisfies this one load, the line is
            # not kept (a later writer already owns the block).
            self.cache.set_state(address, SnoopState.INVALID)
        txn.complete()
        self._process_pending_forwards(address)

    def _process_pending_forwards(self, address: BlockAddress) -> None:
        """Serve the foreign requests ordered between our GETX and our data."""
        pending = self._pending_forwards.pop(address, [])
        self._ownership_passed.discard(address)
        if not pending:
            return
        line = self.cache.peek(address)
        value = line.value if line is not None and line.value is not None else 0
        for request in pending:
            self._supply(request, value)
            if request.rtype == BusRequestType.GETX:
                if self.cache.contains(address):
                    self.cache.set_state(address, SnoopState.INVALID)
            else:
                if self.cache.contains(address):
                    self.cache.set_state(address, SnoopState.OWNED)

    def _install_line(self, txn: Transaction, value: int) -> None:
        target = self.SHARED if txn.op is MemoryOp.LOAD else self.MODIFIED
        if self.cache.contains(txn.address):
            self.cache.set_state(txn.address, target)
            self.cache.set_value(txn.address, value)
            return
        self._allocate_line(txn, target, value)

    def _evict(self, victim: CacheLine) -> None:
        state: SnoopState = victim.state
        if state.is_dirty:
            request = BusRequest(requestor=self.node_id, address=victim.address,
                                 rtype=BusRequestType.WRITEBACK,
                                 value=victim.value if victim.value is not None else 0)
            self.writebacks[victim.address] = SnoopWritebackRecord(
                address=victim.address,
                value=victim.value if victim.value is not None else 0,
                request=request)
            self.bus.issue(request)
            self.count("writebacks_issued")
        else:
            self.count("silent_evictions")
        self.cache.set_state(victim.address, SnoopState.INVALID)

    # ================================================================ recovery
    def squash_transient_state(self) -> None:
        """Also forget the deferred forwards and passed ownerships."""
        super().squash_transient_state()
        self._pending_forwards.clear()
        self._ownership_passed.clear()
