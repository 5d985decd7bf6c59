"""The blocking L2 cache controller both coherence protocols build on.

Both protocols pair a blocking processor with a cache controller that has
at most one outstanding demand transaction.  Everything about that
transaction's lifecycle is protocol-independent and lives here: the
processor-facing :meth:`BlockingCacheController.access` (L2 hit or miss),
issue with slow-start gating and the deadlock timeout, allocation of the
installed line, completion and recovery.  A protocol supplies its state
enum through the ``INVALID``/``SHARED``/``MODIFIED``/``WRITABLE`` class
attributes and its transitions through a few hooks:

* :meth:`~BlockingCacheController._request` sends the miss request of a
  new transaction;
* :meth:`~BlockingCacheController._transaction_done` is the protocol's part
  of completing one;
* :meth:`~BlockingCacheController._timeout_description` describes a timed
  out transaction in its :class:`MisspeculationEvent`;
* ``_install_line`` and ``_evict`` place the arriving data and write back
  a dirty victim.

The compiled tier mirrors this split: ``TransactionCore`` and ``SnoopCore``
in ``repro._ckernel`` share one C implementation of the lifecycle (see
DESIGN.md §12) and bind the methods here by name.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.coherence.cache import CacheArray, CacheLine
from repro.coherence.common import MemoryOp, MemoryRequest, Transaction
from repro.core.events import MisspeculationEvent, SpeculationKind
from repro.sim.component import Component
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

MisspeculationReporter = Callable[[MisspeculationEvent], None]


class BlockingCacheController(Component):
    """Per-node L2 controller with at most one outstanding transaction."""

    #: The protocol's Invalid, Shared and Modified states.
    INVALID: Any
    SHARED: Any
    MODIFIED: Any
    #: States in which a store hits; a hit in one other than ``MODIFIED``
    #: upgrades the line to ``MODIFIED``.
    WRITABLE: Tuple[Any, ...]

    def __init__(self, name: str, node_id: int, sim: Simulator,
                 config: SystemConfig, cache: CacheArray, *,
                 txn_ids: Iterator[int],
                 misspeculation_reporter: Optional[MisspeculationReporter] = None,
                 stats: Optional[StatsRegistry] = None) -> None:
        super().__init__(name, sim, stats)
        self.node_id = node_id
        self.config = config
        self.cache = cache
        self.misspeculation_reporter = misspeculation_reporter
        #: The owning system's transaction id stream (shared by every
        #: controller of one system; the compiled cores draw from it too).
        self._txn_ids = txn_ids
        #: At most one outstanding demand transaction (blocking processor).
        self.transaction: Optional[Transaction] = None
        #: Outstanding writebacks by address (the protocol's records).
        self.writebacks: Dict[int, Any] = {}
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
        #: Completion context of the outstanding transaction.  The blocking
        #: processor guarantees at most one, so the (request, on_complete)
        #: pair lives on the controller instead of a per-transaction closure
        #: (one closure per miss is measurable at protocol rates, and the
        #: compiled cores complete through the same attributes).
        self._pending_request: Optional[MemoryRequest] = None
        self._pending_on_complete: Optional[Callable[[MemoryRequest], None]] = None

    # ================================================================ processor
    def access(self, request: MemoryRequest,
               on_complete: Callable[[MemoryRequest], None]) -> None:
        """Handle one processor memory reference.

        ``on_complete`` is called (possibly after coherence activity) exactly
        once when the reference retires.  The caller (processor model) only
        ever has one reference outstanding.
        """
        address = request.address
        cache = self.cache
        line = cache.lookup(address)
        state = line.state if line is not None else self.INVALID

        # Identity tests on the enum members (hot path: once per L1 miss;
        # str-enum `==` routes through str compare).
        is_load = request.op is MemoryOp.LOAD
        if is_load and state is not self.INVALID:
            cache.hits += 1
            self.count("load_hits")
            request.value = line.value
            self._finish(request, on_complete, self.config.processor.l2_hit_cycles)
            return
        if not is_load and state in self.WRITABLE:
            cache.hits += 1
            self.count("store_hits")
            if state is not self.MODIFIED:
                cache.set_state(address, self.MODIFIED)
            cache.set_value(address, request.value)
            self._finish(request, on_complete, self.config.processor.l2_hit_cycles)
            return

        # Miss (or upgrade): issue a coherence transaction.
        cache.misses += 1
        self.count("load_misses" if is_load else "store_misses")
        self._issue_transaction(request, on_complete)

    def _finish(self, request: MemoryRequest,
                on_complete: Callable[[MemoryRequest], None], delay: int) -> None:
        self.schedule(delay, lambda: on_complete(request))

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
                          op=request.op, txn_id=next(self._txn_ids))
        self._pending_request = request
        self._pending_on_complete = on_complete
        txn.on_complete = self._complete_current
        self.transaction = txn
        if self.timeout_cycles is not None:
            txn.timeout_event = self.schedule(
                self.timeout_cycles, lambda: self._transaction_timeout(txn))
        self._request(txn)
        self.count("transactions_issued")

    def _request(self, txn: Transaction) -> None:
        """Send the miss request of the new transaction ``txn``."""
        raise NotImplementedError

    def _retry_issue(self, request: MemoryRequest,
                     on_complete: Callable[[MemoryRequest], None]) -> None:
        # Slow-start gating: retry shortly (void if a recovery intervenes,
        # because the rolled-back processor will re-issue the reference).
        generation = self.generation
        self.schedule(50, lambda: (self._issue_transaction(request, on_complete)
                                   if generation == self.generation else None))

    def _complete_current(self, txn: Transaction) -> None:
        """``on_complete`` of the controller's single outstanding transaction."""
        request = self._pending_request
        on_complete = self._pending_on_complete
        self.transaction = None
        self.on_retire(self.node_id)
        self._transaction_done(txn)
        self.count("transactions_completed")
        if request.op is MemoryOp.STORE:
            # Apply the store's value now that the block is writable here.
            if self.cache.contains(txn.address) and request.value is not None:
                self.cache.set_value(txn.address, request.value)
        else:
            line = self.cache.peek(txn.address)
            if line is not None and line.value is not None:
                request.value = line.value
            else:
                # Late-invalidated load (snooping): the data satisfied the
                # load but the line was not retained.
                request.value = txn.value_hint
        on_complete(request)

    def _transaction_done(self, txn: Transaction) -> None:
        """The protocol's part of completing ``txn`` (after retirement)."""

    def _transaction_timeout(self, txn: Transaction) -> None:
        """A coherence transaction timed out: the Section 4 deadlock detector."""
        # The timeout event has fired; dropping the handle breaks the
        # transaction -> event -> callback -> transaction reference cycle.
        txn.timeout_event = None
        if txn.completed or self.transaction is not txn:
            return
        self.detected_misspeculations += 1
        self.count("timeout_detections")
        description, details = self._timeout_description(txn)
        self._report(MisspeculationEvent(
            kind=SpeculationKind.INTERCONNECT_DEADLOCK,
            detected_at=self.sim.now,
            node=self.node_id,
            address=txn.address,
            description=description,
            details=details))

    def _timeout_description(self, txn: Transaction) -> Tuple[str, Dict[str, Any]]:
        """``(description, details)`` of the timed-out ``txn``'s event."""
        raise NotImplementedError

    # ----------------------------------------------------------- line handling
    def _allocate_line(self, txn: Transaction, state: Any, value: Optional[int]) -> None:
        """Allocate the transaction's (absent) block, evicting the LRU victim
        when its set is full; a line whose data carried no value holds 0."""
        address = txn.address
        cache = self.cache
        if cache.occupancy_of_set(address) >= self.config.l2.associativity:
            victim = cache.find_victim(address, evictable=self._evictable)
            if victim is None:
                # Every line in the set is mid-transaction; extremely rare
                # with 4-way sets and a blocking processor.  Retry shortly.
                generation = self.generation
                self.schedule(20, lambda: (self._install_line(txn, value)
                                           if generation == self.generation else None))
                return
            self._evict(victim)
        cache.allocate(address, state, value if value is not None else 0)

    def _install_line(self, txn: Transaction, value: Optional[int]) -> None:
        """Install the data of ``txn`` (upgrade in place or allocate)."""
        raise NotImplementedError

    def _evictable(self, line: CacheLine) -> bool:
        return line.address not in self.writebacks and (
            self.transaction is None or line.address != self.transaction.address)

    def _evict(self, victim: CacheLine) -> None:
        """Evict ``victim``, writing it back when it is dirty."""
        raise NotImplementedError

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
        return [f"{self.name}: invalid line resident {line.address:#x}"
                for line in self.cache.lines() if line.state == self.INVALID]
