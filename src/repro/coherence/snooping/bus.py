"""Totally ordered broadcast address network ("the bus").

Broadcast snooping relies on a network that establishes a single global
order of coherence requests.  The model here is a split-transaction bus:
requests queue at the arbiter, one request is *ordered* per arbitration
slot, and the ordered request is then observed, in that order, by the cache
controllers, the memory controller and the ordered hooks.  Data responses do
not use the bus; they travel on a point-to-point data network modelled as a
fixed latency chosen by the responder.

The memory controller and the hooks see every ordered request.  A cache
controller's ``snoop()`` is called only when the request can concern it (a
snoop filter): it is the requestor, or, for a RequestReadOnly or
RequestReadWrite, it holds the block, has a Writeback record for it or has
its outstanding transaction on it.  Every other snoop would return False
and change nothing, so skipping it leaves every result unchanged.

The bus is also the snooping system's logical time base for SafetyNet:
checkpoints are taken every N ordered requests (Table 2: 3,000 requests).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Deque, List, Mapping, Optional, Tuple

from repro.coherence.common import BlockAddress
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

if TYPE_CHECKING:
    from repro.coherence.snooping.cache_controller import SnoopingCacheController


class BusRequestType(str, Enum):
    """Request types broadcast on the address network."""

    GETS = "RequestReadOnly"
    GETX = "RequestReadWrite"
    WRITEBACK = "Writeback"


@dataclass
class BusRequest:
    """One coherence request queued for / ordered on the address network."""

    requestor: int
    address: BlockAddress
    rtype: BusRequestType
    #: Data value carried by Writebacks.
    value: Optional[int] = None


#: What the snoop filter reads of one attached cache controller: its node
#: id, its L2 set list, its ``writebacks`` dict and the controller itself
#: (for ``transaction`` and ``snoop``).
SnoopBinding = Tuple[int, List[Mapping], dict, "SnoopingCacheController"]


class AddressBus(Component):
    """Split-transaction ordered broadcast network."""

    def __init__(self, sim: Simulator, *, arbitration_cycles: int = 10,
                 snoop_latency_cycles: int = 12,
                 stats: Optional[StatsRegistry] = None) -> None:
        super().__init__("bus", sim, stats)
        if arbitration_cycles < 1:
            raise ValueError("arbitration_cycles must be >= 1")
        self.arbitration_cycles = arbitration_cycles
        self.snoop_latency_cycles = snoop_latency_cycles
        self._queue: Deque[BusRequest] = deque()
        self._snoopers: List[SnoopBinding] = []
        #: L2 geometry shared by every attached controller (set addressing
        #: runs once per ordered request, not once per controller).
        self._block_bytes = 1
        self._num_sets = 1
        self._memory_snooper: Optional[Callable[[BusRequest, bool], None]] = None
        self._ordered_hooks: List[Callable[[BusRequest], None]] = []
        self._busy = False
        self.requests_ordered = 0

    # ------------------------------------------------------------------ wiring
    def attach_controller(self, controller: SnoopingCacheController) -> None:
        """Attach a cache controller; snoopers are called in attach order.

        The bindings are captured here: the ``cache._sets`` list is fixed
        for the array's life (only its entries change, from the shared
        empty mapping to the set's own dict on its first install), and
        ``writebacks`` is only ever cleared in place.
        """
        cache = controller.cache
        if not self._snoopers:
            self._block_bytes = cache._block_bytes
            self._num_sets = cache._num_sets
        elif (cache._block_bytes, cache._num_sets) != (self._block_bytes,
                                                       self._num_sets):
            raise ValueError(f"{cache.name}: every cache on the bus must "
                             "share one L2 geometry")
        self._snoopers.append((controller.node_id, cache._sets,
                               controller.writebacks, controller))

    def attach_memory(self, memory_snooper: Callable[["BusRequest", bool], None]) -> None:
        """Attach the memory controller.

        The memory controller is called after the caches with a flag telling
        it whether some cache claimed ownership of the data response.
        """
        self._memory_snooper = memory_snooper

    def add_ordered_hook(self, hook: Callable[[BusRequest], None]) -> None:
        """Called once per ordered request (SafetyNet logical time, stats)."""
        self._ordered_hooks.append(hook)

    # ------------------------------------------------------------------- issue
    def issue(self, request: BusRequest) -> None:
        """Queue a request for arbitration."""
        self._queue.append(request)
        self.count("requests_issued")
        self._try_start()

    def _try_start(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        self.schedule(self.arbitration_cycles, self._order_next,
                      label="bus.arbitrate")

    def _order_next(self) -> None:
        self._busy = False
        if not self._queue:
            return
        request = self._queue.popleft()
        self.requests_ordered += 1
        self.count("requests_ordered")
        self.schedule(self.snoop_latency_cycles,
                      lambda: self._broadcast(request), label="bus.snoop")
        # Keep the pipeline going: next request can arbitrate immediately.
        self._try_start()

    def _broadcast(self, request: BusRequest) -> None:
        # The snoop filter (module docstring).  It is evaluated right
        # before each call, so it sees every change an earlier snooper of
        # this request made, a recovery included.
        requestor = request.requestor
        address = request.address
        foreign_visible = request.rtype is not BusRequestType.WRITEBACK
        index = (address // self._block_bytes) % self._num_sets
        owner_found = False
        for node, sets, writebacks, controller in self._snoopers:
            if node == requestor or (foreign_visible and (
                    address in sets[index] or address in writebacks
                    or ((txn := controller.transaction) is not None
                        and txn.address == address))):
                if controller.snoop(request):
                    owner_found = True
        if self._memory_snooper is not None:
            self._memory_snooper(request, owner_found)
        for hook in self._ordered_hooks:
            hook(request)

    # ---------------------------------------------------------------- recovery
    def flush(self) -> int:
        """Drop every queued (un-ordered) request: part of system recovery."""
        dropped = len(self._queue)
        self._queue.clear()
        return dropped
