"""Routing algorithms over any registered topology.

Two algorithms, matching Section 3.1 of the paper (stated there for the 2D
torus; both work unchanged on any :class:`~repro.interconnect.topology.Topology`
because every decision is a lookup in the topology's precomputed tables):

* :class:`DimensionOrderRouting` — static X-then-Y routing.  Every message
  between a given source and destination follows the same path, so the
  network trivially preserves point-to-point ordering per virtual network.
* :class:`AdaptiveMinimalRouting` — at each hop the message may take any
  direction that lies on a minimal path; the switch picks the direction
  whose outgoing queue is shortest (a tie goes to the dimension-order
  direction if it is among the best, else to the lowest-numbered one).  Two
  messages between the same pair of nodes can take different paths and
  arrive out of order — the property the speculative directory protocol
  relies on being *rare*.

Adaptive routing can be *selectively disabled* (the forward-progress
mechanism of Section 3.1): while disabled the adaptive router behaves exactly
like dimension-order routing, which guarantees the reordering race cannot
recur during re-execution.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.interconnect.message import NetworkMessage
from repro.interconnect.topology import Direction, Topology


class RoutingAlgorithm(ABC):
    """Chooses the output direction for a message at a switch."""

    name = "abstract"

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    @abstractmethod
    def route(self, switch_id: int, message: NetworkMessage,
              congestion: Callable[[Direction], int]) -> Direction:
        """Return the output direction for ``message`` at ``switch_id``.

        ``congestion(direction)`` reports the number of occupied downstream
        slots in that direction (higher means more congested); static routing
        ignores it.
        """

    @property
    def is_adaptive(self) -> bool:
        return False


class DimensionOrderRouting(RoutingAlgorithm):
    """Deterministic dimension-order routing (static; X-then-Y on grids).

    Every decision is a lookup in the topology's precomputed
    ``[src][dst] -> Direction`` table; the geometry maths runs once per
    topology, not once per message-hop.
    """

    name = "static"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        self._table = topology.dimension_order_table()

    def route(self, switch_id: int, message: NetworkMessage,
              congestion: Callable[[Direction], int]) -> Direction:
        return self._table[switch_id][message.dst]


class AdaptiveMinimalRouting(RoutingAlgorithm):
    """Minimal adaptive routing choosing the least congested direction.

    The algorithm is the one described in the paper: "allows messages to
    choose among minimal distance paths based on outgoing queue lengths in
    each direction".
    """

    name = "adaptive"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        self._disabled_until = -1
        self._now: Callable[[], int] = lambda: 0
        self.non_dimension_order_choices = 0
        self._static_table = topology.dimension_order_table()
        self._minimal_table = topology.minimal_directions_table()

    # -------------------------------------------------------------- disabling
    def bind_clock(self, now: Callable[[], int]) -> None:
        """Give the router access to the simulation clock (for disable windows)."""
        self._now = now

    def disable_until(self, cycle: int) -> None:
        """Selectively disable adaptivity until ``cycle`` (forward progress)."""
        self._disabled_until = max(self._disabled_until, cycle)

    def enable(self) -> None:
        """Re-enable adaptive routing immediately."""
        self._disabled_until = -1

    @property
    def currently_adaptive(self) -> bool:
        return self._now() >= self._disabled_until

    @property
    def is_adaptive(self) -> bool:
        return True

    # ----------------------------------------------------------------- routing
    def route(self, switch_id: int, message: NetworkMessage,
              congestion: Callable[[Direction], int]) -> Direction:
        static_choice = self._static_table[switch_id][message.dst]
        if self._now() < self._disabled_until:
            return static_choice

        options = self._minimal_table[switch_id][message.dst]
        if len(options) <= 1:
            return options[0] if options else static_choice

        scored = [(congestion(direction), direction) for direction in options]
        best_score = min(score for score, _ in scored)
        best = [direction for score, direction in scored if score == best_score]
        if len(best) == 1:
            choice = best[0]
        else:
            # Deterministic tie break: prefer the dimension-order direction.
            choice = static_choice if static_choice in best else sorted(
                best, key=lambda d: d.value)[0]
        if choice != static_choice:
            self.non_dimension_order_choices += 1
        return choice


def make_routing(policy: str, topology: Topology) -> RoutingAlgorithm:
    """Factory keyed by :class:`repro.sim.config.RoutingPolicy` values."""
    if policy == "static":
        return DimensionOrderRouting(topology)
    if policy == "adaptive":
        return AdaptiveMinimalRouting(topology)
    raise ValueError(f"unknown routing policy {policy!r}")
