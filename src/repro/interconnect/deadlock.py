"""Deadlock machinery.

The paper distinguishes two kinds of deadlock (Section 4):

* **Endpoint deadlock** (Figure 2) — cross-coupled requests at the endpoints
  where neither processor can ingest its incoming request until it ingests a
  response that is stuck behind the requests.
* **Switch deadlock** (Figure 3) — cross-coupled messages plus insufficient
  buffering inside the network fabric.

The *production* detection mechanism of the speculative design is a
coherence-transaction timeout (Section 4, Detection) which lives with the
protocol (armed by :mod:`repro.speculation.detectors`).  This module
provides the *ground-truth* detector used by tests and by the Figure 2/3
illustrative experiments: an explicit wait-for graph over buffers, where an
edge points from a buffer whose head message is blocked to the buffer it is
waiting on; a cycle in that graph is a deadlock.

Both detectors are port-indexed and topology-agnostic: a resource is a
``(switch_id, port_name)`` pair, where the port name comes from whatever
:class:`~repro.interconnect.topology.Direction` ports the switch's topology
wired up — the same scan works for the torus, the mesh and the ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.interconnect.switch import Switch
from repro.interconnect.topology import Direction


def _port_key(port) -> Hashable:
    """Canonical hashable name of a switch port (Direction or raw value)."""
    return port.value if isinstance(port, Direction) else port


@dataclass
class DeadlockReport:
    """Result of a deadlock scan."""

    deadlocked: bool
    #: One representative cycle of waiting resources (empty when no deadlock).
    cycle: List[Hashable] = field(default_factory=list)
    #: Total number of blocked resources observed during the scan.
    blocked_resources: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.deadlocked

    def to_json(self) -> Dict[str, object]:
        """JSON-safe payload (the speculation layer surfaces ground-truth
        scans through it; resource tuples become lists)."""
        return {
            "deadlocked": self.deadlocked,
            "cycle": [list(r) if isinstance(r, tuple) else r for r in self.cycle],
            "blocked_resources": self.blocked_resources,
        }


class WaitForGraph:
    """A generic wait-for graph with cycle detection.

    Nodes are arbitrary hashable resource identifiers (buffers, processors,
    switches); a directed edge ``a -> b`` means "a cannot make progress until
    b frees a resource".
    """

    def __init__(self) -> None:
        self._edges: Dict[Hashable, Set[Hashable]] = {}

    def add_edge(self, waiter: Hashable, holder: Hashable) -> None:
        self._edges.setdefault(waiter, set()).add(holder)
        self._edges.setdefault(holder, set())

    def add_node(self, node: Hashable) -> None:
        self._edges.setdefault(node, set())

    @property
    def nodes(self) -> List[Hashable]:
        return list(self._edges)

    def successors(self, node: Hashable) -> Set[Hashable]:
        return self._edges.get(node, set())

    def find_cycle(self) -> Optional[List[Hashable]]:
        """Return one cycle as a list of nodes, or None if the graph is acyclic."""
        WHITE, GREY, BLACK = 0, 1, 2
        color: Dict[Hashable, int] = {node: WHITE for node in self._edges}
        parent: Dict[Hashable, Optional[Hashable]] = {}

        for root in self._edges:
            if color[root] != WHITE:
                continue
            stack: List[Tuple[Hashable, Iterable[Hashable]]] = [(root, iter(self._edges[root]))]
            color[root] = GREY
            parent[root] = None
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if color[succ] == WHITE:
                        color[succ] = GREY
                        parent[succ] = node
                        stack.append((succ, iter(self._edges[succ])))
                        advanced = True
                        break
                    if color[succ] == GREY:
                        # Found a back edge: reconstruct the cycle.
                        cycle = [succ]
                        cursor = node
                        while cursor is not None and cursor != succ:
                            cycle.append(cursor)
                            cursor = parent.get(cursor)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    def has_cycle(self) -> bool:
        return self.find_cycle() is not None


def detect_switch_deadlock(switches: Sequence[Switch]) -> DeadlockReport:
    """Scan a set of switches for buffer-wait cycles (Figure 3 scenario).

    A resource is an input buffer identified by ``(switch_id, port)``; its
    head message waiting for space at a downstream buffer creates an edge.
    """
    graph = WaitForGraph()
    blocked = 0
    for switch in switches:
        for head in switch.blocked_heads():
            blocked += 1
            waiter = (switch.switch_id, _port_key(head.input_port))
            if head.waiting_on is None:
                continue
            downstream_id, downstream_port = head.waiting_on
            graph.add_edge(waiter, (downstream_id, _port_key(downstream_port)))
    cycle = graph.find_cycle()
    return DeadlockReport(deadlocked=cycle is not None,
                          cycle=cycle or [],
                          blocked_resources=blocked)


def detect_network_deadlock(network) -> DeadlockReport:
    """Full-network deadlock scan including the endpoint coupling.

    Extends :func:`detect_switch_deadlock` with the message-dependent edges
    of the speculative no-VC design: a buffer whose head cannot be *ejected*
    waits on its local endpoint, and an endpoint with a backed-up outbound
    queue waits on its switch's local injection buffer.  A cycle through
    those edges is the endpoint/switch deadlock of Figures 2 and 3.
    """
    graph = WaitForGraph()
    blocked = 0
    for switch in network.switches:
        for head in switch.blocked_heads():
            blocked += 1
            waiter = (switch.switch_id, _port_key(head.input_port))
            if head.waiting_on is None:
                continue
            downstream_id, downstream_port = head.waiting_on
            port_value = _port_key(downstream_port)
            if port_value == Direction.LOCAL.value and downstream_id == switch.switch_id:
                # Waiting on the local endpoint to start ingesting again.
                graph.add_edge(waiter, ("endpoint", switch.switch_id))
            else:
                graph.add_edge(waiter, (downstream_id, port_value))
    # Endpoint -> local injection buffer edges: a node with queued outbound
    # messages is waiting for space at its switch's local input port.
    for node_id, endpoint in network._endpoints.items():
        if endpoint.pending_injection:
            blocked += 1
            graph.add_edge(("endpoint", node_id),
                           (node_id, Direction.LOCAL.value))
    cycle = graph.find_cycle()
    return DeadlockReport(deadlocked=cycle is not None, cycle=cycle or [],
                          blocked_resources=blocked)


def detect_endpoint_deadlock(waiters: Dict[Hashable, Hashable]) -> DeadlockReport:
    """Detect endpoint deadlock from an explicit waits-on mapping.

    ``waiters[a] = b`` means endpoint ``a`` cannot ingest new messages until
    endpoint ``b`` drains one of its queues (the Figure 2 scenario where each
    processor's incoming queue is full of requests and the response it needs
    is stuck behind them).
    """
    graph = WaitForGraph()
    for waiter, holder in waiters.items():
        graph.add_edge(waiter, holder)
    cycle = graph.find_cycle()
    return DeadlockReport(deadlocked=cycle is not None, cycle=cycle or [],
                          blocked_resources=len(waiters))
