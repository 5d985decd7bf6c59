"""Interconnection-network substrate.

A network of switches with finite input buffering over a pluggable topology
(2D bidirectional torus — the paper's machine — plus mesh and ring),
dimension-order or minimal adaptive routing, optional virtual
networks/channels, and the two deadlock-related facilities the paper relies
on: a wait-for-graph detector (ground truth, used by tests and the
illustrative Figure 2/3 experiments) and the message-timeout detector that
the speculative design uses in production.
"""

from repro.interconnect.message import (
    MessageClass,
    NetworkMessage,
    VirtualNetwork,
)
from repro.interconnect.topology import (
    Direction,
    MeshTopology,
    RingTopology,
    Topology,
    TorusTopology,
    clear_topology_memo,
    make_topology,
    register_topology,
    shared_topology,
    topology_kinds,
)
from repro.interconnect.routing import (
    AdaptiveMinimalRouting,
    DimensionOrderRouting,
    RoutingAlgorithm,
)
from repro.interconnect.buffers import FiniteBuffer
from repro.interconnect.link import Link
from repro.interconnect.switch import Switch
from repro.interconnect.network import (
    InterconnectNetwork,
    OrderingTracker,
)
from repro.interconnect.deadlock import (
    DeadlockReport,
    WaitForGraph,
    detect_endpoint_deadlock,
    detect_network_deadlock,
    detect_switch_deadlock,
)

__all__ = [
    "MessageClass",
    "NetworkMessage",
    "VirtualNetwork",
    "Topology",
    "TorusTopology",
    "MeshTopology",
    "RingTopology",
    "make_topology",
    "register_topology",
    "shared_topology",
    "clear_topology_memo",
    "topology_kinds",
    "Direction",
    "RoutingAlgorithm",
    "DimensionOrderRouting",
    "AdaptiveMinimalRouting",
    "FiniteBuffer",
    "Link",
    "Switch",
    "InterconnectNetwork",
    "OrderingTracker",
    "WaitForGraph",
    "DeadlockReport",
    "detect_switch_deadlock",
    "detect_network_deadlock",
    "detect_endpoint_deadlock",
]
