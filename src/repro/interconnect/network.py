"""The network front-end used by coherence controllers.

:class:`InterconnectNetwork` builds the switches and links for whatever
geometry the configuration selects (torus, mesh, ring — anything in the
topology registry), owns the routing algorithm, provides the endpoint API
(``attach`` / ``send``), tracks point-to-point ordering violations per
virtual network, and supports the system-wide flush that a SafetyNet
recovery performs (all in-flight messages are squashed together with the
memory-system state they belong to).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro import kernel
from repro.interconnect.link import Link
from repro.interconnect.message import (DATA_CLASSES, MessageClass,
                                         NetworkMessage, VirtualNetwork)
from repro.interconnect.routing import (
    AdaptiveMinimalRouting,
    DimensionOrderRouting,
    RoutingAlgorithm,
)
from repro.interconnect.switch import Switch
from repro.interconnect.topology import Direction, Topology, shared_topology
from repro.sim.config import InterconnectConfig, RoutingPolicy
from repro.sim.engine import Simulator
from repro.sim.stats import Counter, StatsRegistry


@dataclass
class OrderingRecord:
    """Bookkeeping for one (src, dst, virtual network) ordered stream."""

    next_send_seq: int = 0
    max_delivered_seq: int = -1


class OrderingTracker:
    """Detects violations of point-to-point ordering per virtual network.

    A message is counted as *reordered* when it is delivered after a message
    of the same (source, destination, virtual network) stream that was sent
    later.  The tracker is measurement-only: the speculative directory
    protocol does not consult it (detection happens at the cache controller),
    it exists to reproduce the reordering-rate numbers of Section 5.3.
    """

    def __init__(self) -> None:
        self._records: Dict[Tuple[int, int, VirtualNetwork], OrderingRecord] = {}
        self.per_vnet_delivered: Dict[VirtualNetwork, int] = {vn: 0 for vn in VirtualNetwork}
        self.per_vnet_reordered: Dict[VirtualNetwork, int] = {vn: 0 for vn in VirtualNetwork}

    def _record(self, key: Tuple[int, int, VirtualNetwork]) -> OrderingRecord:
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = OrderingRecord()
        return record

    def assign_send_seq(self, message: NetworkMessage) -> None:
        # Inline of _record: this runs once per injected message.
        records = self._records
        key = (message.src, message.dst, message.vnet)
        record = records.get(key)
        if record is None:
            record = records[key] = OrderingRecord()
        message.send_seq = record.next_send_seq
        record.next_send_seq += 1

    def reorder_rate(self, vnet: Optional[VirtualNetwork] = None) -> float:
        """Fraction of delivered messages that were reordered."""
        if vnet is None:
            delivered = sum(self.per_vnet_delivered.values())
            reordered = sum(self.per_vnet_reordered.values())
        else:
            delivered = self.per_vnet_delivered[vnet]
            reordered = self.per_vnet_reordered[vnet]
        return reordered / delivered if delivered else 0.0


class _Endpoint:
    """Network-interface state for one attached node."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.receive: Optional[Callable[[NetworkMessage], None]] = None
        self.pending_injection: Deque[NetworkMessage] = deque()


class InterconnectNetwork:
    """A complete interconnection network over a pluggable topology.

    Parameters
    ----------
    sim:
        The simulation kernel.
    config:
        Interconnect parameters (topology kind and dimensions, bandwidth,
        buffering, routing policy, virtual-channel organisation, speculative
        no-VC switch).
    frequency_hz:
        Clock frequency used to convert link bandwidth into cycles/byte.
    stats:
        Shared statistics registry.
    """

    def __init__(self, sim: Simulator, config: InterconnectConfig, *,
                 frequency_hz: float = 4.0e9,
                 stats: Optional[StatsRegistry] = None) -> None:
        self.sim = sim
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        # Shared read-only geometry: identical (kind, dims) networks reuse
        # one topology instance with its routing tables already built.
        self.topology: Topology = shared_topology(config.topology.kind,
                                                  config.topology.dims)
        self.ordering = OrderingTracker()
        self.routing = self._make_routing(config.routing)
        self.frequency_hz = frequency_hz
        self._endpoints: Dict[int, _Endpoint] = {}
        self._switches: Dict[int, Switch] = {}
        self._links: Dict[Tuple[int, Direction], Link] = {}
        self.messages_delivered = 0
        self.messages_sent = 0
        self.total_message_latency = 0
        self.flushes = 0
        #: Incremented on every flush; in-flight deliveries scheduled under an
        #: older epoch are dropped when they land (they belong to protocol
        #: state that a recovery has rolled back).
        self.flush_epoch = 0
        #: Lazily filled per-virtual-network counter caches; indexed by the
        #: vnet value.  Entries stay None until first use so the registry
        #: only ever contains counters that actually counted something
        #: (exactly the lazy behaviour of ``stats.counter(name)``).
        n_vnets = len(VirtualNetwork)
        self._sent_counters: List[Optional[Counter]] = [None] * n_vnets
        self._delivered_counters: List[Optional[Counter]] = [None] * n_vnets
        self._reordered_counters: List[Optional[Counter]] = [None] * n_vnets
        self._build()

    def _vnet_counter(self, cache: List[Optional["Counter"]], prefix: str,
                      vnet: int) -> "Counter":
        counter = cache[vnet]
        if counter is None:
            # int() deliberately: IntEnum.__str__ only renders as the bare
            # number from Python 3.11 on, and stat names must not depend on
            # the interpreter version.
            counter = self.stats.counter(f"network.{prefix}.vn{int(vnet)}")
            cache[vnet] = counter
        return counter

    # ------------------------------------------------------------------ build
    def _make_routing(self, policy: RoutingPolicy) -> RoutingAlgorithm:
        if policy == RoutingPolicy.ADAPTIVE:
            router = AdaptiveMinimalRouting(self.topology)
            router.bind_clock(lambda: self.sim.now)
            return router
        return DimensionOrderRouting(self.topology)

    def _build(self) -> None:
        cfg = self.config
        cycles_per_byte = cfg.link_cycles_per_byte(self.frequency_hz)
        shared = cfg.speculative_no_vc
        vcs = 0 if shared else cfg.virtual_channels_per_network
        for sid in range(self.topology.num_switches):
            self._switches[sid] = Switch(
                sid, self.sim, self, self.topology,
                buffer_capacity=cfg.switch_buffer_capacity,
                virtual_networks=cfg.virtual_networks,
                virtual_channels=max(1, vcs),
                shared_buffers=shared,
                stats=self.stats,
            )
        for sid, switch in self._switches.items():
            for direction, _neighbor in switch.neighbors.items():
                link = Link(
                    f"link.{sid}.{direction.value}", self.sim,
                    latency_cycles=cfg.link_latency_cycles,
                    cycles_per_byte=cycles_per_byte,
                    stats=self.stats,
                )
                self._links[(sid, direction)] = link
                switch.attach_output_link(direction, link)
        for switch in self._switches.values():
            switch._finalize_wiring()
        self._install_compiled_cores()

    def _install_compiled_cores(self) -> None:
        """Swap every switch's hot path for its compiled core (no-op on the
        pure tier).

        Cores are installed network-wide or not at all: the credit-release
        and forwarding paths wake *peer* cores directly, so a mixed network
        would desynchronise the scan bookkeeping.  Installation happens once
        the wiring is final and before any traffic exists, so no state has
        to migrate — the cores read the same buffers, links and counters the
        pure methods use, and `_scan_event` is replaced before anything can
        have scheduled it.
        """
        impl = kernel.engine_impl()
        if impl is None or not hasattr(impl, "SwitchCore"):
            return
        if not isinstance(self.sim, impl.Simulator):
            return
        switches = list(self._switches.values())
        # The core's occupancy mask is a 64-bit word; geometries with more
        # scan slots per switch stay on the pure methods.
        if any(len(s._scan_slots) > 64 for s in switches):
            return
        for switch in switches:
            switch._core = impl.SwitchCore(switch)
        for switch in switches:
            switch._core.bind()
        for switch in switches:
            core = switch._core
            switch.inject = core.inject
            switch.receive_from_link = core.receive_from_link
            switch.schedule_scan = core.schedule_scan
            switch._scan_event = core.scan_event

    # ----------------------------------------------------------------- lookup
    def switch(self, switch_id: int) -> Switch:
        return self._switches[switch_id]

    @property
    def switches(self) -> List[Switch]:
        return list(self._switches.values())

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    @property
    def adaptive_router(self) -> Optional[AdaptiveMinimalRouting]:
        """The adaptive router if the network uses one, else None."""
        return self.routing if isinstance(self.routing, AdaptiveMinimalRouting) else None

    # -------------------------------------------------------------- endpoints
    def attach(self, node_id: int, receive: Callable[[NetworkMessage], None]) -> None:
        """Attach a node's receive callback to its switch."""
        if not 0 <= node_id < self.topology.num_switches:
            raise ValueError(
                f"node {node_id} has no switch on this {self.topology.describe()}")
        endpoint = self._endpoints.setdefault(node_id, _Endpoint(node_id))
        endpoint.receive = receive
        self._switches[node_id]._local_endpoint = endpoint

    def send(self, message: NetworkMessage) -> None:
        """Inject a message; queues at the NIC if the switch buffer is full."""
        endpoint = self._endpoints.get(message.src)
        if endpoint is None or message.dst not in self._endpoints:
            raise ValueError(
                f"both endpoints must be attached before sending ({message!r})")
        self.ordering.assign_send_seq(message)
        message.injected_at = self.sim._now
        self.messages_sent += 1
        vnet = message.vnet
        counter = self._sent_counters[vnet]
        if counter is None:
            counter = self._vnet_counter(self._sent_counters, "sent", vnet)
        counter.value += 1
        # Queue behind earlier messages, then inject from the head while the
        # switch has room (injection almost always succeeds at once).
        pending = endpoint.pending_injection
        pending.append(message)
        inject = self._switches[message.src].inject
        while pending:
            if not inject(pending[0]):
                break
            pending.popleft()

    def notify_injection_space(self, node_id: int) -> None:
        """A local injection slot freed at ``node_id``'s switch."""
        # Runs once per freed slot (several times per delivered message);
        # the queue is almost always empty.
        endpoint = self._endpoints.get(node_id)
        if endpoint is None:
            return
        switch = self._switches[node_id]
        pending = endpoint.pending_injection
        while pending:
            if not switch.inject(pending[0]):
                break
            pending.popleft()
        # Draining the outbound queue may re-enable ejection at this
        # node's switch (see :meth:`can_eject`).
        switch.schedule_scan(delay=1)

    def can_eject(self, node_id: int) -> bool:
        """May the switch hand another message to this node right now?

        With virtual networks (the baseline design) the answer is always
        yes: reply traffic has its own buffers, so ingesting a request can
        never be blocked by the node's own backed-up replies.  In the
        speculatively simplified no-VC design all classes share one queue,
        so a node whose outbound queue is full stops ingesting — the
        message-dependent coupling that makes deadlock reachable (Figures 2
        and 3) and that the Section 4 design recovers from instead of
        designing away.
        """
        if not self.config.speculative_no_vc:
            return True
        endpoint = self._endpoints.get(node_id)
        if endpoint is None:
            return True
        return len(endpoint.pending_injection) < self.config.nic_injection_limit

    def deliver_to_endpoint(self, node_id: int, message: NetworkMessage,
                            delay: int = 1) -> None:
        """Called by a switch when a message reaches its destination switch."""
        endpoint = self._endpoints.get(node_id)
        if endpoint is None or endpoint.receive is None:
            raise RuntimeError(f"message delivered to unattached node {node_id}: {message!r}")
        epoch = self.flush_epoch

        def _deliver() -> None:
            if epoch != self.flush_epoch:
                self.stats.counter("network.squashed_in_flight").add()
                return
            now = self.sim._now
            message.delivered_at = now
            self.messages_delivered += 1
            self.total_message_latency += now - message.injected_at
            # Point-to-point ordering (OrderingTracker): a message is
            # reordered when its stream already delivered a later-sent one.
            vn = message.vnet
            ordering = self.ordering
            records = ordering._records
            key = (message.src, message.dst, vn)
            record = records.get(key)
            if record is None:
                record = records[key] = OrderingRecord()
            ordering.per_vnet_delivered[vn] += 1
            send_seq = message.send_seq
            reordered = send_seq < record.max_delivered_seq
            if reordered:
                ordering.per_vnet_reordered[vn] += 1
            else:
                record.max_delivered_seq = send_seq
            counter = self._delivered_counters[vn]
            if counter is None:
                counter = self._vnet_counter(self._delivered_counters,
                                             "delivered", vn)
            counter.value += 1
            if reordered:
                self._vnet_counter(self._reordered_counters, "reordered", vn).value += 1
            endpoint.receive(message)

        sim = self.sim
        sim.queue.push(sim._now + delay, _deliver, "deliver")

    # ------------------------------------------------------------- measurement
    def mean_message_latency(self) -> float:
        if self.messages_delivered == 0:
            return 0.0
        return self.total_message_latency / self.messages_delivered

    def mean_link_utilization(self, elapsed_cycles: Optional[int] = None) -> float:
        elapsed = elapsed_cycles if elapsed_cycles is not None else max(1, self.sim.now)
        links = self.links
        if not links:
            return 0.0
        return sum(link.utilization(elapsed) for link in links) / len(links)

    def peak_link_utilization(self, elapsed_cycles: Optional[int] = None) -> float:
        elapsed = elapsed_cycles if elapsed_cycles is not None else max(1, self.sim.now)
        return max((link.utilization(elapsed) for link in self.links), default=0.0)

    def in_flight_messages(self) -> int:
        """Messages buffered in switches or waiting at NIC injection queues."""
        buffered = sum(len(s.queued_messages()) for s in self.switches)
        pending = sum(len(e.pending_injection) for e in self._endpoints.values())
        return buffered + pending

    # ----------------------------------------------------------------- recovery
    def flush(self) -> int:
        """Drop every in-flight message (part of a system-wide recovery).

        Returns the number of messages squashed.  Link busy state is left
        alone (it resolves within a few cycles) but buffered and
        pending-injection messages are discarded because the protocol state
        they belong to has been rolled back.
        """
        dropped = 0
        for switch in self.switches:
            dropped += len(switch.drain_all())
        for endpoint in self._endpoints.values():
            dropped += len(endpoint.pending_injection)
            endpoint.pending_injection.clear()
        self.flush_epoch += 1
        self.flushes += 1
        self.stats.counter("network.flushes").add()
        self.stats.counter("network.flushed_messages").add(dropped)
        return dropped

    def disable_adaptive_routing(self, cycles: int) -> None:
        """Forward-progress hook: disable adaptivity for ``cycles`` cycles."""
        router = self.adaptive_router
        if router is not None:
            router.disable_until(self.sim.now + cycles)

    @property
    def adaptive_routing_disabled(self) -> bool:
        """Whether the adaptive router is currently in its disabled window
        (always False for static routing).  Surfaced so the S1 speculation
        can report forward-progress state in its stats."""
        router = self.adaptive_router
        return router is not None and not router.currently_adaptive


def make_message(src: int, dst: int, msg_class: MessageClass, *,
                 address: Optional[int] = None, payload=None,
                 config: Optional[InterconnectConfig] = None) -> NetworkMessage:
    """Build a message with the configured control/data sizes."""
    cfg = config if config is not None else InterconnectConfig()
    size = (cfg.data_message_bytes if msg_class in DATA_CLASSES
            else cfg.control_message_bytes)
    return NetworkMessage(src=src, dst=dst, msg_class=msg_class,
                          size_bytes=size, payload=payload, address=address)
