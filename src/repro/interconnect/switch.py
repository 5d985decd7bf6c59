"""Network switch with finite input buffering and credit-style backpressure.

Each switch owns:

* one input :class:`~repro.interconnect.virtual_channel.ChannelSet` per input
  port (the topology's neighbour directions plus the local injection port —
  a torus switch has four cardinal ports, a ring switch two, a mesh edge
  switch only the inward ones),
* one outgoing :class:`~repro.interconnect.link.Link` per neighbour
  direction,
* a routing algorithm shared by the whole network.

Forwarding is event-driven: a switch scans its input buffers when a message
arrives, when one of its output links frees up, or when a downstream buffer
returns a credit.  A head-of-line message that cannot make progress because
the downstream buffer is full simply waits — there is no dropping and no
retry traffic — which is exactly the condition under which the speculative
no-virtual-channel network of Section 4 can deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.interconnect.buffers import FiniteBuffer
from repro.interconnect.link import Link
from repro.interconnect.message import NetworkMessage
from repro.interconnect.routing import DimensionOrderRouting
from repro.interconnect.topology import Direction, Topology
from repro.interconnect.virtual_channel import ChannelId, ChannelSet
from repro.sim.component import Component
from repro.sim.engine import Event, Simulator
from repro.sim.stats import StatsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.interconnect.network import InterconnectNetwork



@dataclass
class BlockedHead:
    """Describes a head-of-line message that cannot currently advance."""

    message: NetworkMessage
    input_port: Direction
    channel: ChannelId
    #: Switch id and port whose buffer the message is waiting on, or None if
    #: the message is waiting on a busy link rather than buffer space.
    waiting_on: Optional[Tuple[int, Direction]]


class Switch(Component):
    """One switch of the interconnection network."""

    EJECTION_LATENCY = 1

    def __init__(self, switch_id: int, sim: Simulator, network: "InterconnectNetwork",
                 topology: Topology, *, buffer_capacity: int,
                 virtual_networks: int, virtual_channels: int, shared_buffers: bool,
                 stats: Optional[StatsRegistry] = None) -> None:
        super().__init__(f"switch{switch_id}", sim, stats)
        self.switch_id = switch_id
        self.network = network
        self.topology = topology
        #: The network endpoint attached at this switch (set by
        #: InterconnectNetwork.attach); lets the credit-release hot path
        #: skip the cross-object notify call while the injection queue is
        #: empty, which it almost always is.
        self._local_endpoint = None
        self.neighbors = topology.neighbors(switch_id)
        self.input_channels: Dict[Direction, ChannelSet] = {}
        # Port-indexed geometry: only the ports this topology actually
        # wires at this switch get input buffers (plus LOCAL injection).
        for port in (*topology.ports(), Direction.LOCAL):
            if port != Direction.LOCAL and port not in self.neighbors:
                continue
            self.input_channels[port] = ChannelSet(
                f"{self.name}.in.{port.value}",
                virtual_networks=virtual_networks,
                virtual_channels=virtual_channels,
                capacity_per_channel=buffer_capacity,
                shared=shared_buffers,
            )
        self.output_links: Dict[Direction, Link] = {}
        #: Flattened (port, channel, buffer, queue, mask bit) scan order.
        #: The channel layout is fixed at construction, so the nested dict
        #: walk per scan is precomputed once; the deque is captured directly
        #: for the emptiness test — a FiniteBuffer never replaces its deque.
        #: Order matches the original nested iteration (insertion order of
        #: input ports, then of channels) — forwarding order is unchanged.
        self._scan_entries: List[Tuple[Direction, ChannelId, FiniteBuffer, object, int]] = [
            (port, cid, buf, buf._queue, 1 << index)
            for index, (port, cid, buf) in enumerate(
                (port, cid, buf)
                for port, channels in self.input_channels.items()
                for cid, buf in channels.buffers())
        ]
        #: (buffer, deque, mask bit) per port, laid out as a [vn][vc] grid
        #: mirroring the port's ChannelSet — the push sites index by the
        #: channel's integer coordinates instead of hashing a ChannelId
        #: dataclass, and get the deque without an attribute load.
        slot = {(port, cid): (buf, queue, bit)
                for port, cid, buf, queue, bit in self._scan_entries}
        #: Compact (port, deque, mask bit) view of the scan entries — the
        #: mask walk unpacks three fields per visited buffer, not five.
        self._scan_slots: List[Tuple[Direction, object, int]] = [
            (port, queue, bit)
            for port, _cid, _buf, queue, bit in self._scan_entries]
        self._slot_grid: Dict[Direction, List[List[Tuple[FiniteBuffer, object, int]]]] = {
            port: [[slot[(port, cid)] for cid in row] for row in channels._cids]
            for port, channels in self.input_channels.items()}
        self._local_slot_grid = self._slot_grid[Direction.LOCAL]
        self._scan_scheduled = False
        self._scan_label = f"{self.name}.scan"
        #: Permanent scan event: scans fire constantly (one per message-move
        #: wave per switch), are never cancelled, and at most one is pending
        #: (``_scan_scheduled``), so the switch owns a single static Event
        #: that the kernel re-pushes without touching the freelist.
        #: Created by the queue itself so the event matches the kernel tier
        #: the simulator was built with (a compiled queue only accepts
        #: compiled events).
        self._scan_event = sim.queue.new_static_event(self._scan,
                                                      self._scan_label)
        #: Bitmask of scan entries whose buffer is non-empty — maintained at
        #: the (only) push/pop sites below, so a scan visits exactly the
        #: occupied buffers (ascending entry order, i.e. the original scan
        #: order) instead of testing all ~5 ports x channels per pass, and an
        #: empty switch's scan is O(1).  Credit wakeups routinely land on
        #: switches with nothing queued.
        self._active_mask = 0
        #: Forwarding labels per output direction (f-string per message is
        #: measurable at millions of forwards).
        self._fwd_labels: Dict[Direction, str] = {
            direction: f"{self.name}->switch{neighbor}"
            for direction, neighbor in self.neighbors.items()}
        self.messages_forwarded = 0
        # Hot counters, bound lazily on first increment (same creation
        # semantics as Component.count — a counter that never fires must not
        # appear in results).
        self._c_injected: Optional[object] = None
        self._c_ejected: Optional[object] = None
        self._c_forwarded: Optional[object] = None
        self._local_channels = self.input_channels[Direction.LOCAL]
        # Channel-selection constants of the local injection port, hoisted
        # so inject() can fuse reserve_for() + push_reserved() into direct
        # deque operations.
        self._local_shared = self._local_channels.shared
        self._local_vns = self._local_channels.virtual_networks
        self._local_vcc = self._local_channels._vc_count
        # Bound fast-path callees, completed by _finalize_wiring() once the
        # whole network exists (routing and peer switches are then fixed for
        # the life of the network — nothing rebinds them).
        self._route = network.routing.route
        #: Static routing only: this switch's row of the precomputed
        #: ``[src][dst] -> Direction`` table, letting the scan do a plain
        #: list index instead of a route() call per head (None when the
        #: routing decision genuinely needs the algorithm, i.e. adaptive).
        self._route_row: Optional[List[Direction]] = None
        self._can_eject = network.can_eject
        self._deliver = network.deliver_to_endpoint
        #: Compiled hot path (repro._ckernel.SwitchCore) when the network
        #: installed one — None on the pure tier.  The core owns the
        #: occupancy mask and scan flag from then on; inject /
        #: receive_from_link / schedule_scan are rebound to it.
        self._core = None
        self._out: Dict[Direction, Optional[tuple]] = {}
        #: Upstream switch feeding each input port (None for LOCAL): the
        #: credit-release path wakes it directly.
        self._credit_wake: Dict[Direction, Optional["Switch"]] = {
            Direction.LOCAL: None}

    # ----------------------------------------------------------------- wiring
    def attach_output_link(self, direction: Direction, link: Link) -> None:
        """Connect the outgoing link toward ``direction``."""
        self.output_links[direction] = link

    def _finalize_wiring(self) -> None:
        """Precompute per-direction forwarding targets (network build hook).

        Called by :class:`~repro.interconnect.network.InterconnectNetwork`
        after every switch and link exists: the (link, downstream switch,
        downstream port, downstream channel set, label) tuple per output
        direction and the per-input-port credit wake target are all fixed
        from then on, so the forwarding path does plain dict lookups instead
        of chained attribute/registry walks.
        """
        for direction, neighbor_id in self.neighbors.items():
            downstream = self.network.switch(neighbor_id)
            downstream_port = direction.opposite
            channels = downstream.input_channels[downstream_port]
            # The downstream channel-selection constants are baked into the
            # out-tuple so the scan inlines reserve_for() (shared flag, VN/VC
            # geometry, buffer grid and ChannelId grid are all fixed).
            # The trailing bound receive method lets the scan build the
            # arrival callback with functools.partial (C-level construction)
            # instead of a per-forward lambda; compiled SwitchCore.bind()
            # reads slots 0-8 by index and ignores the extra element.
            self._out[direction] = (
                self.output_links[direction], downstream, downstream_port,
                channels.shared, channels.virtual_networks, channels._vc_count,
                channels._grid, channels._cids,
                self._fwd_labels[direction], downstream.receive_from_link)
        for port in self.input_channels:
            if port != Direction.LOCAL:
                self._credit_wake[port] = self.network.switch(self.neighbors[port])
        # Full direction coverage lets the forward path use a plain indexed
        # lookup; unwired directions (mesh edges, rings) map to None.
        for direction in Direction:
            self._out.setdefault(direction, None)
        routing = self.network.routing
        if isinstance(routing, DimensionOrderRouting):
            self._route_row = routing._table[self.switch_id]

    # -------------------------------------------------------------- injection
    def inject(self, message: NetworkMessage) -> bool:
        """Inject a message from the local endpoint.

        Returns False (and injects nothing) if the local input buffer has no
        space; the network interface retries later.
        """
        # Inline of ChannelSet.reserve_for + FiniteBuffer.push_reserved for
        # the local port (the reserve/commit pair cancels out: one message
        # enters one slot synchronously).
        if self._local_shared:
            vn = vc = 0
        else:
            vn = message.vnet
            if vn >= self._local_vns:
                vn = vn % self._local_vns
            vc = (message.src * 31 + message.dst) % self._local_vcc
        buf, queue, bit = self._local_slot_grid[vn][vc]
        reserved = buf._reserved
        if len(queue) + reserved >= buf.capacity:
            self.count("injection_blocked")
            return False
        queue.append(message)
        self._active_mask |= bit
        counter = self._c_injected
        if counter is None:
            counter = self._c_injected = self.stats.counter(f"{self.name}.injected")
        counter.value += 1
        if not self._scan_scheduled:
            self._scan_scheduled = True
            sim = self.sim
            sim.queue.push_static(self._scan_event, sim._now)
        return True

    def injection_space(self, message: NetworkMessage) -> int:
        """Free slots available to ``message`` at the local injection port."""
        return self.input_channels[Direction.LOCAL].free_slots_for(message)

    # --------------------------------------------------------- link reception
    def receive_from_link(self, message: NetworkMessage, input_port: Direction,
                          channel: ChannelId, epoch: Optional[int] = None) -> None:
        """A message arrives from an upstream switch into a reserved slot.

        ``epoch`` is the network flush epoch captured when the transfer
        started; a transfer that straddles a system recovery is dropped (its
        reservation was already cleared by the flush).
        """
        if epoch is not None and epoch != self.network.flush_epoch:
            self.count("squashed_in_flight")
            return
        buf, queue, bit = self._slot_grid[input_port][channel.virtual_network][channel.virtual_channel]
        # Inline of FiniteBuffer.push_reserved (the upstream switch reserved
        # the slot before putting the message on the wire).
        reserved = buf._reserved
        if reserved <= 0:
            raise RuntimeError(f"buffer {buf.name}: push without reservation")
        buf._reserved = reserved - 1
        queue.append(message)
        self._active_mask |= bit
        message.hops += 1
        if not self._scan_scheduled:
            self._scan_scheduled = True
            sim = self.sim
            sim.queue.push_static(self._scan_event, sim._now)

    # ---------------------------------------------------------------- scanning
    def schedule_scan(self, delay: int = 0) -> None:
        """Schedule a forwarding scan if one is not already pending."""
        if self._scan_scheduled:
            return
        self._scan_scheduled = True
        sim = self.sim
        sim.queue.push_static(self._scan_event, sim._now + delay)

    def _scan(self) -> None:
        """One forwarding pass: try to move every occupied head-of-line.

        The whole head-forward attempt is inlined into the mask walk — this
        is the hottest code in the simulator (one pass per message-move wave
        per switch), so every per-step attribute load that is invariant for
        the duration of the scan is hoisted: the scan executes as a single
        event callback, during which ``sim._now`` cannot advance and
        ``network.flush_epoch`` cannot change (recoveries only run from
        scheduled events, never synchronously inside a scan).
        """
        self._scan_scheduled = False
        if not self._active_mask:
            return
        progressed = False
        retry_at: Optional[int] = None
        slots = self._scan_slots
        sim = self.sim
        now = sim._now
        route_row = self._route_row
        local = Direction.LOCAL
        # Only the bindings the mask walk touches on *every* iteration are
        # hoisted — the typical scan visits a single occupied buffer, so
        # pre-binding path-specific helpers (deliver, credit wake, flush
        # epoch, ...) would cost more than the attribute loads they save;
        # those stay at their use sites.
        # Ascending-bit walk of the live occupancy mask: visits exactly the
        # non-empty buffers, in entry (i.e. original scan) order.  The mask
        # is re-read each step because forwarding can synchronously inject
        # into this switch's LOCAL buffers (credit release -> NIC drain);
        # those entries sit at later indices and must be visited this pass,
        # exactly as the full-list walk visited them.
        pos = 0
        while True:
            rest = self._active_mask >> pos
            if not rest:
                break
            low = rest & -rest
            index = pos + low.bit_length() - 1
            pos = index + 1
            port, queue, bit = slots[index]
            if not queue:
                self._active_mask &= ~bit  # heal a stale bit (drained elsewhere)
                continue
            message = queue[0]
            direction = (route_row[message.dst] if route_row is not None
                         else self._route(self.switch_id, message,
                                          self._congestion_for))
            if direction is local:
                if not self._can_eject(self.switch_id):
                    # The local node cannot ingest more messages until its
                    # own outbound queue drains (no-VC design only); the head
                    # blocks and backpressure propagates into the fabric.
                    self.count("ejection_blocked")
                    wake = now + 16
                    if retry_at is None or wake < retry_at:
                        retry_at = wake
                    continue
                queue.popleft()
                if not queue:
                    self._active_mask &= ~bit
                counter = self._c_ejected
                if counter is None:
                    counter = self._c_ejected = self.stats.counter(
                        f"{self.name}.ejected")
                counter.value += 1
                self._deliver(self.switch_id, message,
                              delay=self.EJECTION_LATENCY)
            else:
                out = self._out[direction]
                if out is None:
                    # Degenerate 1-wide geometry: treat as local loopback.
                    queue.popleft()
                    if not queue:
                        self._active_mask &= ~bit
                    self._deliver(self.switch_id, message,
                                  delay=self.EJECTION_LATENCY)
                else:
                    (link, downstream, downstream_port, d_shared, d_vns,
                     d_vcc, d_grid, d_cids, fwd_label, d_recv) = out
                    # Inline of downstream reserve_for(): pick the channel,
                    # check space (must happen before the link-busy check —
                    # the blocked_on_buffer counter depends on this order),
                    # and only commit the reservation when the message
                    # actually departs.  The original reserve-then-cancel on
                    # a busy link had no observable effect.
                    if d_shared:
                        d_vn = d_vc = 0
                    else:
                        d_vn = message.vnet
                        if d_vn >= d_vns:
                            d_vn = d_vn % d_vns
                        d_vc = (message.src * 31 + message.dst) % d_vcc
                    d_buf = d_grid[d_vn][d_vc]
                    if len(d_buf._queue) + d_buf._reserved >= d_buf.capacity:
                        self.count("blocked_on_buffer")
                        continue
                    if now < link.busy_until:
                        # Retry when the link frees up (== busy_until, since
                        # it is busy now).
                        wake = link.busy_until
                        if retry_at is None or wake < retry_at:
                            retry_at = wake
                        continue
                    d_buf._reserved += 1
                    downstream_cid = d_cids[d_vn][d_vc]
                    queue.popleft()
                    if not queue:
                        self._active_mask &= ~bit
                    # Inline of link.occupy(): the busy check above ensures
                    # now >= busy_until, so serialisation starts immediately.
                    size = message.size_bytes
                    ser = link._ser_cache.get(size)
                    if ser is None:
                        ser = link.serialization_cycles(size)
                    busy_until = now + ser
                    link.busy_until = busy_until
                    link.busy_cycles += ser
                    arrival = busy_until + link.latency_cycles
                    self.messages_forwarded += 1
                    counter = self._c_forwarded
                    if counter is None:
                        counter = self._c_forwarded = self.stats.counter(
                            f"{self.name}.forwarded")
                    counter.value += 1
                    sim.queue.push(
                        arrival,
                        partial(d_recv, message, downstream_port,
                                downstream_cid, self.network.flush_epoch),
                        0, fwd_label)
            # A head moved: release the credit for its input port.
            progressed = True
            upstream = self._credit_wake[port]
            if upstream is None:
                # Inline of network.notify_injection_space for the common
                # empty-queue case: nothing to drain, just rescan for
                # re-enabled ejection.
                endpoint = self._local_endpoint
                if endpoint is not None:
                    if endpoint.pending_injection:
                        self.network.notify_injection_space(self.switch_id)
                    elif not self._scan_scheduled:
                        self._scan_scheduled = True
                        sim.queue.push_static(self._scan_event, now + 1)
            elif not upstream._scan_scheduled:
                upstream._scan_scheduled = True
                sim.queue.push_static(upstream._scan_event, now + 1)
        if progressed:
            # More heads may now be free to move (and space opened upstream).
            if not self._scan_scheduled:
                self._scan_scheduled = True
                sim.queue.push_static(self._scan_event, now + 1)
        elif retry_at is not None and retry_at > now:
            self.schedule_scan(delay=retry_at - now)

    # ----------------------------------------------------------------- credits
    def _credit_released(self, port: Direction) -> None:
        """A slot freed on input ``port``: wake whoever feeds that port."""
        upstream = self._credit_wake[port]
        if upstream is None:
            # Same empty-queue inline of notify_injection_space as in _scan.
            endpoint = self._local_endpoint
            if endpoint is not None:
                if endpoint.pending_injection:
                    self.network.notify_injection_space(self.switch_id)
                elif not self._scan_scheduled:
                    self._scan_scheduled = True
                    sim = self.sim
                    sim.queue.push_static(self._scan_event, sim._now + 1)
        elif not upstream._scan_scheduled:
            # Inline of upstream.schedule_scan(delay=1) — credits fire once
            # per forwarded message.
            upstream._scan_scheduled = True
            sim = upstream.sim
            sim.queue.push_static(upstream._scan_event, sim._now + 1)

    # ------------------------------------------------------------- congestion
    def _congestion_for(self, direction: Direction) -> int:
        """Congestion metric used by adaptive routing for ``direction``."""
        downstream_id = self.neighbors.get(direction)
        if downstream_id is None:
            return 0
        downstream = self.network.switch(downstream_id)
        occupancy = downstream.input_channels[direction.opposite].occupancy()
        link = self.output_links.get(direction)
        link_penalty = 0
        if link is not None and link.is_busy:
            link_penalty = 1 + (link.busy_until - self.sim.now) // max(1, link.latency_cycles)
        return occupancy + link_penalty

    # -------------------------------------------------------------- inspection
    def blocked_heads(self) -> List[BlockedHead]:
        """Describe every head-of-line message that cannot advance right now.

        Used by the wait-for-graph deadlock detector and by tests; the
        production system never calls this (it relies on timeouts instead).
        """
        blocked: List[BlockedHead] = []
        for port, channels in self.input_channels.items():
            for cid, buf in channels.buffers():
                message = buf.peek()
                if message is None:
                    continue
                direction = self.network.routing.route(
                    self.switch_id, message, self._congestion_for)
                if direction == Direction.LOCAL:
                    if not self.network.can_eject(self.switch_id):
                        blocked.append(BlockedHead(
                            message=message, input_port=port, channel=cid,
                            waiting_on=(self.switch_id, Direction.LOCAL)))
                    continue
                downstream_id = self.neighbors.get(direction)
                if downstream_id is None:
                    continue
                downstream = self.network.switch(downstream_id)
                space = downstream.input_channels[direction.opposite].free_slots_for(message)
                if space <= 0:
                    blocked.append(BlockedHead(
                        message=message, input_port=port, channel=cid,
                        waiting_on=(downstream_id, direction.opposite)))
        return blocked

    def queued_messages(self) -> List[NetworkMessage]:
        """Every message currently buffered at this switch."""
        queued: List[NetworkMessage] = []
        for channels in self.input_channels.values():
            for _cid, buf in channels.buffers():
                queued.extend(list(buf))
        return queued

    def drain_all(self) -> List[NetworkMessage]:
        """Drop every buffered message (system-wide recovery)."""
        dropped: List[NetworkMessage] = []
        for channels in self.input_channels.values():
            dropped.extend(channels.drain())
        self._active_mask = 0
        if self._core is not None:
            self._core.clear_mask()
        return dropped

