"""Virtual-network / virtual-channel organisation of switch input buffers.

Section 4 of the paper explains the multiplicative cost of deadlock
avoidance: N virtual networks (one per message class, to break endpoint
deadlock) times C virtual channels per network (to break switch deadlock on
the torus) gives N*C buffers per unidirectional link.  The baseline system
uses 4 virtual networks x 2 virtual channels; the speculatively simplified
network collapses everything into a single shared buffer per input port.

This module maps a message onto the buffer it must occupy at the next hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.interconnect.buffers import FiniteBuffer
from repro.interconnect.message import NetworkMessage


@dataclass(frozen=True)
class ChannelId:
    """Identity of one buffer on one input port of one switch."""

    virtual_network: int
    virtual_channel: int

    def __str__(self) -> str:  # pragma: no cover
        return f"vn{self.virtual_network}.vc{self.virtual_channel}"


class ChannelSet:
    """The set of buffers attached to one switch input port.

    In the baseline configuration there is one :class:`FiniteBuffer` per
    (virtual network, virtual channel) pair.  In the speculative no-VC
    configuration there is exactly one shared buffer and every message maps
    to it — this is the design whose deadlocks Section 4 recovers from.
    """

    def __init__(self, name: str, *, virtual_networks: int,
                 virtual_channels: int, capacity_per_channel: int,
                 shared: bool) -> None:
        self.name = name
        self.shared = shared
        self.virtual_networks = virtual_networks
        # The buffers live in a [vn][vc] grid with a parallel grid of
        # interned ChannelId objects: the per-message mapping is two list
        # index operations, never a dataclass hash (the old dict-keyed
        # layout spent a visible fraction of every scan in ChannelId
        # __hash__/__eq__).  ``_buffers`` is kept in sync for the
        # inspection API.
        self._buffers: Dict[ChannelId, FiniteBuffer[NetworkMessage]] = {}
        self._grid: List[List[FiniteBuffer[NetworkMessage]]] = []
        self._cids: List[List[ChannelId]] = []
        self._vc_count = 1 if shared else max(1, virtual_channels)
        vn_count = 1 if shared else virtual_networks
        for vn in range(vn_count):
            grid_row: List[FiniteBuffer[NetworkMessage]] = []
            cid_row: List[ChannelId] = []
            for vc in range(self._vc_count):
                cid = ChannelId(vn, vc)
                label = f"{name}.shared" if shared else f"{name}.{cid}"
                buf: FiniteBuffer[NetworkMessage] = FiniteBuffer(
                    label, capacity_per_channel)
                self._buffers[cid] = buf
                grid_row.append(buf)
                cid_row.append(cid)
            self._grid.append(grid_row)
            self._cids.append(cid_row)

    # --------------------------------------------------------------- mapping
    def channel_for(self, message: NetworkMessage) -> ChannelId:
        """Which buffer a message must occupy at this port.

        Virtual-channel selection is a deterministic function of the
        message's (source, destination) pair so that every message of one
        point-to-point stream uses the same FIFO at every hop.  This is what
        lets statically routed configurations preserve point-to-point
        ordering (Section 3.1's baseline assumption); spreading a stream
        across VCs would re-introduce reordering that has nothing to do with
        adaptive routing.
        """
        if self.shared:
            return self._cids[0][0]
        vn = message.vnet
        if vn >= self.virtual_networks:
            vn = vn % self.virtual_networks
        vc = (message.src * 31 + message.dst) % self._vc_count
        return self._cids[vn][vc]

    # ---------------------------------------------------------------- queries
    def buffer(self, cid: ChannelId) -> FiniteBuffer[NetworkMessage]:
        return self._grid[cid.virtual_network][cid.virtual_channel]

    def buffers(self) -> List[Tuple[ChannelId, FiniteBuffer[NetworkMessage]]]:
        return list(self._buffers.items())

    def free_slots_for(self, message: NetworkMessage) -> int:
        """Total free slots across every buffer this message may use."""
        return self.buffer(self.channel_for(message)).free_slots

    def reserve_for(self, message: NetworkMessage) -> Tuple[bool, ChannelId]:
        """Reserve a slot in the message's buffer; returns ``(ok, channel)``.

        Inlines :meth:`channel_for` (this runs once per hop per message).
        """
        if self.shared:
            return self._grid[0][0].reserve(), self._cids[0][0]
        vn = message.vnet
        if vn >= self.virtual_networks:
            vn = vn % self.virtual_networks
        vc = (message.src * 31 + message.dst) % self._vc_count
        return self._grid[vn][vc].reserve(), self._cids[vn][vc]

    def occupancy(self) -> int:
        return sum(buf.occupancy for buf in self._buffers.values())

    def total_capacity(self) -> int:
        return sum(buf.capacity for buf in self._buffers.values())

    def drain(self) -> List[NetworkMessage]:
        """Drop every queued message (system recovery)."""
        dropped: List[NetworkMessage] = []
        for buf in self._buffers.values():
            dropped.extend(buf.drain())
        return dropped
