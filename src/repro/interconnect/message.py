"""Network messages, message classes and virtual networks.

The directory protocol of Section 3.1 defines four classes of messages —
Request, ForwardedRequest, Response and FinalAck — and each class travels on
a logically separate *virtual network*.  The network layer only cares about
the class (for virtual-network separation), the size (for serialisation
delay) and the endpoints; the coherence payload is opaque to it.
"""

from __future__ import annotations

from enum import Enum, IntEnum
from typing import Any, Optional, Tuple


class VirtualNetwork(IntEnum):
    """The four virtual networks of the directory protocol."""

    REQUEST = 0
    FORWARDED_REQUEST = 1
    RESPONSE = 2
    FINAL_ACK = 3


class MessageClass(str, Enum):
    """Coherence message types carried over the network.

    The enum mirrors Section 3.1 of the paper:

    * Requests (processor -> directory): ``REQUEST_READ_ONLY``,
      ``REQUEST_READ_WRITE``, ``WRITEBACK``.
    * Forwarded requests (directory -> processor):
      ``FORWARDED_REQUEST_READ_ONLY``, ``FORWARDED_REQUEST_READ_WRITE``,
      ``INVALIDATION``, ``WRITEBACK_ACK``.
    * Responses (processor/directory -> requestor): ``DATA``, ``ACK``,
      ``NACK``.
    * ``FINAL_ACK`` coordinates SafetyNet checkpoints.
    """

    REQUEST_READ_ONLY = "RequestReadOnly"
    REQUEST_READ_WRITE = "RequestReadWrite"
    WRITEBACK = "Writeback"
    FORWARDED_REQUEST_READ_ONLY = "ForwardedRequestReadOnly"
    FORWARDED_REQUEST_READ_WRITE = "ForwardedRequestReadWrite"
    INVALIDATION = "Invalidation"
    WRITEBACK_ACK = "WritebackAck"
    DATA = "Data"
    ACK = "Ack"
    NACK = "Nack"
    FINAL_ACK = "FinalAck"

    @property
    def virtual_network(self) -> VirtualNetwork:
        """Virtual network this message class travels on."""
        return _CLASS_TO_VNET[self]

    @property
    def carries_data(self) -> bool:
        """True for messages that carry a 64-byte data block."""
        return self in DATA_CLASSES


_CLASS_TO_VNET = {
    MessageClass.REQUEST_READ_ONLY: VirtualNetwork.REQUEST,
    MessageClass.REQUEST_READ_WRITE: VirtualNetwork.REQUEST,
    MessageClass.WRITEBACK: VirtualNetwork.REQUEST,
    MessageClass.FORWARDED_REQUEST_READ_ONLY: VirtualNetwork.FORWARDED_REQUEST,
    MessageClass.FORWARDED_REQUEST_READ_WRITE: VirtualNetwork.FORWARDED_REQUEST,
    MessageClass.INVALIDATION: VirtualNetwork.FORWARDED_REQUEST,
    MessageClass.WRITEBACK_ACK: VirtualNetwork.FORWARDED_REQUEST,
    MessageClass.DATA: VirtualNetwork.RESPONSE,
    MessageClass.ACK: VirtualNetwork.RESPONSE,
    MessageClass.NACK: VirtualNetwork.RESPONSE,
    MessageClass.FINAL_ACK: VirtualNetwork.FINAL_ACK,
}

#: Message classes that carry a 64-byte data block (everything else is a
#: header-sized control message).
DATA_CLASSES = frozenset((MessageClass.DATA, MessageClass.WRITEBACK))


class NetworkMessage:
    """One message in flight through the interconnection network.

    The network layer fills in the bookkeeping fields (``send_seq``,
    ``injected_at``, ``hops``); callers supply the endpoints, the class, the
    size and the opaque coherence payload.  Slotted and hand-rolled because
    hundreds of thousands of messages are allocated per simulated run.
    """

    __slots__ = ("src", "dst", "msg_class", "size_bytes", "payload", "address",
                 "send_seq", "injected_at", "delivered_at", "hops", "vnet")

    def __init__(self, src: int, dst: int, msg_class: MessageClass,
                 size_bytes: int, payload: Any = None,
                 address: Optional[int] = None) -> None:
        self.src = src
        self.dst = dst
        self.msg_class = msg_class
        self.size_bytes = size_bytes
        self.payload = payload
        #: Memory block address the message concerns (None for e.g. FinalAck).
        self.address = address
        #: Per (src, dst, virtual network) sequence number assigned at
        #: injection.
        self.send_seq = -1
        self.injected_at = -1
        self.delivered_at = -1
        self.hops = 0
        #: Virtual network, resolved once from ``msg_class`` at construction —
        #: the network layer reads it on every hop.
        self.vnet = _CLASS_TO_VNET[msg_class]

    @property
    def virtual_network(self) -> VirtualNetwork:
        return self.vnet

    def ordering_key(self) -> Tuple[int, int, VirtualNetwork]:
        """Key under which point-to-point ordering is defined."""
        return (self.src, self.dst, self.vnet)

    @property
    def latency(self) -> int:
        """End-to-end latency in cycles (valid once delivered)."""
        if self.delivered_at < 0 or self.injected_at < 0:
            raise ValueError("message has not been delivered yet")
        return self.delivered_at - self.injected_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Msg {self.msg_class.value} "
                f"{self.src}->{self.dst} addr={self.address}>")
