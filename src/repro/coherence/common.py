"""Common coherence-protocol types: addresses, requests, transactions."""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Optional

#: Block addresses are plain integers (byte address of the block's base).
BlockAddress = int


class MemoryOp(str, Enum):
    """Processor-visible memory operations."""

    LOAD = "load"
    STORE = "store"


class MemoryRequest:
    """One memory reference issued by a processor.

    Slotted and hand-rolled (not a dataclass): one is allocated per L2 miss,
    which at protocol rates makes the dataclass ``__init__`` indirection and
    the per-instance ``__dict__`` measurable.
    """

    __slots__ = ("node", "op", "address", "value")

    def __init__(self, node: int, op: MemoryOp, address: BlockAddress,
                 value: Optional[int] = None) -> None:
        self.node = node
        self.op = op
        self.address = address
        #: Value observed by a load / written by a store (data tracking for
        #: correctness checks; the timing model does not depend on it).
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryRequest(node={self.node}, op={self.op!r}, "
                f"address={self.address:#x}, value={self.value!r})")


class Transaction:
    """One outstanding coherence transaction at a cache controller.

    Slotted and hand-rolled for the same reason as :class:`MemoryRequest`:
    one per coherence transaction.  ``txn_id`` comes from the owning
    system's ``txn_ids`` counter (the controller draws it), so ids are
    unique within one system and independent of anything else in the
    process.
    """

    __slots__ = ("node", "address", "op", "txn_id",
                 "acks_needed", "acks_received", "data_received",
                 "on_complete", "timeout_event", "completed",
                 "bus_ordered", "invalidate_on_install", "value_hint")

    def __init__(self, node: int, address: BlockAddress, op: MemoryOp,
                 txn_id: int,
                 acks_needed: int = 0, acks_received: int = 0,
                 data_received: bool = False,
                 on_complete: Optional[Callable[["Transaction"], None]] = None,
                 timeout_event: Any = None, completed: bool = False) -> None:
        self.node = node
        self.address = address
        self.op = op
        self.txn_id = txn_id
        #: Invalidation acknowledgements still outstanding (directory protocol).
        self.acks_needed = acks_needed
        self.acks_received = acks_received
        self.data_received = data_received
        #: Called exactly once when the transaction completes.
        self.on_complete = on_complete
        #: Timeout event handle (cancelled on completion).
        self.timeout_event = timeout_event
        self.completed = completed
        # Snooping-controller annotations (read back via getattr with a
        # default, so the defaults here must stay the getattr fallbacks).
        self.bus_ordered = False
        self.invalidate_on_install = False
        self.value_hint = None

    @property
    def satisfied(self) -> bool:
        """True when data and all expected acks have arrived."""
        return self.data_received and self.acks_received >= self.acks_needed

    def complete(self) -> None:
        if self.completed:
            return
        self.completed = True
        if self.timeout_event is not None:
            self.timeout_event.cancel()
            self.timeout_event = None
        if self.on_complete is not None:
            self.on_complete(self)


def block_address(byte_address: int, block_bytes: int) -> BlockAddress:
    """Align a byte address down to its block base."""
    if block_bytes <= 0 or block_bytes & (block_bytes - 1):
        raise ValueError("block size must be a positive power of two")
    return byte_address & ~(block_bytes - 1)


def home_node(address: BlockAddress, num_nodes: int, block_bytes: int) -> int:
    """Home (directory) node for a block: blocks interleaved across nodes."""
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    return (address // block_bytes) % num_nodes
