"""Finite FIFO buffers with reservation-style flow control.

Switches and endpoints hold incoming messages in finite buffers.  The
baseline (non-speculative) network carves these buffers into one FIFO per
virtual network / virtual channel, which is what breaks the cyclic
dependences that cause deadlock; the speculatively simplified network of
Section 4 shares a single FIFO per input port among all message classes,
which is simpler but can deadlock.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Iterable, List, Optional, TypeVar

T = TypeVar("T")


class BufferFullError(RuntimeError):
    """Raised when a message is pushed into a buffer with no free slot."""


class FiniteBuffer(Generic[T]):
    """A bounded FIFO with explicit slot reservation.

    Upstream senders *reserve* a slot before putting a message on the wire
    (credit-based flow control); the reservation is released either by
    cancelling it or by the message being popped at this buffer.
    """

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._queue: Deque[T] = deque()
        self._reserved = 0

    # ----------------------------------------------------------------- state
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def occupancy(self) -> int:
        """Messages physically present plus reserved in-flight slots."""
        return len(self._queue) + self._reserved

    @property
    def free_slots(self) -> int:
        return self.capacity - self.occupancy

    @property
    def is_empty(self) -> bool:
        return not self._queue

    @property
    def is_full(self) -> bool:
        return self.occupancy >= self.capacity

    # ------------------------------------------------------------ reservation
    def reserve(self) -> bool:
        """Reserve one slot for an in-flight message; False if no space."""
        if len(self._queue) + self._reserved >= self.capacity:
            return False
        self._reserved += 1
        return True

    def cancel_reservation(self) -> None:
        """Release a reservation without delivering a message."""
        if self._reserved <= 0:
            raise RuntimeError(f"buffer {self.name}: cancel without reservation")
        self._reserved -= 1

    # ------------------------------------------------------------------ queue
    def push_reserved(self, item: T) -> None:
        """Deliver a message into a previously reserved slot."""
        if self._reserved <= 0:
            raise RuntimeError(f"buffer {self.name}: push without reservation")
        self._reserved -= 1
        self._queue.append(item)

    def push(self, item: T) -> None:
        """Push without a prior reservation (endpoint injection)."""
        if len(self._queue) + self._reserved >= self.capacity:
            raise BufferFullError(f"buffer {self.name} is full")
        self._queue.append(item)

    def peek(self) -> Optional[T]:
        return self._queue[0] if self._queue else None

    def pop(self) -> T:
        if not self._queue:
            raise IndexError(f"buffer {self.name} is empty")
        return self._queue.popleft()

    def drain(self) -> List[T]:
        """Remove and return every queued message (used on system recovery)."""
        items = list(self._queue)
        self._queue.clear()
        self._reserved = 0
        return items

    def __iter__(self) -> Iterable[T]:
        return iter(self._queue)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FiniteBuffer {self.name} {self.occupancy}/{self.capacity}>"
