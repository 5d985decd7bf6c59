"""Event-driven simulation kernel.

The kernel is a classic calendar-of-events scheduler built on ``heapq``.  All
timing in the reproduction is expressed in *cycles* of the (nominally 4 GHz)
system clock; the mapping from cycles to wall-clock "seconds" used by the
paper's recovery-rate experiments is configurable (see
:class:`repro.sim.config.SystemConfig.cycles_per_second`).

Design notes
------------
* Events are ordered by ``(time, sequence)``.  The sequence number makes
  ordering of same-cycle events deterministic and FIFO with respect to
  scheduling order, which keeps every simulation run reproducible for a fixed
  seed.
* The scheduler never uses wall-clock time or global randomness; components
  that need randomness draw from :class:`repro.sim.rng.DeterministicRng`
  streams handed to them at construction time.
* Callbacks are plain callables.  A callback may schedule further events and
  may cancel events it owns.

Hot-path structure (see DESIGN.md §5 for the full performance model):

* **Fused dispatch loop** — :meth:`Simulator.run` owns the heap directly:
  it discards cancelled heads lazily and pops-and-executes events with no
  per-event method calls, tallying ``events_executed`` once at the end.
  Execution order is the heap's ``(time, seq)`` order, identical to the
  classic pop-one-dispatch-one loop.  (A calendar-bucket
  variant — one FIFO bucket per time, heap of times — was measured and
  rejected: at this simulator's typical batch size of 1-3 the per-key
  dict/deque overhead exceeds the saved heap sifts.)
* **One object per event** — every push creates a new :class:`Event`, and
  the kernel never reuses one, so a handle can only ever reach its own
  event: cancelling it after it fired (or was cancelled) does nothing.
  The one exception is a permanent event its owner re-queues itself
  (:meth:`EventQueue.push_static`), which no other code holds.
* **Heap compaction** — cancelled events stay in the heap (the classic lazy
  -deletion scheme), but when they outnumber live events the queue rebuilds
  the heap from the live entries only.  Compaction preserves dispatch order
  (the ``(time, seq)`` keys are untouched) and bounds both memory
  and the cancelled-entry skip loops.
* **Reference hygiene** — ``callback`` (and the queue backref) are nulled
  the moment an event is cancelled, so a cancelled entry parked in the heap
  never keeps a closure alive for the remainder of a long campaign run.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for fatal inconsistencies inside the simulation kernel."""


class Event:
    """A single scheduled event.

    A plain ``__slots__`` class rather than a dataclass: millions of events
    are created per simulated run, so per-instance dict overhead and
    generated ``__lt__`` calls are measurable.  Heap ordering lives in the
    queue's ``(time, seq)`` tuple keys, not on the event itself.

    Attributes
    ----------
    time:
        Absolute cycle at which the event fires.
    seq:
        Monotonic sequence number assigned by the queue; guarantees FIFO
        ordering among events with equal ``time``.
    callback:
        Zero-argument callable invoked when the event fires.  Nulled once
        the event is cancelled so the heap retains no closures.
    label:
        Optional human-readable tag (used in traces and error messages).
    cancelled:
        Cancelled events stay in the heap but are skipped when popped.

    Every :meth:`EventQueue.push` / :meth:`Simulator.schedule` returns a
    new object that no later push reuses, so a handle stays valid for as
    long as it is held (DESIGN.md §5).
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled", "_queue")

    def __init__(self, time: int, seq: int, callback: Callable[[], None],
                 label: str = "") -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be dropped when reached.

        The owning queue's live count is kept consistent, and cancelling an
        event that already fired or was cancelled does nothing to the
        queue.  The callback reference is released immediately so a
        cancelled entry parked deep in the heap cannot keep a closure (and
        everything it captures) alive.
        """
        if not self.cancelled:
            self.cancelled = True
            self.callback = None
            queue = self._queue
            if queue is not None:
                # Inlined queue bookkeeping — cancels are a hot path in
                # timeout-heavy protocols.
                self._queue = None
                live = queue._live - 1
                queue._live = live
                heap_size = len(queue._heap)
                if (heap_size >= queue.COMPACT_MIN_ENTRIES
                        and live < (heap_size >> 1)):
                    queue._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} {self.label!r}{state}>"


#: Heap entries: the ``(time, seq)`` tuple key plus the event.  ``seq`` is
#: unique, so comparisons never fall through to the event object.
_HeapEntry = Tuple[int, int, Event]


class EventQueue:
    """Priority queue of :class:`Event` objects keyed by time.

    Events leave the queue only through :meth:`Simulator.run`, which owns
    the heap directly.
    """

    #: Heaps smaller than this are never compacted (rebuild cost would
    #: exceed the skip cost it saves).  Read by :meth:`Event.cancel`.
    COMPACT_MIN_ENTRIES = 512

    def __init__(self) -> None:
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        self._live = 0
        self.compactions = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: int, callback: Callable[[], None],
             label: str = "") -> Event:
        """Schedule ``callback`` at absolute cycle ``time`` and return the event.

        ``label`` is positional-or-keyword: the hottest callers (message
        forwarding and delivery) pass it positionally to skip
        keyword-argument unpacking.
        """
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time}")
        seq = self._seq
        self._seq = seq + 1
        # Slot stores on a bare object: a Python ``__init__`` frame per push
        # is measurable on the pure tier.
        event = object.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.label = label
        event.cancelled = False
        event._queue = self
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def push_static(self, event: Event, time: int) -> None:
        """Re-queue a caller-owned permanent event at absolute cycle ``time``.

        The fast path for events that fire millions of times and are never
        cancelled (switch scans): only the time and sequence number change,
        and the callback and label are fixed at construction, so nothing is
        allocated.  The caller guarantees the event is not currently queued
        (one pending instance at a time).
        """
        seq = self._seq
        self._seq = seq + 1
        event.time = time
        event.seq = seq
        event.cancelled = False
        event._queue = self
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1

    def new_static_event(self, callback: Callable[[], None],
                         label: str = "") -> Event:
        """Create a caller-owned permanent event compatible with this queue.

        Permanent events (e.g. a switch's scan event) are re-queued via
        :meth:`push_static`.  Both kernel tiers provide this factory so
        owners never construct events of the wrong tier (a compiled queue
        only accepts compiled events).
        """
        return Event(0, 0, callback, label)

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the heap from live ones.

        Keys are untouched, so the total dispatch order is identical — only
        the heap's internal arrangement changes.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self.compactions += 1


class Simulator:
    """The simulation clock plus the event queue.

    Every component holds a reference to one :class:`Simulator` and uses
    :meth:`schedule` / :meth:`schedule_at` to advance its own state machines.
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self._now = 0
        self._stop_requested = False
        self.events_executed = 0

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def schedule(self, delay: int, callback: Callable[[], None], *,
                 label: str = "") -> Event:
        """Schedule ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.queue.push(self._now + delay, callback, label)

    def schedule_at(self, time: int, callback: Callable[[], None], *,
                    label: str = "") -> Event:
        """Schedule ``callback`` at an absolute cycle (must not be in the past)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self._now}, time={time})")
        return self.queue.push(time, callback, label)

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` cycles, or ``max_events``.

        Returns the simulation time at which execution stopped.

        The dispatch loop is fused with the queue (direct heap access, no
        per-event method calls): events come off the heap in
        ``(time, seq)`` order and execute immediately, so the
        order is identical to the classic pop-one-dispatch-one loop —
        including events a callback schedules for the current cycle, whose
        higher sequence numbers place them after the already-queued ones.
        """
        self._stop_requested = False
        executed = 0
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        # Sentinel bounds: one int compare per event instead of a None check
        # plus a compare.  Simulation times and event counts stay far below
        # 2**62 (a 4 GHz machine would need ~36 years of simulated time).
        until_bound = until if until is not None else 1 << 62
        events_bound = max_events if max_events is not None else 1 << 62
        heappush = heapq.heappush
        try:
            # ``while True``, not ``while heap``: CPython 3.11 warms a code
            # object up for specialization on unconditional backward jumps
            # only, and run() is entered once per simulation, so a
            # conditional back-edge would leave this loop unspecialized
            # (about 30% slower dispatch).
            while True:
                if (self._stop_requested or executed >= events_bound
                        or not heap):
                    break
                # Pop first, discard cancelled entries lazily (compaction
                # keeps their number short) — one heap access per event
                # instead of a peek-then-pop pair.
                entry = heappop(heap)
                event = entry[2]
                if event.cancelled:
                    continue
                next_time = entry[0]
                if next_time > until_bound:
                    # Out of the window: put the event back (same tuple, so
                    # ordering is untouched) and stop at the bound.
                    heappush(heap, entry)
                    self._now = until
                    break
                queue._live -= 1
                event._queue = None
                self._now = next_time
                event.callback()
                executed += 1
                # A callback may compact the queue (via cancel); re-read.
                heap = queue._heap
        finally:
            # Deferred tally (one attribute increment per event saved);
            # additive, so a nested run() inside a callback stays correct.
            self.events_executed += executed
        return self._now
