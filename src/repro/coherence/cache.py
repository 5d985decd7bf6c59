"""Set-associative cache arrays.

The cache array stores, per block, a protocol state (opaque to the array —
each protocol brings its own enum), an optional data value (an integer token
used for correctness checking, not timing) and LRU information.  It is used
for both L1 tag arrays and L2 coherence caches.

State changes flow through :meth:`CacheArray.set_state`, which notifies an
optional observer — this is the hook the SafetyNet undo log uses to record
old values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.coherence.common import BlockAddress
from repro.sim.config import CacheConfig

StateT = TypeVar("StateT")

#: Observer signature: (address, field_name, old_value, new_value).
ChangeObserver = Callable[[BlockAddress, str, object, object], None]


@dataclass(slots=True)
class CacheLine(Generic[StateT]):
    """One cache line."""

    address: BlockAddress
    state: StateT
    value: Optional[int] = None
    last_used: int = 0
    dirty: bool = False


# ------------------------------------------------------------- set-list pool
#: Recycled ``_sets`` lists keyed by set count, populated only while the
#: pool is enabled.  A 16-node campaign design point allocates tens of
#: thousands of empty per-set dicts per run; an executor that runs many
#: design points in one process (:class:`repro.campaign.executor
#: .SerialExecutor`) recycles the lists of finished runs instead.  Purely
#: an allocation cache: a recycled list is returned emptied, so array
#: behaviour — and therefore every simulation result — is identical with
#: the pool on or off.
_SET_POOL: Dict[int, List[List[dict]]] = {}
_POOL_ENABLED = False


def enable_set_pool() -> None:
    """Start recycling ``_sets`` lists handed back via :meth:`CacheArray
    .recycle_sets`."""
    global _POOL_ENABLED
    _POOL_ENABLED = True


def disable_set_pool() -> None:
    """Stop recycling and drop every pooled list."""
    global _POOL_ENABLED
    _POOL_ENABLED = False
    _SET_POOL.clear()


def _sets_from_pool(num_sets: int) -> List[dict]:
    if _POOL_ENABLED:
        bucket = _SET_POOL.get(num_sets)
        if bucket:
            return bucket.pop()
    return [{} for _ in range(num_sets)]


class CacheArray(Generic[StateT]):
    """A set-associative cache with explicit state management.

    Parameters
    ----------
    name:
        Used in error messages and stats.
    config:
        Geometry (size / associativity / block size).
    invalid_state:
        The protocol's Invalid state value; lines in this state are treated
        as empty slots.
    """

    def __init__(self, name: str, config: CacheConfig, invalid_state: StateT) -> None:
        self.name = name
        self.config = config
        self.invalid_state = invalid_state
        self._sets: List[Dict[BlockAddress, CacheLine[StateT]]] = (
            _sets_from_pool(config.num_sets))
        # Geometry constants, promoted to instance attributes: set addressing
        # runs on every cache probe and the config indirection is measurable.
        self._block_bytes = config.block_bytes
        self._num_sets = config.num_sets
        self._observer: Optional[ChangeObserver] = None
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -------------------------------------------------------------- observers
    def set_observer(self, observer: Optional[ChangeObserver]) -> None:
        """Install the change observer (used by the SafetyNet undo log)."""
        self._observer = observer

    def _notify(self, address: BlockAddress, field_name: str, old, new) -> None:
        if self._observer is not None and old != new:
            self._observer(address, field_name, old, new)

    # ------------------------------------------------------------- addressing
    def set_index(self, address: BlockAddress) -> int:
        return (address // self._block_bytes) % self._num_sets

    def _set_for(self, address: BlockAddress) -> Dict[BlockAddress, CacheLine[StateT]]:
        return self._sets[(address // self._block_bytes) % self._num_sets]

    # ----------------------------------------------------------------- lookup
    def lookup(self, address: BlockAddress) -> Optional[CacheLine[StateT]]:
        """Return the line for ``address`` if present (any state), else None."""
        line = self._sets[(address // self._block_bytes) % self._num_sets].get(address)
        if line is not None:
            self._tick += 1
            line.last_used = self._tick
        return line

    def peek(self, address: BlockAddress) -> Optional[CacheLine[StateT]]:
        """Like :meth:`lookup` but without touching LRU."""
        return self._sets[(address // self._block_bytes) % self._num_sets].get(address)

    def contains(self, address: BlockAddress) -> bool:
        return address in self._sets[(address // self._block_bytes) % self._num_sets]

    def get_state(self, address: BlockAddress) -> StateT:
        line = self._sets[(address // self._block_bytes) % self._num_sets].get(address)
        return line.state if line is not None else self.invalid_state

    # ----------------------------------------------------------------- update
    def allocate(self, address: BlockAddress, state: StateT,
                 value: Optional[int] = None) -> Tuple[CacheLine[StateT], Optional[CacheLine[StateT]]]:
        """Insert a line, evicting an LRU victim from the set if necessary.

        Returns ``(new_line, victim_line_or_None)``.  The victim is removed
        from the array; the caller decides whether it needs a writeback.
        Lines whose state the caller has marked as *unevictable* (see
        :meth:`find_victim`) are never chosen.
        """
        cache_set = self._set_for(address)
        existing = cache_set.get(address)
        if existing is not None:
            self.set_state(address, state)
            if value is not None:
                self.set_value(address, value)
            return existing, None

        victim = None
        if len(cache_set) >= self.config.associativity:
            victim = self.find_victim(address)
            if victim is None:
                raise RuntimeError(
                    f"{self.name}: set {self.set_index(address)} has no evictable line")
            del cache_set[victim.address]
            self.evictions += 1
            self._notify(victim.address, "value", victim.value, None)
            self._notify(victim.address, "state", victim.state, self.invalid_state)

        self._tick += 1
        line = CacheLine(address=address, state=state, value=value, last_used=self._tick)
        cache_set[address] = line
        self._notify(address, "state", self.invalid_state, state)
        if value is not None:
            self._notify(address, "value", None, value)
        return line, victim

    def find_victim(self, address: BlockAddress,
                    evictable: Optional[Callable[[CacheLine[StateT]], bool]] = None
                    ) -> Optional[CacheLine[StateT]]:
        """LRU victim in the set of ``address`` (without removing it)."""
        cache_set = self._set_for(address)
        candidates = [line for line in cache_set.values()
                      if evictable is None or evictable(line)]
        if not candidates:
            return None
        return min(candidates, key=lambda line: line.last_used)

    def set_state(self, address: BlockAddress, state: StateT) -> None:
        """Change the coherence state of a (present) line."""
        line = self._set_for(address).get(address)
        if line is None:
            if state == self.invalid_state:
                return
            raise KeyError(f"{self.name}: block {address:#x} not present")
        old = line.state
        line.state = state
        if state == self.invalid_state:
            # Log the data value as well so a recovery can faithfully restore
            # the line (state alone would lose the block's contents).
            self._notify(address, "value", line.value, None)
        self._notify(address, "state", old, state)
        if state == self.invalid_state:
            del self._set_for(address)[address]

    def set_value(self, address: BlockAddress, value: Optional[int]) -> None:
        line = self._set_for(address).get(address)
        if line is None:
            raise KeyError(f"{self.name}: block {address:#x} not present")
        old = line.value
        line.value = value
        self._notify(address, "value", old, value)

    def remove(self, address: BlockAddress) -> None:
        """Drop a line entirely (used by recovery restore)."""
        cache_set = self._set_for(address)
        if address in cache_set:
            del cache_set[address]

    def force_line(self, address: BlockAddress, state: StateT,
                   value: Optional[int]) -> None:
        """Install a line bypassing LRU/eviction and observers (recovery only)."""
        cache_set = self._set_for(address)
        if state == self.invalid_state:
            cache_set.pop(address, None)
            return
        self._tick += 1
        cache_set[address] = CacheLine(address=address, state=state, value=value,
                                       last_used=self._tick)

    def restore_field(self, address: BlockAddress, field_name: str, value) -> None:
        """Apply one SafetyNet undo record without notifying observers.

        Restores run newest-record-first, so a line that did not exist at the
        recovery point is eventually removed by the restore of its original
        Invalid state.  Because every state transition logs the data value
        alongside it, a line always exists by the time its value records are
        replayed; a value record with no resident line is therefore a no-op.
        """
        cache_set = self._set_for(address)
        line = cache_set.get(address)
        if field_name == "state":
            if value == self.invalid_state or value is None:
                cache_set.pop(address, None)
                return
            if line is None:
                self.force_line(address, value, None)
            else:
                line.state = value
        elif field_name == "value":
            if line is not None:
                line.value = value
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown cache field {field_name!r}")

    # ------------------------------------------------------------------ stats
    def recycle_sets(self) -> None:
        """Empty this array's ``_sets`` list and hand it to the pool.

        Called by executors on arrays of *finished* runs (the run's result
        is already extracted; nothing reads the array again).  No-op while
        the pool is disabled.
        """
        if not _POOL_ENABLED:
            return
        sets = self._sets
        for cache_set in sets:
            if cache_set:
                cache_set.clear()
        # The array must never serve a probe after recycling: its list now
        # belongs to a future run's array.
        self._sets = []
        _SET_POOL.setdefault(len(sets), []).append(sets)

    def record_hit(self) -> None:
        self.hits += 1

    def record_miss(self) -> None:
        self.misses += 1

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def occupancy_of_set(self, address: BlockAddress) -> int:
        """Number of lines currently resident in the set of ``address``."""
        return len(self._set_for(address))

    def lines(self) -> Iterator[CacheLine[StateT]]:
        for cache_set in self._sets:
            yield from cache_set.values()

    def lines_in_state(self, *states: StateT) -> List[CacheLine[StateT]]:
        wanted = set(states)
        return [line for line in self.lines() if line.state in wanted]
