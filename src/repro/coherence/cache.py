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

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Generic, Iterator, List, Mapping, Optional, Tuple, TypeVar

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


#: What every entry of :attr:`CacheArray._sets` starts as: one shared,
#: read-only empty mapping.  A set gets a dict of its own on the first
#: install into it (:meth:`CacheArray.allocate`, :meth:`CacheArray
#: .force_line`), so a run pays only for the sets it touches, and a write
#: that skips that step raises ``TypeError`` instead of landing in a dict
#: every array shares.
_NO_LINES: Mapping = MappingProxyType({})


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
        #: One entry per set, in index order.  The list object itself is
        #: fixed for the array's life (the bus's snoop filter and the
        #: compiled cores capture it); only its entries change, each at
        #: most once, from :data:`_NO_LINES` to the set's own dict.
        self._sets: List[Mapping[BlockAddress, CacheLine[StateT]]] = (
            [_NO_LINES] * config.num_sets)
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

    def _set_for(self, address: BlockAddress) -> Mapping[BlockAddress, CacheLine[StateT]]:
        return self._sets[(address // self._block_bytes) % self._num_sets]

    def _install_set(self, address: BlockAddress) -> Dict[BlockAddress, CacheLine[StateT]]:
        """The dict of ``address``'s set, created on the set's first install."""
        index = (address // self._block_bytes) % self._num_sets
        cache_set = self._sets[index]
        if cache_set is _NO_LINES:
            cache_set = self._sets[index] = {}
        return cache_set

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
        cache_set = self._install_set(address)
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
        if state == self.invalid_state:
            self.remove(address)
            return
        self._tick += 1
        self._install_set(address)[address] = CacheLine(
            address=address, state=state, value=value, last_used=self._tick)

    def restore_field(self, address: BlockAddress, field_name: str, value) -> None:
        """Apply one SafetyNet undo record without notifying observers.

        Restores run newest-record-first, so a line that did not exist at the
        recovery point is eventually removed by the restore of its original
        Invalid state.  Because every state transition logs the data value
        alongside it, a line always exists by the time its value records are
        replayed; a value record with no resident line is therefore a no-op.
        """
        line = self._set_for(address).get(address)
        if field_name == "state":
            if value == self.invalid_state or value is None:
                self.remove(address)
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
    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def occupancy_of_set(self, address: BlockAddress) -> int:
        """Number of lines currently resident in the set of ``address``."""
        return len(self._set_for(address))

    def lines(self) -> Iterator[CacheLine[StateT]]:
        for cache_set in self._sets:
            yield from cache_set.values()
