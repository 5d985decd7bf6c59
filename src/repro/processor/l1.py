"""L1 filter cache.

The L1 caches (Table 2: 128 KB, 4-way, I and D) are modelled as a latency
filter in front of the coherent L2: a reference that hits in the L1 *and*
whose permission is still backed by the L2 coherence state completes in the
L1 hit latency without touching the protocol.  Coherence permissions are
checked lazily against the L2 on every access, which makes explicit L1
invalidation messages unnecessary while remaining conservative (an L1 line
whose L2 backing was invalidated never supplies stale data).
"""

from __future__ import annotations

from enum import Enum

from repro.coherence.cache import CacheArray
from repro.coherence.common import BlockAddress, MemoryOp
from repro.coherence.directory.states import CacheState
from repro.coherence.snooping.states import SnoopState
from repro.sim.config import CacheConfig


class L1State(str, Enum):
    """L1 tag states (permissions live in the L2 coherence state)."""

    VALID = "V"
    INVALID = "I"


class L1FilterCache:
    """A tag-only L1 used to filter accesses before the coherent L2."""

    def __init__(self, name: str, config: CacheConfig) -> None:
        self.tags: CacheArray[L1State] = CacheArray(name, config, L1State.INVALID)

    def hit(self, address: BlockAddress, op: MemoryOp,
            l2_state: CacheState) -> bool:
        """True when the reference can complete at L1 speed.

        Loads need the L1 tag present and any valid L2 state; stores need
        write permission (Modified) at the L2 as well.
        """
        tags = self.tags
        if address not in tags._sets[(address // tags._block_bytes) % tags._num_sets]:
            return False
        # Identity tests against the enum members of both protocols: this is
        # the per-reference hot path, and the str-enum `has_valid_data` /
        # `can_write` properties cost a property descriptor plus string
        # comparison per call.  `l2_state` is a CacheState (directory) or a
        # SnoopState (snooping); enum members are singletons.
        if op is MemoryOp.LOAD:
            return (l2_state is not CacheState.INVALID
                    and l2_state is not SnoopState.INVALID)
        return (l2_state is CacheState.MODIFIED
                or l2_state is SnoopState.MODIFIED
                or l2_state is SnoopState.EXCLUSIVE)

    def fill(self, address: BlockAddress) -> None:
        """Install the tag after an L2 access completes."""
        self.tags.allocate(address, L1State.VALID)

    def invalidate(self, address: BlockAddress) -> None:
        if self.tags.contains(address):
            self.tags.set_state(address, L1State.INVALID)

    @property
    def hits(self) -> int:
        return self.tags.hits

    @property
    def misses(self) -> int:
        return self.tags.misses
