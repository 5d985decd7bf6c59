"""Point-to-point links between switches.

A link serialises one message at a time.  Its occupancy statistics feed the
link-utilisation numbers the paper quotes (mean utilisation 13-35% for static
routing at 400 MB/s) and the adaptive-routing decisions (which prefer less
congested outputs).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


def serialization_cycles_for(size_bytes: int, cycles_per_byte: float) -> int:
    """Cycles to push ``size_bytes`` onto a wire at ``cycles_per_byte``.

    Rounding is explicit floor+half-up (``floor(x + 0.5)``), *not* Python's
    ``round``: banker's rounding resolves exact .5 boundaries toward the
    nearest even integer, which makes adjacent message sizes alternate
    between rounding up and down (e.g. 2.5 -> 2 but 3.5 -> 4 cycles at a
    half-cycle-per-byte link) — a bandwidth model artifact, not physics.
    """
    return max(1, int(size_bytes * cycles_per_byte + 0.5))


class Link:
    """A unidirectional link with a bandwidth-derived serialisation delay."""

    def __init__(self, name: str, sim: Simulator, *, latency_cycles: int,
                 cycles_per_byte: float, stats: Optional[StatsRegistry] = None) -> None:
        if latency_cycles < 0:
            raise ValueError("latency must be non-negative")
        if cycles_per_byte <= 0:
            raise ValueError("cycles_per_byte must be positive")
        self.name = name
        self.sim = sim
        self.latency_cycles = latency_cycles
        self.cycles_per_byte = cycles_per_byte
        self.stats = stats if stats is not None else StatsRegistry()
        self.busy_until = 0
        self.busy_cycles = 0
        #: Message sizes are drawn from a handful of values (control header,
        #: data block + header), so the serialisation delay per size is
        #: memoised instead of recomputed per occupancy.
        self._ser_cache: Dict[int, int] = {}

    def serialization_cycles(self, size_bytes: int) -> int:
        """Cycles to push ``size_bytes`` onto the wire (memoised per size)."""
        cycles = self._ser_cache.get(size_bytes)
        if cycles is None:
            cycles = serialization_cycles_for(size_bytes, self.cycles_per_byte)
            self._ser_cache[size_bytes] = cycles
        return cycles

    @property
    def is_busy(self) -> bool:
        return self.sim._now < self.busy_until

    def next_free_time(self) -> int:
        """Earliest cycle at which a new message could start serialising."""
        now = self.sim._now
        busy_until = self.busy_until
        return now if now > busy_until else busy_until

    def occupy(self, size_bytes: int) -> int:
        """Claim the link for one message.

        Returns the cycle at which the message has fully arrived at the far
        end (serialisation + propagation).  The caller is responsible for
        only calling this when it has decided to transmit.
        """
        now = self.sim._now
        start = self.busy_until
        if now > start:
            start = now
        ser = self._ser_cache.get(size_bytes)
        if ser is None:
            ser = serialization_cycles_for(size_bytes, self.cycles_per_byte)
            self._ser_cache[size_bytes] = ser
        busy_until = start + ser
        self.busy_until = busy_until
        self.busy_cycles += ser
        return busy_until + self.latency_cycles

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` the link spent serialising data."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed_cycles)

    def reset_stats(self) -> None:
        self.busy_cycles = 0
