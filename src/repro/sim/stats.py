"""Statistics collection.

Every experiment in the paper reduces to a handful of aggregate statistics:
message counts per virtual network, reordering counts, recovery counts, link
utilisation, and end-to-end runtime.  The classes here are deliberately
simple (counters, histograms); counters are aggregated through a
:class:`StatsRegistry` that the system builder shares across components so
reports can be produced from one place.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple


class Counter:
    """A monotonically growing named counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A bucketed histogram for latency-like quantities."""

    def __init__(self, name: str, bucket_width: int = 16) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.name = name
        self.bucket_width = bucket_width
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, value: int) -> None:
        bucket = value // self.bucket_width
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> int:
        """Approximate percentile using bucket upper bounds."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.count == 0:
            return 0
        target = max(1, math.ceil(self.count * fraction))
        running = 0
        for bucket in sorted(self.buckets):
            running += self.buckets[bucket]
            if running >= target:
                return (bucket + 1) * self.bucket_width - 1
        return (max(self.buckets) + 1) * self.bucket_width - 1


class StatsRegistry:
    """A flat namespace of counters shared by a system."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    # -------------------------------------------------------------- factories
    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    # ---------------------------------------------------------------- queries
    def counters(self, prefix: str = "") -> Dict[str, int]:
        """Return ``{name: value}`` for all counters whose name has ``prefix``."""
        return {name: counter.value
                for name, counter in self._counters.items()
                if name.startswith(prefix)}

    def total(self, prefix: str) -> int:
        """Sum of every counter whose name starts with ``prefix``."""
        return sum(c.value for name, c in self._counters.items()
                   if name.startswith(prefix))

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()

    # --------------------------------------------------------------- reporting
    def as_rows(self, prefix: str = "") -> List[Tuple[str, int]]:
        """Sorted (name, value) rows for report printing."""
        return sorted(self.counters(prefix).items())

    def merge_from(self, other: "StatsRegistry") -> None:
        """Fold another registry's counters into this one (used by sweeps)."""
        for name, counter in other._counters.items():
            self.counter(name).add(counter.value)


def weighted_mean(pairs: Iterable[Tuple[float, float]]) -> float:
    """Weighted mean of ``(value, weight)`` pairs; 0.0 for empty input."""
    total_weight = 0.0
    total = 0.0
    for value, weight in pairs:
        total += value * weight
        total_weight += weight
    return total / total_weight if total_weight else 0.0
