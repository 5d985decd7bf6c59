"""The component abstraction.

All hardware structures in the reproduction (cache controllers, directory
controllers, switches, network interfaces, the SafetyNet log, processors)
derive from :class:`Component`.  A component owns statistics counters, has a
stable ``name`` used in reports, and schedules its own events on the
simulator.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.sim.engine import SimulationError, Simulator
from repro.sim.stats import StatsRegistry


class Component:
    """Base class for every simulated hardware structure."""

    def __init__(self, name: str, sim: Simulator, stats: Optional[StatsRegistry] = None) -> None:
        self.name = name
        self.sim = sim
        self.stats = stats if stats is not None else StatsRegistry()
        #: Cache of this component's counters, keyed by the *short* stat
        #: name; avoids an f-string + registry lookup per count() call.
        self._counters: Dict[str, Any] = {}

    # ------------------------------------------------------------- conveniences
    def schedule(self, delay: int, callback: Callable[[], None], *,
                 label: str = "") -> Any:
        """Schedule a callback relative to the current cycle.

        Pushes straight onto the simulator's queue (one call layer less
        than ``sim.schedule``; this is called once or more per event).
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        sim = self.sim
        return sim.queue.push(sim._now + delay, callback, label or self.name)

    def count(self, stat: str, amount: int = 1) -> None:
        """Increment a named counter on this component's stats registry."""
        counter = self._counters.get(stat)
        if counter is None:
            counter = self.stats.counter(f"{self.name}.{stat}")
            self._counters[stat] = counter
        counter.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
