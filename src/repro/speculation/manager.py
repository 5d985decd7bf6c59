"""The speculation manager (one per system).

:class:`SpeculationManager` is the coordinator the rest of the system
reports mis-speculations to; it owns the interaction with SafetyNet.  For
every report it:

1. arbitrates concurrency — recoveries already in progress absorb
   concurrent detections of the same broken state (e.g. several processors
   timing out on the same deadlock), so overlapping mis-speculations
   coalesce into a *single* rollback,
2. asks SafetyNet to perform the system-wide recovery,
3. applies the forward-progress policy registered for the event's
   speculation kind, and
4. accounts for everything per :class:`~repro.core.events.SpeculationKind`
   (counts, rates per scaled second, cost in cycles) so the evaluation
   section's questions — how often do we mis-speculate, and what does each
   recovery cost — can be answered directly.

It is also the uniform attach point for the speculation layer: :meth:`arm`
instantiates each Table 1 design the built system contains and lets each
wire itself into it, which replaces the injector/timeout plumbing the two
system classes used to duplicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.events import MisspeculationEvent, RecoveryRecord, SpeculationKind
from repro.core.forward_progress import ForwardProgressPolicy, NoOpPolicy
from repro.safetynet.manager import SafetyNet
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.speculation.base import Speculation
from repro.speculation.detectors import (
    DirectoryP2POrderSpeculation,
    InterconnectDeadlockSpeculation,
    PeriodicInjectionSpeculation,
    SnoopingCornerCaseSpeculation,
)

#: The paper's three designs in Table 1 order (S1, S2, S3).
TABLE1_DESIGNS = (DirectoryP2POrderSpeculation, SnoopingCornerCaseSpeculation,
                  InterconnectDeadlockSpeculation)


@dataclass
class FrameworkStats:
    """Aggregate accounting of detections and recoveries."""

    detections: int = 0
    coalesced: int = 0
    recoveries: int = 0
    detections_by_kind: Dict[SpeculationKind, int] = field(default_factory=dict)
    recoveries_by_kind: Dict[SpeculationKind, int] = field(default_factory=dict)
    total_recovery_cost_cycles: int = 0


class SpeculationManager:
    """Binds detection, recovery, forward progress and accounting together."""

    def __init__(self, sim: Simulator, safetynet: SafetyNet, *,
                 stats: Optional[StatsRegistry] = None) -> None:
        self.sim = sim
        self.safetynet = safetynet
        self.stats = stats if stats is not None else StatsRegistry()
        self._policies: Dict[SpeculationKind, ForwardProgressPolicy] = {}
        self._default_policy: ForwardProgressPolicy = NoOpPolicy()
        self._attached: Dict[SpeculationKind, Speculation] = {}
        self.events: List[MisspeculationEvent] = []
        self.records: List[RecoveryRecord] = []
        self.framework_stats = FrameworkStats()
        # Every SafetyNet recovery — whoever triggered it — notifies the
        # speculation of the recovered kind, so per-design accounting stays
        # correct even for recoveries initiated outside this manager.
        safetynet.add_recovery_listener(self._notify_recovery)

    # ------------------------------------------------------------------ wiring
    def set_policy(self, kind: SpeculationKind, policy: ForwardProgressPolicy) -> None:
        """Register the forward-progress policy for one speculation kind."""
        self._policies[kind] = policy

    def policy_for(self, kind: SpeculationKind) -> ForwardProgressPolicy:
        return self._policies.get(kind, self._default_policy)

    def attach(self, speculation: Speculation) -> Speculation:
        """Attach a speculation instance (one per kind; latest wins)."""
        self._attached[speculation.kind] = speculation
        return speculation

    def speculation_for(self, kind: SpeculationKind) -> Optional[Speculation]:
        return self._attached.get(kind)

    @property
    def speculations(self) -> List[Speculation]:
        """The attached speculation instances, in attach order."""
        return list(self._attached.values())

    def arm(self, system) -> None:
        """Instantiate and arm each Table 1 design the system contains.

        Each class decides through ``applies_to``: S1 arms only on a
        speculative directory system, S2 only on a speculative snooping
        system, and the deadlock watchdog on every system.
        """
        config = system.config
        for cls in TABLE1_DESIGNS:
            if cls.applies_to(config):
                speculation = self.attach(cls(self))
                speculation.arm(system)
                speculation.armed_on = system.label

    def attach_injector(self, *, rate_per_second: float,
                        cycles_per_second: float):
        """Attach the Figure 4 periodic-recovery injector (uniform entry
        point used by ``System.attach_recovery_injector``)."""
        injector = PeriodicInjectionSpeculation(
            self, rate_per_second=rate_per_second,
            cycles_per_second=cycles_per_second)
        return self.attach(injector)

    # ---------------------------------------------------------------- reporting
    def report(self, event: MisspeculationEvent) -> Optional[RecoveryRecord]:
        """Handle a detected mis-speculation; returns the recovery performed.

        Returns ``None`` when the event was coalesced into a recovery that is
        already in progress (the rolled-back state it observed no longer
        exists).
        """
        fs = self.framework_stats
        fs.detections += 1
        fs.detections_by_kind[event.kind] = fs.detections_by_kind.get(event.kind, 0) + 1
        self.stats.counter(f"speculation.detected.{event.kind.value}").add()
        self.events.append(event)
        speculation = self._attached.get(event.kind)

        if self.sim.now < self.safetynet.stalled_until:
            # A recovery is in flight; this detection observed state that has
            # already been (or is being) rolled back.
            fs.coalesced += 1
            self.stats.counter("speculation.coalesced").add()
            if speculation is not None:
                speculation.on_detection(event, coalesced=True)
            return None

        if speculation is not None:
            speculation.on_detection(event, coalesced=False)
        record = self.safetynet.recover(event)
        self.policy_for(event.kind).apply(event)
        fs.recoveries += 1
        fs.recoveries_by_kind[event.kind] = fs.recoveries_by_kind.get(event.kind, 0) + 1
        fs.total_recovery_cost_cycles += record.total_cost_cycles
        self.records.append(record)
        return record

    def _notify_recovery(self, record: RecoveryRecord) -> None:
        """SafetyNet listener: route the record to the recovered design."""
        speculation = self._attached.get(record.kind)
        if speculation is not None:
            speculation.on_recovery(record)

    # ------------------------------------------------------------------- stats
    def recovery_count(self, kind: Optional[SpeculationKind] = None) -> int:
        if kind is None:
            return self.framework_stats.recoveries
        return self.framework_stats.recoveries_by_kind.get(kind, 0)

    def detection_count(self, kind: Optional[SpeculationKind] = None) -> int:
        if kind is None:
            return self.framework_stats.detections
        return self.framework_stats.detections_by_kind.get(kind, 0)

    def recoveries_per_second(self, elapsed_cycles: int,
                              cycles_per_second: float) -> float:
        """Observed recovery rate in recoveries per (scaled) second."""
        if elapsed_cycles <= 0:
            return 0.0
        seconds = elapsed_cycles / cycles_per_second
        return self.framework_stats.recoveries / seconds if seconds > 0 else 0.0

    def total_recovery_cost_cycles(self) -> int:
        return self.framework_stats.total_recovery_cost_cycles

    def summary(self) -> Dict[str, object]:
        fs = self.framework_stats
        return {
            "detections": fs.detections,
            "coalesced": fs.coalesced,
            "recoveries": fs.recoveries,
            "detections_by_kind": {k.value: v
                                   for k, v in fs.detections_by_kind.items()},
            "recoveries_by_kind": {k.value: v for k, v in fs.recoveries_by_kind.items()},
            "total_recovery_cost_cycles": fs.total_recovery_cost_cycles,
            "speculations": [s.stats() for s in self._attached.values()],
        }
