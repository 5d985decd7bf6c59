"""The speculation manager (one per system).

:class:`SpeculationManager` is the coordinator the rest of the system
reports mis-speculations to; it owns the interaction with SafetyNet.  For
every report it:

1. records the detection in :attr:`~SpeculationManager.events`,
2. arbitrates concurrency — recoveries already in progress absorb
   concurrent detections of the same broken state (e.g. several processors
   timing out on the same deadlock), so overlapping mis-speculations
   coalesce into a *single* rollback,
3. otherwise asks SafetyNet to perform the system-wide recovery, applies
   the forward-progress policy registered for the event's speculation kind
   and records the recovery in :attr:`~SpeculationManager.records`.

The two lists are the one record of what was detected and recovered; the
evaluation section's questions — how often do we mis-speculate, and what
does each recovery cost — are answered from them
(:meth:`repro.system.base.System._collect_results` derives every count
of a :class:`~repro.system.results.RunResult` from them).

It is also where the speculation layer attaches: :meth:`arm` instantiates
each Table 1 design the built system contains and lets each wire itself
into it, which replaces the injector/timeout plumbing the two system
classes used to duplicate.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.events import MisspeculationEvent, RecoveryRecord, SpeculationKind
from repro.core.forward_progress import ForwardProgressPolicy, NoOpPolicy
from repro.safetynet.manager import SafetyNet
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.speculation.detectors import (
    DirectoryP2POrderSpeculation,
    InterconnectDeadlockSpeculation,
    SnoopingCornerCaseSpeculation,
)

#: The paper's three designs in Table 1 order (S1, S2, S3).
TABLE1_DESIGNS = (DirectoryP2POrderSpeculation, SnoopingCornerCaseSpeculation,
                  InterconnectDeadlockSpeculation)


class SpeculationManager:
    """Binds detection, recovery and forward progress together."""

    def __init__(self, sim: Simulator, safetynet: SafetyNet, *,
                 stats: Optional[StatsRegistry] = None) -> None:
        self.sim = sim
        self.safetynet = safetynet
        self.stats = stats if stats is not None else StatsRegistry()
        self._policies: Dict[SpeculationKind, ForwardProgressPolicy] = {}
        self._default_policy: ForwardProgressPolicy = NoOpPolicy()
        #: Every reported detection, in report order.
        self.events: List[MisspeculationEvent] = []
        #: Every recovery performed, in order: one per detection that was
        #: not coalesced into a recovery already in flight.
        self.records: List[RecoveryRecord] = []

    # ------------------------------------------------------------------ wiring
    def set_policy(self, kind: SpeculationKind, policy: ForwardProgressPolicy) -> None:
        """Register the forward-progress policy for one speculation kind."""
        self._policies[kind] = policy

    def policy_for(self, kind: SpeculationKind) -> ForwardProgressPolicy:
        return self._policies.get(kind, self._default_policy)

    def arm(self, system) -> None:
        """Instantiate and arm each Table 1 design the system contains.

        Each class decides through ``applies_to``: S1 arms only on a
        speculative directory system, S2 only on a speculative snooping
        system, and the deadlock watchdog on every system.
        """
        for cls in TABLE1_DESIGNS:
            if cls.applies_to(system.config):
                cls(self).arm(system)

    # ---------------------------------------------------------------- reporting
    def report(self, event: MisspeculationEvent) -> Optional[RecoveryRecord]:
        """Handle a detected mis-speculation; returns the recovery performed.

        Returns ``None`` when the event was coalesced into a recovery that is
        already in progress (the rolled-back state it observed no longer
        exists).
        """
        self.events.append(event)
        self.stats.counter(f"speculation.detected.{event.kind.value}").add()
        if self.sim.now < self.safetynet.stalled_until:
            # A recovery is in flight; this detection observed state that has
            # already been (or is being) rolled back.
            self.stats.counter("speculation.coalesced").add()
            return None
        record = self.safetynet.recover(event)
        self.policy_for(event.kind).apply(event)
        self.records.append(record)
        return record
