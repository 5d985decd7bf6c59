"""Mis-speculation events and speculation kinds.

These types are the thin interface between the substrates (coherence
controllers, the interconnect, transaction timeouts) and the
speculation-for-simplicity framework: a substrate that detects a rare event
it chose not to design for raises a :class:`MisspeculationEvent`; the
framework decides what to do with it (recover, apply a forward-progress
policy, account for it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional


class SpeculationKind(str, Enum):
    """The three speculative designs of the paper (Table 1), plus injection.

    * ``DIRECTORY_P2P_ORDER`` — Section 3.1: the directory protocol
      speculates that the adaptively routed interconnect delivers messages in
      point-to-point order per virtual network.
    * ``SNOOPING_CORNER_CASE`` — Section 3.2: the snooping protocol treats a
      rare unhandled transient-state transition as a mis-speculation.
    * ``INTERCONNECT_DEADLOCK`` — Section 4: the network speculates that
      deadlock will not occur without virtual channels; a coherence
      transaction timeout detects it when it does.
    * ``INJECTED`` — the stress-test of Section 5.3 / Figure 4, where
      recoveries are triggered periodically regardless of actual
      mis-speculation.
    """

    DIRECTORY_P2P_ORDER = "directory-p2p-order"
    SNOOPING_CORNER_CASE = "snooping-corner-case"
    INTERCONNECT_DEADLOCK = "interconnect-deadlock"
    INJECTED = "injected"


@dataclass
class MisspeculationEvent:
    """One detected mis-speculation.

    Attributes
    ----------
    kind:
        Which speculative design (or the injector) detected the event.
    detected_at:
        Simulation cycle of detection.
    node:
        Node id of the detecting controller (None for system-wide detectors).
    address:
        Memory block address involved, when applicable.
    description:
        Human-readable explanation, e.g. the invalid transition observed.
    details:
        Free-form extra data used by reports and tests.
    """

    kind: SpeculationKind
    detected_at: int
    node: Optional[int] = None
    address: Optional[int] = None
    description: str = ""
    details: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """JSON-safe payload (inverse of :meth:`from_json`)."""
        return {
            "kind": self.kind.value,
            "detected_at": self.detected_at,
            "node": self.node,
            "address": self.address,
            "description": self.description,
            "details": dict(self.details),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "MisspeculationEvent":
        return cls(
            kind=SpeculationKind(payload["kind"]),
            detected_at=payload["detected_at"],
            node=payload.get("node"),
            address=payload.get("address"),
            description=payload.get("description", ""),
            details=dict(payload.get("details", {})),
        )


@dataclass
class RecoveryRecord:
    """Bookkeeping for one completed system recovery."""

    event: MisspeculationEvent
    started_at: int
    recovery_point: int
    resumed_at: int
    work_lost_cycles: int
    messages_squashed: int
    log_entries_undone: int

    @property
    def kind(self) -> SpeculationKind:
        """The speculation kind this recovery is attributed to."""
        return self.event.kind

    @property
    def total_cost_cycles(self) -> int:
        """Cycles of forward progress sacrificed by this recovery."""
        return (self.resumed_at - self.started_at) + self.work_lost_cycles

    def to_json(self) -> Dict[str, Any]:
        """JSON-safe payload (inverse of :meth:`from_json`)."""
        return {
            "event": self.event.to_json(),
            "started_at": self.started_at,
            "recovery_point": self.recovery_point,
            "resumed_at": self.resumed_at,
            "work_lost_cycles": self.work_lost_cycles,
            "messages_squashed": self.messages_squashed,
            "log_entries_undone": self.log_entries_undone,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "RecoveryRecord":
        return cls(
            event=MisspeculationEvent.from_json(payload["event"]),
            started_at=payload["started_at"],
            recovery_point=payload["recovery_point"],
            resumed_at=payload["resumed_at"],
            work_lost_cycles=payload["work_lost_cycles"],
            messages_squashed=payload["messages_squashed"],
            log_entries_undone=payload["log_entries_undone"],
        )
