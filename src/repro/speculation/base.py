"""The :class:`Speculation` abstract base class.

The paper's central claim is that *speculation is one reusable design
pattern* applied three times: choose not to design for a rare corner case,
detect it cheaply when it happens, recover with SafetyNet, and guarantee
forward progress.  This module captures that pattern as an object with an
explicit lifecycle:

``applies_to(config)``
    Class-level predicate: does this speculative design exist in the system
    a given :class:`~repro.sim.config.SystemConfig` describes?  (S1 only
    exists in a speculative-variant directory system, S2 only in a
    speculative-variant snooping system, the deadlock watchdog in every
    system.)

``arm(system)``
    Wire the detection mechanism into the built system (set controller
    detection flags, install transaction timeouts) and register the
    design's forward-progress policy with the manager.

``on_detection(event, coalesced=...)`` / ``on_recovery(record)``
    Accounting callbacks driven by the
    :class:`~repro.speculation.manager.SpeculationManager` — every
    speculation keeps its own detection/coalesce/recovery counters, which
    replaces the per-controller counters that previously had to be summed
    by hand.

``stats()``
    A JSON-safe snapshot of the above, surfaced through
    :meth:`SpeculationManager.summary`.

Concrete implementations of the paper's three designs plus the Figure 4
injector live in :mod:`repro.speculation.detectors`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Dict, Optional, TYPE_CHECKING

from repro.core.events import MisspeculationEvent, RecoveryRecord, SpeculationKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.config import SystemConfig
    from repro.speculation.manager import SpeculationManager


class Speculation(ABC):
    """One speculative design: detect / recover / forward-progress / account."""

    #: The event kind this design raises and accounts under.
    kind: ClassVar[SpeculationKind]
    #: Paper section implementing the design (documentation surfaced in stats).
    paper_section: ClassVar[str] = ""

    def __init__(self, manager: "SpeculationManager") -> None:
        self.manager = manager
        self.sim = manager.sim
        self.detections = 0
        self.coalesced = 0
        self.recoveries = 0
        #: Label of the system this instance was armed on (None until armed).
        self.armed_on: Optional[str] = None

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def applies_to(cls, config: "SystemConfig") -> bool:
        """Whether the configured system contains this speculative design."""
        return False

    @abstractmethod
    def arm(self, system) -> None:
        """Install detection hooks and the forward-progress policy."""

    # ------------------------------------------------------------- detection
    def report(self, *, node: Optional[int] = None,
               address: Optional[int] = None, description: str = "",
               details: Optional[Dict[str, Any]] = None
               ) -> Optional[RecoveryRecord]:
        """Raise a mis-speculation of this design's kind via the manager."""
        return self.manager.report(MisspeculationEvent(
            kind=self.kind, detected_at=self.sim.now, node=node,
            address=address, description=description,
            details=details if details is not None else {}))

    # ------------------------------------------------------------ accounting
    def on_detection(self, event: MisspeculationEvent, *,
                     coalesced: bool) -> None:
        """Manager callback: one detection of this kind was reported."""
        self.detections += 1
        if coalesced:
            self.coalesced += 1

    def on_recovery(self, record: RecoveryRecord) -> None:
        """Manager callback: a recovery attributed to this kind completed."""
        self.recoveries += 1

    def stats(self) -> Dict[str, Any]:
        """JSON-safe accounting snapshot."""
        return {
            "kind": self.kind.value,
            "paper_section": self.paper_section,
            "armed_on": self.armed_on,
            "detections": self.detections,
            "coalesced": self.coalesced,
            "recoveries": self.recoveries,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(kind={self.kind.value!r}, "
                f"detections={self.detections}, recoveries={self.recoveries})")
