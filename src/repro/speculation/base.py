"""The :class:`Speculation` abstract base class.

The paper's central claim is that *speculation is one reusable design
pattern* applied three times: choose not to design for a rare corner case,
detect it cheaply when it happens, recover with SafetyNet, and guarantee
forward progress.  This module captures that pattern as an object with a
two-step lifecycle:

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

A design keeps no accounting of its own.  Its detection sites report to
the :class:`~repro.speculation.manager.SpeculationManager`, which records
each detection and each recovery exactly once.

Concrete implementations of the paper's three designs plus the Figure 4
injector live in :mod:`repro.speculation.detectors`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, TYPE_CHECKING

from repro.core.events import SpeculationKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.config import SystemConfig
    from repro.speculation.manager import SpeculationManager


class Speculation(ABC):
    """One speculative design: where it exists and how it is wired in."""

    #: The event kind this design raises and its recoveries are recorded as.
    kind: ClassVar[SpeculationKind]

    def __init__(self, manager: "SpeculationManager") -> None:
        self.manager = manager
        self.sim = manager.sim

    @classmethod
    def applies_to(cls, config: "SystemConfig") -> bool:
        """Whether the configured system contains this speculative design."""
        return False

    @abstractmethod
    def arm(self, system) -> None:
        """Install detection hooks and the forward-progress policy."""
