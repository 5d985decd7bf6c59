"""The unified speculation subsystem.

The paper's thesis — speculation as a *single reusable design pattern*
(detect a rare corner case, recover via SafetyNet, guarantee forward
progress) applied three times — is rendered here as one layer:

* :class:`Speculation` — the ABC capturing the ``applies_to`` / ``arm``
  lifecycle (:mod:`repro.speculation.base`);
* the paper's S1/S2/S3 designs plus the Figure 4 injector as concrete
  implementations, each named by its
  :class:`repro.core.events.SpeculationKind`
  (:mod:`repro.speculation.detectors`);
* :class:`SpeculationManager` — one per system; owns the SafetyNet
  interaction, coalesces concurrent detections into a single rollback,
  records every detection (``events``) and every recovery (``records``)
  once, and arms each Table 1 design whose ``applies_to`` holds for the
  configuration (:mod:`repro.speculation.manager`).
"""

from repro.speculation.base import Speculation
from repro.speculation.detectors import (
    DirectoryP2POrderSpeculation,
    InterconnectDeadlockSpeculation,
    PeriodicInjectionSpeculation,
    SnoopingCornerCaseSpeculation,
    transaction_timeout_cycles,
)
from repro.speculation.manager import SpeculationManager

__all__ = [
    "Speculation",
    "SpeculationManager",
    "DirectoryP2POrderSpeculation",
    "SnoopingCornerCaseSpeculation",
    "InterconnectDeadlockSpeculation",
    "PeriodicInjectionSpeculation",
    "transaction_timeout_cycles",
]
