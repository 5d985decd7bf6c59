"""The unified speculation subsystem.

The paper's thesis — speculation as a *single reusable design pattern*
(detect a rare corner case, recover via SafetyNet, guarantee forward
progress) applied three times — is rendered here as a pluggable layer,
mirroring the experiment registry (:mod:`repro.campaign`) and the topology
registry (:mod:`repro.interconnect.topology`):

* :class:`Speculation` — the ABC capturing the arm / detect / on_recovery /
  stats lifecycle (:mod:`repro.speculation.base`);
* :func:`register_speculation` — the registry keyed by the stable names of
  :class:`repro.core.events.SpeculationKind`
  (:mod:`repro.speculation.registry`);
* the paper's S1/S2/S3 designs plus the Figure 4 injector as concrete
  implementations (:mod:`repro.speculation.detectors`);
* :class:`SpeculationManager` — one per system; owns the SafetyNet
  interaction, coalesces concurrent detections into a single rollback,
  keeps per-kind accounting and arms whatever the configuration enables
  (:mod:`repro.speculation.manager`).
"""

from repro.speculation.base import Speculation
from repro.speculation.detectors import (
    DirectoryP2POrderSpeculation,
    InterconnectDeadlockSpeculation,
    PeriodicInjectionSpeculation,
    SnoopingCornerCaseSpeculation,
    transaction_timeout_cycles,
)
from repro.speculation.manager import FrameworkStats, SpeculationManager
from repro.speculation.registry import (
    get_speculation,
    register_speculation,
    speculation_names,
)

__all__ = [
    "Speculation",
    "SpeculationManager",
    "FrameworkStats",
    "register_speculation",
    "get_speculation",
    "speculation_names",
    "DirectoryP2POrderSpeculation",
    "SnoopingCornerCaseSpeculation",
    "InterconnectDeadlockSpeculation",
    "PeriodicInjectionSpeculation",
    "transaction_timeout_cycles",
]
