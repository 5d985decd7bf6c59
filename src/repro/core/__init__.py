"""Speculation-for-simplicity framework (the paper's primary contribution).

The framework of Section 2 specifies four features a speculative design must
provide; this package implements them as composable pieces:

1. **Infrequency** — not a mechanism but a property; the manager records
   every detection and every recovery once, in its ``events`` and
   ``records`` lists, so experiments can verify it
   (:class:`repro.speculation.manager.SpeculationManager`).
2. **Detection** — detection logic lives where the paper puts it (inside the
   cache controllers as "one specific invalid transition", and as a
   transaction timeout armed by the ``interconnect-deadlock`` speculation);
   the periodic recovery injector used by the Figure 4 stress test is the
   ``injected`` speculation.
3. **Recovery** — delegated to :class:`repro.safetynet.SafetyNet`.
4. **Forward progress** — :mod:`repro.core.forward_progress` implements the
   two policies the paper uses: selectively disabling adaptive routing, and
   "slow-start" restriction of outstanding coherence transactions.

The pattern itself — one reusable arm/detect/recover lifecycle, applied
three times — is rendered by the
:mod:`repro.speculation` package; this package keeps the event vocabulary
(:mod:`repro.core.events`), the policies and the Table 1 catalog
(:mod:`repro.core.catalog`).
"""

from repro.core.events import MisspeculationEvent, RecoveryRecord, SpeculationKind
from repro.core.forward_progress import (
    CombinedPolicy,
    DisableAdaptiveRoutingPolicy,
    ForwardProgressPolicy,
    NoOpPolicy,
    SlowStartGate,
    SlowStartPolicy,
)
from repro.core.catalog import SpeculativeMechanism, TABLE1_MECHANISMS, table1_rows

__all__ = [
    "MisspeculationEvent",
    "RecoveryRecord",
    "SpeculationKind",
    "ForwardProgressPolicy",
    "NoOpPolicy",
    "DisableAdaptiveRoutingPolicy",
    "SlowStartPolicy",
    "SlowStartGate",
    "CombinedPolicy",
    "SpeculativeMechanism",
    "TABLE1_MECHANISMS",
    "table1_rows",
]
