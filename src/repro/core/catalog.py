"""Catalogue of the three speculative designs (Table 1 of the paper).

Table 1 characterises each application of speculation-for-simplicity along
the four framework features plus the resulting simplification.  The entries
below are the same characterisation, but each row also points at the modules
of this reproduction that implement it, so the table doubles as a map of the
codebase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.events import SpeculationKind


@dataclass(frozen=True)
class SpeculativeMechanism:
    """One application of speculation for simplicity (one column of Table 1)."""

    kind: SpeculationKind
    title: str
    infrequency: str
    detection: str
    recovery: str
    forward_progress: str
    result: str
    implemented_by: str


TABLE1_MECHANISMS: List[SpeculativeMechanism] = [
    SpeculativeMechanism(
        kind=SpeculationKind.DIRECTORY_P2P_ORDER,
        title="Simplify directory protocol by speculating on point-to-point ordering",
        infrequency="re-orderings are rare and most re-orderings do not matter",
        detection="one specific invalid transition in protocol controller",
        recovery="SafetyNet",
        forward_progress="selectively disable adaptive routing during re-execution",
        result="simpler protocol with rare mis-speculations",
        implemented_by=("repro.coherence.directory (SPECULATIVE variant), "
                        "repro.interconnect.routing.AdaptiveMinimalRouting, "
                        "repro.core.forward_progress.DisableAdaptiveRoutingPolicy"),
    ),
    SpeculativeMechanism(
        kind=SpeculationKind.SNOOPING_CORNER_CASE,
        title="Simplify snooping protocol by treating corner case transition as error",
        infrequency="writebacks do not often race with requests to write the block",
        detection="one specific invalid transition in protocol controller",
        recovery="SafetyNet",
        forward_progress="slow-start execution after recovery",
        result="protocol almost never exercises corner case in practice",
        implemented_by=("repro.coherence.snooping (SPECULATIVE variant), "
                        "repro.core.forward_progress.SlowStartPolicy"),
    ),
    SpeculativeMechanism(
        kind=SpeculationKind.INTERCONNECT_DEADLOCK,
        title="Simplify interconnection network by removing virtual channel flow control",
        infrequency="worst-case buffering requirements are rarely needed in practice",
        detection="timeout on cache coherence transaction",
        recovery="SafetyNet",
        forward_progress=("slow-start execution after recovery, with sufficient "
                          "buffering during slow-start"),
        result="simpler network incurs no deadlocks in practice",
        implemented_by=("repro.interconnect (speculative_no_vc=True), "
                        "repro.speculation.detectors.transaction_timeout_cycles, "
                        "repro.core.forward_progress.SlowStartPolicy"),
    ),
]


def mechanism_for(kind: SpeculationKind) -> SpeculativeMechanism:
    """Look up the Table 1 entry for a speculation kind."""
    for mechanism in TABLE1_MECHANISMS:
        if mechanism.kind == kind:
            return mechanism
    raise KeyError(f"no Table 1 mechanism for {kind}")


def table1_rows() -> Dict[str, Dict[str, str]]:
    """Render Table 1 as ``{feature: {mechanism title: cell}}``."""
    features = {
        "(1) Infrequency of mis-speculation": "infrequency",
        "(2) Detection": "detection",
        "(3) Recovery": "recovery",
        "(4) Forward Progress": "forward_progress",
        "Result": "result",
    }
    rows: Dict[str, Dict[str, str]] = {}
    for feature_label, attr in features.items():
        rows[feature_label] = {m.title: getattr(m, attr) for m in TABLE1_MECHANISMS}
    return rows
