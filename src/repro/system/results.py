"""Results of one simulated run."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List

from repro.core.events import RecoveryRecord, SpeculationKind

#: Schema tag embedded in every serialized result; consumers (the result
#: cache, the runner's ``--json`` report) check it before trusting a payload.
#: v2: ``detections_by_kind`` added — v1 cache entries would deserialize
#: with it silently empty while fresh runs populate it, so they are
#: rejected (the result cache treats the rejection as a miss and
#: re-simulates).
RESULT_SCHEMA = "repro.system.results/v2"


@dataclass
class RunResult:
    """Everything an experiment needs from one completed simulation.

    ``runtime_cycles`` is the primary performance metric (lower is better);
    the paper's "normalized performance" for a configuration is
    ``baseline.runtime_cycles / this.runtime_cycles``.
    """

    workload: str
    config_label: str
    runtime_cycles: int
    references_completed: int
    instructions_retired: int
    finished: bool
    #: Mis-speculation / recovery accounting.  The ``*_by_kind`` maps are
    #: keyed by :class:`SpeculationKind` values and survive the JSON
    #: round-trip unchanged.
    detections: int = 0
    recoveries: int = 0
    detections_by_kind: Dict[str, int] = field(default_factory=dict)
    recoveries_by_kind: Dict[str, int] = field(default_factory=dict)
    recovery_records: List[RecoveryRecord] = field(default_factory=list)
    #: Interconnect measurements.
    messages_delivered: int = 0
    mean_message_latency: float = 0.0
    mean_link_utilization: float = 0.0
    peak_link_utilization: float = 0.0
    reorder_rate_overall: float = 0.0
    reorder_rate_by_vnet: Dict[str, float] = field(default_factory=dict)
    #: Cache behaviour.
    l2_misses: int = 0
    l2_hits: int = 0
    #: SafetyNet behaviour.
    checkpoints_taken: int = 0
    peak_log_entries: int = 0
    #: Simulation-kernel events executed by the run.  Deterministic (unlike
    #: wall-clock), so it can appear in byte-compared reports; the
    #: ``topology_scale`` experiment derives its events-per-simulated-second
    #: throughput metric from it.
    events_executed: int = 0
    #: Raw counter dump (prefix-filtered views are cheap to build from this).
    counters: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ derived
    @property
    def l2_miss_rate(self) -> float:
        total = self.l2_misses + self.l2_hits
        return self.l2_misses / total if total else 0.0

    @property
    def cycles_per_reference(self) -> float:
        if self.references_completed == 0:
            return 0.0
        return self.runtime_cycles / self.references_completed

    def normalized_to(self, baseline: "RunResult") -> float:
        """Normalized performance relative to a baseline run (1.0 = equal)."""
        if self.runtime_cycles <= 0:
            return 0.0
        return baseline.runtime_cycles / self.runtime_cycles

    def recoveries_of(self, kind: SpeculationKind) -> int:
        return self.recoveries_by_kind.get(kind.value, 0)

    def detections_of(self, kind: SpeculationKind) -> int:
        return self.detections_by_kind.get(kind.value, 0)

    # -------------------------------------------------------------- serialization
    def to_json(self) -> Dict[str, Any]:
        """JSON-safe payload; :meth:`from_json` is the exact inverse.

        The payload is pure data (ints, floats, strings, dicts), so
        ``json.dumps(result.to_json(), sort_keys=True)`` is a canonical,
        byte-comparable encoding of a run — the determinism tests and the
        executor result cache rely on that.
        """
        payload: Dict[str, Any] = {"schema": RESULT_SCHEMA}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "recovery_records":
                value = [record.to_json() for record in value]
            elif spec.name in ("detections_by_kind", "recoveries_by_kind",
                               "reorder_rate_by_vnet", "counters"):
                value = dict(value)
            payload[spec.name] = value
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_json` output."""
        schema = payload.get("schema", RESULT_SCHEMA)
        if schema != RESULT_SCHEMA:
            raise ValueError(f"unsupported result schema {schema!r}")
        kwargs: Dict[str, Any] = {}
        for spec in fields(cls):
            if spec.name not in payload:
                continue
            value = payload[spec.name]
            if spec.name == "recovery_records":
                value = [RecoveryRecord.from_json(record) for record in value]
            kwargs[spec.name] = value
        return cls(**kwargs)

    def summary_line(self) -> str:
        """One-line human readable summary (used by example scripts).

        Recoveries are broken down per speculation kind when any happened,
        e.g. ``recoveries=3 (injected=2, interconnect-deadlock=1)`` — kinds
        sorted by name for stable output.
        """
        recoveries = f"recoveries={self.recoveries}"
        by_kind = {k: v for k, v in sorted(self.recoveries_by_kind.items()) if v}
        if by_kind:
            detail = ", ".join(f"{kind}={count}" for kind, count in by_kind.items())
            recoveries += f" ({detail})"
        return (f"{self.workload:>10s} [{self.config_label}] "
                f"runtime={self.runtime_cycles} cycles, "
                f"refs={self.references_completed}, "
                f"L2 miss rate={self.l2_miss_rate:.3f}, "
                f"{recoveries}, "
                f"link util={self.mean_link_utilization:.2%}")
