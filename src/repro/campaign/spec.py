"""Declarative design points: :class:`RunSpec` and :class:`SweepSpec`.

A design point of the paper's evaluation grid (workload x protocol variant x
routing policy x buffer size x injector rate) is *data*, not code: a
:class:`RunSpec` names the complete configuration, the label under which the
run is reported, and the injector knobs.  Because it is data it can be

* hashed — :meth:`RunSpec.content_hash` is a stable digest of the canonical
  JSON form, used as the on-disk cache key by the executor layer;
* shipped to another process — the parallel executor pickles specs, not
  systems; and
* grouped — a :class:`SweepSpec` is an ordered, named collection of specs
  that an executor runs as one batch.

The executor layer (:mod:`repro.campaign.executor`) is the only place that
turns a spec into a built system.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.config import (
    CacheConfig,
    CheckpointConfig,
    InterconnectConfig,
    ProcessorConfig,
    ProtocolKind,
    ProtocolVariant,
    RoutingPolicy,
    SpeculationConfig,
    SystemConfig,
    TopologyConfig,
    WorkloadConfig,
)

#: Version tag baked into every content hash; bump when the canonical spec
#: encoding changes so stale cache entries can never be confused for fresh.
SPEC_SCHEMA = "repro.campaign.spec/v2"


def _jsonable(value: Any) -> Any:
    """Recursively coerce dataclass/enum values into JSON-safe primitives."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Canonical JSON-safe dictionary form of a :class:`SystemConfig`.

    Every field is encoded, so two configurations hash alike exactly when
    they are equal.
    """
    return _jsonable(asdict(config))


def canonical_json(payload: Any) -> str:
    """The one canonical JSON encoding used for hashing and byte comparison."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_from_dict(payload: Dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from its canonical dictionary form.

    The exact inverse of :func:`config_to_dict` — the round trip
    ``config_to_dict(config_from_dict(d)) == d`` holds for every canonical
    encoding, so a design point shipped through a campaign manifest (JSON on
    a shared store, rebuilt by a worker on any host) re-hashes to the same
    content hash the submitting process wrote.
    """
    interconnect = dict(payload["interconnect"])
    interconnect["topology"] = TopologyConfig(**interconnect["topology"])
    interconnect["routing"] = RoutingPolicy(interconnect["routing"])
    return SystemConfig(
        num_processors=payload["num_processors"],
        protocol=ProtocolKind(payload["protocol"]),
        variant=ProtocolVariant(payload["variant"]),
        l1=CacheConfig(**payload["l1"]),
        l2=CacheConfig(**payload["l2"]),
        memory_bytes=payload["memory_bytes"],
        block_bytes=payload["block_bytes"],
        memory_latency_cycles=payload["memory_latency_cycles"],
        processor=ProcessorConfig(**payload["processor"]),
        interconnect=InterconnectConfig(**interconnect),
        checkpoint=CheckpointConfig(**payload["checkpoint"]),
        speculation=SpeculationConfig(**payload["speculation"]),
        workload=WorkloadConfig(**payload["workload"]),
        cycles_per_second=payload["cycles_per_second"],
    )


def spec_from_json(payload: Dict[str, Any]) -> "RunSpec":
    """Rebuild a :class:`RunSpec` from :meth:`RunSpec.to_json` output."""
    schema = payload.get("schema")
    if schema != SPEC_SCHEMA:
        raise ValueError(f"unsupported spec schema {schema!r}")
    return RunSpec(
        config=config_from_dict(payload["config"]),
        label=payload.get("label"),
        recovery_rate_per_second=payload.get("recovery_rate_per_second"),
        max_cycles=payload.get("max_cycles"),
    )


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One design point: a complete system configuration plus run knobs.

    ``recovery_rate_per_second`` distinguishes three cases deliberately:
    ``None`` means no injector at all, ``0.0`` means an injector that is
    attached but never fires (the Figure 4 zero-rate control), and a positive
    rate injects periodic recoveries.
    """

    config: SystemConfig
    label: Optional[str] = None
    recovery_rate_per_second: Optional[float] = None
    max_cycles: Optional[int] = None

    @property
    def workload(self) -> str:
        return self.config.workload.name

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": SPEC_SCHEMA,
            "config": config_to_dict(self.config),
            "label": self.label,
            "recovery_rate_per_second": self.recovery_rate_per_second,
            "max_cycles": self.max_cycles,
        }

    def content_hash(self) -> str:
        """Stable digest of the canonical spec encoding (the cache key)."""
        return hashlib.sha256(
            canonical_json(self.to_json()).encode("utf-8")).hexdigest()[:20]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __hash__(self) -> int:
        return hash(self.content_hash())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunSpec({self.workload!r}, label={self.label!r}, "
                f"hash={self.content_hash()[:8]})")


@dataclass(frozen=True)
class SweepSpec:
    """A named, ordered batch of design points run together.

    Experiments build one sweep per phase (e.g. "all Figure 5 static and
    adaptive runs") and hand it to an executor; results come back in spec
    order regardless of execution order, so reports are deterministic under
    parallel execution.
    """

    name: str
    specs: Tuple[RunSpec, ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, name: str, specs: Iterable[RunSpec]) -> "SweepSpec":
        return cls(name=name, specs=tuple(specs))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def labels(self) -> List[str]:
        return [spec.label or spec.workload for spec in self.specs]

    def content_hash(self) -> str:
        payload = {"schema": SPEC_SCHEMA, "name": self.name,
                   "specs": [spec.content_hash() for spec in self.specs]}
        return hashlib.sha256(
            canonical_json(payload).encode("utf-8")).hexdigest()[:20]
