"""System configuration (Table 2 of the paper, plus reproduction knobs).

The paper's target system is a 16-node shared-memory multiprocessor:

==============================  =============================================
L1 cache (I and D)              128 KB, 4-way set associative
L2 cache                        4 MB, 4-way set associative
Memory                          2 GB, 64-byte blocks
Miss from memory                180 ns (uncontended, 2-hop)
Interconnect link bandwidth     400 MB/s to 3.2 GB/s
Checkpoint log buffer           512 KB total, 72-byte entries
Checkpoint interval             100,000 cycles (directory), 3,000 requests
                                (snooping)
Register checkpoint latency     100 cycles
==============================  =============================================

Reproduction-specific knobs (documented in DESIGN.md):

* ``cycles_per_second`` maps simulated cycles onto the "seconds" used by the
  recovery-rate experiments; the paper's nominal value is 4e9 (a 4 GHz core),
  the benchmark default is 1e6 so sweeps finish in laptop time.  Performance
  *ratios* — which is what Figure 4 plots — are preserved under this scaling.
* Cache/memory sizes may be scaled down for tests; the defaults below follow
  Table 2 and the scaled presets are provided by :func:`SystemConfig.small`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Dict, Mapping, Optional, Tuple

#: Coherence block size in bytes (Table 2).  The single source of truth for
#: every default that must agree on it: cache geometry, system memory layout
#: and synthetic workload address generation
#: (:func:`repro.workloads.registry.make_workload`).
DEFAULT_BLOCK_BYTES = 64

#: Root seed of the deterministic RNG tree when a caller does not choose one.
#: Shared by :class:`WorkloadConfig` and
#: :func:`repro.workloads.registry.make_workload` so the two entry points can
#: never drift apart.
DEFAULT_WORKLOAD_SEED = 1


class RoutingPolicy(str, Enum):
    """Interconnect routing policy."""

    STATIC = "static"          #: deterministic dimension-order routing
    ADAPTIVE = "adaptive"      #: minimal adaptive routing (queue-length based)


class ProtocolKind(str, Enum):
    """Which coherence protocol the system is built with."""

    DIRECTORY = "directory"
    SNOOPING = "snooping"


class ProtocolVariant(str, Enum):
    """Full (corner cases handled) vs. speculative (corner cases detected)."""

    FULL = "full"
    SPECULATIVE = "speculative"


@dataclass
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    associativity: int
    block_bytes: int = DEFAULT_BLOCK_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.block_bytes <= 0:
            raise ValueError("cache parameters must be positive")
        if self.size_bytes % (self.associativity * self.block_bytes):
            raise ValueError(
                "cache size must be a multiple of associativity * block size")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.block_bytes)

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes


@dataclass
class ProcessorConfig:
    """Simple blocking, in-order processor model (Section 5.1)."""

    frequency_hz: float = 4.0e9
    instructions_per_cycle: float = 1.0
    #: Non-memory instructions executed between two memory references; used
    #: to convert a memory-reference stream into elapsed "compute" cycles.
    mean_instructions_between_refs: float = 3.0
    l1_hit_cycles: int = 1
    l2_hit_cycles: int = 12


@dataclass
class TopologyConfig:
    """Which interconnect geometry to build: a registry kind plus dimensions.

    ``kind`` names a class registered in
    :mod:`repro.interconnect.topology` (``torus``, ``mesh``, ``ring``);
    ``dims`` is its dimension vector — ``(width, height)`` for the 2D
    geometries, ``(num_nodes,)`` for the ring.  By registry convention the
    switch count is always ``product(dims)``, which lets this module
    validate node counts without importing geometry code.
    """

    kind: str = "torus"
    dims: Tuple[int, ...] = (4, 4)

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ValueError("topology kind must be a non-empty string")
        dims = tuple(int(d) for d in self.dims)  # normalise JSON lists
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"topology dims must be positive, got {self.dims!r}")
        self.dims = dims

    @property
    def num_switches(self) -> int:
        return math.prod(self.dims)

    def describe(self) -> str:
        return f"{'x'.join(str(d) for d in self.dims)} {self.kind}"

    @classmethod
    def preset(cls, kind: str, num_nodes: int) -> "TopologyConfig":
        """A ``kind`` geometry of ``num_nodes`` switches.

        2D kinds get the most-square factorisation (4 -> 2x2, 16 -> 4x4,
        64 -> 8x8, 12 -> 3x4; primes degrade to a 1-wide grid); the ring
        gets exactly ``num_nodes`` switches.
        """
        if num_nodes < 1:
            raise ValueError(f"topology preset needs num_nodes >= 1, "
                             f"got {num_nodes}")
        if kind == "ring":
            return cls(kind="ring", dims=(num_nodes,))
        width = math.isqrt(num_nodes)
        while num_nodes % width:
            width -= 1
        return cls(kind=kind, dims=(width, num_nodes // width))


@dataclass
class InterconnectConfig:
    """Interconnect parameters (geometry, bandwidth, buffering, routing)."""

    #: The geometry; the default 4x4 torus is the paper's 16-node machine.
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    link_bandwidth_bytes_per_sec: float = 400e6
    link_latency_cycles: int = 8
    #: Per-input-port buffer capacity in messages (the buffer-sweep knob).
    switch_buffer_capacity: int = 16
    #: Number of virtual networks (message classes); the directory protocol
    #: uses four: Request, ForwardedRequest, Response, FinalAck.
    virtual_networks: int = 4
    #: Virtual channels per virtual network; 2 suffice for static routing on
    #: a torus, adaptive routing needs one extra escape channel.  Values
    #: below 1 build one channel per virtual network; only
    #: ``speculative_no_vc`` selects the speculative no-VC design.
    virtual_channels_per_network: int = 2
    routing: RoutingPolicy = RoutingPolicy.STATIC
    #: Control/coherence message size and data message size in bytes.
    control_message_bytes: int = 8
    data_message_bytes: int = 72
    #: The S3 design of Table 1: when True the network is the speculatively
    #: simplified design of Section 4, with no virtual channels/networks;
    #: all classes share buffers.
    speculative_no_vc: bool = False
    #: In the no-VC design, a network interface stops ingesting messages
    #: while its own outbound queue is this deep (it has nowhere to put the
    #: replies the ingested messages would generate).  This is the coupling
    #: that makes endpoint/switch deadlock reachable when buffering is
    #: insufficient; virtual networks remove it by construction, so the
    #: limit is ignored when virtual channels are enabled.
    nic_injection_limit: int = 8

    @property
    def num_switches(self) -> int:
        """Switch count of the geometry (``product(dims)``)."""
        return self.topology.num_switches

    def link_cycles_per_byte(self, frequency_hz: float) -> float:
        """Cycles needed to serialise one byte on a link."""
        return frequency_hz / self.link_bandwidth_bytes_per_sec

    def serialization_cycles(self, message_bytes: int, frequency_hz: float) -> int:
        """Cycles to push ``message_bytes`` through one link.

        Same explicit floor+half-up rounding as
        :func:`repro.interconnect.link.serialization_cycles_for` (banker's
        rounding would make .5-cycle boundaries alternate by parity).
        """
        return max(1, int(message_bytes * self.link_cycles_per_byte(frequency_hz) + 0.5))


@dataclass
class CheckpointConfig:
    """SafetyNet parameters (Table 2)."""

    log_buffer_bytes: int = 512 * 1024
    log_entry_bytes: int = 72
    #: Checkpoint interval for the directory system, in cycles.
    directory_interval_cycles: int = 100_000
    #: Checkpoint interval for the snooping system, in requests.
    snooping_interval_requests: int = 3_000
    register_checkpoint_latency_cycles: int = 100
    #: Fixed latency of a system-wide recovery, on top of re-executing the
    #: work lost since the recovery point.
    recovery_latency_cycles: int = 20_000
    #: Number of checkpoints kept outstanding (un-committed).
    outstanding_checkpoints: int = 3

    @property
    def log_entries(self) -> int:
        return self.log_buffer_bytes // self.log_entry_bytes


@dataclass
class SpeculationConfig:
    """Knobs of the speculation-for-simplicity framework.

    The Table 1 designs themselves are chosen elsewhere, one field each:
    S1 and S2 by :attr:`SystemConfig.variant` (the speculative variant of
    the configured protocol) and S3 by
    :attr:`InterconnectConfig.speculative_no_vc`.  What remains here are the
    detection timeout and the forward-progress windows.
    """

    #: Transaction timeout for deadlock detection, in checkpoint intervals.
    timeout_checkpoint_intervals: int = 3
    #: Forward progress: cycles for which adaptive routing stays disabled
    #: after a recovery caused by a reordering mis-speculation.
    adaptive_routing_disable_cycles: int = 200_000
    #: Forward progress: maximum outstanding coherence transactions while in
    #: slow-start mode.
    slow_start_max_outstanding: int = 1
    #: Cycles spent in slow-start after a recovery before returning to full
    #: concurrency.
    slow_start_cycles: int = 100_000


@dataclass
class WorkloadConfig:
    """Parameters of a synthetic workload run.

    ``name`` selects a family registered in :mod:`repro.workloads.registry`
    (the five paper profiles plus the parameterized scenario families);
    construction fails fast — listing the registered names — so a typo'd
    campaign axis dies before any simulation starts rather than mid-run
    inside ``load_workload``.  ``params`` optionally overrides the family's
    default parameters; ``None`` (the default) means "family defaults".
    """

    name: str = "jbb"
    #: Memory references issued per processor for one measured run.
    references_per_processor: int = 20_000
    #: Root seed for the deterministic RNG tree.
    seed: int = DEFAULT_WORKLOAD_SEED
    #: Std-dev (in cycles) of the pseudo-random memory-latency perturbation.
    latency_jitter_cycles: int = 2
    #: Family-specific parameter overrides; ``None`` means the registered
    #: family's defaults.
    params: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.params is not None:
            if not isinstance(self.params, Mapping):
                raise ValueError(
                    f"workload params must be a mapping, got {self.params!r}")
            # An empty mapping means "family defaults" — the same design
            # point as None; normalise so the two cannot hash apart.
            self.params = ({str(k): v for k, v in self.params.items()}
                           or None)
        # Imported lazily: this bottom-layer module must stay importable
        # without the workload package, and the registry imports the
        # defaults defined above.
        from repro.workloads.registry import validate_workload

        validate_workload(self.name, self.params)


@dataclass
class SystemConfig:
    """Complete configuration of one simulated target system."""

    num_processors: int = 16
    protocol: ProtocolKind = ProtocolKind.DIRECTORY
    variant: ProtocolVariant = ProtocolVariant.SPECULATIVE
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(128 * 1024, 4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(4 * 1024 * 1024, 4))
    memory_bytes: int = 2 * 1024 ** 3
    block_bytes: int = DEFAULT_BLOCK_BYTES
    memory_latency_cycles: int = 180 * 4  # 180 ns at 4 GHz
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    speculation: SpeculationConfig = field(default_factory=SpeculationConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: Simulated cycles per "second" for recovery-rate style experiments.
    cycles_per_second: float = 4.0e9

    def __post_init__(self) -> None:
        if self.num_processors <= 0:
            raise ValueError("num_processors must be positive")
        if self.block_bytes != self.l1.block_bytes or self.block_bytes != self.l2.block_bytes:
            raise ValueError("block size must match across memory and caches")
        topo = self.interconnect.topology
        if topo.num_switches < self.num_processors:
            raise ValueError(
                f"{topo.describe()} cannot host {self.num_processors} nodes")

    # ------------------------------------------------------------------ presets
    @classmethod
    def paper_defaults(cls) -> "SystemConfig":
        """The Table 2 target system."""
        return cls()

    @classmethod
    def small(cls, num_processors: int = 4, references: int = 2_000,
              seed: int = 1) -> "SystemConfig":
        """A scaled-down system for unit tests and quick examples.

        The rule: this preset builds a torus with **exactly** one switch per
        processor (width 2 up to four processors, width 4 beyond).  A
        ``num_processors`` that does not tile that grid used to silently
        produce a torus with idle extra switches — geometry the experiments
        never asked for; it now raises.  Callers who want a non-square node
        count should pass an explicit :class:`TopologyConfig` (e.g. a
        ``ring`` of exactly ``num_processors`` switches) via
        ``with_updates``.
        """
        width = 2 if num_processors <= 4 else 4
        if num_processors % width:
            raise ValueError(
                f"SystemConfig.small: {num_processors} processors do not tile a "
                f"{width}-wide torus; pass an explicit TopologyConfig (e.g. "
                f"ring of {num_processors}) instead of relying on the preset grid")
        height = num_processors // width
        cfg = cls(
            num_processors=num_processors,
            l1=CacheConfig(8 * 1024, 2),
            l2=CacheConfig(64 * 1024, 4),
            memory_bytes=16 * 1024 * 1024,
            memory_latency_cycles=100,
            interconnect=InterconnectConfig(
                topology=TopologyConfig("torus", (width, height)),
                link_latency_cycles=4,
                switch_buffer_capacity=16,
            ),
            checkpoint=CheckpointConfig(
                directory_interval_cycles=5_000,
                snooping_interval_requests=200,
                recovery_latency_cycles=2_000,
            ),
            workload=WorkloadConfig(references_per_processor=references, seed=seed),
            cycles_per_second=1.0e6,
        )
        return cfg

    # --------------------------------------------------------------- mutation
    def with_updates(self, **kwargs) -> "SystemConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kwargs)

    def table2_rows(self) -> Dict[str, str]:
        """Render this configuration as the rows of Table 2."""
        ic = self.interconnect
        cp = self.checkpoint
        return {
            "L1 Cache (I and D)": f"{self.l1.size_bytes // 1024} KB, "
                                   f"{self.l1.associativity}-way set associative",
            "L2 Cache": f"{self.l2.size_bytes // (1024 * 1024)} MB, "
                        f"{self.l2.associativity}-way set-associative",
            "Memory": f"{self.memory_bytes // 1024 ** 3} GB, {self.block_bytes} byte blocks",
            # The paper's Table 2 states this in nanoseconds (180 ns); render
            # both the simulator's native cycles and the derived ns at the
            # configured core frequency.
            "Miss From Memory": f"{self.memory_latency_cycles} cycles / "
                                 f"{self.memory_latency_cycles / self.processor.frequency_hz * 1e9:g} ns "
                                 "(uncontended, 2-hop)",
            "Interconnection Networks": f"{ic.topology.describe()}, "
                                         "link bandwidth = "
                                         f"{ic.link_bandwidth_bytes_per_sec / 1e6:.0f} MB/sec",
            "Checkpoint Log Buffer": f"{cp.log_buffer_bytes // 1024} kbytes total, "
                                      f"{cp.log_entry_bytes} byte entries",
            "Checkpoint Interval": f"{cp.directory_interval_cycles} cycles (directory), "
                                    f"{cp.snooping_interval_requests} requests (snooping)",
            "Register Checkpointing Latency": f"{cp.register_checkpoint_latency_cycles} cycles",
        }
