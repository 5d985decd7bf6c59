"""Shared configuration presets and run helpers for the experiment drivers.

Two presets are provided:

* :func:`paper_config` — the Table 2 target system (16 nodes, 128 KB L1,
  4 MB L2, 100k-cycle checkpoints).  Faithful but slow to simulate in pure
  Python; use it for spot checks.
* :func:`benchmark_config` — a proportionally scaled system (same topology
  and protocol, smaller caches and reference streams, shorter checkpoint
  interval, ``cycles_per_second`` scaled accordingly) that keeps every
  benchmark run in the seconds range.  EXPERIMENTS.md records which preset
  produced each reported number.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.campaign.executor import Executor, SerialExecutor, SpecBatch
from repro.campaign.spec import RunSpec
from repro.sim.config import (
    CacheConfig,
    CheckpointConfig,
    InterconnectConfig,
    ProtocolKind,
    ProtocolVariant,
    RoutingPolicy,
    SpeculationConfig,
    SystemConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.system.results import RunResult
from repro.workloads import paper_workload_names, workload_names

#: Default per-processor reference-stream length for benchmark runs.
BENCH_REFERENCES = 500
#: Scaled "second" used by the benchmark preset (see DESIGN.md §2).
BENCH_CYCLES_PER_SECOND = 2.0e6


def paper_config(workload: str = "jbb", *, seed: int = 1,
                 references: int = 20_000) -> SystemConfig:
    """The Table 2 target system (16 nodes, full-size caches)."""
    cfg = SystemConfig.paper_defaults()
    return cfg.with_updates(
        workload=WorkloadConfig(name=workload, references_per_processor=references,
                                seed=seed))


def benchmark_config(workload: str = "jbb", *, seed: int = 1,
                     references: int = BENCH_REFERENCES,
                     variant: ProtocolVariant = ProtocolVariant.SPECULATIVE,
                     routing: RoutingPolicy = RoutingPolicy.ADAPTIVE,
                     link_bandwidth: float = 400e6,
                     protocol: ProtocolKind = ProtocolKind.DIRECTORY,
                     speculative_no_vc: bool = False,
                     switch_buffer_capacity: int = 16,
                     num_processors: int = 16,
                     topology: str = "torus") -> SystemConfig:
    """A proportionally scaled system for benchmark runs (16 nodes default).

    ``num_processors`` scales the machine (one switch per processor; 2D
    geometries use the most-square grid, e.g. 64 -> 8x8).  ``topology``
    selects a registered geometry kind (the paper's torus by default).  The
    Table 1 designs are ``variant`` (S1 or S2, by ``protocol``) and
    ``speculative_no_vc`` (S3); the forward-progress windows are scaled
    down with the rest of the machine.
    """
    return SystemConfig(
        num_processors=num_processors,
        protocol=protocol,
        variant=variant,
        l1=CacheConfig(16 * 1024, 2),
        l2=CacheConfig(256 * 1024, 4),
        memory_bytes=64 * 1024 * 1024,
        memory_latency_cycles=400,
        interconnect=InterconnectConfig(
            topology=TopologyConfig.preset(topology, num_processors),
            link_bandwidth_bytes_per_sec=link_bandwidth,
            link_latency_cycles=8,
            switch_buffer_capacity=switch_buffer_capacity,
            routing=routing,
            speculative_no_vc=speculative_no_vc,
            nic_injection_limit=4,
        ),
        checkpoint=CheckpointConfig(
            directory_interval_cycles=20_000,
            snooping_interval_requests=600,
            recovery_latency_cycles=2_000,
            register_checkpoint_latency_cycles=100,
        ),
        speculation=SpeculationConfig(
            adaptive_routing_disable_cycles=50_000,
            slow_start_cycles=40_000,
        ),
        workload=WorkloadConfig(name=workload, references_per_processor=references,
                                seed=seed),
        cycles_per_second=BENCH_CYCLES_PER_SECOND,
    )


#: Executor used when a caller does not supply one (plain in-process runs).
_DEFAULT_EXECUTOR = SerialExecutor()


def resolve_executor(executor: Optional[Executor]) -> Executor:
    """The executor to route runs through (the shared serial default)."""
    return executor if executor is not None else _DEFAULT_EXECUTOR


def run_spec(spec: RunSpec, *, executor: Optional[Executor] = None) -> RunResult:
    """Run one design point through the campaign executor layer."""
    return resolve_executor(executor).run(spec)


def run_specs(specs: SpecBatch, *,
              executor: Optional[Executor] = None) -> List[RunResult]:
    """Run a batch of design points (a list or a named :class:`SweepSpec`);
    results come back in spec order."""
    return resolve_executor(executor).map(specs)


def run_config(config: SystemConfig, *, label: Optional[str] = None,
               recovery_rate_per_second: Optional[float] = None,
               max_cycles: Optional[int] = None,
               executor: Optional[Executor] = None) -> RunResult:
    """Build and run one system, optionally with the Figure 4 injector.

    ``recovery_rate_per_second=None`` means no injector; an explicit ``0.0``
    attaches an injector that never fires (the Figure 4 zero-rate control) —
    the two are deliberately distinct.
    """
    spec = RunSpec(config=config, label=label,
                   recovery_rate_per_second=recovery_rate_per_second,
                   max_cycles=max_cycles)
    return run_spec(spec, executor=executor)


def default_workloads(subset: Optional[Iterable[str]] = None) -> List[str]:
    """The workload list the figure experiments iterate over.

    ``None`` means the paper's Table 3 suite in figure order — the figures
    reproduce the paper, so the parameterized scenario families never creep
    into them implicitly.  An explicit ``subset`` may name *any* registered
    workload (validated against the full registry), so campaign axes can
    point figure-style drivers at the new families deliberately.
    """
    if subset is None:
        return paper_workload_names()
    wanted = list(subset)
    registered = workload_names()
    unknown = [w for w in wanted if w not in registered]
    if unknown:
        raise ValueError(f"unknown workloads {unknown}; available {registered}")
    return wanted
