"""Reproduction of "Using Speculation to Simplify Multiprocessor Design"
(Sorin, Martin, Hill, Wood — IPDPS 2004).

The package implements the paper's speculation-for-simplicity framework and
every substrate its evaluation depends on: a discrete-event multiprocessor
memory-system simulator with a MOSI directory protocol, a MOESI broadcast
snooping protocol, a 2D-torus interconnect with static/adaptive routing and
optional virtual channels, the SafetyNet checkpoint/recovery mechanism,
synthetic analogues of the Wisconsin commercial workloads, and experiment
drivers that regenerate every table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import SystemConfig, build_system
>>> config = SystemConfig.small(num_processors=4, references=1000)
>>> system = build_system(config)
>>> result = system.run()
>>> result.finished
True
"""

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
    WorkloadConfig,
)
from repro.core import (
    MisspeculationEvent,
    RecoveryRecord,
    SpeculationKind,
    TABLE1_MECHANISMS,
)
from repro.speculation import (
    Speculation,
    SpeculationManager,
)
from repro.system import (
    DirectorySystem,
    RunResult,
    SnoopingSystem,
    System,
    build_system,
)
from repro.workloads import (
    WorkloadFamily,
    make_workload,
    paper_workload_names,
    register_workload,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CheckpointConfig",
    "InterconnectConfig",
    "ProcessorConfig",
    "ProtocolKind",
    "ProtocolVariant",
    "RoutingPolicy",
    "SpeculationConfig",
    "SystemConfig",
    "WorkloadConfig",
    "MisspeculationEvent",
    "RecoveryRecord",
    "SpeculationKind",
    "TABLE1_MECHANISMS",
    "Speculation",
    "SpeculationManager",
    "System",
    "DirectorySystem",
    "SnoopingSystem",
    "RunResult",
    "build_system",
    "WorkloadFamily",
    "make_workload",
    "paper_workload_names",
    "register_workload",
    "workload_names",
    "__version__",
]
