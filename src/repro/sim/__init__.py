"""Discrete-event simulation substrate.

This package provides the simulation kernel used by every other subsystem of
the reproduction: an event-driven scheduler (:mod:`repro.sim.engine`), the
component base class (:mod:`repro.sim.component`), statistics
collection (:mod:`repro.sim.stats`), deterministic random-number helpers
(:mod:`repro.sim.rng`) and the system configuration dataclasses that mirror
Table 2 of the paper (:mod:`repro.sim.config`).
"""

from repro.sim.engine import Event, EventQueue, Simulator
from repro.sim.component import Component
from repro.sim.stats import Counter, Histogram, StatsRegistry
from repro.sim.config import (
    CacheConfig,
    CheckpointConfig,
    InterconnectConfig,
    ProcessorConfig,
    SpeculationConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.sim.rng import DeterministicRng

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "Component",
    "Counter",
    "Histogram",
    "StatsRegistry",
    "CacheConfig",
    "CheckpointConfig",
    "InterconnectConfig",
    "ProcessorConfig",
    "SpeculationConfig",
    "SystemConfig",
    "WorkloadConfig",
    "DeterministicRng",
]
