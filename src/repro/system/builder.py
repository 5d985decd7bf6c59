"""System factory.

:func:`build_system` constructs the multiprocessor described by a
:class:`repro.sim.config.SystemConfig` — a directory system on a
packet-switched topology or a broadcast snooping system — so experiments
and examples can stay protocol-agnostic.  Both concrete systems derive
from :class:`repro.system.base.System`, which captures the shared
``run``/``load_workload``/speculation-attach surface.
"""

from __future__ import annotations

from typing import Optional, Type

from repro.sim.config import ProtocolKind, SystemConfig
from repro.system.base import System
from repro.system.directory_system import DirectorySystem
from repro.system.snooping_system import SnoopingSystem


def system_class(config: SystemConfig) -> Type[System]:
    """The concrete system class the configuration asks for."""
    if config.protocol == ProtocolKind.DIRECTORY:
        return DirectorySystem
    if config.protocol == ProtocolKind.SNOOPING:
        return SnoopingSystem
    raise ValueError(f"unknown protocol kind {config.protocol!r}")


def build_system(config: SystemConfig, *, label: Optional[str] = None) -> System:
    """Build the system the configuration asks for."""
    return system_class(config)(config, label=label)
