"""System factory.

:func:`build_system` constructs the multiprocessor described by a
:class:`repro.sim.config.SystemConfig` — a directory system on a
packet-switched topology or a broadcast snooping system — so experiments
and examples can stay protocol-agnostic.  Both concrete systems derive
from :class:`repro.system.base.System`, which captures the shared
``run``/``load_workload``/speculation-attach surface.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.config import ProtocolKind, SystemConfig
from repro.system.base import System
from repro.system.directory_system import DirectorySystem
from repro.system.snooping_system import SnoopingSystem


def build_system(config: SystemConfig, *, label: Optional[str] = None) -> System:
    """Build the system the configuration asks for."""
    if config.protocol == ProtocolKind.DIRECTORY:
        return DirectorySystem(config, label=label)
    if config.protocol == ProtocolKind.SNOOPING:
        return SnoopingSystem(config, label=label)
    raise ValueError(f"unknown protocol kind {config.protocol!r}")
