"""System assembly: nodes, multiprocessors and the run harness.

:func:`repro.system.builder.build_system` turns a
:class:`repro.sim.config.SystemConfig` into a runnable multiprocessor — a
directory system over a packet-switched topology or a broadcast snooping
system — with SafetyNet, the speculation layer and the workload-driven
processors already wired together.  Both concrete systems share the
:class:`repro.system.base.System` base class (build / ``load_workload`` /
``run`` / ``attach_recovery_injector``).
"""

from repro.system.results import RunResult
from repro.system.base import System
from repro.system.directory_system import DirectorySystem
from repro.system.snooping_system import SnoopingSystem
from repro.system.builder import build_system

__all__ = ["RunResult", "System", "DirectorySystem",
           "SnoopingSystem", "build_system"]
