"""Logical checkpoints and checkpoint participants.

A checkpoint captures, at a consistent logical point, everything that cannot
be reconstructed from the undo logs: primarily the execution position of
each processor (program counter / workload stream index in this model) and
its retired-work counters.  Components that need this treatment implement
:class:`CheckpointParticipant`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict


class CheckpointParticipant(ABC):
    """A component whose execution state is snapshotted at each checkpoint."""

    @property
    @abstractmethod
    def participant_id(self) -> str:
        """Stable identifier used to key snapshots."""

    @abstractmethod
    def checkpoint_snapshot(self) -> Any:
        """Return an opaque snapshot of the participant's execution state."""

    @abstractmethod
    def checkpoint_restore(self, snapshot: Any, *, resume_at: int) -> None:
        """Restore the snapshot; the participant must not issue new work
        before simulation cycle ``resume_at`` (the end of the recovery)."""


@dataclass
class Checkpoint:
    """One logical checkpoint of the whole system."""

    seq: int
    created_at: int
    snapshots: Dict[str, Any] = field(default_factory=dict)
