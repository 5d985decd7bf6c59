"""The SafetyNet coordinator.

One :class:`SafetyNet` instance manages the whole multiprocessor:

* it creates logical checkpoints periodically (every N cycles for the
  directory system, every N coherence requests for the snooping system —
  matching the two logical time bases of Table 2),
* it owns one :class:`~repro.safetynet.log.CheckpointLogBuffer` per node and
  hands out the observer callbacks that cache arrays / directory controllers
  install to log their state changes,
* it commits old checkpoints once they are past the validation window
  (three checkpoint intervals, the same number that bounds the deadlock
  timeout), and
* it performs system-wide recovery: undo the logs back to the recovery
  point, restore every checkpoint participant (processors), run the squash
  hooks (flush the network, drop transient protocol state) and stall
  execution for the recovery latency.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro import kernel
from repro.core.events import MisspeculationEvent, RecoveryRecord
from repro.safetynet.checkpoint import Checkpoint, CheckpointParticipant
from repro.safetynet.log import CheckpointLogBuffer, UndoRecord
from repro.sim.config import CheckpointConfig
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

#: Restore callback registered per logged target:
#: restore(address, field, old_value)
RestoreFn = Callable[[int, str, object], None]


class SafetyNet:
    """System-wide checkpoint/recovery mechanism."""

    def __init__(self, sim: Simulator, config: CheckpointConfig, *,
                 num_nodes: int, interval_cycles: Optional[int] = None,
                 interval_requests: Optional[int] = None,
                 stats: Optional[StatsRegistry] = None) -> None:
        if (interval_cycles is None) == (interval_requests is None):
            raise ValueError(
                "exactly one of interval_cycles / interval_requests must be set")
        self.sim = sim
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self.interval_cycles = interval_cycles
        self.interval_requests = interval_requests
        self.logs: Dict[int, CheckpointLogBuffer] = {
            node: CheckpointLogBuffer(
                f"sn.log{node}",
                capacity_bytes=config.log_buffer_bytes,
                entry_bytes=config.log_entry_bytes)
            for node in range(num_nodes)}
        self._restore_fns: Dict[str, RestoreFn] = {}
        self._participants: List[CheckpointParticipant] = []
        self._squash_hooks: List[Callable[[], None]] = []
        self._checkpoints: List[Checkpoint] = []
        self._next_seq = 0
        self._requests_seen = 0
        self._active = False
        #: End of the most recent recovery (execution stalls until then).
        self.stalled_until = 0
        # The initial checkpoint (recovery can never go before time zero).
        self._create_checkpoint()

    # ------------------------------------------------------------------ wiring
    def start(self) -> None:
        """Begin periodic checkpointing (cycle-based systems)."""
        self._active = True
        if self.interval_cycles is not None:
            self.sim.schedule(self.interval_cycles, self._periodic_checkpoint,
                              label="safetynet.checkpoint")

    def register_store(self, target_id: str, node: int, restore: RestoreFn
                       ) -> Callable[[int, str, object, object], None]:
        """Register a logged state store and return its change observer.

        The returned callable has the signature expected by
        :meth:`repro.coherence.cache.CacheArray.set_observer` and
        :meth:`repro.coherence.directory.directory_controller.DirectoryController.set_observer`.
        """
        self._restore_fns[target_id] = restore
        log = self.logs[node]
        # Bind the hot-path lookups once: the observer fires for every
        # logged state change (millions per campaign).  ``checkpoints`` is
        # mutated in place (never reassigned), so [-1] is always current.
        append = log.append
        checkpoints = self._checkpoints
        sim = self.sim
        impl = kernel.engine_impl()
        if (impl is not None and isinstance(sim, impl.Simulator)
                and hasattr(impl, "LogObserver")):
            # Compiled tier: record construction + append run in C against
            # the same log buffer (commit/discard/queries stay pure).
            return impl.LogObserver(log, checkpoints, target_id, sim)

        def observer(address: int, field: str, old_value: object, new_value: object) -> None:
            append(UndoRecord(
                checkpoint_seq=checkpoints[-1].seq,
                target_id=target_id,
                address=address,
                field=field,
                old_value=old_value,
                logged_at=sim._now))

        return observer

    def register_participant(self, participant: CheckpointParticipant) -> None:
        self._participants.append(participant)
        # Backfill the participant into the initial checkpoint.
        for checkpoint in self._checkpoints:
            checkpoint.snapshots.setdefault(
                participant.participant_id, participant.checkpoint_snapshot())

    def add_squash_hook(self, hook: Callable[[], None]) -> None:
        self._squash_hooks.append(hook)

    # -------------------------------------------------------------- checkpoints
    @property
    def checkpoints_taken(self) -> int:
        return self._next_seq

    def _create_checkpoint(self) -> Checkpoint:
        checkpoint = Checkpoint(seq=self._next_seq, created_at=self.sim.now)
        for participant in self._participants:
            checkpoint.snapshots[participant.participant_id] = (
                participant.checkpoint_snapshot())
        self._checkpoints.append(checkpoint)
        self._next_seq += 1
        self.stats.counter("safetynet.checkpoints").add()
        self._commit_old_checkpoints()
        return checkpoint

    def _periodic_checkpoint(self) -> None:
        if not self._active:
            return
        self._create_checkpoint()
        assert self.interval_cycles is not None
        self.sim.schedule(self.interval_cycles, self._periodic_checkpoint,
                          label="safetynet.checkpoint")

    def note_request(self) -> None:
        """Logical-time tick for request-based checkpointing (snooping)."""
        self._requests_seen += 1
        if (self.interval_requests is not None
                and self._requests_seen % self.interval_requests == 0):
            self._create_checkpoint()

    def _commit_old_checkpoints(self) -> None:
        """Commit checkpoints that have aged past the validation window."""
        keep = self.config.outstanding_checkpoints
        if len(self._checkpoints) <= keep:
            return
        to_commit = self._checkpoints[:-keep]
        last_seq = to_commit[-1].seq
        for log in self.logs.values():
            log.commit_through(last_seq)
        self.stats.counter("safetynet.commits").add(len(to_commit))
        # Committed checkpoints can no longer serve as recovery points.
        # In-place deletion: the registered observers hold a reference to
        # this list, so it must never be reassigned.
        del self._checkpoints[:-keep]

    # ----------------------------------------------------------------- recovery
    @property
    def recovery_point(self) -> Checkpoint:
        """The checkpoint a recovery would roll back to (most recent one)."""
        return self._checkpoints[-1]

    def recover(self, event: MisspeculationEvent) -> RecoveryRecord:
        """Perform a system-wide recovery to the active recovery point.

        The caller keeps the returned record: SafetyNet counts recoveries
        (the ``safetynet.recoveries*`` counters) but does not store them.
        """
        started_at = self.sim.now
        target = self.recovery_point
        undone = 0

        # 1. Undo logged state changes back to the recovery point, newest first.
        for log in self.logs.values():
            records = log.records_since(target.seq)
            for record in reversed(records):
                restore = self._restore_fns.get(record.target_id)
                if restore is not None:
                    restore(record.address, record.field, record.old_value)
                undone += 1
            log.discard_since(target.seq)

        # 2. Squash in-flight state (network messages, transient controller
        #    state).  Hooks may return a squash count for accounting.
        squashed = 0
        for hook in self._squash_hooks:
            result = hook()
            if isinstance(result, int):
                squashed += result

        # 3. Restore checkpoint participants (processors) and stall them for
        #    the recovery latency plus the register-restore latency.
        resume_at = (self.sim.now + self.config.recovery_latency_cycles
                     + self.config.register_checkpoint_latency_cycles)
        self.stalled_until = max(self.stalled_until, resume_at)
        for participant in self._participants:
            snapshot = target.snapshots.get(participant.participant_id)
            if snapshot is not None:
                participant.checkpoint_restore(snapshot, resume_at=resume_at)

        work_lost = max(0, started_at - target.created_at)
        record = RecoveryRecord(
            event=event,
            started_at=started_at,
            recovery_point=target.created_at,
            resumed_at=resume_at,
            work_lost_cycles=work_lost,
            messages_squashed=squashed,
            log_entries_undone=undone,
        )
        self.stats.counter("safetynet.recoveries").add()
        self.stats.counter(f"safetynet.recoveries.{event.kind.value}").add()
        self.stats.counter("safetynet.work_lost_cycles").add(work_lost)
        return record

    # ------------------------------------------------------------------- stats
    def peak_log_occupancy_entries(self) -> int:
        return max((log.peak_occupancy for log in self.logs.values()), default=0)
