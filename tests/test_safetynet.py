"""Unit tests for the SafetyNet checkpoint/recovery substrate."""

from __future__ import annotations

from typing import Any, Dict, List

import pytest

from repro.core.events import MisspeculationEvent, SpeculationKind
from repro.safetynet.checkpoint import Checkpoint, CheckpointParticipant
from repro.safetynet.log import CheckpointLogBuffer, UndoRecord
from repro.safetynet.manager import SafetyNet
from repro.sim.config import CheckpointConfig
from repro.sim.engine import Simulator


def _event(kind=SpeculationKind.INJECTED, at=0) -> MisspeculationEvent:
    return MisspeculationEvent(kind=kind, detected_at=at)


class FakeParticipant(CheckpointParticipant):
    """A minimal checkpoint participant: one integer of state."""

    def __init__(self, name: str) -> None:
        self._name = name
        self.value = 0
        self.restored_to: List[int] = []
        self.resume_at = 0

    @property
    def participant_id(self) -> str:
        return self._name

    def checkpoint_snapshot(self) -> int:
        return self.value

    def checkpoint_restore(self, snapshot: int, *, resume_at: int) -> None:
        self.value = snapshot
        self.restored_to.append(snapshot)
        self.resume_at = resume_at


class TestCheckpointLogBuffer:
    def _record(self, seq: int, addr: int = 0, old: object = 1) -> UndoRecord:
        return UndoRecord(checkpoint_seq=seq, target_id="t", address=addr,
                          field="state", old_value=old, logged_at=0)

    def test_append_and_occupancy(self):
        log = CheckpointLogBuffer("l", capacity_bytes=720, entry_bytes=72)
        for i in range(5):
            log.append(self._record(0, addr=i))
        assert log.occupancy_entries == 5
        assert log.occupancy_bytes == 5 * 72
        assert log.total_logged == 5

    def test_records_since_orders_oldest_first(self):
        log = CheckpointLogBuffer("l", capacity_bytes=7200, entry_bytes=72)
        log.append(self._record(2, addr=2))
        log.append(self._record(1, addr=1))
        log.append(self._record(3, addr=3))
        records = log.records_since(2)
        assert [r.checkpoint_seq for r in records] == [2, 3]

    def test_commit_frees_old_checkpoints(self):
        log = CheckpointLogBuffer("l", capacity_bytes=7200, entry_bytes=72)
        for seq in (0, 1, 2):
            log.append(self._record(seq))
        freed = log.commit_through(1)
        assert freed == 2
        assert log.occupancy_entries == 1

    def test_discard_since(self):
        log = CheckpointLogBuffer("l", capacity_bytes=7200, entry_bytes=72)
        for seq in (0, 1, 2):
            log.append(self._record(seq))
        dropped = log.discard_since(1)
        assert dropped == 2
        assert log.occupancy_entries == 1

    def test_overflow_counted_not_dropped(self):
        log = CheckpointLogBuffer("l", capacity_bytes=72, entry_bytes=72)
        log.append(self._record(0))
        log.append(self._record(0))
        assert log.overflow_stalls == 1
        assert log.occupancy_entries == 2

    def test_size_validation(self):
        with pytest.raises(ValueError):
            CheckpointLogBuffer("l", capacity_bytes=0, entry_bytes=72)


class TestSafetyNetCheckpointing:
    def make(self, sim: Simulator, interval_cycles=1_000) -> SafetyNet:
        return SafetyNet(sim, CheckpointConfig(
            directory_interval_cycles=interval_cycles,
            recovery_latency_cycles=100,
            register_checkpoint_latency_cycles=10,
            outstanding_checkpoints=3,
        ), num_nodes=2, interval_cycles=interval_cycles)

    def test_requires_exactly_one_time_base(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SafetyNet(sim, CheckpointConfig(), num_nodes=1)
        with pytest.raises(ValueError):
            SafetyNet(sim, CheckpointConfig(), num_nodes=1,
                      interval_cycles=10, interval_requests=10)

    def test_periodic_checkpoints_created(self):
        sim = Simulator()
        safetynet = self.make(sim, interval_cycles=500)
        safetynet.start()
        sim.schedule(2_400, lambda: None)
        sim.run(until=2_400)
        # Initial checkpoint + one every 500 cycles.
        assert safetynet.checkpoints_taken >= 5

    def test_request_based_checkpoints(self):
        sim = Simulator()
        safetynet = SafetyNet(sim, CheckpointConfig(), num_nodes=1,
                              interval_requests=10)
        for _ in range(25):
            safetynet.note_request()
        assert safetynet.checkpoints_taken == 3  # initial + 2

    def test_old_checkpoints_committed(self):
        sim = Simulator()
        safetynet = self.make(sim)
        observer = safetynet.register_store("t", 0, lambda a, f, v: None)
        for i in range(6):
            observer(i, "state", "old", "new")
            safetynet._create_checkpoint()
        # Only `outstanding_checkpoints` stay uncommitted.
        assert len(safetynet._checkpoints) == 3
        assert safetynet.logs[0].occupancy_entries <= 6

    def test_participant_snapshots_recorded(self):
        sim = Simulator()
        safetynet = self.make(sim)
        participant = FakeParticipant("p0")
        safetynet.register_participant(participant)
        participant.value = 41
        checkpoint = safetynet._create_checkpoint()
        assert checkpoint.snapshots["p0"] == 41


class TestSafetyNetRecovery:
    def build(self):
        sim = Simulator()
        safetynet = SafetyNet(sim, CheckpointConfig(
            directory_interval_cycles=1_000, recovery_latency_cycles=200,
            register_checkpoint_latency_cycles=50), num_nodes=1,
            interval_cycles=1_000)
        store: Dict[int, Any] = {}

        def restore(address, field, old_value):
            if old_value is None:
                store.pop(address, None)
            else:
                store[address] = old_value

        observer = safetynet.register_store("store", 0, restore)

        def tracked_write(address, value):
            old = store.get(address)
            observer(address, "value", old, value)
            store[address] = value

        return sim, safetynet, store, tracked_write

    def test_recovery_restores_logged_state(self):
        sim, safetynet, store, write = self.build()
        write(0x40, 1)
        write(0x80, 2)
        safetynet._create_checkpoint()     # recovery point: {0x40:1, 0x80:2}
        write(0x40, 10)
        write(0xC0, 30)
        record = safetynet.recover(_event())
        assert store == {0x40: 1, 0x80: 2}
        assert record.log_entries_undone == 2

    def test_recovery_rolls_back_participants_and_stalls(self):
        sim, safetynet, store, write = self.build()
        participant = FakeParticipant("p0")
        safetynet.register_participant(participant)
        participant.value = 5
        safetynet._create_checkpoint()
        participant.value = 9
        record = safetynet.recover(_event())
        assert participant.value == 5
        assert participant.resume_at == record.resumed_at
        assert record.resumed_at == sim.now + 200 + 50
        assert safetynet.stalled_until == record.resumed_at

    def test_recovery_invokes_squash_hooks(self):
        sim, safetynet, store, write = self.build()
        calls = []
        safetynet.add_squash_hook(lambda: calls.append("a") or 3)
        safetynet.add_squash_hook(lambda: calls.append("b"))
        record = safetynet.recover(_event())
        assert calls == ["a", "b"]
        assert record.messages_squashed == 3

    def test_recovery_work_lost_accounting(self):
        sim, safetynet, store, write = self.build()
        safetynet._create_checkpoint()
        sim.schedule(400, lambda: None)
        sim.run()
        record = safetynet.recover(_event(at=sim.now))
        assert record.work_lost_cycles == 400
        assert record.total_cost_cycles >= 400 + 200

    def test_recovery_discards_new_epoch_log_records(self):
        sim, safetynet, store, write = self.build()
        write(0x40, 1)
        safetynet._create_checkpoint()
        write(0x40, 2)
        safetynet.recover(_event())
        # The undone records are gone: a second recovery has nothing to undo.
        record = safetynet.recover(_event())
        assert record.log_entries_undone == 0

    def test_recovery_counts_by_kind(self):
        sim, safetynet, store, write = self.build()
        safetynet.recover(_event(SpeculationKind.INTERCONNECT_DEADLOCK))
        safetynet.recover(_event(SpeculationKind.INJECTED))
        assert safetynet.stats.counters("safetynet.recoveries") == {
            "safetynet.recoveries": 2,
            "safetynet.recoveries.interconnect-deadlock": 1,
            "safetynet.recoveries.injected": 1}
