"""Blocking in-order processor model.

Each processor executes a pre-generated stream of memory references (see
:mod:`repro.workloads`).  Between two references it spends a configurable
number of "compute" cycles (the non-memory instructions of the workload),
then probes the L1 filter and, on a miss, issues a blocking request to the
node's L2 cache controller.  The processor is a SafetyNet checkpoint
participant: its snapshot is its position in the reference stream, and a
recovery rolls that position back (losing the work done since the recovery
point) and stalls the processor for the recovery latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.coherence.common import MemoryOp, MemoryRequest
from repro.coherence.directory.states import CacheState
from repro.processor.l1 import L1FilterCache
from repro.safetynet.checkpoint import CheckpointParticipant
from repro.sim.component import Component
from repro.sim.config import ProcessorConfig, SystemConfig
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng
from repro.sim.stats import StatsRegistry

#: One reference in a workload stream: (operation, block address).
Reference = Tuple[MemoryOp, int]


@dataclass
class ProcessorSnapshot:
    """Execution state captured at a SafetyNet checkpoint."""

    stream_index: int
    references_completed: int
    store_counter: int


class BlockingProcessor(Component, CheckpointParticipant):
    """A 1-IPC in-order processor that blocks on every memory reference."""

    def __init__(self, node_id: int, sim: Simulator, config: SystemConfig,
                 references: Sequence[Reference], *,
                 l1: Optional[L1FilterCache] = None,
                 rng: Optional[DeterministicRng] = None,
                 stats: Optional[StatsRegistry] = None) -> None:
        super().__init__(f"proc{node_id}", sim, stats)
        self.node_id = node_id
        self.config = config
        self.pconfig: ProcessorConfig = config.processor
        self.references: List[Reference] = list(references)
        self.l1 = l1
        self.rng = rng if rng is not None else DeterministicRng(node_id)
        #: Installed by the system builder: access(request, on_complete).
        self.l2_access: Optional[Callable[[MemoryRequest, Callable], None]] = None
        #: Installed by the system builder: current L2 state of a block.
        self.l2_state_of: Callable[[int], CacheState] = lambda addr: CacheState.INVALID
        #: Recovery stall: no new reference is issued before this cycle.
        self.stalled_until = 0
        self.stream_index = 0
        self.references_completed = 0
        self.store_counter = 0
        self.retired_instructions = 0
        # Per-reference constants, hoisted out of the issue loop.  round()
        # (not floor+half-up) deliberately: these predate the link-rounding
        # fix and pin the same values as the original per-call computation.
        self._gap_base = int(round(self.pconfig.mean_instructions_between_refs
                                   / self.pconfig.instructions_per_cycle))
        self._instructions_per_ref = (
            int(round(self.pconfig.mean_instructions_between_refs)) + 1)
        self._jitter = config.workload.latency_jitter_cycles
        self.finished_at: Optional[int] = None
        self._started = False
        self._waiting_for_memory = False
        self._issue_pending = False
        self._on_finished: Optional[Callable[[int], None]] = None

    # ----------------------------------------------------------------- control
    def start(self, on_finished: Optional[Callable[[int], None]] = None) -> None:
        """Begin executing the reference stream."""
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        self._started = True
        self._on_finished = on_finished
        self._schedule_issue(0)

    def _schedule_issue(self, delay: int) -> None:
        """Schedule the next issue attempt, collapsing duplicate wakeups."""
        if self._issue_pending:
            return
        self._issue_pending = True
        self.schedule(delay, self._issue_next)

    @property
    def done(self) -> bool:
        return self.stream_index >= len(self.references) and not self._waiting_for_memory

    @property
    def progress(self) -> float:
        if not self.references:
            return 1.0
        return self.references_completed / len(self.references)

    # ------------------------------------------------------------------- issue
    def _compute_gap_cycles(self) -> int:
        """Cycles of non-memory work before the next reference.

        Jitter draws are prefetched in chunks (`buffered_randint`) — bit
        -identical to the scalar per-call draws because the "gap" stream is
        consumed nowhere else.
        """
        jitter = self._jitter
        extra = (self.rng.buffered_randint("gap", 0, jitter + 1)
                 if jitter > 0 else 0)
        return max(1, self._gap_base + extra)

    def _issue_next(self) -> None:
        self._issue_pending = False
        if self._waiting_for_memory:
            return
        now = self.sim._now
        if now < self.stalled_until:
            self._schedule_issue(self.stalled_until - now)
            return
        if self.stream_index >= len(self.references):
            self._finish_stream(now)
            return

        op, address = self.references[self.stream_index]
        self.stream_index += 1
        self.retired_instructions += self._instructions_per_ref

        value = None
        is_store = op is MemoryOp.STORE
        if is_store:
            self.store_counter += 1
            value = self.node_id * 1_000_000_000 + self.store_counter

        l1 = self.l1
        l2_state = self.l2_state_of(address)
        if l1 is not None and l1.hit(address, op, l2_state):
            l1.tags.hits += 1
            self.count("l1_hits")
            self.references_completed += 1
            if is_store:
                # Write-through of the value to the coherent L2 copy (timing
                # stays at the L1 hit latency; see repro.processor.l1).
                self._write_through(address, value)
            self._schedule_issue(self.pconfig.l1_hit_cycles + self._compute_gap_cycles())
            return

        self._issue_miss(op, address, value)

    def _finish_stream(self, now: int) -> None:
        """The stream is exhausted: record completion exactly once.

        Split out of :meth:`_issue_next` so the compiled processor core
        (``repro._ckernel.ProcessorCore``) can delegate this cold path to
        the one implementation of its semantics.
        """
        if self.finished_at is None:
            self.finished_at = now
            self.count("finished")
            if self._on_finished is not None:
                self._on_finished(self.node_id)

    def _issue_miss(self, op: MemoryOp, address: int,
                    value: Optional[int]) -> None:
        """L1 miss: block on an L2/coherence access (shared cold path)."""
        l1 = self.l1
        if l1 is not None:
            l1.tags.misses += 1
        self.count("l1_misses")
        request = MemoryRequest(self.node_id, op, address, value=value)
        self._waiting_for_memory = True
        assert self.l2_access is not None, "processor not wired to an L2 controller"
        self.l2_access(request, self._memory_complete)

    def _write_through(self, address: int, value: Optional[int]) -> None:
        # The store value must land in the coherent copy; the system builder
        # wires this to the L2 controller's cache array.
        if self._store_value_hook is not None and value is not None:
            self._store_value_hook(address, value)

    _store_value_hook: Optional[Callable[[int, int], None]] = None

    def set_store_value_hook(self, hook: Callable[[int, int], None]) -> None:
        self._store_value_hook = hook

    def _memory_complete(self, request: MemoryRequest) -> None:
        self._waiting_for_memory = False
        self.references_completed += 1
        self.count("memory_references")
        if self.l1 is not None:
            self.l1.fill(request.address)
        self._schedule_issue(self._compute_gap_cycles())

    # --------------------------------------------------------------- SafetyNet
    @property
    def participant_id(self) -> str:
        return self.name

    def checkpoint_snapshot(self) -> ProcessorSnapshot:
        # A reference that is still outstanding at the checkpoint has not
        # retired; the snapshot points at it so that a recovery re-issues it
        # (its in-flight coherence transaction is squashed by the recovery).
        in_flight = 1 if self._waiting_for_memory else 0
        return ProcessorSnapshot(
            stream_index=self.stream_index - in_flight,
            references_completed=self.references_completed,
            store_counter=self.store_counter)

    def checkpoint_restore(self, snapshot: ProcessorSnapshot, *, resume_at: int) -> None:
        self.stream_index = snapshot.stream_index
        self.references_completed = snapshot.references_completed
        self.store_counter = snapshot.store_counter
        self.stalled_until = max(self.stalled_until, resume_at)
        self.count("rollbacks")
        # Whatever reference was in flight has been squashed along with the
        # rest of the memory-system transient state; resume issuing (the
        # rolled-back reference will be re-issued) once the stall ends.
        self._waiting_for_memory = False
        self.finished_at = None
        self._schedule_issue(max(1, resume_at - self.sim.now))
