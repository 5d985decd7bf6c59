"""The shared multiprocessor base class.

:class:`System` captures the surface the directory and snooping systems
always duck-typed — build, ``load_workload``, ``run``, result collection,
and the speculation attach points — so :func:`repro.system.builder
.build_system` returns one concrete type hierarchy instead of a ``Union``.

Construction order is part of the determinism contract (RNG spawns and any
event scheduled during build must happen in a fixed order), so the base
``__init__`` fixes the sequence and subclasses fill in the hooks:

1. simulator, stats, RNG and the transaction id counter;
2. ``_build_fabric()`` — the message substrate (torus/mesh/ring network or
   the snooping address bus + memory);
3. ``_build_safetynet()`` — SafetyNet on the protocol's logical time base;
4. the :class:`~repro.speculation.manager.SpeculationManager` and the
   slow-start gate;
5. ``_build_nodes()`` — processors, caches, controllers, SafetyNet wiring;
6. ``speculation.arm(self)`` — every Table 1 design the configuration
   contains wires itself in (detection flags, transaction timeouts,
   forward-progress policies).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import replace
from typing import ClassVar, Dict, FrozenSet, List, Optional

from repro import kernel
from repro.safetynet.manager import SafetyNet
from repro.sim.config import ProtocolKind, SystemConfig
from repro.sim.rng import DeterministicRng
from repro.sim.stats import StatsRegistry
from repro.speculation.detectors import (
    PeriodicInjectionSpeculation,
    injection_period_cycles,
)
from repro.speculation.manager import SpeculationManager
from repro.core.events import SpeculationKind
from repro.core.forward_progress import SlowStartGate
from repro.system.results import RunResult
from repro.workloads.base import SyntheticWorkload
from repro.workloads.memo import shared_streams


class System(ABC):
    """A runnable multiprocessor (directory or snooping)."""

    #: The coherence protocol the concrete system implements.
    kind: ClassVar[ProtocolKind]
    #: Counter names (after the component's ``.``) of the sites where the
    #: FULL and SPECULATIVE variants act differently (:meth:`replays`).
    VARIANT_SITES: ClassVar[FrozenSet[str]]

    def __init__(self, config: SystemConfig, *, label: Optional[str] = None) -> None:
        self.config = config
        self.label = label if label is not None else self._default_label(config)
        # Kernel tier (pure vs compiled) is resolved here, at construction
        # time — both tiers are byte-identical, so nothing downstream needs
        # to know which one is executing (see repro.kernel).
        self.sim = kernel.new_simulator()
        self.stats = StatsRegistry()
        self.rng = DeterministicRng(config.workload.seed)
        #: Transaction ids of this system, drawn by every cache controller.
        #: Owned per system, so a run's ids never depend on what else ran
        #: (or is still live) in the same process.
        self.txn_ids = itertools.count()
        self._build_fabric()
        self.safetynet: SafetyNet = self._build_safetynet()
        self.speculation = SpeculationManager(self.sim, self.safetynet,
                                              stats=self.stats)
        self.slow_start_gate = SlowStartGate(self.sim)
        self.nodes: List = []
        self.injector: Optional[PeriodicInjectionSpeculation] = None
        self._build_nodes()
        self.speculation.arm(self)
        # Rebind protocol hot paths onto compiled cores (no-op on the pure
        # tier).  Wiring is final and no event has run yet, so the cores
        # capture the same state the pure methods would read.
        self._install_compiled_fast_paths()

    # ------------------------------------------------------------------- hooks
    @staticmethod
    @abstractmethod
    def _default_label(config: SystemConfig) -> str:
        """Label used when the caller does not supply one."""

    @abstractmethod
    def _build_fabric(self) -> None:
        """Construct the message substrate (network, or bus + memory)."""

    @abstractmethod
    def _build_safetynet(self) -> SafetyNet:
        """Construct SafetyNet on this protocol's logical time base."""

    @abstractmethod
    def _build_nodes(self) -> None:
        """Construct and wire the per-node components."""

    def _install_compiled_fast_paths(self) -> None:
        """Rebind protocol hot paths onto ``repro._ckernel`` cores.

        Called once at the end of construction.  Subclasses override this
        to install their protocol's compiled cores; the base implementation
        is a no-op so the pure tier (and any system without a compiled
        counterpart) runs the pure methods unchanged.
        """

    @staticmethod
    @abstractmethod
    def _default_max_cycles(config: SystemConfig) -> int:
        """Run horizon used when the caller does not bound the run."""

    @abstractmethod
    def _network_metrics(self, runtime: int) -> Dict[str, object]:
        """Substrate-specific :class:`RunResult` fields."""

    @abstractmethod
    def invariant_errors(self) -> List[str]:
        """Coherence invariant violations across the whole system."""

    # ------------------------------------------------------- speculation layer
    def checkpoint_interval_cycles(self) -> int:
        """Checkpoint interval in cycles (or a cycle-equivalent estimate for
        request-based logical time); the deadlock timeout derives from it."""
        raise NotImplementedError

    def cache_controllers(self) -> List:
        """The per-node L2 cache controllers (timeout/detection sites)."""
        return [node.cache_controller for node in self.nodes]

    def attach_recovery_injector(self, rate_per_second: float
                                 ) -> PeriodicInjectionSpeculation:
        """Attach the Figure 4 stress-test injector (call before :meth:`run`)."""
        self.injector = PeriodicInjectionSpeculation(
            self.speculation, rate_per_second=rate_per_second,
            cycles_per_second=self.config.cycles_per_second)
        return self.injector

    # --------------------------------------------------------------------- run
    def load_workload(self, workload: Optional[SyntheticWorkload] = None) -> None:
        """Install per-processor reference streams.

        The default path resolves the configured family through the stream
        memo (:mod:`repro.workloads.memo`): the immutable generated artifact
        is shared across runs of the same workload design point, and each
        run receives fresh per-node cursors.  The configuration was already
        validated against the registry at construction time, so failures
        here are generation bugs, not typos.  An explicit ``workload``
        object bypasses the memo and generates directly.
        """
        cfg = self.config
        if workload is None:
            artifact = shared_streams(
                cfg.workload.name,
                num_processors=cfg.num_processors,
                block_bytes=cfg.block_bytes,
                seed=cfg.workload.seed,
                params=cfg.workload.params,
                references_per_processor=cfg.workload.references_per_processor)
            for node in self.nodes:
                node.processor.references = artifact.cursor(node.node_id)
            return
        streams = workload.generate_all(cfg.workload.references_per_processor)
        for node in self.nodes:
            node.processor.references = list(streams[node.node_id])

    def _start_clocks(self) -> None:
        """Begin periodic activity before the processors start.

        The base starts SafetyNet (a no-op scheduler-wise on request-based
        logical time); subclasses may extend.
        """
        self.safetynet.start()

    def run(self, *, workload: Optional[SyntheticWorkload] = None,
            max_cycles: Optional[int] = None) -> RunResult:
        """Run the workload to completion and collect results."""
        self.load_workload(workload)
        self._start_clocks()
        if self.injector is not None:
            self.injector.start()

        def on_finished(_node: int) -> None:
            if all(n.processor.finished_at is not None for n in self.nodes):
                self.sim.stop()

        for node in self.nodes:
            node.processor.start(on_finished)

        limit = (max_cycles if max_cycles is not None
                 else self._default_max_cycles(self.config))
        self.sim.run(until=limit)
        finished = all(n.processor.finished_at is not None for n in self.nodes)
        return self._collect_results(finished)

    @classmethod
    def replays(cls, finished: RunResult, config: SystemConfig, *,
                rate_per_second: Optional[float],
                max_cycles: Optional[int]) -> bool:
        """Whether :meth:`run` on a new build of ``config``, with an injector
        at ``rate_per_second`` attached (``None``: none) and bounded by
        ``max_cycles``, would repeat ``finished``, a run that
        :meth:`stands_for` a run of ``config``, event for event.

        It would when ``finished`` finished at cycle ``B`` with no injection
        acting on it, ``B`` is within the cycle bound, and the injector
        first fires strictly after ``B``.  :meth:`run` executes events in
        ``(time, seq)`` order, events at the bound included, and stops on
        the event that finishes the last processor, at ``B``
        (``runtime_cycles``).  Before its first firing an attached injector's
        only effect is one queued event, which takes a sequence number but
        changes no other event's order.  A firing at ``B`` itself would run
        before the finishing event, which was queued after it.

        A run of ``config``'s *variant twin* (the configuration that differs
        only in ``variant``) is such a run when its counters name none of
        :attr:`VARIANT_SITES`.  ``config.variant`` is read only by:

        * the three detection-flag derivations, each with one use, which
          counts on either variant: ``corner_case_detection_enabled`` in
          snooping ``_corner_case`` (``corner_case_detections`` or
          ``corner_case_handled``), ``p2p_detection_enabled`` in the
          directory cache controller's ``_forwarded_request_without_data``
          (``p2p_order_detections`` or ``race_forward_ignored``) and the
          directory's ``_full_variant`` in its writeback race, counted as
          ``writeback_races`` before the branch;
        * S1's and S2's ``applies_to``.  Arming either only registers a
          forward-progress policy, which only a recovery of that design's
          own kind applies, and only a detection at one of those sites
          reports that kind;
        * the two ``_default_label`` functions, which name the result and
          nothing else (a replay relabels it);
        * spec decoding.

        Every site counts in Python on both kernel tiers.  So, by induction
        over their ``(time, seq)``-ordered events, two twin machines run the
        same code on the same state until one of them reaches a site, where
        both count it; a run whose counters name no site repeats its twin
        event for event.
        """
        if (not finished.finished
                or finished.detections_of(SpeculationKind.INJECTED)):
            return False
        stopped_at = finished.runtime_cycles
        limit = (max_cycles if max_cycles is not None
                 else cls._default_max_cycles(config))
        period = (None if rate_per_second is None
                  else injection_period_cycles(rate_per_second,
                                               config.cycles_per_second))
        return stopped_at <= limit and (period is None or period > stopped_at)

    @classmethod
    def stands_for(cls, stored: SystemConfig, finished: RunResult,
                   config: SystemConfig) -> bool:
        """Whether ``finished``, a run of ``stored``, is a run of ``config``
        for :meth:`replays`: the configurations are equal, or they are
        variant twins and ``finished.counters`` name none of
        :attr:`VARIANT_SITES` (the argument is in :meth:`replays`)."""
        if stored == config:
            return True
        return (stored.variant is not config.variant
                and replace(stored, variant=config.variant) == config
                and not any(name.rpartition(".")[2] in cls.VARIANT_SITES
                            for name in finished.counters))

    # ----------------------------------------------------------------- results
    def _collect_results(self, finished: bool) -> RunResult:
        """The run's :class:`RunResult`.  Every detection and recovery count
        is derived from the speculation manager's ``events`` and ``records``
        lists (per-kind counts in first-occurrence order), so no count can
        disagree with ``recovery_records``."""
        runtime = max((n.processor.finished_at or self.sim.now) for n in self.nodes)
        refs = sum(n.processor.references_completed for n in self.nodes)
        instructions = sum(n.processor.retired_instructions for n in self.nodes)
        l2_hits = sum(n.l2_array.hits for n in self.nodes)
        l2_misses = sum(n.l2_array.misses for n in self.nodes)
        events = self.speculation.events
        records = self.speculation.records
        return RunResult(
            workload=self.config.workload.name,
            config_label=self.label,
            runtime_cycles=runtime,
            references_completed=refs,
            instructions_retired=instructions,
            finished=finished,
            detections=len(events),
            detections_by_kind=dict(Counter(e.kind.value for e in events)),
            recoveries=len(records),
            recoveries_by_kind=dict(Counter(r.kind.value for r in records)),
            recovery_records=list(records),
            l2_misses=l2_misses,
            l2_hits=l2_hits,
            checkpoints_taken=self.safetynet.checkpoints_taken,
            peak_log_entries=self.safetynet.peak_log_occupancy_entries(),
            events_executed=self.sim.events_executed,
            counters=self.stats.counters(),
            **self._network_metrics(runtime),
        )
