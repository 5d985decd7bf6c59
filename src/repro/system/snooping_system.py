"""The broadcast snooping multiprocessor (Section 3.2 target system).

A 16-node system whose coherence requests are broadcast on a totally ordered
address network and whose data moves point-to-point.  SafetyNet uses the
request count as its logical time base (Table 2: a checkpoint every 3,000
requests).  The ``SPECULATIVE`` variant leaves the writeback corner case
unhandled (the ``snooping-corner-case`` speculation) and recovers when it
is detected; forward progress after such a recovery is the slow-start mode
of Section 3.2.  Which speculations arm follows from ``variant`` (see
:meth:`repro.speculation.manager.SpeculationManager.arm`).
"""

from __future__ import annotations

from typing import Dict, List

from repro import kernel
from repro.coherence.cache import CacheArray, CacheLine
from repro.coherence.common import MemoryOp, Transaction
from repro.coherence.snooping.bus import AddressBus, BusRequest, BusRequestType
from repro.coherence.snooping.cache_controller import SnoopingCacheController
from repro.coherence.snooping.memory_controller import SnoopingMemoryController
from repro.coherence.snooping.states import SnoopState
from repro.processor.core import BlockingProcessor
from repro.processor.l1 import L1FilterCache, L1State
from repro.safetynet.manager import SafetyNet
from repro.sim.config import ProtocolKind, SystemConfig
from repro.system.base import System
from repro.system.node import SnoopingNode

__all__ = ["SnoopingNode", "SnoopingSystem"]


class SnoopingSystem(System):
    """A runnable broadcast-snooping multiprocessor."""

    kind = ProtocolKind.SNOOPING
    VARIANT_SITES = frozenset({"corner_case_detections", "corner_case_handled"})

    # ------------------------------------------------------------------- build
    @staticmethod
    def _default_label(config: SystemConfig) -> str:
        return f"snooping-{config.variant.value}"

    def _build_fabric(self) -> None:
        self.bus = AddressBus(self.sim, stats=self.stats)
        self.memory = SnoopingMemoryController(
            self.sim, memory_latency_cycles=self.config.memory_latency_cycles,
            deliver_data=self._deliver_data, stats=self.stats)

    def _build_safetynet(self) -> SafetyNet:
        return SafetyNet(
            self.sim, self.config.checkpoint,
            num_nodes=self.config.num_processors,
            interval_requests=self.config.checkpoint.snooping_interval_requests,
            stats=self.stats)

    def checkpoint_interval_cycles(self) -> int:
        # The snooping system's checkpoint interval is request-based; convert
        # an approximate cycle equivalent for the transaction timeout.
        approx = (self.config.checkpoint.snooping_interval_requests
                  * self.bus.arbitration_cycles)
        return max(approx, 10_000)

    def _deliver_data(self, dst: int, address: int, value: int) -> None:
        self.nodes[dst].cache_controller.receive_data(address, value)

    def _build_nodes(self) -> None:
        cfg = self.config
        for node_id in range(cfg.num_processors):
            l2_array: CacheArray = CacheArray(f"snoop-l2.{node_id}", cfg.l2,
                                              SnoopState.INVALID)
            cache_ctrl = SnoopingCacheController(
                node_id, self.sim, cfg, l2_array, self.bus, self._deliver_data,
                txn_ids=self.txn_ids,
                misspeculation_reporter=self.speculation.report, stats=self.stats)
            cache_ctrl.may_issue = self.slow_start_gate.may_issue
            cache_ctrl.on_retire = self.slow_start_gate.retired
            l1 = L1FilterCache(f"snoop-l1.{node_id}", cfg.l1)
            processor = BlockingProcessor(
                node_id, self.sim, cfg, [], l1=l1,
                rng=self.rng.spawn(f"proc{node_id}"), stats=self.stats)
            processor.l2_access = cache_ctrl.access
            processor.l2_state_of = l2_array.get_state
            processor.set_store_value_hook(
                lambda addr, val, arr=l2_array: (
                    arr.set_value(addr, val) if arr.contains(addr) else None))

            l2_array.set_observer(self.safetynet.register_store(
                f"snoop-l2.{node_id}", node_id, l2_array.restore_field))
            self.safetynet.register_participant(processor)
            self.safetynet.add_squash_hook(cache_ctrl.squash_transient_state)
            self.bus.attach_controller(cache_ctrl)
            self.nodes.append(SnoopingNode(
                node_id=node_id, processor=processor, l1=l1,
                l2_array=l2_array, cache_controller=cache_ctrl))

        self.memory.set_observer(self.safetynet.register_store(
            "snoop-memory", 0, self.memory.restore_field))
        self.bus.attach_memory(self.memory.snoop)
        self.bus.add_ordered_hook(lambda _req: self.safetynet.note_request())
        self.safetynet.add_squash_hook(self.bus.flush)
        self.safetynet.add_squash_hook(
            lambda: self.slow_start_gate.reset_outstanding())

    def _install_compiled_fast_paths(self) -> None:
        # Rebind the issue loop, bus arbitration and the cache-controller
        # transition handlers onto the compiled cores (byte-identical ports;
        # the pure methods stay authoritative and still handle every cold
        # path).  ``ctrl.snoop`` becomes SnoopCore's, which runs only the
        # stable-state snoops and calls the pure ``_snoop_own`` and
        # ``_snoop_foreign`` (bound at construction, never rebound) for
        # every snoop that meets transient state.  BusCore is installed
        # first: SnoopCore captures ``ctrl.bus.issue`` at construction and
        # must see the compiled arbitration loop.  A core missing from the
        # extension leaves its path pure.
        impl = kernel.engine_impl()
        if impl is None or not hasattr(impl, "ProcessorCore"):
            return
        if not isinstance(self.sim, impl.Simulator):
            return
        if hasattr(impl, "BusCore"):
            core = impl.BusCore(self.bus)
            self.bus._bus_core = core
            self.bus.issue = core.issue
        for node in self.nodes:
            processor = node.processor
            if processor.l1 is not None:
                proc_core = impl.ProcessorCore(
                    processor, node.l2_array, MemoryOp.STORE,
                    SnoopState.INVALID,
                    (SnoopState.MODIFIED, SnoopState.EXCLUSIVE))
                processor._issue_next = proc_core
                if hasattr(impl, "MemoryCompleteCore"):
                    processor._memory_complete = impl.MemoryCompleteCore(
                        processor, proc_core, L1State.VALID, CacheLine)
            if hasattr(impl, "SnoopCore"):
                ctrl = node.cache_controller
                snoop_core = impl.SnoopCore(
                    ctrl, MemoryOp.LOAD, MemoryOp.STORE,
                    SnoopState.EXCLUSIVE, SnoopState.OWNED,
                    BusRequestType.GETS, BusRequestType.GETX,
                    BusRequestType.WRITEBACK, BusRequest, Transaction,
                    CacheLine)
                ctrl._snoop_core = snoop_core
                node.processor.l2_access = snoop_core.access
                ctrl.receive_data = snoop_core.receive_data
                ctrl.snoop = snoop_core.snoop

    # --------------------------------------------------------------------- run
    @staticmethod
    def _default_max_cycles(config: SystemConfig) -> int:
        return max(1_000_000,
                   config.workload.references_per_processor * 2_000)

    # ----------------------------------------------------------------- results
    def _network_metrics(self, runtime: int) -> Dict[str, object]:
        return {
            "messages_delivered": self.bus.requests_ordered,
            "mean_message_latency": 0.0,
            "mean_link_utilization": 0.0,
            "peak_link_utilization": 0.0,
            "reorder_rate_overall": 0.0,
        }

    # ------------------------------------------------------------------ checks
    def invariant_errors(self) -> List[str]:
        """SWMR and structural violations across the snooping caches."""
        errors: List[str] = []
        owners = {}
        for node in self.nodes:
            errors.extend(node.cache_controller.invariant_errors())
            for line in node.l2_array.lines():
                if line.state in (SnoopState.MODIFIED, SnoopState.EXCLUSIVE):
                    owners.setdefault(line.address, []).append(node.node_id)
        for address, holders in owners.items():
            if len(holders) > 1:
                errors.append(f"block {address:#x}: multiple exclusive holders {holders}")
        return errors
