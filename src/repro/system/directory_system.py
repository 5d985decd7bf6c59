"""The directory-protocol multiprocessor (16 nodes in the paper).

This is the target system of Sections 3.1, 4 and 5: a MOSI directory
protocol over a configurable interconnect (the paper's 2D torus by default;
any registered topology and node count via ``TopologyConfig``), with
SafetyNet recovery and the speculation layer wired in.  Depending on the
configuration it realises several of the paper's design points:

* ``variant=FULL`` + virtual channels + static routing — the conventional,
  fully designed baseline;
* ``variant=SPECULATIVE`` + adaptive routing — the Section 3.1 design that
  speculates on point-to-point ordering (the ``directory-p2p-order``
  speculation);
* ``interconnect.speculative_no_vc=True`` — the Section 4 design that
  removes virtual-channel deadlock avoidance and recovers from deadlocks
  detected by transaction timeouts (the ``interconnect-deadlock``
  speculation);
* with the ``injected`` speculation attached via
  :meth:`~repro.system.base.System.attach_recovery_injector` — the
  Figure 4 stress test.

Which speculations arm follows from ``variant`` and the protocol (see
:meth:`repro.speculation.manager.SpeculationManager.arm`).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro import kernel
from repro.coherence.cache import CacheArray, CacheLine
from repro.coherence.common import MemoryOp, Transaction, home_node
from repro.coherence.directory.cache_controller import DirectoryCacheController
from repro.coherence.directory.messages import CoherencePayload
from repro.coherence.directory.directory_controller import DirectoryController
from repro.coherence.directory.states import CacheState, DirectoryState
from repro.interconnect.message import (MessageClass, NetworkMessage,
                                         VirtualNetwork)
from repro.interconnect.network import InterconnectNetwork
from repro.processor.core import BlockingProcessor
from repro.processor.l1 import L1FilterCache, L1State
from repro.safetynet.manager import SafetyNet
from repro.sim.config import ProtocolKind, SystemConfig
from repro.system.base import System
from repro.system.node import DirectoryNode


class DirectorySystem(System):
    """A runnable directory-protocol multiprocessor."""

    kind = ProtocolKind.DIRECTORY

    # ------------------------------------------------------------------- build
    @staticmethod
    def _default_label(config: SystemConfig) -> str:
        parts = [config.variant.value, config.interconnect.routing.value]
        if config.interconnect.speculative_no_vc:
            parts.append("no-vc")
        return "-".join(parts)

    def _build_fabric(self) -> None:
        self.network = InterconnectNetwork(
            self.sim, self.config.interconnect,
            frequency_hz=self.config.processor.frequency_hz,
            stats=self.stats)

    def _build_safetynet(self) -> SafetyNet:
        return SafetyNet(
            self.sim, self.config.checkpoint,
            num_nodes=self.config.num_processors,
            interval_cycles=self.config.checkpoint.directory_interval_cycles,
            stats=self.stats)

    def checkpoint_interval_cycles(self) -> int:
        return self.config.checkpoint.directory_interval_cycles

    def _home(self, address: int) -> int:
        return home_node(address, self.config.num_processors, self.config.block_bytes)

    def _make_send(self, src: int) -> Callable:
        # Hot path: one call per protocol message.  The sizes and the
        # network's send method are fixed once the system is built, so the
        # closure binds them instead of re-deriving size via make_message.
        icfg = self.config.interconnect
        data_bytes = icfg.data_message_bytes
        ctrl_bytes = icfg.control_message_bytes
        network_send = self.network.send

        data = MessageClass.DATA
        writeback = MessageClass.WRITEBACK

        def send(dst: int, msg_class: MessageClass, address: int, payload) -> None:
            size = (data_bytes if (msg_class is data or msg_class is writeback)
                    else ctrl_bytes)
            network_send(NetworkMessage(src, dst, msg_class, size,
                                        payload, address))
        return send

    def _build_nodes(self) -> None:
        cfg = self.config
        for node_id in range(cfg.num_processors):
            l2_array: CacheArray = CacheArray(f"l2.{node_id}", cfg.l2, CacheState.INVALID)
            send = self._make_send(node_id)
            cache_ctrl = DirectoryCacheController(
                node_id, self.sim, cfg, l2_array, send, self._home,
                txn_ids=self.txn_ids,
                misspeculation_reporter=self.speculation.report, stats=self.stats)
            cache_ctrl.may_issue = self.slow_start_gate.may_issue
            cache_ctrl.on_retire = self.slow_start_gate.retired
            directory = DirectoryController(node_id, self.sim, cfg, send, stats=self.stats)
            l1 = L1FilterCache(f"l1.{node_id}", cfg.l1)
            processor = BlockingProcessor(
                node_id, self.sim, cfg, [], l1=l1,
                rng=self.rng.spawn(f"proc{node_id}"), stats=self.stats)
            processor.l2_access = cache_ctrl.access
            processor.l2_state_of = l2_array.get_state
            processor.set_store_value_hook(
                lambda addr, val, arr=l2_array: (
                    arr.set_value(addr, val) if arr.contains(addr) else None))

            # SafetyNet wiring: undo logging + restore + squash + rollback.
            l2_array.set_observer(self.safetynet.register_store(
                f"l2.{node_id}", node_id, l2_array.restore_field))
            directory.set_observer(self.safetynet.register_store(
                f"dir.{node_id}", node_id, directory.restore_entry))
            self.safetynet.register_participant(processor)
            self.safetynet.add_squash_hook(cache_ctrl.squash_transient_state)
            self.safetynet.add_squash_hook(directory.squash_transient_state)

            # Network attachment: dispatch by message class.
            self.network.attach(node_id, self._make_receiver(cache_ctrl, directory))
            self.nodes.append(DirectoryNode(
                node_id=node_id, processor=processor, l1=l1, l2_array=l2_array,
                cache_controller=cache_ctrl, directory=directory))

        self.safetynet.add_squash_hook(self.network.flush)
        self.safetynet.add_squash_hook(
            lambda: self.slow_start_gate.reset_outstanding())
        # Runs after the undo log has been replayed (hooks run in order):
        # reconcile directory entries with the restored cache states so the
        # recovery point is a protocol-consistent cut (see method docstring).
        self.safetynet.add_squash_hook(self._reconcile_after_recovery)

    @staticmethod
    def _make_receiver(cache_ctrl: DirectoryCacheController,
                       directory: DirectoryController) -> Callable:
        # One call per delivered message: bind the handlers and dispatch on
        # the precomputed ``vnet`` slot by member identity.
        dir_handle = directory.handle_message
        cache_handle = cache_ctrl.handle_message
        request = VirtualNetwork.REQUEST
        final_ack = VirtualNetwork.FINAL_ACK

        def receive(message) -> None:
            vnet = message.vnet
            if vnet is request or vnet is final_ack:
                dir_handle(message)
            else:
                cache_handle(message)
        return receive

    def _install_compiled_fast_paths(self) -> None:
        # Rebind the protocol message path onto the compiled cores: the
        # processor issue loop, the send closure and the receive dispatch.
        # Each core is a byte-identical port of the pure code above, which
        # remains the single source of truth (and handles every cold path).
        # A core missing from the extension leaves its path pure.
        impl = kernel.engine_impl()
        if (impl is None or not hasattr(impl, "ProcessorCore")
                or not hasattr(impl, "TransactionCore")):
            return
        if not isinstance(self.sim, impl.Simulator):
            return
        network = self.network
        cfg = self.config
        icfg = cfg.interconnect
        for node in self.nodes:
            processor = node.processor
            proc_core = None
            if processor.l1 is not None:
                proc_core = impl.ProcessorCore(
                    processor, node.l2_array, MemoryOp.STORE,
                    CacheState.INVALID, (CacheState.MODIFIED,))
                processor._issue_next = proc_core
            if hasattr(impl, "MessageSendCore"):
                send = impl.MessageSendCore(
                    network, node.node_id, NetworkMessage, MessageClass.DATA,
                    MessageClass.WRITEBACK, icfg.data_message_bytes,
                    icfg.control_message_bytes)
                node.cache_controller.send = send
                node.directory.send = send
            # Transaction path: the controller's access() plus the DATA/ACK
            # handlers (built after the send rebind so the core captures the
            # compiled send).  The handler-dict entries give C-to-C dispatch
            # from the receive core; every other message class stays pure.
            txn_core = impl.TransactionCore(
                node.cache_controller, cfg.num_processors, cfg.block_bytes,
                MemoryOp.LOAD, MemoryOp.STORE,
                MessageClass.REQUEST_READ_ONLY,
                MessageClass.REQUEST_READ_WRITE, MessageClass.FINAL_ACK,
                CoherencePayload, Transaction, CacheLine)
            node.cache_controller._txn_core = txn_core
            node.cache_controller._handlers[MessageClass.DATA] = \
                txn_core.handle_data
            node.cache_controller._handlers[MessageClass.ACK] = \
                txn_core.handle_ack
            processor.l2_access = txn_core.access
            if proc_core is not None and hasattr(impl, "MemoryCompleteCore"):
                processor._memory_complete = impl.MemoryCompleteCore(
                    processor, proc_core, L1State.VALID, CacheLine)
            if hasattr(impl, "DirectoryReceiveCore"):
                endpoint = network._endpoints[node.node_id]
                endpoint.receive = impl.DirectoryReceiveCore(
                    node.cache_controller, node.directory,
                    VirtualNetwork.REQUEST, VirtualNetwork.FINAL_ACK,
                    MessageClass.REQUEST_READ_ONLY,
                    MessageClass.REQUEST_READ_WRITE,
                    MessageClass.WRITEBACK, MessageClass.FINAL_ACK)

    # --------------------------------------------------------------------- run
    @staticmethod
    def _default_max_cycles(cfg: SystemConfig) -> int:
        per_ref_bound = 4 * (cfg.memory_latency_cycles
                             + 8 * cfg.interconnect.link_latency_cycles
                             + 100)
        return max(1_000_000, cfg.workload.references_per_processor * per_ref_bound)

    # ----------------------------------------------------------------- results
    def _network_metrics(self, runtime: int) -> Dict[str, object]:
        ordering = self.network.ordering
        return {
            "messages_delivered": self.network.messages_delivered,
            "mean_message_latency": self.network.mean_message_latency(),
            "mean_link_utilization": self.network.mean_link_utilization(runtime),
            "peak_link_utilization": self.network.peak_link_utilization(runtime),
            "reorder_rate_overall": ordering.reorder_rate(),
            "reorder_rate_by_vnet": {vn.name: ordering.reorder_rate(vn)
                                     for vn in VirtualNetwork},
        }

    # ---------------------------------------------------------------- recovery
    def _reconcile_after_recovery(self) -> None:
        """Make directory entries consistent with the restored cache states.

        SafetyNet's hardware implementation coordinates checkpoints in
        logical time so that every checkpoint is a *consistent cut* of the
        protocol state.  This model logs each component independently, so a
        checkpoint taken while an ownership transfer was in flight can
        restore a directory entry that names an owner whose (also restored)
        cache no longer holds the block — which would wedge re-execution.
        This pass recomputes each entry's owner/sharers/state from the
        restored cache contents, which is exactly the state a consistent cut
        would have captured.  It runs inside the recovery (after the undo
        replay) and is not itself logged.
        """
        # This pass runs on every recovery of every Figure 4 run, over every
        # resident line of every node, so it iterates the cache sets
        # directly (no generator chain) and classifies each address's
        # holders in a single sweep.
        modified = CacheState.MODIFIED
        owned = CacheState.OWNED
        shared = CacheState.SHARED
        nodes = self.nodes
        copies: Dict[int, List] = {}
        for node in nodes:
            node_id = node.node_id
            # filter(None, ...) skips the (vast majority of) empty sets at C
            # speed; the Python-level loop only sees occupied ones.
            for cache_set in filter(None, node.l2_array._sets):
                for address, line in cache_set.items():
                    holders = copies.get(address)
                    if holders is None:
                        holders = copies[address] = []
                    holders.append((node_id, line.state))
        every_address = set(copies)
        for node in nodes:
            every_address.update(node.directory.entries.keys())
        num_processors = self.config.num_processors
        block_bytes = self.config.block_bytes
        for address in every_address:
            home = nodes[home_node(address, num_processors,
                                   block_bytes)].directory
            entry = home.entry(address)
            owner = None
            extra_owners = None
            sharers = set()
            for n, s in copies.get(address, ()):
                if s is modified or s is owned:
                    if owner is None:
                        owner = n
                    elif extra_owners is None:
                        extra_owners = [n]
                    else:
                        extra_owners.append(n)
                elif s is shared:
                    sharers.add(n)
            if owner is not None:
                # A cut can never legitimately produce two owners, but be
                # defensive: demote extras to sharers.
                if extra_owners is not None:
                    for extra in extra_owners:
                        nodes[extra].l2_array.force_line(
                            address, shared,
                            nodes[extra].l2_array.peek(address).value)
                        sharers.add(extra)
                entry.owner = owner
                entry.state = DirectoryState.OWNED
                sharers.discard(owner)
                entry.sharers = sharers
            else:
                entry.owner = None
                entry.sharers = sharers
                entry.state = (DirectoryState.SHARED if sharers
                               else DirectoryState.UNCACHED)

    # ------------------------------------------------------------------ checks
    def invariant_errors(self) -> List[str]:
        """Coherence invariant violations across the whole system.

        Checks the single-writer / multiple-reader (SWMR) invariant and the
        consistency between directory entries and cache states.  Empty when
        the system is healthy; property-based tests assert exactly that.
        """
        errors: List[str] = []
        owners: Dict[int, List[int]] = {}
        for node in self.nodes:
            errors.extend(node.invariant_errors())
            for line in node.l2_array.lines():
                if line.state in (CacheState.MODIFIED, CacheState.OWNED):
                    owners.setdefault(line.address, []).append(node.node_id)
                if line.state == CacheState.MODIFIED:
                    for other in self.nodes:
                        if other.node_id == node.node_id:
                            continue
                        other_line = other.l2_array.peek(line.address)
                        if other_line is not None and other_line.state != CacheState.INVALID:
                            errors.append(
                                f"block {line.address:#x}: M at node {node.node_id} "
                                f"but {other_line.state.value} at node {other.node_id}")
        for address, holders in owners.items():
            if len(holders) > 1:
                errors.append(f"block {address:#x}: multiple owners {holders}")
        return errors
