#!/usr/bin/env python
"""Scenario: tape out a snooping protocol with an unhandled corner case.

Section 3.2's story: randomized testing found a protocol race the designers
had not specified — a cache that issued a Writeback sees two foreign
RequestReadWrite transactions before its own Writeback is ordered.  Instead
of redesigning and re-verifying the protocol, the speculative design detects
the transition and recovers.

This example does two things:

1. runs the full commercial workload suite on the speculative snooping
   system and reports how many times the corner case occurred naturally
   (the paper observed zero), and
2. force-constructs the corner case on a 4-node system to show the
   detection, the SafetyNet recovery and the slow-start forward-progress
   mechanism actually firing — the path a real occurrence would take.

Run with:  python examples/snooping_corner_case.py
"""

from __future__ import annotations

from repro.coherence.snooping.bus import BusRequest, BusRequestType
from repro.coherence.common import MemoryOp, MemoryRequest
from repro.core.events import SpeculationKind
from repro.experiments.common import benchmark_config, run_config
from repro.sim.config import ProtocolKind, ProtocolVariant, SystemConfig
from repro.system import build_system
from repro.workloads import workload_names


def natural_occurrence_sweep() -> None:
    print("1. Natural occurrence across the workload suite")
    print(f"{'workload':>12s}  {'bus requests':>12s}  {'corner-case recoveries':>22s}")
    for workload in workload_names():
        result = run_config(benchmark_config(
            workload, references=300, protocol=ProtocolKind.SNOOPING,
            variant=ProtocolVariant.SPECULATIVE), label="snooping-speculative")
        corner = result.recoveries_of(SpeculationKind.SNOOPING_CORNER_CASE)
        print(f"{workload:>12s}  {result.messages_delivered:>12d}  {corner:>22d}")
    print("  (the paper likewise observed zero occurrences on its runs)\n")


def forced_occurrence_demo() -> None:
    print("2. Forcing the corner case to show detection + recovery")
    config = SystemConfig.small(num_processors=4, references=0).with_updates(
        protocol=ProtocolKind.SNOOPING, variant=ProtocolVariant.SPECULATIVE)
    system = build_system(config)
    ctrl = system.nodes[1].cache_controller

    # Node 1 owns a block and issues a Writeback (eviction)...
    done = []
    ctrl.access(MemoryRequest(node=1, op=MemoryOp.STORE, address=0x2000, value=7),
                lambda r: done.append(r))
    system.sim.run()
    ctrl._evict(system.nodes[1].l2_array.peek(0x2000))
    # ...and, before its own Writeback is ordered, observes two different
    # processors' RequestReadWrite transactions for that block.
    ctrl.snoop(BusRequest(requestor=2, address=0x2000, rtype=BusRequestType.GETX))
    ctrl.snoop(BusRequest(requestor=3, address=0x2000, rtype=BusRequestType.GETX))
    system.sim.run()

    manager = system.speculation
    print(f"  detections: {len(manager.events)}, "
          f"recoveries: {len(manager.records)}")
    for record in manager.records:
        print(f"  recovery for '{record.event.description}'")
        print(f"    work lost: {record.work_lost_cycles} cycles, "
              f"resumed at cycle {record.resumed_at}")
    print(f"  slow-start active after recovery: {system.slow_start_gate.active} "
          f"(limit {system.slow_start_gate.current_limit} outstanding transaction)")


def main() -> None:
    natural_occurrence_sweep()
    forced_occurrence_demo()


if __name__ == "__main__":
    main()
