#!/usr/bin/env python
"""Quickstart: build a 16-node speculative multiprocessor and run a workload.

This script builds the paper's Section 3.1 design point — the speculatively
simplified MOSI directory protocol over an adaptively routed 2D torus, with
SafetyNet recovery behind it — runs the SPECjbb-like workload on it, and
prints what the speculation-for-simplicity framework observed: how often the
network reordered messages, whether any mis-speculations were detected, and
what the recoveries (if any) cost.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis.report import format_counters
from repro.experiments.common import benchmark_config
from repro.sim.config import ProtocolVariant, RoutingPolicy
from repro.system import build_system


def main() -> None:
    config = benchmark_config(
        workload="jbb",
        references=400,
        variant=ProtocolVariant.SPECULATIVE,
        routing=RoutingPolicy.ADAPTIVE,
        link_bandwidth=400e6,
    )
    print("Building the 16-node speculative directory system "
          f"({config.interconnect.topology.describe()}, "
          f"{config.interconnect.link_bandwidth_bytes_per_sec / 1e6:.0f} MB/s links)...")
    system = build_system(config)
    result = system.run()

    print()
    print(result.summary_line())
    print(f"  mean message latency   : {result.mean_message_latency:.0f} cycles")
    print(f"  mean link utilisation  : {result.mean_link_utilization:.1%}")
    print(f"  reordered messages     : {result.reorder_rate_overall:.4%} overall, "
          f"{result.reorder_rate_by_vnet.get('FORWARDED_REQUEST', 0.0):.4%} "
          "on the ForwardedRequest virtual network")
    print(f"  SafetyNet checkpoints  : {result.checkpoints_taken} "
          f"(peak log occupancy {result.peak_log_entries} entries)")
    print(f"  mis-speculations       : {result.detections} detected, "
          f"{result.recoveries} recoveries {result.recoveries_by_kind}")
    for record in result.recovery_records:
        print(f"    - {record.event.kind.value} at cycle {record.started_at}: "
              f"lost {record.work_lost_cycles} cycles of work, "
              f"resumed at {record.resumed_at}")
    print()
    print(format_counters("Selected protocol counters",
                          result.counters, prefix="network.", limit=12))
    print()
    print("Coherence invariants:",
          "OK" if not system.invariant_errors() else system.invariant_errors())


if __name__ == "__main__":
    main()
