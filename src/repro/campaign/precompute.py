"""Shared-precomputation surface of the campaign layer.

Two artifact memos sit under every run (DESIGN.md §9):

* generated workload reference streams, keyed by ``(family, canonical
  params, seed, node count, block size, stream length)`` —
  :mod:`repro.workloads.memo`;
* interconnect topologies with their precomputed ``[src][dst]`` routing
  tables, keyed by ``(kind, dims)`` —
  :func:`repro.interconnect.topology.shared_topology`.

A third memo sits above them: the run memo of
:func:`repro.campaign.executor.execute_spec`, which answers a spec that
provably repeats a finished run with that run's result.

This module is the campaign-facing façade: it merges the memo tallies for
reporting and clears all three memos at once for cold-path measurements.
The memos are process-global and observational-only; results are
byte-identical warm or cold.  No campaign batch needs more streams than
the stream memo holds (DESIGN.md §9), so the executors run specs in batch
order and never regroup them by artifact.
"""

from __future__ import annotations

from typing import Dict

from repro.campaign.executor import RUN_MEMO_STATS, clear_run_memo
from repro.interconnect.topology import (
    TOPOLOGY_MEMO_STATS,
    clear_topology_memo,
    shared_topology,
)
from repro.workloads.memo import (
    MEMO_STATS,
    clear_stream_memo,
    shared_streams,
    stream_key,
)

__all__ = [
    "clear_memos",
    "memo_stats",
    "shared_streams",
    "shared_topology",
    "stream_key",
]


def memo_stats() -> Dict[str, int]:
    """Merged hit/miss tallies of the three memos (a fresh copy)."""
    merged = dict(MEMO_STATS)
    merged.update(TOPOLOGY_MEMO_STATS)
    merged.update(RUN_MEMO_STATS)
    return merged


def clear_memos() -> None:
    """Drop every warm artifact and stored run and zero the tallies."""
    clear_stream_memo()
    clear_topology_memo()
    clear_run_memo()
