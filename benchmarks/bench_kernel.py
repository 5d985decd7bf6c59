"""Kernel micro/macro benchmarks: the repo's performance trajectory.

Each benchmark measures one hot layer of the simulator in isolation plus one
macro experiment (the Figure 4 recovery-rate sweep) end to end:

* ``event_queue`` — events/sec through :class:`repro.sim.engine.Simulator`
  with a self-rescheduling workload (the kernel dispatch loop).
* ``event_churn`` — events/sec with a schedule/cancel-heavy pattern (timeout
  style: most events are cancelled before they fire), which exercises the
  heap-compaction path.
* ``workload_gen`` — references/sec of synthetic reference-stream generation.
* ``undo_log`` — undo-records/sec through the SafetyNet checkpoint log
  (append + periodic commit, the observer hot path).
* ``routing`` — route decisions/sec for static and adaptive routing on the
  16-node torus.
* ``fig4_macro`` — wall-clock seconds for the Figure 4 recovery-rate sweep
  (the experiment the paper's headline figure comes from), plus the
  aggregate simulator events/sec it achieved.
* ``campaign_sharded`` — the full 40-point workload-matrix grid fanned out
  to crash-safe store workers (:class:`repro.campaign.sharding
  .ShardedExecutor`) against an uncached serial baseline; reports the
  sharded speedup, the worker and CPU counts (speedup is bounded by
  ``min(workers, cpus)`` — on a single-core runner it is ≤ 1), and checks
  the two modes produce byte-identical results.

Results are plain dicts so :mod:`tools.perf_report` can serialise them into
``BENCH_kernel.json``.  Numbers are wall-clock measurements: run on an idle
machine for stable comparisons.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else float("inf")


def _available_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware on Linux).

    Recorded alongside the campaign benchmarks because their speedup
    ceiling is ``min(workers, cpus)`` — a sub-1.0 parallel speedup on a
    single-CPU machine is the expected outcome, not a regression, and
    ``tools/perf_report.py`` gates its regression surface on this field.
    """
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


# --------------------------------------------------------------------- micro
def bench_event_queue(num_events: int = 200_000) -> Dict[str, Any]:
    """Dispatch throughput: a fan of self-rescheduling callbacks."""
    from repro import kernel

    sim = kernel.new_simulator()
    horizon = num_events

    def make_ticker(period: int) -> Callable[[], None]:
        def tick() -> None:
            if sim.now < horizon:
                sim.schedule(period, tick)
        return tick

    # 16 tickers with coprime-ish periods plus a batch of same-cycle events
    # per tick (the batch-dispatch fast path).
    for i in range(16):
        sim.schedule(i % 5, make_ticker(3 + (i % 7)))
    start = time.perf_counter()
    sim.run(max_events=num_events)
    elapsed = time.perf_counter() - start
    return {
        "events": sim.events_executed,
        "seconds": round(elapsed, 6),
        "events_per_sec": round(_rate(sim.events_executed, elapsed), 1),
    }


def bench_event_churn(num_events: int = 100_000) -> Dict[str, Any]:
    """Schedule/cancel churn: most events are cancelled before firing.

    This is the coherence-timeout pattern (every transaction schedules a
    timeout, almost all are cancelled on completion) and exercises cancelled
    -entry compaction in the heap.
    """
    from repro import kernel

    sim = kernel.new_simulator()
    fired = 0
    pending: List[Any] = []

    def work() -> None:
        nonlocal fired
        fired += 1
        # Cancel the previously scheduled "timeouts" and schedule new ones.
        for ev in pending:
            ev.cancel()
        pending.clear()
        for d in (50, 100, 150, 200):
            pending.append(sim.schedule(d, _noop, label="timeout"))
        if fired < num_events:
            sim.schedule(1, work)

    def _noop() -> None:
        pass

    sim.schedule(0, work)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "events": sim.events_executed,
        "cancelled": 4 * fired - len(pending),
        "seconds": round(elapsed, 6),
        "events_per_sec": round(_rate(sim.events_executed, elapsed), 1),
    }


def bench_workload_gen(num_references: int = 200_000,
                       family: str = "jbb") -> Dict[str, Any]:
    """Reference-stream generation throughput of one registered family.

    The default measures the jbb paper profile (the historical
    ``workload_gen`` series); a second ``BENCHMARKS`` entry covers the
    ``hotspot`` scenario family so generation-speed regressions in the
    parameterized families gate the perf job exactly like kernel
    regressions do.
    """
    from repro.workloads import make_workload

    workload = make_workload(family, num_processors=16, seed=7)
    start = time.perf_counter()
    refs = workload.generate(0, num_references)
    elapsed = time.perf_counter() - start
    assert len(refs) == num_references
    return {
        "family": family,
        "references": num_references,
        "seconds": round(elapsed, 6),
        "references_per_sec": round(_rate(num_references, elapsed), 1),
    }


def bench_undo_log(num_records: int = 300_000) -> Dict[str, Any]:
    """Undo-record append + commit throughput (the logging observer path)."""
    from repro.safetynet.log import CheckpointLogBuffer, UndoRecord

    log = CheckpointLogBuffer("bench", capacity_bytes=512 * 1024, entry_bytes=72)
    records_per_checkpoint = 2_000
    start = time.perf_counter()
    seq = 0
    for i in range(num_records):
        if i and i % records_per_checkpoint == 0:
            seq += 1
            if seq >= 3:
                log.commit_through(seq - 3)
        log.append(UndoRecord(checkpoint_seq=seq, target_id="l2.0",
                              address=i * 64, field="state", old_value=i,
                              logged_at=i))
        # The occupancy probe every append mirrors what the buffer itself
        # does for peak tracking; keep it in the measured loop.
        _ = log.occupancy_entries
    elapsed = time.perf_counter() - start
    return {
        "records": num_records,
        "seconds": round(elapsed, 6),
        "records_per_sec": round(_rate(num_records, elapsed), 1),
    }


class _BenchCheckpoint:
    """Minimal stand-in exposing the one attribute the observer reads."""

    __slots__ = ("seq",)

    def __init__(self, seq: int) -> None:
        self.seq = seq


def bench_undo_observer(num_records: int = 300_000) -> Dict[str, Any]:
    """The full logging *observer* path, on the active kernel tier.

    Unlike :func:`bench_undo_log` (which measures the shared buffer logic
    and is tier-independent), this constructs the observer the way
    :meth:`repro.safetynet.manager.SafetyNet.register_store` does — a C
    callable on the compiled tier, the closure on the pure tier — so the
    per-tier trajectory of the record-construction + append hot path is
    visible in BENCH_kernel.json.
    """
    from repro import kernel
    from repro.safetynet.log import CheckpointLogBuffer, UndoRecord

    log = CheckpointLogBuffer("bench", capacity_bytes=512 * 1024, entry_bytes=72)
    sim = kernel.new_simulator()
    checkpoints: List[Any] = [_BenchCheckpoint(0)]
    impl = kernel.engine_impl()
    if impl is not None and isinstance(sim, impl.Simulator):
        observer = impl.LogObserver(log, checkpoints, "l2.0", sim)
    else:
        append = log.append
        def observer(address: int, field: str, old_value: object,
                     new_value: object) -> None:
            append(UndoRecord(
                checkpoint_seq=checkpoints[-1].seq,
                target_id="l2.0",
                address=address,
                field=field,
                old_value=old_value,
                logged_at=sim._now))

    records_per_checkpoint = 2_000
    start = time.perf_counter()
    seq = 0
    for i in range(num_records):
        if i and i % records_per_checkpoint == 0:
            seq += 1
            checkpoints[-1].seq = seq
            if seq >= 3:
                log.commit_through(seq - 3)
        observer(i * 64, "state", i, i + 1)
    elapsed = time.perf_counter() - start
    assert log.total_logged == num_records
    return {
        "tier": kernel.active_tier(),
        "records": num_records,
        "seconds": round(elapsed, 6),
        "records_per_sec": round(_rate(num_records, elapsed), 1),
    }


def bench_routing(num_decisions: int = 200_000) -> Dict[str, Any]:
    """Route decisions/sec on the 4x4 torus (static + adaptive)."""
    from repro.interconnect.message import MessageClass, NetworkMessage
    from repro.interconnect.routing import make_routing
    from repro.interconnect.topology import TorusTopology

    topology = TorusTopology(4, 4)
    static = make_routing("static", topology)
    adaptive = make_routing("adaptive", topology)
    n = topology.num_switches
    messages = [
        NetworkMessage(src=s, dst=d, msg_class=MessageClass.REQUEST_READ_ONLY,
                       size_bytes=8)
        for s in range(n) for d in range(n) if s != d
    ]
    congestion = lambda direction: 0  # noqa: E731 - uncongested network

    results: Dict[str, Any] = {}
    for name, algo in (("static", static), ("adaptive", adaptive)):
        start = time.perf_counter()
        done = 0
        while done < num_decisions:
            for msg in messages:
                algo.route(msg.src, msg, congestion)
            done += len(messages)
        elapsed = time.perf_counter() - start
        results[name] = {
            "decisions": done,
            "seconds": round(elapsed, 6),
            "decisions_per_sec": round(_rate(done, elapsed), 1),
        }
    return results


# --------------------------------------------------------------------- macro
def bench_fig4_macro(workloads: Optional[List[str]] = None,
                     references: int = 400) -> Dict[str, Any]:
    """Wall-clock for the Figure 4 sweep (serial, uncached) + events/sec."""
    from repro.campaign.executor import PERF_COUNTERS, SerialExecutor
    from repro.experiments import fig4_misspeculation_rate as fig4

    executor = SerialExecutor()
    events_before = PERF_COUNTERS["events_executed"]
    start = time.perf_counter()
    result = fig4.run(workloads, references=references, executor=executor)
    elapsed = time.perf_counter() - start
    events = PERF_COUNTERS["events_executed"] - events_before
    out: Dict[str, Any] = {
        "workloads": sorted(result.normalized),
        "references": references,
        "runs": sum(len(points) for points in result.normalized.values()),
        "wall_seconds": round(elapsed, 3),
    }
    if events:
        out["events"] = events
        out["events_per_sec"] = round(_rate(events, elapsed), 1)
    return out


def bench_campaign_sharded(references: int = 80, workers: int = 4,
                           quick: bool = False) -> Dict[str, Any]:
    """Sharded store workers vs an uncached serial run on the workload
    -matrix grid (full: all 40 design points; ``quick``: the 8-point quick
    grid).

    The sharded leg publishes a campaign manifest to a throwaway store and
    fans the grid out to ``workers`` crash-safe worker processes claiming
    design points via lease files — the orchestration under the runner's
    ``--workers N``.  The serial leg is the same grid through a plain
    :class:`repro.campaign.executor.SerialExecutor`, uncached.  Both legs
    must produce byte-identical results (the sharded leg of the determinism
    contract, reported as ``identical``).

    ``sharded_speedup`` is serial wall-clock over sharded wall-clock.  Its
    ceiling is ``min(workers, cpus)``: the workers are real processes, so
    on a single-core machine the sharded run *loses* to serial (spawn +
    store-polling overhead with zero extra parallelism) — which is why the
    CPU count rides along in the result.
    """
    import shutil
    import tempfile

    from repro.campaign.executor import SerialExecutor
    from repro.campaign.sharding import ShardedExecutor
    from repro.campaign.spec import RunSpec, SweepSpec
    from repro.experiments.workload_matrix import (
        MAX_CYCLES,
        PROTOCOLS,
        QUICK_WORKLOADS,
        S3_MODES,
        _point_config,
        _point_label,
    )
    from repro.workloads import workload_names

    workloads = QUICK_WORKLOADS if quick else workload_names()
    sweep = SweepSpec.of("workload-matrix-grid", [
        RunSpec(config=_point_config(workload, protocol, s3,
                                     references=references, seed=1),
                label=_point_label(workload, protocol, s3),
                max_cycles=MAX_CYCLES)
        for workload in workloads
        for protocol in PROTOCOLS
        for s3 in S3_MODES])

    start = time.perf_counter()
    serial_results = SerialExecutor().map(sweep)
    serial_seconds = time.perf_counter() - start

    store = tempfile.mkdtemp(prefix="bench_campaign_sharded_")
    try:
        start = time.perf_counter()
        with ShardedExecutor(workers, store, poll_interval=0.05) as executor:
            sharded_results = executor.map(sweep)
        sharded_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(store, ignore_errors=True)

    return {
        "specs": len(sweep),
        "workers": workers,
        "cpus": _available_cpus(),
        "references": references,
        "serial_seconds": round(serial_seconds, 3),
        "wall_seconds": round(sharded_seconds, 3),
        "sharded_speedup": round(serial_seconds / sharded_seconds, 3)
        if sharded_seconds > 0 else float("inf"),
        "identical": all(a.to_json() == b.to_json()
                         for a, b in zip(serial_results, sharded_results)),
    }


#: name -> (full-size kwargs, quick kwargs)
BENCHMARKS: Dict[str, Any] = {
    "event_queue": (bench_event_queue, {"num_events": 200_000},
                    {"num_events": 40_000}),
    "event_churn": (bench_event_churn, {"num_events": 60_000},
                    {"num_events": 12_000}),
    "workload_gen": (bench_workload_gen, {"num_references": 200_000},
                     {"num_references": 40_000}),
    "workload_gen_hotspot": (bench_workload_gen,
                             {"num_references": 200_000, "family": "hotspot"},
                             {"num_references": 40_000, "family": "hotspot"}),
    "undo_log": (bench_undo_log, {"num_records": 300_000},
                 {"num_records": 60_000}),
    "undo_observer": (bench_undo_observer, {"num_records": 300_000},
                      {"num_records": 60_000}),
    "routing": (bench_routing, {"num_decisions": 100_000},
                {"num_decisions": 20_000}),
    "fig4_macro": (bench_fig4_macro, {},
                   {"workloads": ["jbb", "oltp"], "references": 200}),
    "campaign_sharded": (bench_campaign_sharded,
                         {"references": 80, "workers": 4},
                         {"references": 60, "workers": 2, "quick": True}),
}


#: Functions kept in a cProfile top-N table (everything below the cut is
#: scaffolding noise, everything above it is an optimization candidate).
PROFILE_TOP_N = 25


def profile_table(profiler: Any, top_n: int = PROFILE_TOP_N) -> str:
    """The top-``top_n`` cumulative-time rows of a finished cProfile run."""
    import io
    import pstats

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top_n)
    return buffer.getvalue()


def run_all(quick: bool = False,
            only: Optional[List[str]] = None,
            tier: Optional[str] = None,
            profiles: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
    """Run every benchmark (or a subset) and return the results by name.

    ``tier`` selects the kernel tier (``pure`` / ``compiled`` / ``auto``)
    for the duration of the run; ``None`` keeps the process selection.  The
    choice is mirrored into ``REPRO_KERNEL`` so benchmarks that spawn
    subprocesses (``campaign_sharded``'s workers) run every leg on the same
    tier.

    When ``profiles`` is a dict, every benchmark runs under :mod:`cProfile`
    and its top-N cumulative table lands in it keyed by benchmark name (the
    ``--profile`` mode of ``tools/perf_report.py``).  Profiled wall-clock
    carries tracing overhead, so profiled numbers are for *attribution*,
    never for the committed trajectory.
    """
    import os

    from repro import kernel

    prior_env = os.environ.get(kernel.ENV_VAR)
    if tier is not None:
        kernel.set_kernel_tier(tier)
        os.environ[kernel.ENV_VAR] = tier
    try:
        results: Dict[str, Any] = {}
        for name, (fn, full_kwargs, quick_kwargs) in BENCHMARKS.items():
            if only is not None and name not in only:
                continue
            kwargs = quick_kwargs if quick else full_kwargs
            if profiles is None:
                results[name] = fn(**kwargs)
            else:
                import cProfile

                profiler = cProfile.Profile()
                profiler.enable()
                try:
                    results[name] = fn(**kwargs)
                finally:
                    profiler.disable()
                profiles[name] = profile_table(profiler)
        return results
    finally:
        if tier is not None:
            kernel.set_kernel_tier(None)
            if prior_env is None:
                os.environ.pop(kernel.ENV_VAR, None)
            else:
                os.environ[kernel.ENV_VAR] = prior_env
