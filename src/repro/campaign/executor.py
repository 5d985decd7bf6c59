"""Pluggable execution of :class:`RunSpec` batches.

Every simulated run in the repository funnels through :func:`execute_spec`
— directly via :class:`SerialExecutor`, or in worker processes via
:class:`ParallelExecutor`.  The evaluation grid is embarrassingly parallel
(each design point is an independent deterministic simulation), so the
parallel executor is a plain ``ProcessPoolExecutor`` fan-out; results come
back in *spec order*, which keeps reports byte-identical to serial runs.

Every executor accepts an optional :class:`ResultCache`: completed runs are
stored on disk as :meth:`RunResult.to_json` documents keyed by the spec's
content hash, so re-running a campaign only simulates design points whose
configuration actually changed.  Sharded execution over a shared store
lives in :mod:`repro.campaign.sharding`.

Within one process :func:`execute_spec` also keeps a small memo of
finished runs, and does not simulate a spec that provably repeats one of
them (DESIGN.md §9).  :class:`SerialExecutor` also resumes an injected
point from its baseline in a forked child instead of simulating their
shared prefix again.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import threading
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import (Any, DefaultDict, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro import kernel
from repro.campaign.manifest import atomic_write_json
from repro.campaign.spec import RunSpec, SweepSpec
from repro.interconnect.topology import TOPOLOGY_MEMO_STATS
from repro.sim.config import SystemConfig
from repro.speculation.detectors import injection_period_cycles
from repro.system import build_system
from repro.system.base import System
from repro.system.builder import system_class
from repro.system.results import RunResult, RESULT_SCHEMA
from repro.workloads.memo import MEMO_STATS


#: Process-local tallies of simulation work done by :func:`execute_spec`.
#: Purely observational (benchmark harnesses read them); they are never
#: serialized into results, so reports stay byte-identical with or without
#: consumers.  Parallel workers accumulate their own copies.
PERF_COUNTERS: Dict[str, int] = {"runs": 0, "events_executed": 0}


def reset_perf_counters() -> None:
    """Zero :data:`PERF_COUNTERS` (benchmark harnesses measure deltas)."""
    for key in PERF_COUNTERS:
        PERF_COUNTERS[key] = 0


#: Finished runs the run memo keeps per kernel tier; past it the least
#: recently used one is dropped, which costs a re-simulation, never a
#: different result.
RUN_MEMO_CAPACITY = 16

#: Process-local replay tallies (observational only, like
#: :data:`PERF_COUNTERS`): a hit is a spec answered from the memo, a miss
#: one simulated in-process, a resume one resumed from its baseline in a
#: forked child (:class:`SerialExecutor`).
RUN_MEMO_STATS: Dict[str, int] = {"run_hits": 0, "run_misses": 0,
                                  "run_resumes": 0}

#: Every memo tally of this process: streams, topologies and runs.  A
#: :class:`ParallelExecutor` adds the tallies its workers moved into them.
MEMO_TALLIES: Tuple[Dict[str, int], ...] = (MEMO_STATS, TOPOLOGY_MEMO_STATS,
                                            RUN_MEMO_STATS)

#: Kernel tier -> ``(config, result)`` of runs that finished with no
#: injection acting on them, least recently used first.  Both are the
#: objects the run was given and returned, not copies.
_RUN_MEMO: DefaultDict[str, List[Tuple[SystemConfig, RunResult]]] = (
    defaultdict(list))


def _replay(spec: RunSpec,
            runs: List[Tuple[SystemConfig, RunResult]]) -> Optional[RunResult]:
    """The stored run ``spec`` provably repeats, under the spec's label.

    A stored run is usable for the spec when it stands for a run of the
    spec's configuration (:meth:`~repro.system.base.System.stands_for`):
    its configuration is equal, or is the variant twin and the run reached
    no variant site.  A twin that reached one is skipped and the scan goes
    on; the first usable run decides, because at most one is usable.  Take
    two stored runs.  The later one was simulated while the earlier one was
    stored.  If the earlier one was usable for it, ``replays`` failed, so
    the later run stopped short of the earlier one's end or was injected,
    and was not stored.  Otherwise the earlier one is the later one's twin
    and reached a site; the later run repeated the same events up to that
    site and reached it too.  Then neither stands for its twin's
    configuration, and only one of them has the spec's.
    """
    config = spec.config
    for index, (stored, result) in enumerate(runs):
        # Most entries differ in the workload, the cheapest part to compare.
        if stored.workload != config.workload:
            continue
        cls = system_class(config)
        if not cls.stands_for(stored, result, config):
            continue
        if not cls.replays(result, config,
                           rate_per_second=spec.recovery_rate_per_second,
                           max_cycles=spec.max_cycles):
            return None
        runs.append(runs.pop(index))
        payload = result.to_json()
        payload["config_label"] = (spec.label if spec.label is not None
                                   else cls._default_label(config))
        return RunResult.from_json(payload)
    return None


def clear_run_memo() -> None:
    """Drop every stored run and zero the tallies (tests, benchmarks, and
    each :class:`ParallelExecutor` worker as it starts)."""
    _RUN_MEMO.clear()
    for key in RUN_MEMO_STATS:
        RUN_MEMO_STATS[key] = 0


def _resume(system: System, spec: RunSpec) -> RunResult:
    """Turn ``system``, a baseline paused one cycle before ``spec``'s
    injector first fires, into ``spec``'s run and run it to its bound.

    The body of a resumed point's child (:class:`_Resumes`); the argument
    that the result is a fresh run's is in
    :meth:`repro.system.base.System.replays`.
    """
    system.label = (spec.label if spec.label is not None
                    else system._default_label(spec.config))
    injector = system.attach_recovery_injector(spec.recovery_rate_per_second)
    injector.start(system.injector_seq)
    return system.run_on(max_cycles=spec.max_cycles)


#: A forked child: its pid and the read end of its pipe.
_Child = Tuple[int, int]


class _Resumes:
    """The children one :meth:`SerialExecutor.map` batch forks.

    ``plan`` maps ``id`` of a baseline spec, one without an injector, to the
    later specs of the batch it can resume: an equal configuration, a
    positive rate, and a cycle bound at or past the pause.  While the
    baseline runs, :meth:`fork` forks a child at each pause, and
    :meth:`collect` hands a child's result to :func:`execute_spec` when the
    batch reaches its spec.  At most :attr:`cap` children are alive at once.
    """

    def __init__(self, plan: Dict[int, List[RunSpec]]) -> None:
        self.plan = plan
        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:
            usable = os.cpu_count() or 1
        #: One CPU stays with the parent, which runs on.
        self.cap = max(1, usable - 1)
        #: ``id(spec)`` -> child, oldest first.
        self.children: Dict[int, _Child] = {}
        #: ``id(spec)`` -> ``(result, suffix events)`` of a child reaped
        #: before the batch reached its spec; ``None`` if it failed.
        self.reaped: Dict[int, Optional[Tuple[RunResult, int]]] = {}

    @classmethod
    def plan_for(cls, specs: SpecBatch,
                 cached: Dict[int, RunResult]) -> Optional["_Resumes"]:
        """The forks of a batch; ``None`` when it has none, or when this
        process cannot fork safely (no ``os.fork``, or a second thread)."""
        if not hasattr(os, "fork") or threading.active_count() != 1:
            return None
        injected = [(index, spec) for index, spec in enumerate(specs)
                    if index not in cached
                    and (spec.recovery_rate_per_second or 0) > 0]
        if not injected:
            return None
        plan: Dict[int, List[RunSpec]] = {}
        # Children are keyed by spec object, so a spec listed twice in the
        # batch is resumed at most once (its other entry is simulated).
        claimed = set()
        for index, spec in enumerate(specs):
            if index in cached or spec.recovery_rate_per_second is not None:
                continue
            config = spec.config
            limit = system_class(config).cycle_limit
            forks = []
            for at, later in injected:
                if (at > index and id(later) not in claimed
                        and later.config == config
                        and _pause_cycle(later) - 1
                        <= limit(config, later.max_cycles)):
                    claimed.add(id(later))
                    forks.append(later)
            if forks:
                plan[id(spec)] = forks
        return cls(plan) if plan else None

    def pauses(self, spec: RunSpec) -> List[Tuple[int, Any]]:
        """The pause points of ``spec``'s run: one fork per spec it resumes."""
        return sorted(((_pause_cycle(later), partial(self.fork, later))
                       for later in self.plan.pop(id(spec), ())),
                      key=lambda pause: pause[0])

    def fork(self, spec: RunSpec, system: System) -> None:
        """Fork a child that resumes ``spec`` from the paused ``system``."""
        if len(self.children) >= self.cap:
            oldest = next(iter(self.children))
            self.reaped[oldest] = self._reap(self.children.pop(oldest))
        prefix_events = system.sim.events_executed
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            # No child: the batch simulates the spec in-process.
            os.close(read_fd)
            os.close(write_fd)
            return
        if pid == 0:
            # Never unwind into the caller's frames, never flush inherited
            # stdio: leave through os._exit, non-zero on any exception.
            code = 1
            try:
                os.close(read_fd)
                result = _resume(system, spec)
                payload = json.dumps({
                    "result": result.to_json(),
                    "events": system.sim.events_executed - prefix_events})
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(payload.encode("utf-8"))
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self.children[id(spec)] = (pid, read_fd)

    @staticmethod
    def _reap(child: _Child) -> Optional[Tuple[RunResult, int]]:
        """Read a child's payload and reap it; ``None`` if it failed."""
        pid, read_fd = child
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            return None
        try:
            payload = json.loads(data)
            return RunResult.from_json(payload["result"]), int(payload["events"])
        except (ValueError, KeyError, TypeError):
            return None

    def collect(self, spec: RunSpec) -> Optional[RunResult]:
        """The result of ``spec``'s child, counting its suffix's events;
        ``None`` if no child resumed ``spec`` or it failed."""
        key = id(spec)
        child = self.children.pop(key, None)
        outcome = (self._reap(child) if child is not None
                   else self.reaped.pop(key, None))
        if outcome is None:
            return None
        result, events = outcome
        PERF_COUNTERS["events_executed"] += events
        return result

    def close(self) -> None:
        """Kill and reap every child still alive."""
        for pid, read_fd in self.children.values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.close(read_fd)
            os.waitpid(pid, 0)
        self.children.clear()


#: The forks of the :meth:`SerialExecutor.map` batch in progress, if any.
_RESUMES: Optional[_Resumes] = None


def _pause_cycle(spec: RunSpec) -> int:
    """The cycle of the first firing of ``spec``'s (positive-rate) injector."""
    return injection_period_cycles(spec.recovery_rate_per_second,
                                   spec.config.cycles_per_second)


def _run_point(spec: RunSpec) -> RunResult:
    """Build and run one design point and count its work.

    A function of its own so that, once it returns, no frame references the
    finished machine (see :func:`execute_spec`).
    """
    system = build_system(spec.config, label=spec.label)
    if spec.recovery_rate_per_second is not None:
        system.attach_recovery_injector(spec.recovery_rate_per_second)
    pauses = () if _RESUMES is None else _RESUMES.pauses(spec)
    result = system.run(max_cycles=spec.max_cycles, pauses=pauses)
    PERF_COUNTERS["runs"] += 1
    PERF_COUNTERS["events_executed"] += system.sim.events_executed
    return result


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one design point and return its result.

    This is the single build-and-run path: it must stay importable at module
    level (the parallel executor ships it to worker processes by reference).
    Note the ``is not None`` check — an explicit ``0.0`` rate attaches an
    injector that never fires, which is a different system from one with no
    injector at all.

    A spec that provably repeats a run in the run memo of the active kernel
    tier is not simulated: it gets that run's result under its own label
    (:meth:`repro.system.base.System.stands_for` and
    :meth:`~repro.system.base.System.replays` state the rule).  No machine
    is built then, so there is nothing for the collector to free.  A
    simulated run is stored when its own spec would replay it, that is when
    it finished with no injection acting on it.

    Inside a :meth:`SerialExecutor.map` batch, a baseline's run forks a
    child for each injected point of the batch it can resume, and the
    injected point's call returns the child's result (DESIGN.md §9).  A
    child that failed or sent a bad payload leaves its spec to be simulated
    here, so a deterministic error still raises in this process.

    The cyclic garbage collector is paused for the duration of the run: a
    run allocates millions of short-lived objects whose lifetimes the kernel
    already manages through reference counting and free lists, so mid-run
    collections are pure overhead.  The finished machine is a cyclic object
    graph, so only the collector frees it.  Everything the run allocated is
    still in generation 0 afterwards, and :func:`_run_point` has returned,
    so a youngest-generation collection frees the whole machine.  A
    collection made while a frame still held the machine would instead
    promote it to the oldest generation, which no collection inside a
    campaign's map loop ever reaches.
    """
    runs = _RUN_MEMO[kernel.active_tier()]
    replayed = _replay(spec, runs)
    if replayed is not None:
        RUN_MEMO_STATS["run_hits"] += 1
        return replayed
    result = None if _RESUMES is None else _RESUMES.collect(spec)
    if result is not None:
        RUN_MEMO_STATS["run_resumes"] += 1
    else:
        RUN_MEMO_STATS["run_misses"] += 1
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            result = _run_point(spec)
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect(0)
    if system_class(spec.config).replays(
            result, spec.config,
            rate_per_second=spec.recovery_rate_per_second,
            max_cycles=spec.max_cycles):
        runs.append((spec.config, result))
        if len(runs) > RUN_MEMO_CAPACITY:
            del runs[0]
    return result


def execute_spec_timed(spec: RunSpec) -> Tuple[RunResult, float]:
    """Run one design point and also return its wall-clock seconds.

    The timing never enters the :class:`RunResult` (reports stay
    byte-identical whether or not anyone measures); it rides along in the
    cache entry *envelope* so ``campaign status`` can report throughput.
    Module-level for the same reason as :func:`execute_spec`: the parallel
    executor ships it to worker processes by reference.
    """
    start = time.perf_counter()
    result = execute_spec(spec)
    return result, time.perf_counter() - start


def _execute_in_worker(spec: RunSpec
                       ) -> Tuple[RunResult, float, List[Dict[str, int]]]:
    """:func:`execute_spec_timed` in a :class:`ParallelExecutor` worker,
    plus how far it moved each of the worker's :data:`MEMO_TALLIES`."""
    before = [dict(tallies) for tallies in MEMO_TALLIES]
    result, seconds = execute_spec_timed(spec)
    moved = [{key: tallies[key] - was[key] for key in tallies}
             for tallies, was in zip(MEMO_TALLIES, before)]
    return result, seconds, moved


#: Schema tag of a cache entry envelope.  v1 envelopes wrap the result
#: payload with execution metadata (wall seconds, worker id); the *result*
#: schema inside is what gates staleness.  Any other document is a miss.
CACHE_SCHEMA = "repro.campaign.cache/v1"


class ResultCache:
    """On-disk content-addressed result store keyed by
    :meth:`RunSpec.content_hash`.

    One JSON file per design point, holding a :data:`CACHE_SCHEMA` envelope:
    the ``result`` payload (byte-identical to what the run produced) plus an
    execution ``meta`` block (wall seconds, worker id) that never leaks into
    reports.  Writes are atomic — the document is written to a ``*.tmp``
    file in the same directory and published with ``os.replace`` — so a
    store shared between concurrently running campaigns (or workers on
    other hosts) can never serve a torn entry; corrupt, half-written or
    wrong-schema entries are rejected on read and treated as misses.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stored = 0

    def path_for(self, spec: RunSpec) -> str:
        return os.path.join(self.root, spec.content_hash() + ".json")

    def path_for_hash(self, spec_hash: str) -> str:
        return os.path.join(self.root, spec_hash + ".json")

    def _load_path(self, path: str,
                   expect_hash: Optional[str]) -> Optional[Dict[str, Any]]:
        """Parse one entry into ``{"result":..., "meta":...}``; None = miss."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not (isinstance(payload, dict)
                and payload.get("schema") == CACHE_SCHEMA):
            return None
        recorded = payload.get("spec_hash")
        if (expect_hash is not None and recorded is not None
                and recorded != expect_hash):
            return None  # misfiled entry: never serve another spec's run
        result = payload.get("result")
        meta = payload.get("meta")
        if not (isinstance(result, dict)
                and result.get("schema") == RESULT_SCHEMA):
            return None
        return {"result": result,
                "meta": meta if isinstance(meta, dict) else {}}

    def _load(self, spec: RunSpec) -> Optional[Dict[str, Any]]:
        return self._load_path(self.path_for(spec), spec.content_hash())

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        entry = self._load(spec)
        if entry is None or entry["result"] is None:
            self.misses += 1
            return None
        try:
            result = RunResult.from_json(entry["result"])
        except (ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def meta(self, spec: RunSpec) -> Optional[Dict[str, Any]]:
        """The execution metadata stored alongside a result.

        ``None`` when the entry is absent/unreadable.  Never counts toward
        hit/miss tallies — metadata probes (``campaign status``
        throughput) are not cache traffic.
        """
        return None if (entry := self._load(spec)) is None else entry["meta"]

    def meta_for_hash(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`meta` but keyed by raw content hash (no spec needed),
        so store-side aggregation never rebuilds design points."""
        entry = self._load_path(self.path_for_hash(spec_hash), spec_hash)
        return None if entry is None else entry["meta"]

    def peek(self, spec: RunSpec) -> bool:
        """Whether a valid entry exists, without counting a hit or miss.

        The sharded worker's completion probe: polled repeatedly, so it
        must not distort the hit/miss counters the resume tests (and the
        runner's cache summary) rely on.
        """
        return self._load(spec) is not None

    def put(self, spec: RunSpec, result: RunResult, *,
            meta: Optional[Dict[str, Any]] = None) -> None:
        envelope = {
            "schema": CACHE_SCHEMA,
            "spec_hash": spec.content_hash(),
            "result": result.to_json(),
            "meta": dict(meta) if meta else {},
        }
        atomic_write_json(self.path_for(spec), envelope)
        self.stored += 1

    def stats(self) -> Dict[str, int]:
        """Tracked hit/miss/store tallies of this process's cache use.

        Unlike ``len(cache)`` this never touches the filesystem, so it is
        the summary the runner reports after a campaign (the directory may
        also hold entries written by other campaigns).
        """
        return {"hits": self.hits, "misses": self.misses,
                "stored": self.stored}

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root) if name.endswith(".json"))


#: A batch of design points: a plain sequence or a named SweepSpec.
SpecBatch = Union[Sequence[RunSpec], SweepSpec]


class Executor:
    """Base class: maps batches of specs to results, consulting the cache."""

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        self.cache = cache

    # -------------------------------------------------------------- interface
    def run(self, spec: RunSpec) -> RunResult:
        """Run a single design point."""
        return self.map([spec])[0]

    def map(self, specs: SpecBatch) -> List[RunResult]:
        """Run every spec in the batch and return results in spec order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (no-op for serial execution)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- caching
    def _lookup(self, specs: SpecBatch) -> Dict[int, RunResult]:
        if self.cache is None:
            return {}
        found: Dict[int, RunResult] = {}
        for index, spec in enumerate(specs):
            cached = self.cache.get(spec)
            if cached is not None:
                found[index] = cached
        return found

    def _store(self, spec: RunSpec, result: RunResult, *,
               wall_seconds: Optional[float] = None,
               worker: Optional[str] = None) -> None:
        if self.cache is None:
            return
        meta: Dict[str, Any] = {}
        if wall_seconds is not None:
            meta["wall_seconds"] = round(wall_seconds, 6)
        if worker is not None:
            meta["worker"] = worker
        self.cache.put(spec, result, meta=meta)


class SerialExecutor(Executor):
    """Runs every design point in-process, one after another.

    Each point is built from scratch by :func:`execute_spec_timed` and
    shares only the content-keyed workload and topology memos with the
    points before it, so a batch's results do not depend on its order.

    An injected point whose baseline, the same configuration with no
    injector, comes earlier in the batch is not simulated from cycle 0:
    the baseline's run pauses one cycle before the injector first fires
    and forks a child that resumes the injected point from there, while
    this process runs on (DESIGN.md §9).  That happens only where
    ``os.fork`` exists and this process runs one thread, with at most
    ``max(1, usable CPUs - 1)`` children alive.  Every child is reaped
    before :meth:`map` returns or raises.  The other executors never fork.
    """

    def map(self, specs: SpecBatch) -> List[RunResult]:
        global _RESUMES
        cached = self._lookup(specs)
        results: List[Optional[RunResult]] = [None] * len(specs)
        outer, _RESUMES = _RESUMES, _Resumes.plan_for(specs, cached)
        try:
            for index, spec in enumerate(specs):
                if index in cached:
                    results[index] = cached[index]
                    continue
                result, seconds = execute_spec_timed(spec)
                self._store(spec, result, wall_seconds=seconds)
                results[index] = result
        finally:
            if _RESUMES is not None:
                _RESUMES.close()
            _RESUMES = outer
        return results  # type: ignore[return-value]


class ParallelExecutor(Executor):
    """Fans design points out to a ``ProcessPoolExecutor``.

    Worker processes are spawned lazily on the first :meth:`map` call and
    reused across batches; use the executor as a context manager (or call
    :meth:`close`) to shut them down.  Every system draws its ids from its
    own counters, so a worker's results do not depend on which specs it
    happened to run before — serial and parallel execution are
    byte-identical.

    Each task also returns how far it moved the worker's memo tallies, and
    :meth:`map` adds them to this process's :data:`MEMO_TALLIES`, so
    ``memo_stats()`` counts the workers' streams, topologies and replays.
    Which specs replay depends on which worker ran what, so only the
    totals are fixed (``run_hits + run_misses`` is the number of specs
    simulated or replayed).  The sharded executor's workers
    (:mod:`repro.campaign.sharding`) report no tallies.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None) -> None:
        super().__init__(cache=cache)
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        # A forked worker would inherit this process's run memo; each starts
        # empty, so what it returns it simulated or replayed itself.
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers,
                                             initializer=clear_run_memo)
        return self._pool

    def map(self, specs: SpecBatch) -> List[RunResult]:
        cached = self._lookup(specs)
        results: List[Optional[RunResult]] = [None] * len(specs)
        pending = [(index, spec) for index, spec in enumerate(specs)
                   if index not in cached]
        for index, result in cached.items():
            results[index] = result
        if pending:
            pool = self._ensure_pool()
            futures = [(index, spec, pool.submit(_execute_in_worker, spec))
                       for index, spec in pending]
            # Collect every future before surfacing a failure: a design point
            # that raises (bad config, unknown topology, broken workload)
            # must not discard — or worse, corrupt — the results of specs
            # that completed fine.  Completed results are cached as usual,
            # then the *original* exception (which ProcessPoolExecutor
            # pickles back from the worker) is re-raised.
            first_error: Optional[Exception] = None
            for index, spec, future in futures:
                try:
                    result, seconds, moved = future.result()
                except Exception as exc:  # noqa: BLE001 - KeyboardInterrupt
                    # and friends must still propagate immediately; worker
                    # failures (incl. BrokenProcessPool) are Exceptions.
                    if first_error is None:
                        first_error = exc
                    continue
                for tallies, delta in zip(MEMO_TALLIES, moved):
                    for key, value in delta.items():
                        tallies[key] += value
                self._store(spec, result, wall_seconds=seconds)
                results[index] = result
            if first_error is not None:
                raise first_error
        return results  # type: ignore[return-value]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(parallel: int = 0,
                  cache_dir: Optional[str] = None,
                  workers: int = 0,
                  resume: bool = False) -> Executor:
    """Build the executor the runner CLI asks for.

    ``workers >= 1`` yields a :class:`~repro.campaign.sharding
    .ShardedExecutor` over the shared store at ``cache_dir`` (required:
    the store *is* the coordination medium).  Otherwise ``parallel <= 1``
    yields a :class:`SerialExecutor`; anything larger a
    :class:`ParallelExecutor` with that many workers.
    """
    if workers:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not cache_dir:
            raise ValueError(
                "sharded execution needs a shared store: pass cache_dir "
                "(the runner's --cache DIR) along with workers")
        # Imported here: sharding builds on this module.
        from repro.campaign.sharding import ShardedExecutor

        return ShardedExecutor(workers, cache_dir, resume=resume)
    if resume:
        raise ValueError("resume only applies to sharded execution "
                         "(pass workers >= 1)")
    cache = ResultCache(cache_dir) if cache_dir else None
    if parallel and parallel > 1:
        return ParallelExecutor(max_workers=parallel, cache=cache)
    return SerialExecutor(cache=cache)
