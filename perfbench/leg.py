"""One benchmark leg: a single workload pass on one kernel tier.

``run.py`` spawns this script in a fresh interpreter for every leg, with the
checkout's ``src`` first on ``PYTHONPATH``.  It imports the simulator, runs
every design point of the workload through a ``SerialExecutor`` (one closed
batch, through the experiment's own ``run()``), digests each ``RunResult`` and prints
one JSON line: the digests, the instants at which imports finished and the
pass ended, the peak RSS and, when traced, the spans and work counts.
Instants are ``time.monotonic()`` (CLOCK_MONOTONIC, system-wide on Linux),
so the parent subtracts its own spawn instant from them.

Run by hand (pure tier, no extension needed)::

    PYTHONPATH=src python3 perfbench/leg.py --workload snoop --tier pure --seed 1
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: The workloads.  ``references`` is the per-processor stream length and
#: ``seeds`` how many consecutive seeds (from ``--seed``) one pass runs.
#: Why each was chosen is recorded in BENCHMARK.json and interactions.json;
#: the lengths keep one end-to-end run (three set-ups, nine legs) near 40 s
#: on a 2-vCPU machine.  Changing one means re-pinning (``run.py --pin``).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "fig4": {"experiment": "repro.experiments.fig4_misspeculation_rate",
             "references": 60, "seeds": 1},
    "snoop": {"experiment": "repro.experiments.snooping_cornercase",
              "references": 200, "seeds": 1},
    "grid": {"experiment": "repro.experiments.workload_matrix",
             "references": 10, "seeds": 2},
}

#: The seed whose per-point digests are pinned in ``pins.json``.
DEFAULT_SEED = 1

#: Extension symbols probed by the gap check: the four ablation groups plus
#: every other class the install hooks construct.
GAP_CANDIDATES = ("SwitchCore", "TransactionCore", "SnoopCore",
                  "ProcessorCore", "LogObserver", "MessageSendCore",
                  "MemoryCompleteCore", "DirectoryReceiveCore", "BusCore")


def digest(result: Any) -> str:
    """sha256 of the canonical encoding of a ``RunResult``."""
    encoded = json.dumps(result.to_json(), sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def source_sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class LegError(RuntimeError):
    """The leg cannot measure what it was asked to (wrong or stale tier)."""


def use_extension(ext_dir: str) -> str:
    """Make ``repro._ckernel`` resolve to the extension built in ``ext_dir``.

    The build directory goes first on ``repro.__path__``, so a leftover
    ``src/repro/_ckernel*.so`` can never shadow it; the stamp written at
    build time must match the checked-out C source.  Returns the module file.
    """
    import repro

    package_dir = os.path.abspath(os.path.join(ext_dir, "repro"))
    source = os.path.join(os.path.dirname(repro.__file__), "_ckernelmodule.c")
    stamp_path = os.path.join(ext_dir, "SOURCE_SHA256")
    try:
        with open(stamp_path, encoding="utf-8") as handle:
            stamp = handle.read().strip()
    except OSError as exc:
        raise LegError(f"no extension build in {ext_dir}: {exc}") from exc
    if stamp != source_sha256(source):
        raise LegError(f"stale extension in {ext_dir}: built from another "
                       f"{os.path.basename(source)}")
    repro.__path__.insert(0, package_dir)
    from repro import _ckernel  # type: ignore[attr-defined]

    module_file = os.path.abspath(_ckernel.__file__)
    if os.path.dirname(module_file) != package_dir:
        raise LegError(f"repro._ckernel imported from {module_file}, "
                       f"not from the benchmark build in {package_dir}")
    return module_file


class Tracer:
    """In-memory spans around calls into the simulator's layers.

    A span is ``[name, parent index, start, end]``; parent ``-1`` is the leg
    itself, which the spawning process adds.  Cyclic-gc collections become
    spans through ``gc.callbacks``.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = [-1]
        self._gc_span = -1

    def open(self, name: str) -> int:
        # The record is created before its index is taken: creating it may
        # trigger a gc collection, whose span must come first.
        record = [name, self._stack[-1], time.monotonic(), None]
        self.spans.append(record)
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.monotonic()
        if self._stack.pop() != index:
            raise LegError("trace spans closed out of order")

    def wrap(self, name: str, function: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def on_gc(self, phase: str, _info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_span = self.open("gc")
        else:
            self.close(self._gc_span)


def rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``, wherever the function was imported by name."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def point_counts(system: Any, result: Any) -> Dict[str, int]:
    """Work counts of one finished design point, from its ``RunResult``
    and the public state of the system that produced it."""
    counters = result.counters

    def total(suffix: str) -> int:
        return sum(v for k, v in counters.items() if k.endswith(suffix))

    counts = {
        "points": 1,
        "events": result.events_executed,
        "refs": result.references_completed,
        "l1_hits": total(".l1_hits"),
        "l1_misses": total(".l1_misses"),
        "transactions": total(".transactions_completed"),
        "l2_hits": result.l2_hits,
        "l2_misses": result.l2_misses,
        "dir_stalls": total(".stalled_requests"),
        "bus_requests": counters.get("bus.requests_ordered", 0),
        "checkpoints": result.checkpoints_taken,
        "undo_records": sum(log.total_logged
                            for log in system.safetynet.logs.values()),
        "recoveries": result.recoveries,
        "work_lost_cycles": sum(r.work_lost_cycles
                                for r in result.recovery_records),
        "runtime_cycles": result.runtime_cycles,
        "detections": result.detections,
        "messages": 0,
        "hops": 0,
        "flushed": 0,
    }
    network = getattr(system, "network", None)
    if network is not None:
        counts["messages"] = network.messages_delivered
        counts["hops"] = sum(s.messages_forwarded for s in network.switches)
        counts["flushed"] = sum(r.messages_squashed
                                for r in result.recovery_records)
    return counts


def probe_gaps(module: Any) -> Dict[str, Dict[str, str]]:
    """Hide each candidate symbol in turn and build a small system of each
    protocol: ``"falls back"`` or the exception the build raised."""
    from repro.experiments.common import benchmark_config
    from repro.sim.config import ProtocolKind
    from repro.system import build_system

    outcome: Dict[str, Dict[str, str]] = {}
    for name in GAP_CANDIDATES:
        symbol = getattr(module, name)
        delattr(module, name)
        try:
            outcome[name] = {}
            for protocol in (ProtocolKind.DIRECTORY, ProtocolKind.SNOOPING):
                config = benchmark_config("jbb", references=10,
                                          protocol=protocol, num_processors=4)
                try:
                    build_system(config)
                except Exception as exc:  # noqa: BLE001 - the probe's answer
                    outcome[name][protocol.value] = type(exc).__name__
                else:
                    outcome[name][protocol.value] = "falls back"
        finally:
            setattr(module, name, symbol)
    return outcome


def run_pass(workload: str, seed: int, references: int,
             tracer: Optional[Tracer]) -> Dict[str, Any]:
    """Run one pass of ``workload``; returns digests (and traced counts)."""
    from repro.campaign import executor as executor_module
    from repro.campaign.executor import SerialExecutor
    from repro.system.base import System

    spec = WORKLOADS[workload]
    experiment = importlib.import_module(spec["experiment"])
    points: Dict[str, str] = {}
    counts: Dict[str, int] = {}
    execute_spec = executor_module.execute_spec

    def checked_execute_spec(run_spec: Any) -> Any:
        key = (f"seed+{offset}:{run_spec.config.workload.name}:"
               f"{run_spec.label}")
        span = tracer.open("point") if tracer is not None else -1
        try:
            result = execute_spec(run_spec)
        except Exception as exc:
            points[key] = f"raised {type(exc).__name__}: {exc}"
            raise
        else:
            points[key] = digest(result)
        finally:
            if tracer is not None:
                tracer.close(span)
        return result

    rebind(execute_spec, checked_execute_spec)
    if tracer is not None:
        from repro.system import build_system
        from repro.workloads.memo import shared_streams

        rebind(build_system, tracer.wrap("build", build_system))
        rebind(shared_streams, tracer.wrap("streams", shared_streams))
        system_run = System.run

        def traced_run(system: Any, *args: Any, **kwargs: Any) -> Any:
            index = tracer.open("run")
            try:
                result = system_run(system, *args, **kwargs)
            finally:
                tracer.close(index)
            for name, value in point_counts(system, result).items():
                counts[name] = counts.get(name, 0) + value
            return result

        System.run = traced_run
        gc.callbacks.append(tracer.on_gc)

    errors: List[str] = []
    for offset in range(spec["seeds"]):
        try:
            experiment.run(references=references, seed=seed + offset,
                           executor=SerialExecutor())
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            errors.append(f"seed+{offset}: {type(exc).__name__}: {exc}")
    if tracer is not None:
        gc.callbacks.remove(tracer.on_gc)
    done_at = time.monotonic()
    if tracer is not None:
        from repro.workloads.memo import MEMO_STATS

        counts["stream_hits"] = MEMO_STATS["stream_hits"]
        counts["stream_misses"] = MEMO_STATS["stream_misses"]
    return {"points": points, "errors": errors, "done_at": done_at,
            "counts": counts}


def check_imports(ext_dir: str) -> Dict[str, Any]:
    """Both tiers resolve: the fresh build as compiled, and pure on request."""
    module_file = use_extension(ext_dir)
    from repro import kernel

    tiers = {}
    for tier in ("compiled", "pure"):
        kernel.set_kernel_tier(tier)
        tiers[tier] = kernel.active_tier()
    if tiers != {"compiled": "compiled", "pure": "pure"}:
        raise LegError(f"tier check failed: {tiers}")
    for spec in WORKLOADS.values():
        importlib.import_module(spec["experiment"])
    return {"extension": module_file, "tiers": tiers}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--tier", choices=("compiled", "pure"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--references", type=int, default=None)
    parser.add_argument("--ext-dir", default=None,
                        help="extension build directory (compiled tier)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--hide", action="append", default=[],
                        help="extension symbol to delete before the pass")
    parser.add_argument("--check-imports", action="store_true",
                        help="only check that both tiers import")
    args = parser.parse_args(argv)

    if args.check_imports:
        print(json.dumps(check_imports(args.ext_dir)))
        return 0
    if args.workload is None or args.tier is None:
        parser.error("--workload and --tier are required")

    module_file = None
    if args.tier == "compiled":
        if args.ext_dir is None:
            parser.error("the compiled tier needs --ext-dir")
        module_file = use_extension(args.ext_dir)
    from repro import kernel

    kernel.set_kernel_tier(args.tier)
    active = kernel.active_tier()
    if active != args.tier:
        raise LegError(f"asked for the {args.tier} tier, got {active}")
    module = kernel.compiled_module() if args.tier == "compiled" else None
    for name in args.hide:
        if module is None:
            parser.error("--hide applies to the compiled tier")
        delattr(module, name)
    importlib.import_module(WORKLOADS[args.workload]["experiment"])
    imported_at = time.monotonic()

    tracer = Tracer() if args.trace else None
    references = (args.references if args.references is not None
                  else WORKLOADS[args.workload]["references"])
    outcome = run_pass(args.workload, args.seed, references, tracer)
    report: Dict[str, Any] = {
        "workload": args.workload,
        "tier": active,
        "extension": module_file,
        "hidden": args.hide,
        "imported_at": imported_at,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **outcome,
    }
    if tracer is not None:
        # Copied before the probe, whose builds run through the wrappers.
        report["spans"] = list(tracer.spans)
        if module is not None and not args.hide:
            report["gaps"] = probe_gaps(module)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
