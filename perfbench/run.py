"""The repository's benchmark: ``fig4``, ``snoop`` and ``grid`` on both
kernel tiers, every design point digest-checked.

One run::

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 15 --trace 0

Set-up compiles ``src/repro/_ckernelmodule.c`` with the repository's own
``setup.py build_ext`` into ``perfbench/_work/ext`` (never into ``src``) and
checks that both tiers import; ``setup_s`` is the median of three set-ups,
spread over the run: each is followed by a compiled, a pure and a compiled
leg (again while a third of ``--seconds`` allows).  Each leg runs one
workload pass in a fresh interpreter (``perfbench/leg.py``);
``<tier>.wall_s`` and ``<tier>.rss_mb`` are the medians over that tier's
legs.  Legs run one at a time.

Every design point's ``RunResult`` is digested (sha256 of its sorted JSON).
At the default seed the digests must equal ``pins.json``; at any other seed
they must equal the first pure leg's.  A point that raises, is missing or
differs counts as failed, as does a pass that raises; the run goes on.
``pins.json`` records the stream length it was pinned at, and a workload
whose length differs from it fails the run at every seed.

``--trace 1`` builds once and runs the per-layer legs instead: rounds of an
untraced and a traced leg per tier plus one compiled leg with each C-core
group hidden (between two untraced compiled legs), at least three rounds
and until ``--seconds`` have passed.  It prints the ``per_layer`` metrics
(medians over the rounds) and writes the spans to
``perfbench/_work/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--pin`` rewrites ``pins.json``
from the pure tier at the default seed after checking the compiled tier
agrees.  The benchmark's own tests: ``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import leg
from leg import DEFAULT_SEED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, "_work")
EXT_DIR = os.path.join(WORK_DIR, "ext")
LEG_SCRIPT = os.path.join(BENCH_DIR, "leg.py")
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")
SOURCE = os.path.join(ROOT, "src", "repro", "_ckernelmodule.c")

TIERS = ("compiled", "pure")
#: The end-to-end legs after each set-up.  A compiled leg takes about a
#: third of a pure one and leg times jitter by up to a fifth within
#: seconds, so the compiled tier gets two legs per pure leg to put its
#: median on a comparable amount of measured time.
LEG_ORDER = ("compiled", "pure", "compiled")
SETUP_REPEATS = 3
#: The traced run's minimum rounds: its medians must survive one leg
#: landing in a slow stretch of a shared machine.
TRACE_ROUNDS = 3
#: Per-leg (and per-build) limit; either normally takes a few seconds.
LEG_TIMEOUT_S = 60
#: C-core groups hidden one at a time by the traced run: metric -> symbol.
ABLATIONS = {
    "switch_s": "SwitchCore",
    "dir_path_s": "TransactionCore",
    "snoop_handlers_s": "SnoopCore",
    "msg_path_s": "ProcessorCore",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "compiled.wall_s": "s",
    "pure.wall_s": "s",
    "compiled.rss_mb": "MB",
    "pure.rss_mb": "MB",
}

_TIER_LAYER_UNITS = {
    "setup.import_s": "s",
    "workloads.gen_s": "s",
    "system.build_s": "s",
    "system.build_ms_per_point": "ms",
    "system.run_s": "s",
    "sim.ns_per_event": "ns",
    "campaign.gc_s": "s",
    "campaign.gc_collections": "count",
    "campaign.other_s": "s",
    "trace_overhead": "ratio",
}

PER_LAYER_UNITS = {
    **{f"{tier}.{name}": unit for tier in TIERS
       for name, unit in _TIER_LAYER_UNITS.items()},
    **{f"compiled.ckernel.{name}": "s" for name in ABLATIONS},
    "workloads.streams": "count",
    "workloads.memo_hit_frac": "ratio",
    "sim.events": "count",
    "campaign.points": "count",
    "processor.refs": "count",
    "processor.l1_hit_frac": "ratio",
    "coherence.transactions": "count",
    "coherence.l2_miss_frac": "ratio",
    "coherence.dir_stalls": "count",
    "coherence.bus_requests": "count",
    "interconnect.messages": "count",
    "interconnect.hops_per_msg": "hops",
    "interconnect.flushed": "count",
    "safetynet.checkpoints": "count",
    "safetynet.undo_records": "count",
    "safetynet.recoveries": "count",
    "safetynet.work_lost_frac": "ratio",
    "speculation.detections": "count",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (build or leg failure)."""


# ----------------------------------------------------------------- set-up
def build_extension() -> float:
    """Compile the extension into ``EXT_DIR`` and check both tiers import.

    Returns the seconds taken.  The build starts from an empty directory
    every time, so nothing from an earlier build is reused.
    """
    ext_dir = EXT_DIR
    if not os.path.exists(SOURCE):
        raise BenchError(f"no C source at {os.path.relpath(SOURCE, ROOT)}; "
                         "run from a checkout of the repository")
    start = time.monotonic()
    shutil.rmtree(ext_dir, ignore_errors=True)
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", ext_dir, "--build-temp", os.path.join(ext_dir, "tmp")],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=LEG_TIMEOUT_S)
    built = glob.glob(os.path.join(ext_dir, "repro", "_ckernel*.so"))
    if build.returncode != 0 or len(built) != 1:
        raise BenchError("extension build failed:\n" + build.stdout)
    with open(os.path.join(ext_dir, "SOURCE_SHA256"), "w",
              encoding="utf-8") as handle:
        handle.write(leg.source_sha256(SOURCE) + "\n")
    spawn_leg(["--check-imports", "--ext-dir", ext_dir])
    return time.monotonic() - start


def spawn_leg(arguments: List[str]) -> Tuple[Dict[str, Any], float]:
    """Run ``leg.py`` in a fresh interpreter; returns its report and the
    instant it was spawned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    spawned_at = time.monotonic()
    proc = subprocess.run([sys.executable, LEG_SCRIPT, *arguments], env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=LEG_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"leg {' '.join(arguments)} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned_at


def run_leg(workload: str, tier: str, seed: int, references: int, *,
            trace: bool = False, hide: Optional[str] = None) -> Dict[str, Any]:
    arguments = ["--workload", workload, "--tier", tier, "--seed", str(seed),
                 "--references", str(references)]
    if tier == "compiled":
        arguments += ["--ext-dir", EXT_DIR]
    if trace:
        arguments.append("--trace")
    if hide is not None:
        arguments += ["--hide", hide]
    report, spawned_at = spawn_leg(arguments)
    report["spawned_at"] = spawned_at
    report["wall_s"] = report["done_at"] - spawned_at
    return report


# ---------------------------------------------------------------- checking
def load_pins() -> Dict[str, Any]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def workload_pins(workload: str, references: int,
                  pins: Dict[str, Any]) -> Dict[str, Any]:
    """The workload's entry of ``pins.json``.  Raises when the workload's
    stream length is not the pinned one, so a resized workload cannot skip
    its pins at any seed."""
    pinned = pins[workload]
    if references != pinned["references"]:
        raise BenchError(
            f"{workload} runs {references} refs/processor but pins.json "
            f"holds {pinned['references']}; re-pin with --pin")
    return pinned


def reference_digests(seed: int, legs: List[Dict[str, Any]],
                      pinned: Dict[str, Any]) -> Dict[str, Optional[str]]:
    """What every leg's digests must equal: the pins at the pinned seed,
    otherwise the first pure leg's digests.  The design-point keys are the
    pinned ones either way."""
    if seed == pinned["seed"]:
        return dict(pinned["points"])
    first = next(l for l in legs if l["tier"] == "pure")["points"]
    return {key: first.get(key) for key in pinned["points"]}


def score(legs: List[Dict[str, Any]],
          reference: Dict[str, Optional[str]]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, reasons) over every design point of every leg,
    plus every pass that raised.

    A point fails when it raised, is missing, or its digest differs from
    the reference; a reference that is not a digest (the point raised or
    was missing there too) fails every leg."""
    attempted = failed = 0
    reasons: List[str] = []
    for report in legs:
        where = " ".join([report["tier"], *report["hidden"]])
        for error in report["errors"]:
            attempted += 1
            failed += 1
            reasons.append(f"{where}: pass raised {error}")
        for key, want in reference.items():
            attempted += 1
            got = report["points"].get(key)
            if not _is_digest(want) or got != want:
                failed += 1
                reasons.append(f"{where}: {key}: {got or 'missing'}")
    return attempted, failed, reasons


# ------------------------------------------------------------------ tracing
def leg_spans(report: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The leg's span tree with self times: root ``leg`` (spawn to end of
    pass), ``import`` (spawn to imports done), then the traced spans.

    Every span must be closed and lie inside its parent, and the traced
    spans must start after the imports ended; a span's self time is its
    length minus its children's, so it must not be negative either."""
    spans = [{"name": "leg", "parent": None, "start": report["spawned_at"],
              "end": report["done_at"]},
             {"name": "import", "parent": 0, "start": report["spawned_at"],
              "end": report["imported_at"]}]
    for name, parent, start, end in report["spans"]:
        spans.append({"name": name, "parent": 0 if parent < 0 else parent + 2,
                      "start": start, "end": end})
    for span in spans:
        if span["end"] is None or span["end"] < span["start"]:
            raise BenchError(f"trace span {span['name']} is not closed")
    for span in spans[2:]:
        parent = spans[span["parent"]]
        if (span["start"] < max(parent["start"], report["imported_at"])
                or span["end"] > parent["end"]):
            raise BenchError(f"trace span {span['name']} leaves its parent "
                             f"{parent['name']} or starts during imports")
    children = [0.0] * len(spans)
    for span in spans[1:]:
        children[span["parent"]] += span["end"] - span["start"]
    for span, covered in zip(spans, children):
        span["self_s"] = span["end"] - span["start"] - covered
        if span["self_s"] < -1e-9:
            raise BenchError(f"trace spans under {span['name']} overlap")
    return spans


def tier_layers(report: Dict[str, Any],
                spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Host-time metrics of one traced leg from its spans' self times.

    ``campaign.other_s`` is what no layer span covers (the executor, the
    experiment's ``run()`` and the digests), so the six times sum to the
    wall."""
    own: Dict[str, float] = {}
    for span in spans:
        own[span["name"]] = own.get(span["name"], 0.0) + span["self_s"]
    counts = report["counts"]
    build_s = own.get("build", 0.0)
    run_s = own.get("run", 0.0)
    return {
        "setup.import_s": own["import"],
        "workloads.gen_s": own.get("streams", 0.0),
        "system.build_s": build_s,
        "system.build_ms_per_point": 1e3 * build_s / max(1, counts["points"]),
        "system.run_s": run_s,
        "sim.ns_per_event": 1e9 * run_s / max(1, counts["events"]),
        "campaign.gc_s": own.get("gc", 0.0),
        "campaign.gc_collections": sum(1 for s in spans if s["name"] == "gc"),
        "campaign.other_s": own["leg"] + own.get("point", 0.0),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def work_metrics(counts: Dict[str, int]) -> Dict[str, float]:
    streams = counts["stream_hits"] + counts["stream_misses"]
    return {
        "workloads.streams": counts["stream_misses"],
        "workloads.memo_hit_frac": _ratio(counts["stream_hits"], streams),
        "sim.events": counts["events"],
        "campaign.points": counts["points"],
        "processor.refs": counts["refs"],
        "processor.l1_hit_frac": _ratio(
            counts["l1_hits"], counts["l1_hits"] + counts["l1_misses"]),
        "coherence.transactions": counts["transactions"],
        "coherence.l2_miss_frac": _ratio(
            counts["l2_misses"], counts["l2_hits"] + counts["l2_misses"]),
        "coherence.dir_stalls": counts["dir_stalls"],
        "coherence.bus_requests": counts["bus_requests"],
        "interconnect.messages": counts["messages"],
        "interconnect.hops_per_msg": _ratio(counts["hops"],
                                            counts["messages"]),
        "interconnect.flushed": counts["flushed"],
        "safetynet.checkpoints": counts["checkpoints"],
        "safetynet.undo_records": counts["undo_records"],
        "safetynet.recoveries": counts["recoveries"],
        "safetynet.work_lost_frac": _ratio(counts["work_lost_cycles"],
                                           counts["runtime_cycles"]),
        "speculation.detections": counts["detections"],
    }


# --------------------------------------------------------------------- runs
def measure(workload: str, seed: int, references: int,
            seconds: float) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """The end-to-end run: ``SETUP_REPEATS`` times, a set-up followed by
    groups of ``LEG_ORDER`` legs for its share of ``seconds`` (at least one
    group; another only if one more, as long as the last, still fits).
    Spreading the set-ups keeps one slow stretch of a shared machine from
    holding all of them."""
    setups: List[float] = []
    legs: List[Dict[str, Any]] = []
    for _ in range(SETUP_REPEATS):
        setups.append(build_extension())
        start = group_start = time.monotonic()
        while True:
            for tier in LEG_ORDER:
                legs.append(run_leg(workload, tier, seed, references))
            now = time.monotonic()
            last_group = now - group_start
            if now - start + last_group > seconds / SETUP_REPEATS:
                break
            group_start = now
    metrics = {"setup_s": statistics.median(setups)}
    for tier in TIERS:
        mine = [l for l in legs if l["tier"] == tier]
        metrics[f"{tier}.wall_s"] = statistics.median(l["wall_s"] for l in mine)
        metrics[f"{tier}.rss_mb"] = statistics.median(l["rss_mb"] for l in mine)
    return metrics, legs


def trace(workload: str, seed: int, references: int,
          seconds: float) -> Tuple[Dict[str, float], List[Dict[str, Any]],
                                   Dict[str, Any]]:
    """The per-layer run: set up once, then rounds of an untraced and a
    traced leg per tier plus one compiled leg per hidden C-core group, for
    at least ``TRACE_ROUNDS`` rounds and until ``seconds`` have passed.
    Every metric is a median over the rounds.

    The hidden-group legs sit between two untraced compiled legs, and each
    marginal is taken against the mean of that round's two, so a machine
    that drifts over a round moves both sides alike."""
    build_extension()
    baseline = ("compiled", False, None)
    kinds = [baseline, *[("compiled", False, metric) for metric in ABLATIONS],
             baseline, ("compiled", True, None), ("pure", True, None),
             ("pure", False, None)]
    rounds: Dict[Tuple, List[Dict[str, Any]]] = {kind: [] for kind in kinds}
    start = time.monotonic()
    done = 0
    while done < TRACE_ROUNDS or time.monotonic() - start < seconds:
        for tier, traced, ablation in kinds:
            rounds[tier, traced, ablation].append(run_leg(
                workload, tier, seed, references, trace=traced,
                hide=ABLATIONS.get(ablation)))
        done += 1

    def wall(kind: Tuple) -> float:
        return statistics.median(r["wall_s"] for r in rounds[kind])

    metrics: Dict[str, float] = {}
    spans = {}
    for tier in TIERS:
        traced_legs = rounds[tier, True, None]
        spans[tier] = [leg_spans(report) for report in traced_legs]
        layers = [tier_layers(report, tree)
                  for report, tree in zip(traced_legs, spans[tier])]
        for name in layers[0]:
            metrics[f"{tier}.{name}"] = statistics.median(
                values[name] for values in layers)
        metrics[f"{tier}.trace_overhead"] = (
            wall((tier, True, None)) / wall((tier, False, None)) - 1.0)
    before, after = rounds[baseline][0::2], rounds[baseline][1::2]
    for metric in ABLATIONS:
        metrics[f"compiled.ckernel.{metric}"] = statistics.median(
            hidden["wall_s"] - (first["wall_s"] + last["wall_s"]) / 2
            for hidden, first, last in zip(
                rounds["compiled", False, metric], before, after))
    counts = [report["counts"] for tier in TIERS
              for report in rounds[tier, True, None]]
    metrics.update(work_metrics(counts[0]))
    details = {
        "spans": spans,
        "counts_agree": all(c == counts[0] for c in counts),
        "counts": counts[0],
        "gaps": rounds["compiled", True, None][0]["gaps"],
        "walls": {" ".join(filter(None, [
                      tier, traced and "traced",
                      ablation and f"without {ABLATIONS[ablation]}"])):
                  [r["wall_s"] for r in rounds[tier, traced, ablation]]
                  for tier, traced, ablation in rounds},
    }
    legs = [report for reports in rounds.values() for report in reports]
    return metrics, legs, details


def write_pins() -> None:
    """Pin every workload's digests at the default seed and size."""
    build_extension()
    pins = {}
    for workload, spec in WORKLOADS.items():
        reports = {tier: run_leg(workload, tier, DEFAULT_SEED,
                                 spec["references"]) for tier in TIERS}
        points = reports["pure"]["points"]
        if (reports["compiled"]["points"] != points or not points
                or reports["pure"]["errors"]
                or any(not _is_digest(d) for d in points.values())):
            raise BenchError(f"{workload}: tiers disagree or points failed; "
                             "nothing pinned")
        pins[workload] = {"seed": DEFAULT_SEED,
                          "references": spec["references"],
                          "points": dict(sorted(points.items()))}
        print(f"pinned {len(points)} design points of {workload}")
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _is_digest(value: Optional[str]) -> bool:
    return (isinstance(value, str) and len(value) == 64
            and all(c in "0123456789abcdef" for c in value))


def report_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:32s} {value:14.6g} {unit:6s} {note}".rstrip()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pins.json and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.pin:
            write_pins()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        references = WORKLOADS[args.workload]["references"]
        pinned = workload_pins(args.workload, references, load_pins())
        if args.trace:
            metrics, legs, details = trace(args.workload, args.seed,
                                           references, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, legs = measure(args.workload, args.seed, references,
                                    args.seconds)
            details = None
            units = END_TO_END_UNITS
        reference = reference_digests(args.seed, legs, pinned)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed, reasons = score(legs, reference)
    consistent = True
    if details is not None:
        consistent = details["counts_agree"]
        if not consistent:
            reasons.append("traced work counts differ between legs")
        details["failures"] = reasons
        details["metrics"] = metrics
        os.makedirs(WORK_DIR, exist_ok=True)
        trace_path = os.path.join(
            WORK_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(details, handle, indent=1)
        print(f"spans and counts written to "
              f"{os.path.relpath(trace_path, ROOT)}")
        for name, by_protocol in details["gaps"].items():
            raised = [f"{protocol} ({what})" for protocol, what
                      in by_protocol.items() if what != "falls back"]
            if raised:
                print(f"cannot hide {name}: build raises on "
                      f"{', '.join(raised)}")
    if set(metrics) != set(units):
        print(f"benchmark failed: metric set mismatch "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1

    print(f"{args.workload} seed {args.seed}, {references} refs/processor: "
          f"{len(legs)} legs, {attempted} design points checked")
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    notes = {} if details is not None else {
        f"{tier}.wall_s": "legs " + " ".join(
            f"{l['wall_s']:.3f}" for l in legs if l["tier"] == tier)
        for tier in TIERS}
    for name, unit in units.items():
        print(report_line(name, metrics[name], unit, notes.get(name, "")))
    print(report_line("failed_frac", failed / attempted, "ratio",
                      f"({failed} of {attempted} design points)"))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
