#!/usr/bin/env python
"""Measure kernel performance and maintain ``BENCH_kernel.json``.

The committed ``BENCH_kernel.json`` at the repo root is the project's
performance trajectory, tracked **per kernel tier**: a ``tiers`` map with one
section per tier (``pure``, ``compiled``), each holding its own ``baseline``
(the numbers that opened that tier's trajectory), ``current`` (the latest
measured numbers) and derived speedups, plus a ``machine`` block recording
``kernel_tier`` and — for the compiled tier — the compiler that built the
extension.  Tiers are never compared against each other: a compiled run only
ever diffs against compiled history, pure against pure.  CI runs ``--quick
--compare BENCH_kernel.json`` after every change and prints the same-tier
delta — non-gating, because absolute wall-clock depends on the runner, but a
sustained regression is visible in the artifact history.

Usage::

    PYTHONPATH=src python tools/perf_report.py                # full suite
    PYTHONPATH=src python tools/perf_report.py --quick        # CI-sized
    PYTHONPATH=src python tools/perf_report.py --only event_queue undo_log
    PYTHONPATH=src python tools/perf_report.py --tier compiled \
        --output BENCH_kernel.json                 # refresh one tier section
    PYTHONPATH=src python tools/perf_report.py --quick --compare BENCH_kernel.json
    PYTHONPATH=src python tools/perf_report.py --quick --profile \
        --only fig4_macro                      # cProfile attribution tables
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from benchmarks.bench_kernel import BENCHMARKS, run_all  # noqa: E402
from repro import kernel  # noqa: E402

#: v2: per-tier sections under "tiers" so pure / compiled trajectories are
#: tracked independently and never compared across tiers.
SCHEMA = "repro.bench_kernel/v2"
SCHEMA_V1 = "repro.bench_kernel/v1"

#: Benchmark-result keys that carry throughput (higher is better) and cost
#: (lower is better), used for speedup derivation and delta printing.
RATE_KEYS = ("events_per_sec", "references_per_sec", "records_per_sec",
             "decisions_per_sec", "sharded_speedup")
COST_KEYS = ("wall_seconds",)

#: Parallel-speedup metrics whose ceiling is ``min(workers, cpus)``: on a
#: machine whose recorded ``cpus`` field is 1, a sub-1.0 value is the
#: *expected* outcome (process spawn + store polling with zero extra
#: parallelism), so the regression surface skips them there.
PARALLEL_SPEEDUP_KEYS = ("sharded_speedup",)

#: ``--check`` warns (never gates) when a ``speedup_vs_baseline`` entry sits
#: below this: quick-sized CI numbers are noisy, so only a pronounced drop
#: is worth a log line.
REGRESSION_WARN_BELOW = 0.90


def parallel_gated_paths(results: Dict[str, Any]) -> set:
    """Metric paths to exempt from regression surfaces on this machine.

    A benchmark that records ``cpus`` (the campaign benchmarks) declares its
    own parallelism ceiling; with fewer than two usable CPUs its
    ``*_speedup`` metrics cannot exceed 1 and are exempt.
    """
    gated = set()
    for bench, payload in results.items():
        if not isinstance(payload, dict):
            continue
        cpus = payload.get("cpus")
        if isinstance(cpus, int) and cpus < 2:
            gated.update(f"{bench}.{key}" for key in PARALLEL_SPEEDUP_KEYS
                         if key in payload)
    return gated


def _walk_metrics(results: Dict[str, Any], prefix: str = "") -> Dict[str, float]:
    """Flatten benchmark results into {"bench.metric": value} for comparison."""
    out: Dict[str, float] = {}
    for key, value in results.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_walk_metrics(value, prefix=f"{path}."))
        elif key in RATE_KEYS or key in COST_KEYS:
            out[path] = float(value)
    return out


def derive_speedups(baseline: Dict[str, Any],
                    current: Dict[str, Any]) -> Dict[str, float]:
    """Speedup of ``current`` over ``baseline`` per metric (>1 is faster)."""
    base = _walk_metrics(baseline)
    cur = _walk_metrics(current)
    speedups: Dict[str, float] = {}
    for path in sorted(set(base) & set(cur)):
        b, c = base[path], cur[path]
        if b <= 0 or c <= 0:
            continue
        leaf = path.rsplit(".", 1)[-1]
        speedups[path] = round(b / c if leaf in COST_KEYS else c / b, 3)
    return speedups


def print_delta(reference: Dict[str, Any], measured: Dict[str, Any], *,
                rates_only: bool = False) -> None:
    """Print measured-vs-reference deltas, one line per metric.

    ``rates_only`` drops the cost metrics (wall_seconds): when the two runs
    used different input sizes (quick vs full), absolute wall-clock is
    incomparable but throughput rates still are.
    """
    speedups = derive_speedups(reference, measured)
    if rates_only:
        speedups = {path: s for path, s in speedups.items()
                    if path.rsplit(".", 1)[-1] not in COST_KEYS}
    gated = parallel_gated_paths(measured) | parallel_gated_paths(reference)
    skipped = sorted(path for path in speedups if path in gated)
    if skipped:
        speedups = {path: s for path, s in speedups.items()
                    if path not in gated}
        print(f"  (skipping {', '.join(skipped)}: recorded cpus < 2 caps "
              "the parallel-speedup ceiling at 1)")
    if not speedups:
        print("no overlapping metrics to compare")
        return
    width = max(len(path) for path in speedups)
    for path, speedup in speedups.items():
        marker = "+" if speedup >= 1.0 else "-"
        print(f"  {path:<{width}}  {speedup:6.2f}x {marker}")


def _check_tier_section(path: str, tier: str, section: Dict[str, Any],
                        warnings: List[str]) -> List[str]:
    """Validate one tier's {machine, baseline, current, speedup} block."""
    problems: List[str] = []
    machine = section.get("machine")
    if not isinstance(machine, dict):
        problems.append(f"{path}: tier {tier!r} missing 'machine' block")
    elif machine.get("kernel_tier") != tier:
        problems.append(
            f"{path}: tier {tier!r} machine block records kernel_tier="
            f"{machine.get('kernel_tier')!r}; entries must never mix tiers")
    for part in ("baseline", "current"):
        if not isinstance(section.get(part), dict):
            problems.append(f"{path}: tier {tier!r} missing or non-object "
                            f"{part!r} section")
    current = section.get("current")
    if isinstance(current, dict):
        metrics = _walk_metrics(current)
        if not metrics:
            problems.append(f"{path}: tier {tier!r} 'current' contains no "
                            "rate/cost metrics")
        bad = [k for k, v in metrics.items()
               if not isinstance(v, (int, float)) or v != v or v < 0]
        problems.extend(f"{path}: tier {tier!r} metric {k} has invalid value"
                        for k in bad)
        # Regression surface (warn-only): a speedup_vs_baseline entry well
        # below 1 usually means the committed 'current' numbers regressed —
        # except for parallel-speedup metrics on a machine whose recorded
        # ``cpus`` field caps their ceiling at 1 (single-CPU CI runners),
        # which are exempt rather than false-flagged.
        gated = parallel_gated_paths(current)
        speedups = section.get("speedup_vs_baseline")
        if isinstance(speedups, dict):
            for metric, value in sorted(speedups.items()):
                if metric in gated:
                    continue
                if (isinstance(value, (int, float)) and value == value
                        and 0 < value < REGRESSION_WARN_BELOW):
                    warnings.append(
                        f"{path}: tier {tier!r} metric {metric} at "
                        f"{value:.3f}x of its baseline")
    return problems


def check_document(path: str,
                   warnings: Optional[List[str]] = None) -> List[str]:
    """Validate a committed BENCH document; returns problems (empty = OK).

    The delta step of the CI perf job is non-gating, but a *malformed*
    committed baseline would silently break every future comparison, so its
    structure is checked gatingly: valid JSON, the expected schema tag, a
    per-tier ``tiers`` map whose sections each carry a matching
    ``machine.kernel_tier`` tag plus dict-shaped ``baseline``/``current``
    sections with at least one numeric rate or cost metric.

    ``warnings`` (when a list is passed) collects non-gating observations:
    committed ``speedup_vs_baseline`` entries below
    ``REGRESSION_WARN_BELOW``, excluding parallel-speedup metrics whose
    recorded ``cpus`` field shows a single-CPU machine (their ceiling is
    ``min(workers, cpus)``, so a sub-1.0 value there is expected).
    """
    if warnings is None:
        warnings = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    except ValueError as exc:
        return [f"{path} is not valid JSON: {exc}"]
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"{path}: top level must be an object, got {type(document).__name__}"]
    if document.get("schema") != SCHEMA:
        problems.append(f"{path}: schema is {document.get('schema')!r}, "
                        f"expected {SCHEMA!r}")
        return problems
    tiers = document.get("tiers")
    if not isinstance(tiers, dict) or not tiers:
        return problems + [f"{path}: missing or empty 'tiers' map"]
    for tier, section in tiers.items():
        if tier not in ("pure", "compiled"):
            problems.append(f"{path}: unknown tier {tier!r}")
            continue
        if not isinstance(section, dict):
            problems.append(f"{path}: tier {tier!r} section must be an object")
            continue
        problems.extend(_check_tier_section(path, tier, section, warnings))
    return problems


def machine_info() -> Dict[str, str]:
    info = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "kernel_tier": kernel.active_tier(),
    }
    if info["kernel_tier"] == "compiled":
        compiler = kernel.compiler_tag()
        if compiler is not None:
            info["kernel_compiler"] = compiler
    return info


def tier_section(document: Dict[str, Any], tier: str) -> Optional[Dict[str, Any]]:
    """The same-tier section of a BENCH document (v1 files count as pure).

    Returns ``None`` when the document has no entries for ``tier`` — the
    caller must then skip the comparison rather than fall back to another
    tier's numbers.
    """
    if document.get("schema") == SCHEMA_V1 or "tiers" not in document:
        # Legacy single-tier layout: everything in it was measured on the
        # pure tier (the compiled tier did not exist yet).
        return document if tier == "pure" else None
    tiers = document.get("tiers")
    if not isinstance(tiers, dict):
        return None
    section = tiers.get(tier)
    return section if isinstance(section, dict) else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized inputs (seconds, noisier numbers)")
    parser.add_argument("--only", nargs="+", metavar="BENCH",
                        choices=sorted(BENCHMARKS),
                        help="run only these benchmarks")
    parser.add_argument("--tier", choices=sorted(kernel.TIERS),
                        help="kernel tier to benchmark (default: the "
                             "REPRO_KERNEL selection); results land in the "
                             "matching per-tier section of the document")
    parser.add_argument("--output", metavar="FILE",
                        help="write the full BENCH document to FILE")
    parser.add_argument("--baseline-from", metavar="FILE",
                        help="take the 'baseline' section from FILE (a prior "
                             "--output document or raw results)")
    parser.add_argument("--compare", metavar="FILE",
                        help="print speedup of this run vs FILE's 'current' "
                             "(or 'baseline') section; never gates")
    parser.add_argument("--check", metavar="FILE",
                        help="validate FILE's structure and exit (no "
                             "benchmarks run); non-zero on a malformed file; "
                             "sub-baseline speedups print as warnings (cpus"
                             "-gated, never fail the check)")
    parser.add_argument("--profile", action="store_true",
                        help="run every benchmark under cProfile and write "
                             "the top-N cumulative tables next to the BENCH "
                             "artifact (numbers carry tracing overhead: for "
                             "attribution, not for the committed trajectory)")
    args = parser.parse_args(argv)

    if args.check:
        warnings: List[str] = []
        problems = check_document(args.check, warnings)
        for warning in warnings:
            print(f"WARNING: {warning}", file=sys.stderr)
        if problems:
            for problem in problems:
                print(f"MALFORMED: {problem}", file=sys.stderr)
            return 1
        print(f"{args.check} is well-formed ({SCHEMA})")
        return 0

    if args.tier is not None:
        kernel.set_kernel_tier(args.tier)
    # Resolve before benchmarking so REPRO_KERNEL=compiled without the
    # extension fails loudly here instead of silently measuring pure.
    tier = kernel.active_tier()
    print(f"kernel tier: {tier}")
    # Capture machine provenance now, while the resolved tier is pinned
    # (run_all restores the process selection on exit).
    machine = machine_info()
    profiles: Optional[Dict[str, str]] = {} if args.profile else None
    results = run_all(quick=args.quick, only=args.only, tier=tier,
                      profiles=profiles)
    print(json.dumps(results, indent=2, sort_keys=True))

    if profiles is not None:
        profile_path = (os.path.splitext(args.output)[0] + ".profile.txt"
                        if args.output else "BENCH_kernel.profile.txt")
        with open(profile_path, "w", encoding="utf-8") as handle:
            handle.write(f"# kernel tier: {tier}\n")
            handle.write("# cProfile attribution (top cumulative); "
                         "wall-clock here carries tracing overhead.\n")
            for name, table in profiles.items():
                handle.write(f"\n=== {name} ===\n{table}")
        print(f"\nwrote {profile_path} ({len(profiles)} profiles)")

    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as handle:
            committed = json.load(handle)
        reference_section = tier_section(committed, tier)
        if reference_section is None:
            # Numbers from a different tier are not a regression baseline.
            print(f"\n{args.compare} has no {tier!r}-tier entries; "
                  "skipping delta (tiers are never compared across)")
        else:
            reference = (reference_section.get("current")
                         or reference_section.get("baseline")
                         or reference_section)
            size_mismatch = committed.get("quick") is not None \
                and bool(committed.get("quick")) != args.quick
            note = ""
            if size_mismatch:
                note = ("; input sizes differ (quick vs full), comparing "
                        "throughput rates only")
            print(f"\ndelta vs {args.compare} [{tier} tier] "
                  f"({'quick' if args.quick else 'full'} inputs; >1.00x is "
                  f"faster{note}):")
            print_delta(reference, results, rates_only=size_mismatch)

    if args.output:
        prior_tiers: Dict[str, Any] = {}
        prior_quick = args.quick
        if os.path.exists(args.output):
            with open(args.output, "r", encoding="utf-8") as handle:
                prior_doc = json.load(handle)
            prior_pure = tier_section(prior_doc, "pure")
            if prior_pure is not None and "tiers" not in prior_doc:
                # Migrate a v1 single-tier file: it was all pure-tier data.
                prior_tiers = {"pure": {
                    "machine": dict(prior_doc.get("machine", {}),
                                    kernel_tier="pure"),
                    "baseline": prior_doc.get("baseline", {}),
                    "current": prior_doc.get("current", {}),
                    "speedup_vs_baseline":
                        prior_doc.get("speedup_vs_baseline", {}),
                }}
            else:
                prior_tiers = dict(prior_doc.get("tiers", {}))
            prior_quick = prior_doc.get("quick", args.quick)
            if bool(prior_quick) != args.quick:
                print(f"note: {args.output} holds "
                      f"{'quick' if prior_quick else 'full'}-size numbers; "
                      "refresh every tier at one size to keep the document "
                      "self-consistent")
        baseline: Dict[str, Any] = {}
        if args.baseline_from:
            with open(args.baseline_from, "r", encoding="utf-8") as handle:
                prior = json.load(handle)
            prior_sec = tier_section(prior, tier)
            if prior_sec is not None:
                baseline = (prior_sec.get("baseline")
                            or prior_sec.get("results") or {})
            else:
                baseline = prior.get("baseline") or prior.get("results") or prior
        elif isinstance(prior_tiers.get(tier), dict):
            baseline = prior_tiers[tier].get("baseline", {})
        if not baseline:
            # First measurement on this tier: it opens the trajectory.
            baseline = results
        prior_tiers[tier] = {
            "machine": machine,
            "baseline": baseline,
            "current": results,
            "speedup_vs_baseline": derive_speedups(baseline, results),
        }
        document = {
            "schema": SCHEMA,
            "quick": args.quick,
            "tiers": prior_tiers,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.output} ({tier} tier)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
