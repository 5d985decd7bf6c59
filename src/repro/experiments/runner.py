"""Run the experiment campaign and print (or save) a combined report.

``python -m repro.experiments.runner`` regenerates every table and figure of
the paper's evaluation in one go, using the benchmark preset.  The runner is
registry-driven: it discovers every ``@register_experiment`` driver in
:mod:`repro.experiments` instead of maintaining an import list, so new
experiments appear here (and in ``--list``/``--only``/``--json``)
automatically.

Flags:

* ``--quick`` — reduced workload subset for a fast smoke run.
* ``--parallel N`` — fan independent design points out to ``N`` worker
  processes; the report is byte-identical to a serial run.
* ``--workers N`` — sharded execution: publish a campaign manifest to the
  shared store (``--cache DIR``, required) and fan design points out to
  ``N`` crash-safe worker processes that claim specs via lease files;
  byte-identical to a serial run, resumable after any crash.
* ``--resume`` — with ``--workers``: finish an interrupted sharded
  campaign.  Only missing design points are simulated (completed ones are
  cache hits); fails fast when the store has no manifest for the campaign.
* ``--status`` — print per-campaign progress of the store at ``--cache
  DIR`` (completed/leased/stale counts, worker throughput) and exit;
  refreshes each campaign's crash-safe partial report as it goes.
* ``--only NAME`` (repeatable) — run a subset of experiments.
* ``--list`` — show registered experiments and exit.
* ``--json PATH`` — also write a schema-stable machine-readable results file.
* ``--cache DIR`` — reuse on-disk cached results keyed by design-point hash;
  a hit/miss/stored summary is printed (and included in ``--json``'s
  ``execution`` block).
* ``--kernel-tier TIER`` — run on the ``pure`` or ``compiled`` kernel tier
  (default ``auto``: compiled when the extension is built, pure otherwise).
  The tiers are byte-identical, so this only affects wall-clock.
* ``--output PATH`` — also write the text report to a file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Mapping, Optional

from repro import kernel
from repro.campaign import (
    CampaignContext,
    Executor,
    all_experiments,
    discover,
    experiment_names,
    make_executor,
)
from repro.analysis.report import write_json_report

#: Separator between report sections (one per experiment).
SECTION_SEPARATOR = "\n\n" + "=" * 78 + "\n\n"

#: Schema tag of the ``--json`` report.
REPORT_SCHEMA = "repro.campaign.report/v1"


def build_context(*, quick: bool = False,
                  executor: Optional[Executor] = None) -> CampaignContext:
    """The standard campaign context for full and quick runs."""
    return CampaignContext(
        executor=executor if executor is not None else make_executor(),
        workloads=["jbb", "oltp"] if quick else None,
        references=250 if quick else 400,
        quick=quick,
    )


def run_campaign(*, quick: bool = False, executor: Optional[Executor] = None,
                 only: Optional[List[str]] = None) -> Dict[str, object]:
    """Run registered experiments and return ``{name: result}`` in report order."""
    discover()
    known = experiment_names()
    if only:
        unknown = [name for name in only if name not in known]
        if unknown:
            raise ValueError(f"unknown experiments {unknown}; available {known}")
    context = build_context(quick=quick, executor=executor)
    results: Dict[str, object] = {}
    for entry in all_experiments():
        if only and entry.name not in only:
            continue
        results[entry.name] = entry.runner(context)
    return results


def report_text(results: Dict[str, object]) -> str:
    """The combined human-readable report."""
    return SECTION_SEPARATOR.join(result.format() for result in results.values())


def report_json(results: Dict[str, object], *, quick: bool = False,
                execution: Optional[Mapping[str, Any]] = None) -> Dict[str, object]:
    """The machine-readable campaign report (stable schema).

    ``execution`` says how the campaign ran, not what it computed: the
    runner puts the executing kernel tier (``kernel``, with the compiler
    that built the extension on the compiled tier), the artifact-memo
    traffic (``memos``) and, under ``--cache``, the cache traffic
    (``cache``) there.  It is the report's one execution-side key, which
    ``tools/compare_reports.py`` strips before byte comparison, so report
    identity is unchanged across tiers and executors.
    """
    report: Dict[str, object] = {
        "schema": REPORT_SCHEMA,
        "quick": quick,
        "experiments": {name: result.to_json() for name, result in results.items()},
    }
    if execution is not None:
        report["execution"] = dict(execution)
    return report


def run_all(*, quick: bool = False, executor: Optional[Executor] = None,
            only: Optional[List[str]] = None) -> str:
    """Run the campaign and return the combined report text."""
    return report_text(run_campaign(quick=quick, executor=executor, only=only))


def _list_experiments() -> str:
    discover()
    lines = ["Registered experiments (report order):"]
    for entry in all_experiments():
        lines.append(f"  {entry.name:<20s} {entry.title}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="use a reduced workload subset")
    parser.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="run independent design points on N worker processes")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="sharded execution: N crash-safe worker "
                             "processes claiming design points from the "
                             "shared store (requires --cache DIR)")
    parser.add_argument("--resume", action="store_true",
                        help="finish an interrupted sharded campaign "
                             "(requires --workers; only missing design "
                             "points are simulated)")
    parser.add_argument("--status", action="store_true",
                        help="print campaign progress of the store at "
                             "--cache DIR and exit")
    parser.add_argument("--only", action="append", default=None, metavar="EXPERIMENT",
                        help="run only this experiment (repeatable); see --list")
    parser.add_argument("--list", action="store_true", dest="list_experiments",
                        help="list registered experiments and exit")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="also write a machine-readable results file")
    parser.add_argument("--cache", type=str, default=None, metavar="DIR",
                        help="cache results on disk keyed by design-point hash")
    parser.add_argument("--kernel-tier", choices=sorted(kernel.TIERS),
                        default=None, metavar="TIER",
                        help="kernel tier to run on: auto (default), pure, or "
                             "compiled; reports are byte-identical either way")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the text report to this file")
    args = parser.parse_args(argv)

    if args.list_experiments:
        print(_list_experiments())
        return 0

    if args.status:
        if not args.cache:
            parser.error("--status needs the store: pass --cache DIR")
        from repro.campaign.sharding import campaign_status

        print(campaign_status(args.cache))
        return 0

    if args.workers:
        if not args.cache:
            parser.error("--workers needs a shared store: pass --cache DIR")
        if args.parallel:
            parser.error("--workers is its own execution strategy; drop "
                         "--parallel")
    elif args.resume:
        parser.error("--resume only applies to sharded execution; pass "
                     "--workers N")

    if args.kernel_tier is not None:
        kernel.set_kernel_tier(args.kernel_tier)
        # Worker processes of --parallel runs re-resolve from the
        # environment, so mirror the choice there too.
        os.environ[kernel.ENV_VAR] = args.kernel_tier
        try:
            kernel.active_tier()
        except kernel.KernelTierError as exc:
            parser.error(str(exc))

    # Fail on bad arguments *before* running the (possibly hour-long)
    # campaign, not after; a crash mid-campaign keeps its traceback.
    for path in (args.output, args.json):
        if path:
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                parser.error(f"output directory does not exist: {parent}")
    if args.only:
        discover()
        known = experiment_names()
        unknown = [name for name in args.only if name not in known]
        if unknown:
            parser.error(f"unknown experiments {unknown}; available {known}")

    with make_executor(args.parallel, cache_dir=args.cache,
                       workers=args.workers,
                       resume=args.resume) as executor:
        results = run_campaign(quick=args.quick, executor=executor,
                               only=args.only)
        cache_stats = (executor.cache.stats()
                       if executor.cache is not None else None)
    report = report_text(results)
    print(report)
    if cache_stats is not None:
        print(f"\ncache: {cache_stats['hits']} hits, "
              f"{cache_stats['misses']} misses, "
              f"{cache_stats['stored']} stored")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    if args.json:
        kernel_meta = {"tier": kernel.active_tier()}
        compiler = kernel.compiler_tag()
        if kernel_meta["tier"] == "compiled" and compiler is not None:
            kernel_meta["compiler"] = compiler
        from repro.campaign import memo_stats

        execution: Dict[str, Any] = {"kernel": kernel_meta,
                                     "memos": memo_stats()}
        if cache_stats is not None:
            execution["cache"] = dict(cache_stats)
        write_json_report(args.json, report_json(results, quick=args.quick,
                                                 execution=execution))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
