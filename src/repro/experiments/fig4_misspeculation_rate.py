"""Figure 4 — Performance vs. mis-speculation (recovery injection) rate.

The paper isolates the cost of recovery by taking a system *without*
speculation and injecting periodic recoveries at 0, 1, 10 and 100 per
second, then plotting runtime normalised to the no-injection run for each
workload.  The headline result is that up to ten recoveries per second cost
essentially nothing.

This driver reproduces that experiment: the FULL-variant directory system on
the virtual-channel network (so no real mis-speculations occur), with a
:class:`repro.speculation.detectors.PeriodicInjectionSpeculation`
triggering SafetyNet recoveries at the requested rate.  Rates are interpreted against the
configuration's ``cycles_per_second`` scale (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.analysis.metrics import normalized_performance
from repro.analysis.report import format_figure_series
from repro.campaign.executor import Executor
from repro.campaign.registry import CampaignContext, register_experiment
from repro.campaign.spec import RunSpec, SweepSpec
from repro.experiments.common import (
    benchmark_config,
    default_workloads,
    run_specs,
)
from repro.sim.config import ProtocolVariant, RoutingPolicy, SystemConfig
from repro.speculation.detectors import injection_period_cycles

#: The injection rates of Figure 4, in recoveries per (scaled) second.
DEFAULT_RATES: Sequence[float] = (0.0, 1.0, 10.0, 100.0)


@dataclass
class Fig4Result:
    """Normalized performance per workload and injection rate."""

    rates: List[float]
    #: workload -> {rate: normalized performance}.
    normalized: Dict[str, Dict[float, float]] = field(default_factory=dict)
    #: workload -> {rate: observed recoveries}.
    recoveries: Dict[str, Dict[float, int]] = field(default_factory=dict)

    def series(self) -> Dict[str, Dict[str, float]]:
        return {workload: {f"{rate:g}/s": value for rate, value in points.items()}
                for workload, points in self.normalized.items()}

    def format(self) -> str:
        return format_figure_series(
            "Figure 4: performance vs. injected recovery rate", self.series())

    def to_rows(self) -> List[Dict[str, object]]:
        return [{"workload": workload, "rate_per_second": rate,
                 "normalized_performance": value,
                 "recoveries": self.recoveries[workload][rate]}
                for workload, points in self.normalized.items()
                for rate, value in points.items()]

    def to_json(self) -> Dict[str, Any]:
        return {"rates": list(self.rates), "rows": self.to_rows()}


def _injection_config(workload: str, *, seed: int, references: int) -> SystemConfig:
    """Non-speculative baseline system for the injection stress test.

    FULL protocol variant, static routing, virtual channels -- no organic
    mis-speculations.  The checkpoint interval and recovery latency are
    scaled down together with ``cycles_per_second`` so the ratio of
    per-recovery cost to a scaled second stays close to the paper's (see
    DESIGN.md §2); high-bandwidth links keep congestion out of this
    experiment.
    """
    cfg = benchmark_config(
        workload, seed=seed, references=references,
        variant=ProtocolVariant.FULL, routing=RoutingPolicy.STATIC,
        link_bandwidth=3.2e9)
    return cfg.with_updates(checkpoint=replace(
        cfg.checkpoint,
        directory_interval_cycles=2_000,
        recovery_latency_cycles=500))


def run(workloads: Optional[Iterable[str]] = None,
        rates: Sequence[float] = DEFAULT_RATES, *,
        references: int = 400, seed: int = 1,
        executor: Optional[Executor] = None) -> Fig4Result:
    """Run the Figure 4 sweep and return per-workload normalized performance.

    One executor batch holds every workload's no-injection baseline and,
    after them, every injected point.  Together they let a
    :class:`~repro.campaign.executor.SerialExecutor` resume each injected
    point from its baseline at the injector's first firing instead of
    simulating their shared prefix again, and let a point whose injector
    first fires after its baseline finished replay that baseline from the
    run memo (DESIGN.md §9): at 60 references, the 1/s and 10/s points.

    An injected point is bounded at 20x its baseline's runtime, which is
    known only once the baseline ends.  So the batch bounds each injected
    point at 20x its injection period instead.  A run that finishes at
    cycle ``F`` is the same run under any bound at or past ``F``, so a
    result that finished within 20x the baseline runtime is kept; any other
    point is run again with that bound, in a second batch.  When the
    injector fires before the baseline ends, the first bound is the lower
    one.
    """
    result = Fig4Result(rates=list(rates))
    names = default_workloads(workloads)
    configs = {w: _injection_config(w, seed=seed, references=references)
               for w in names}
    injected_keys = [(w, rate) for w in names for rate in rates if rate != 0.0]

    def injected_spec(workload: str, rate: float, bound: int) -> RunSpec:
        return RunSpec(config=configs[workload], label=f"inject-{rate:g}s",
                       recovery_rate_per_second=rate, max_cycles=bound)

    batch = run_specs(SweepSpec.of("fig4", [
        RunSpec(config=configs[w], label="no-injection") for w in names] + [
        injected_spec(w, rate, 20 * injection_period_cycles(
            rate, configs[w].cycles_per_second))
        for w, rate in injected_keys]), executor=executor)
    baselines = dict(zip(names, batch))
    injected_results = dict(zip(injected_keys, batch[len(names):]))

    rerun = [(w, rate) for w, rate in injected_keys
             if not (injected_results[(w, rate)].finished
                     and injected_results[(w, rate)].runtime_cycles
                     <= 20 * baselines[w].runtime_cycles)]
    if rerun:
        injected_results.update(zip(rerun, run_specs(SweepSpec.of(
            "fig4-rerun", [injected_spec(w, rate,
                                         20 * baselines[w].runtime_cycles)
                           for w, rate in rerun]), executor=executor)))

    for workload in names:
        baseline = baselines[workload]
        per_rate: Dict[float, float] = {}
        per_rate_recoveries: Dict[float, int] = {}
        for rate in rates:
            if rate == 0.0:
                per_rate[rate] = 1.0
                per_rate_recoveries[rate] = baseline.recoveries
                continue
            injected = injected_results[(workload, rate)]
            per_rate[rate] = normalized_performance(injected, baseline)
            per_rate_recoveries[rate] = injected.recoveries
        result.normalized[workload] = per_rate
        result.recoveries[workload] = per_rate_recoveries
    return result


@register_experiment("fig4", title="Figure 4: performance vs. injected recovery rate",
                     order=70)
def campaign_run(ctx: CampaignContext) -> Fig4Result:
    return run(ctx.workloads, references=ctx.references, executor=ctx.executor)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().format())


if __name__ == "__main__":  # pragma: no cover
    main()
