"""Section 5.3 (text) — speculatively simplified snooping protocol.

The paper ran every workload on the speculative snooping protocol and
observed that *no* recoveries were needed: the corner case never occurred,
so the speculative protocol's performance mirrors the fully designed one.

This driver runs the SPECULATIVE and FULL snooping variants on the same
reference streams and reports runtimes, corner-case detections and
recoveries.  The expected shape: zero (or vanishingly few) corner-case
recoveries and performance parity between the two variants.

Where the corner case never occurs the parity is exact, and proved rather
than measured: the two variants differ only at the corner-case site, so a
FULL run that never reached it is also the SPECULATIVE run, and the run
memo replays it for its twin instead of simulating it again (DESIGN.md
§9).  At the benchmark's 200 references every workload replays, and the
normalized performance reads exactly 1.0; a workload that reaches the site
is simulated in both variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.analysis.metrics import normalized_performance
from repro.analysis.report import format_table, rows_from_table
from repro.campaign.executor import Executor
from repro.campaign.registry import CampaignContext, register_experiment
from repro.campaign.spec import RunSpec, SweepSpec
from repro.core.events import SpeculationKind
from repro.experiments.common import (
    benchmark_config,
    default_workloads,
    run_specs,
)
from repro.sim.config import ProtocolKind, ProtocolVariant


@dataclass
class SnoopingResult:
    """Per-workload comparison of the speculative and full snooping systems."""

    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def format(self) -> str:
        return format_table(
            "Speculatively simplified snooping protocol (corner case as mis-speculation)",
            self.rows,
            columns=["corner-case recoveries", "all recoveries",
                     "normalized perf vs full", "bus requests"])

    def to_rows(self) -> List[Dict[str, object]]:
        return rows_from_table(self.rows, label_field="workload")

    def to_json(self) -> Dict[str, Any]:
        return {"rows": self.to_rows()}


def run(workloads: Optional[Iterable[str]] = None, *,
        references: int = 400, seed: int = 1,
        executor: Optional[Executor] = None) -> SnoopingResult:
    """Compare the speculative snooping protocol against the full variant."""
    result = SnoopingResult()
    names = default_workloads(workloads)

    def spec_for(workload: str, variant: ProtocolVariant) -> RunSpec:
        return RunSpec(config=benchmark_config(
            workload, seed=seed, references=references,
            protocol=ProtocolKind.SNOOPING, variant=variant),
            label=f"snooping-{variant.value}")

    sweep = SweepSpec.of("snooping-variants", [
        spec_for(w, variant) for w in names
        for variant in (ProtocolVariant.FULL, ProtocolVariant.SPECULATIVE)])
    results = run_specs(sweep, executor=executor)
    for index, workload in enumerate(names):
        full, spec = results[2 * index], results[2 * index + 1]
        result.rows[workload] = {
            "corner-case recoveries": spec.recoveries_of(
                SpeculationKind.SNOOPING_CORNER_CASE),
            "all recoveries": spec.recoveries,
            "normalized perf vs full": normalized_performance(spec, full),
            "bus requests": spec.messages_delivered,
        }
    return result


@register_experiment("snooping_cornercase",
                     title="Speculative snooping protocol corner case", order=100)
def campaign_run(ctx: CampaignContext) -> SnoopingResult:
    return run(ctx.workloads, references=ctx.references, executor=ctx.executor)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().format())


if __name__ == "__main__":  # pragma: no cover
    main()
