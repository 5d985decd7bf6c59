"""Workload × protocol × speculation campaign — the scenario grid.

The paper's evaluation is driven entirely by what each processor's
reference stream looks like (Table 3, Figures 4–5); with the workload layer
registry-driven, the *scenario space* becomes a sweepable axis exactly like
topologies and speculation designs before it.  This experiment crosses
every registered workload family — the five paper profiles plus the
parameterized scenario families (``hotspot``, ``producer_consumer``,
``phased``, ``scaled``, ``mixed``), each at its registered defaults — with
both coherence protocols and the S3 no-VC interconnect speculation on/off,
at the paper's 16-node scale.

Per design point it reports runtime, L2 misses, detection/recovery totals
and the deadlock-recovery attribution, so the question the registry opens —
*which stream shapes make which speculations expensive?* — is read directly
off the grid.  Every workload axis value is just a
:class:`~repro.sim.config.WorkloadConfig` name (``params`` stays ``None``,
the registered defaults), so the sweep doubles as an integration test of
the registry: name resolution is config-driven and the whole grid is
deterministic (serial == parallel == cached == sharded, byte-identical;
:func:`sharded_smoke` is the sharded leg).

S3 on the bus-based snooping system changes nothing (there is no network
to strip virtual channels from); those points re-simulate identical
behaviour under distinct design-point hashes, which — as in the
speculation matrix — is the point: every cell of the cross product is
demonstrated, inert axes included.  The run memo (DESIGN.md §9) does not
replay them on purpose: each twin's configuration differs in
``speculative_no_vc``, and treating the two as equal would assume, not
prove, that the setting has no effect.

Quick mode shrinks the workload axis to one family per kind — one paper
profile (``jbb``) and one parameterized family (``hotspot``) — and never
the protocol or speculation axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.campaign.executor import Executor
from repro.campaign.registry import CampaignContext, register_experiment
from repro.campaign.spec import RunSpec, SweepSpec
from repro.core.events import SpeculationKind
from repro.experiments.common import benchmark_config, run_specs
from repro.sim.config import ProtocolKind, SystemConfig
from repro.workloads import workload_names

PROTOCOLS: Sequence[ProtocolKind] = (ProtocolKind.DIRECTORY,
                                     ProtocolKind.SNOOPING)
S3_MODES: Sequence[bool] = (False, True)
#: The paper's machine scale; the ``scaled`` family derives its working
#: sets from this number (and grows them on bigger machines).
NUM_PROCESSORS = 16
#: One family per kind for quick mode: a paper profile and a parameterized
#: scenario family.
QUICK_WORKLOADS: Sequence[str] = ("jbb", "hotspot")
#: Explicit run horizon, as in the speculation matrix: a no-VC point that
#: deadlock-recovers repeatedly must terminate in benchmark time.
MAX_CYCLES = 10_000_000


@dataclass
class WorkloadMatrixResult:
    """Per-design-point metrics of the workload × protocol × S3 grid."""

    workloads: List[str] = field(default_factory=list)
    #: "workload/protocol@vc|no-vc" -> metric row, in sweep order.
    rows: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def format(self) -> str:
        return format_table(
            f"Workload matrix: {len(self.workloads)} families x protocol "
            "x {vc, no-vc}",
            self.rows,
            columns=["runtime_cycles", "l2_misses", "detections",
                     "recoveries", "deadlock_recoveries"])

    def to_rows(self) -> List[Dict[str, object]]:
        return [{"point": label, **row} for label, row in self.rows.items()]

    def to_json(self) -> Dict[str, Any]:
        return {"workloads": list(self.workloads), "rows": self.to_rows()}


def _point_label(workload: str, protocol: ProtocolKind, s3: bool) -> str:
    return f"{workload}/{protocol.value}@{'no-vc' if s3 else 'vc'}"


def _point_config(workload: str, protocol: ProtocolKind, s3: bool, *,
                  references: int, seed: int) -> SystemConfig:
    return benchmark_config(
        workload, seed=seed, references=references, protocol=protocol,
        speculative_no_vc=s3, num_processors=NUM_PROCESSORS)


def run(workloads: Optional[Sequence[str]] = None, *,
        protocols: Sequence[ProtocolKind] = PROTOCOLS,
        s3_modes: Sequence[bool] = S3_MODES,
        references: int = 400, seed: int = 1,
        executor: Optional[Executor] = None) -> WorkloadMatrixResult:
    """Run the full workload grid as one executor batch."""
    if workloads is None:
        workloads = workload_names()
    result = WorkloadMatrixResult(workloads=list(workloads))
    points: List[Tuple[str, ProtocolKind, bool]] = [
        (workload, protocol, s3)
        for workload in workloads
        for protocol in protocols
        for s3 in s3_modes]
    sweep = SweepSpec.of("workload-matrix-grid", [
        RunSpec(
            config=_point_config(workload, protocol, s3,
                                 references=references, seed=seed),
            label=_point_label(workload, protocol, s3),
            max_cycles=MAX_CYCLES)
        for workload, protocol, s3 in points])
    results = run_specs(sweep, executor=executor)
    for (workload, protocol, s3), point in zip(points, results):
        result.rows[_point_label(workload, protocol, s3)] = {
            "workload": workload,
            "protocol": protocol.value,
            "s3": s3,
            "finished": point.finished,
            "runtime_cycles": point.runtime_cycles,
            "l2_misses": point.l2_misses,
            "detections": point.detections,
            "recoveries": point.recoveries,
            "deadlock_recoveries": point.recoveries_of(
                SpeculationKind.INTERCONNECT_DEADLOCK),
        }
    return result


def sharded_smoke(store_dir: str, *, workers: int = 2,
                  references: int = 250, seed: int = 1,
                  quick: bool = True) -> WorkloadMatrixResult:
    """The grid through a :class:`~repro.campaign.sharding.ShardedExecutor`.

    The sharded leg of the determinism contract for this experiment: the
    returned report must be byte-identical to a plain serial :func:`run`
    with the same knobs (CI gates on exactly that, and the executor is
    resumable mid-grid — killing a worker and re-invoking finishes only the
    missing design points).  ``quick=False`` runs the full 40-point grid.
    """
    from repro.campaign.sharding import ShardedExecutor

    with ShardedExecutor(workers, store_dir) as executor:
        return run(QUICK_WORKLOADS if quick else None,
                   references=references, seed=seed, executor=executor)


@register_experiment("workload_matrix",
                     title="Workload matrix (registered families x protocol "
                           "x {vc, no-vc})",
                     order=87)
def campaign_run(ctx: CampaignContext) -> WorkloadMatrixResult:
    """Quick mode keeps one family per kind, never fewer protocol/S3 axes."""
    return run(QUICK_WORKLOADS if ctx.quick else None,
               references=ctx.references, executor=ctx.executor)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().format())


if __name__ == "__main__":  # pragma: no cover
    main()
