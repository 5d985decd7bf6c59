"""Speculation × protocol × topology campaign — Table 1 as an executable sweep.

The paper presents its three applications of speculation-for-simplicity as
rows of a table; this experiment renders the *design space* they span as a
sweep: every subset of {S1 point-to-point ordering, S2 snooping corner
case, S3 no-VC interconnect} crossed with both coherence protocols, the
registered topologies and two system scales.  A combination is just two
configuration fields (``variant`` and ``speculative_no_vc``), so the sweep
doubles as an integration test of the speculation layer: arming is
config-driven, disabled designs fall back to their fully specified
counterparts, and the whole grid is deterministic (serial == parallel ==
cached == sharded, byte-identical; :func:`sharded_smoke` is the sharded
leg).

Per design point it reports runtime, detection/recovery totals and the
per-kind recovery attribution, so the cost of *combining* speculations —
the question the paper's Section 6 raises but does not measure — is read
directly off the grid.

Semantics of a combination:

* the protocol's own speculation (S1 for directory, S2 for snooping)
  toggles ``variant`` between SPECULATIVE and FULL — "off" means the
  conventional, fully designed protocol, exactly as in Table 1;
* S3 toggles the Section 4 no-VC network via
  ``InterconnectConfig.speculative_no_vc`` (meaningless for the bus-based
  snooping system, which ignores the interconnect);
* the other protocol's design does not exist in the system, so it changes
  nothing: the point names it, but its configuration equals the point
  without it.

The grid is deliberately the *full* cross product even where axes are
inert — for the bus-based snooping system S1, S3 and the topology change
nothing, and for the directory system S2 changes nothing.  That redundancy
is the point (every Table 1 cell is demonstrated, including the
"speculation X does not exist here" cells) and is cheap.  A point whose
configuration equals an earlier point's (it differs only in a design that
does not exist in its system) is replayed from the run memo while the
memo still holds the original, not re-simulated (DESIGN.md §9): 8 of the
quick grid's 16 points.  In the full grid each such point comes too many
points after its original, so all 96 are simulated.  Points that differ
in a field their system ignores (snooping with and without S3 set
``speculative_no_vc``) are always simulated, as in the workload matrix.

Quick mode shrinks the grid to the torus at 4 nodes; the combination axis
is never reduced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.campaign.executor import Executor
from repro.campaign.registry import CampaignContext, register_experiment
from repro.campaign.spec import RunSpec, SweepSpec
from repro.core.events import SpeculationKind
from repro.experiments.common import benchmark_config, run_specs
from repro.sim.config import ProtocolKind, ProtocolVariant, SystemConfig

#: The three Table 1 designs, in paper order; a combination is a subset.
COMBINATIONS: Sequence[Tuple[bool, bool, bool]] = tuple(
    itertools.product((False, True), repeat=3))
PROTOCOLS: Sequence[ProtocolKind] = (ProtocolKind.DIRECTORY, ProtocolKind.SNOOPING)
TOPOLOGIES: Sequence[str] = ("torus", "mesh", "ring")
SCALES: Sequence[int] = (4, 16)
QUICK_TOPOLOGIES: Sequence[str] = ("torus",)
QUICK_SCALES: Sequence[int] = (4,)
#: Explicit run horizon: a no-VC point that deadlock-recovers repeatedly
#: must terminate in benchmark time instead of inheriting the per-reference
#: bound of a clean run.
MAX_CYCLES = 10_000_000


def combination_label(s1: bool, s2: bool, s3: bool) -> str:
    """``"S1+S3"``-style name of one speculation subset (``"none"`` empty)."""
    parts = [name for name, flag in zip(("S1", "S2", "S3"), (s1, s2, s3)) if flag]
    return "+".join(parts) if parts else "none"


@dataclass
class SpeculationMatrixResult:
    """Per-design-point metrics of the speculation × protocol × topology grid."""

    workload: str
    #: "protocol/combo@topology/nodes" -> metric row, in sweep order.
    rows: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def format(self) -> str:
        return format_table(
            f"Speculation matrix ({self.workload}): 2^3 combinations x "
            "protocol x topology x scale",
            self.rows,
            columns=["runtime_cycles", "detections", "recoveries",
                     "p2p_recoveries", "corner_case_recoveries",
                     "deadlock_recoveries"])

    def to_rows(self) -> List[Dict[str, object]]:
        return [{"point": label, **row} for label, row in self.rows.items()]

    def to_json(self) -> Dict[str, Any]:
        return {"workload": self.workload, "rows": self.to_rows()}


def _point_config(workload: str, protocol: ProtocolKind,
                  combo: Tuple[bool, bool, bool], topology: str, nodes: int, *,
                  references: int, seed: int) -> SystemConfig:
    s1, s2, s3 = combo
    own_speculation = s1 if protocol == ProtocolKind.DIRECTORY else s2
    return benchmark_config(
        workload, seed=seed, references=references,
        variant=(ProtocolVariant.SPECULATIVE if own_speculation
                 else ProtocolVariant.FULL),
        protocol=protocol,
        speculative_no_vc=s3,
        num_processors=nodes,
        topology=topology)


def run(workload: str = "jbb", *,
        combinations: Sequence[Tuple[bool, bool, bool]] = COMBINATIONS,
        protocols: Sequence[ProtocolKind] = PROTOCOLS,
        topologies: Sequence[str] = TOPOLOGIES,
        scales: Sequence[int] = SCALES,
        references: int = 400, seed: int = 1,
        executor: Optional[Executor] = None) -> SpeculationMatrixResult:
    """Run the full speculation grid as one executor batch."""
    result = SpeculationMatrixResult(workload=workload)
    points = [(protocol, combo, topology, nodes)
              for combo in combinations
              for protocol in protocols
              for topology in topologies
              for nodes in scales]
    sweep = SweepSpec.of("speculation-matrix-grid", [
        RunSpec(
            config=_point_config(workload, protocol, combo, topology, nodes,
                                 references=references, seed=seed),
            label=(f"{protocol.value}/{combination_label(*combo)}"
                   f"@{topology}/{nodes}"),
            max_cycles=MAX_CYCLES)
        for protocol, combo, topology, nodes in points])
    results = run_specs(sweep, executor=executor)
    for (protocol, combo, topology, nodes), point in zip(points, results):
        label = f"{protocol.value}/{combination_label(*combo)}@{topology}/{nodes}"
        result.rows[label] = {
            "protocol": protocol.value,
            "combination": combination_label(*combo),
            "s1": combo[0], "s2": combo[1], "s3": combo[2],
            "topology": topology,
            "nodes": nodes,
            "finished": point.finished,
            "runtime_cycles": point.runtime_cycles,
            "detections": point.detections,
            "recoveries": point.recoveries,
            "p2p_recoveries": point.recoveries_of(
                SpeculationKind.DIRECTORY_P2P_ORDER),
            "corner_case_recoveries": point.recoveries_of(
                SpeculationKind.SNOOPING_CORNER_CASE),
            "deadlock_recoveries": point.recoveries_of(
                SpeculationKind.INTERCONNECT_DEADLOCK),
        }
    return result


def sharded_smoke(store_dir: str, *, workers: int = 2,
                  references: int = 250, seed: int = 1,
                  quick: bool = True) -> SpeculationMatrixResult:
    """The grid through a :class:`~repro.campaign.sharding.ShardedExecutor`.

    The sharded leg of this experiment's determinism contract: byte
    -identical to a serial :func:`run` with the same knobs, resumable
    mid-grid from the shared store.  ``quick=False`` sweeps the full
    96-point grid.
    """
    from repro.campaign.sharding import ShardedExecutor

    with ShardedExecutor(workers, store_dir) as executor:
        return run(topologies=QUICK_TOPOLOGIES if quick else TOPOLOGIES,
                   scales=QUICK_SCALES if quick else SCALES,
                   references=references, seed=seed, executor=executor)


@register_experiment("speculation_matrix",
                     title="Speculation matrix (2^3 combinations x protocol "
                           "x topology x scale)",
                     order=86)
def campaign_run(ctx: CampaignContext) -> SpeculationMatrixResult:
    """Quick mode shrinks topology/scale axes, never the combination axis."""
    return run(topologies=QUICK_TOPOLOGIES if ctx.quick else TOPOLOGIES,
               scales=QUICK_SCALES if ctx.quick else SCALES,
               references=ctx.references, executor=ctx.executor)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().format())


if __name__ == "__main__":  # pragma: no cover
    main()
