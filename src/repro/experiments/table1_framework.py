"""Table 1 — framework characterisation of the three speculative designs.

Unlike the performance experiments, Table 1 is structural: it characterises
the three applications of speculation-for-simplicity along the four
framework features.  This driver renders the table from the live
:mod:`repro.core.catalog` and additionally verifies that every mechanism is
actually wired into a buildable system (its detection path exists and its
forward-progress policy is registered), so the table is a checked artefact,
not just prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.analysis.report import format_table, rows_from_table
from repro.campaign.registry import CampaignContext, register_experiment
from repro.core.catalog import TABLE1_MECHANISMS, table1_rows
from repro.core.events import SpeculationKind
from repro.core.forward_progress import NoOpPolicy
from repro.sim.config import ProtocolKind, SystemConfig
from repro.system import build_system


@dataclass
class Table1Result:
    """The rendered table plus the wiring verification outcome."""

    rows: Dict[str, Dict[str, str]]
    wiring_ok: Dict[str, bool]

    def format(self) -> str:
        table = format_table("Table 1: speculation-for-simplicity characterisation",
                             self.rows)
        checks = "\n".join(f"  wired[{kind}] = {ok}"
                           for kind, ok in self.wiring_ok.items())
        return table + "\n\nImplementation wiring checks:\n" + checks

    def to_rows(self) -> List[Dict[str, object]]:
        return rows_from_table(self.rows, label_field="feature")

    def to_json(self) -> Dict[str, Any]:
        return {"rows": self.to_rows(), "wiring_ok": dict(self.wiring_ok)}


def _policy_registered(system, kind: SpeculationKind) -> bool:
    policy = system.speculation.policy_for(kind)
    return not isinstance(policy, NoOpPolicy)


def run() -> Table1Result:
    """Render Table 1 and verify each mechanism is wired into a real system."""
    wiring: Dict[str, bool] = {}

    directory = build_system(SystemConfig.small(num_processors=4, references=0))
    wiring[SpeculationKind.DIRECTORY_P2P_ORDER.value] = _policy_registered(
        directory, SpeculationKind.DIRECTORY_P2P_ORDER)
    wiring[SpeculationKind.INTERCONNECT_DEADLOCK.value] = _policy_registered(
        directory, SpeculationKind.INTERCONNECT_DEADLOCK)

    snooping_cfg = SystemConfig.small(num_processors=4, references=0).with_updates(
        protocol=ProtocolKind.SNOOPING)
    snooping = build_system(snooping_cfg)
    wiring[SpeculationKind.SNOOPING_CORNER_CASE.value] = _policy_registered(
        snooping, SpeculationKind.SNOOPING_CORNER_CASE)

    return Table1Result(rows=table1_rows(), wiring_ok=wiring)


@register_experiment("table1", title="Table 1: speculation framework characterisation",
                     order=10)
def campaign_run(ctx: CampaignContext) -> Table1Result:
    """Structural table — independent of workloads and the executor."""
    return run()


def mechanisms() -> List[str]:
    """Titles of the three mechanisms (column order of the paper's table)."""
    return [m.title for m in TABLE1_MECHANISMS]


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().format())


if __name__ == "__main__":  # pragma: no cover
    main()
