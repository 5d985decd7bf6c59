"""Figure 1 — adaptive routing violating point-to-point order.

The paper's Figure 1 is an illustrative diagram: a source sends M1 then M2
to the same destination; adaptive routing sends them along different paths
and M2 arrives first.  This driver makes the scenario measurable: it drives
one (source, destination) pair with back-to-back message pairs while
cross-traffic congests the dimension-order path, and reports how many pairs
arrive out of order under static vs. adaptive routing.  Static routing must
never reorder; adaptive routing reorders a small fraction of pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.campaign.registry import CampaignContext, register_experiment
from repro.interconnect.message import MessageClass, NetworkMessage
from repro.interconnect.network import InterconnectNetwork, make_message
from repro.sim.config import InterconnectConfig, RoutingPolicy, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng


@dataclass
class Fig1Result:
    """Reordering counts per routing policy."""

    pairs_sent: int
    reordered_pairs: Dict[str, int]
    reorder_rate: Dict[str, float]

    def format(self) -> str:
        lines = ["Figure 1: point-to-point order violations (message pairs src 0 -> dst 15)"]
        for policy, count in self.reordered_pairs.items():
            lines.append(f"  {policy:>8s}: {count}/{self.pairs_sent} pairs reordered "
                         f"({100.0 * self.reorder_rate[policy]:.2f}%)")
        return "\n".join(lines)

    def to_rows(self) -> List[Dict[str, object]]:
        return [{"routing": policy, "pairs_sent": self.pairs_sent,
                 "reordered_pairs": count,
                 "reorder_rate": self.reorder_rate[policy]}
                for policy, count in self.reordered_pairs.items()]

    def to_json(self) -> Dict[str, Any]:
        return {"pairs_sent": self.pairs_sent, "rows": self.to_rows()}


def _run_one(policy: RoutingPolicy, *, pairs: int, seed: int) -> int:
    sim = Simulator()
    config = InterconnectConfig(
        topology=TopologyConfig("torus", (4, 4)), routing=policy,
        link_bandwidth_bytes_per_sec=400e6, link_latency_cycles=8,
        switch_buffer_capacity=16)
    network = InterconnectNetwork(sim, config, frequency_hz=4e9)
    arrivals: Dict[NetworkMessage, int] = {}

    def receive(message: NetworkMessage) -> None:
        arrivals[message] = sim.now

    for node in range(16):
        network.attach(node, receive)

    rng = DeterministicRng(seed)
    src, dst = 0, 15
    message_pairs = []
    clock = 0
    for i in range(pairs):
        # Cross traffic that congests the dimension-order path.
        for _ in range(3):
            a = rng.randint("cross-src", 0, 16)
            b = rng.randint("cross-dst", 0, 16)
            if a == b:
                continue
            sim.schedule_at(clock, lambda a=a, b=b: network.send(
                make_message(a, b, MessageClass.DATA, address=0, config=config)))
        m1 = make_message(src, dst, MessageClass.FORWARDED_REQUEST_READ_WRITE,
                          address=64 * i, config=config)
        m2 = make_message(src, dst, MessageClass.WRITEBACK_ACK,
                          address=64 * i, config=config)
        message_pairs.append((m1, m2))
        sim.schedule_at(clock, lambda m=m1: network.send(m))
        sim.schedule_at(clock + 1, lambda m=m2: network.send(m))
        clock += rng.randint("gap", 200, 600)
    sim.run()

    reordered = 0
    for first, second in message_pairs:
        if arrivals.get(second, 1 << 60) < arrivals.get(first, 1 << 60):
            reordered += 1
    return reordered


def run(*, pairs: int = 200, seed: int = 7) -> Fig1Result:
    """Measure pair reordering under static and adaptive routing."""
    counts = {}
    for policy in (RoutingPolicy.STATIC, RoutingPolicy.ADAPTIVE):
        counts[policy.value] = _run_one(policy, pairs=pairs, seed=seed)
    return Fig1Result(
        pairs_sent=pairs,
        reordered_pairs=counts,
        reorder_rate={name: count / pairs for name, count in counts.items()})


@register_experiment("fig1", title="Figure 1: adaptive routing reorders message pairs",
                     order=40)
def campaign_run(ctx: CampaignContext) -> Fig1Result:
    """Raw-network scenario; runs the same pair count in quick and full mode."""
    return run()


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().format())


if __name__ == "__main__":  # pragma: no cover
    main()
