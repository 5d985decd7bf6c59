"""Figure 3 — switch deadlock.

The paper's Figure 3 shows two switches, each with a full buffer toward the
other, neither able to send its head message.  This driver reconstructs the
scenario on a real (speculative, no-virtual-channel) torus network: it
saturates a two-switch cycle with opposing traffic until the buffers fill,
then runs the ground-truth wait-for-graph detector
(:func:`repro.interconnect.deadlock.detect_switch_deadlock`).  It also shows
the same traffic on the virtual-channel network, where the detector finds no
cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.campaign.registry import CampaignContext, register_experiment
from repro.interconnect.deadlock import DeadlockReport, detect_network_deadlock
from repro.interconnect.message import MessageClass
from repro.interconnect.network import InterconnectNetwork, make_message
from repro.sim.config import InterconnectConfig, RoutingPolicy, TopologyConfig
from repro.sim.engine import Simulator


@dataclass
class Fig3Result:
    """Deadlock reports for the no-VC and VC networks under opposing traffic."""

    no_vc_report: DeadlockReport
    no_vc_delivered: int
    no_vc_sent: int
    vc_report: DeadlockReport
    vc_delivered: int
    vc_sent: int

    @property
    def no_vc_wedged(self) -> bool:
        """True when the no-VC network stopped delivering messages."""
        return self.no_vc_delivered < self.no_vc_sent

    def format(self) -> str:
        return "\n".join([
            "Figure 3: switch deadlock reconstruction (opposing traffic on a 2-wide torus)",
            f"  no virtual channels : delivered {self.no_vc_delivered}/{self.no_vc_sent}, "
            f"blocked resources={self.no_vc_report.blocked_resources}, "
            f"wait-for cycle={self.no_vc_report.deadlocked}",
            f"  virtual channels    : delivered {self.vc_delivered}/{self.vc_sent}, "
            f"wait-for cycle={self.vc_report.deadlocked}",
        ])

    def to_rows(self) -> List[Dict[str, object]]:
        return [
            {"network": "no-vc", "delivered": self.no_vc_delivered,
             "sent": self.no_vc_sent, "deadlocked": self.no_vc_report.deadlocked,
             "blocked_resources": self.no_vc_report.blocked_resources,
             "wedged": self.no_vc_wedged},
            {"network": "vc", "delivered": self.vc_delivered,
             "sent": self.vc_sent, "deadlocked": self.vc_report.deadlocked,
             "blocked_resources": self.vc_report.blocked_resources,
             "wedged": self.vc_delivered < self.vc_sent},
        ]

    def to_json(self) -> Dict[str, Any]:
        return {"rows": self.to_rows()}


def _run_one(*, speculative_no_vc: bool, messages: int, buffer_capacity: int):
    sim = Simulator()
    config = InterconnectConfig(
        topology=TopologyConfig("torus", (2, 1)),
        routing=RoutingPolicy.STATIC,
        link_bandwidth_bytes_per_sec=200e6, link_latency_cycles=8,
        switch_buffer_capacity=buffer_capacity,
        speculative_no_vc=speculative_no_vc,
        nic_injection_limit=2)
    network = InterconnectNetwork(sim, config, frequency_hz=4e9)
    delivered = {"count": 0}

    def receive(message) -> None:
        delivered["count"] += 1
        if message.payload == "reply":
            return
        # Each ingested request generates one reply in the opposite
        # direction — the message dependency that makes Figure 3's cycle
        # possible when requests and replies share buffers.
        reply_dst = 1 - message.dst
        reply = make_message(message.dst, reply_dst, MessageClass.DATA,
                             address=message.address, config=config)
        reply.payload = "reply"
        network.send(reply)

    network.attach(0, receive)
    network.attach(1, receive)

    for i in range(messages):
        network.send(make_message(0, 1, MessageClass.DATA, address=64 * i,
                                  config=config))
        network.send(make_message(1, 0, MessageClass.DATA, address=64 * i + 32,
                                  config=config))
    # Run for a bounded horizon; a deadlocked network stops making progress.
    sim.run(until=300_000, max_events=200_000)
    report = detect_network_deadlock(network)
    return report, network.messages_delivered, network.messages_sent


def run(*, messages: int = 40, buffer_capacity: int = 2) -> Fig3Result:
    """Reconstruct Figure 3 with and without virtual channels."""
    no_vc_report, no_vc_delivered, no_vc_sent = _run_one(
        speculative_no_vc=True, messages=messages, buffer_capacity=buffer_capacity)
    vc_report, vc_delivered, vc_sent = _run_one(
        speculative_no_vc=False, messages=messages, buffer_capacity=buffer_capacity)
    return Fig3Result(no_vc_report=no_vc_report, no_vc_delivered=no_vc_delivered,
                      no_vc_sent=no_vc_sent, vc_report=vc_report,
                      vc_delivered=vc_delivered, vc_sent=vc_sent)


@register_experiment("fig3", title="Figure 3: switch deadlock reconstruction",
                     order=60)
def campaign_run(ctx: CampaignContext) -> Fig3Result:
    """Raw-network scenario on a two-switch torus; fixed size in all modes."""
    return run()


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().format())


if __name__ == "__main__":  # pragma: no cover
    main()
