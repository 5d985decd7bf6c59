"""Integration-level tests for the torus network (switches + links + NICs)."""

from __future__ import annotations

import pytest

from repro.interconnect.deadlock import detect_network_deadlock, detect_switch_deadlock
from repro.interconnect.message import MessageClass, VirtualNetwork
from repro.interconnect.network import InterconnectNetwork, make_message
from repro.sim.config import InterconnectConfig, RoutingPolicy, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng


def build_network(policy=RoutingPolicy.STATIC, *, width=4, height=4,
                  buffer_capacity=16, speculative_no_vc=False,
                  bandwidth=1.6e9, nic_limit=8):
    sim = Simulator()
    config = InterconnectConfig(
        topology=TopologyConfig("torus", (width, height)), routing=policy,
        link_bandwidth_bytes_per_sec=bandwidth, link_latency_cycles=4,
        switch_buffer_capacity=buffer_capacity,
        speculative_no_vc=speculative_no_vc, nic_injection_limit=nic_limit)
    network = InterconnectNetwork(sim, config, frequency_hz=4e9)
    received = []
    for node in range(width * height):
        network.attach(node, lambda m, node=node: received.append((node, m)))
    return sim, config, network, received


class TestDelivery:
    def test_every_message_is_delivered(self):
        sim, config, network, received = build_network()
        rng = DeterministicRng(3)
        sent = 0
        for i in range(150):
            src = rng.randint("s", 0, 16)
            dst = rng.randint("d", 0, 16)
            if src == dst:
                continue
            network.send(make_message(src, dst, MessageClass.DATA, address=64 * i,
                                      config=config))
            sent += 1
        sim.run()
        assert network.messages_delivered == sent
        assert len(received) == sent

    def test_messages_delivered_to_correct_node(self):
        sim, config, network, received = build_network()
        network.send(make_message(2, 9, MessageClass.DATA, address=0, config=config))
        sim.run()
        assert received == [(9, received[0][1])]
        assert received[0][1].dst == 9

    def test_local_delivery_src_equals_dst(self):
        sim, config, network, received = build_network()
        network.send(make_message(5, 5, MessageClass.ACK, address=0, config=config))
        sim.run()
        assert len(received) == 1 and received[0][0] == 5

    def test_hop_count_matches_distance_under_static_routing(self):
        sim, config, network, received = build_network()
        network.send(make_message(0, 10, MessageClass.ACK, address=0, config=config))
        sim.run()
        message = received[0][1]
        assert message.hops == network.topology.distance(0, 10)

    def test_latency_positive_and_recorded(self):
        sim, config, network, received = build_network()
        network.send(make_message(0, 15, MessageClass.DATA, address=0, config=config))
        sim.run()
        message = received[0][1]
        assert message.latency > 0
        assert network.mean_message_latency() == pytest.approx(message.latency)

    def test_send_requires_attached_endpoints(self):
        sim = Simulator()
        config = InterconnectConfig(topology=TopologyConfig("torus", (2, 2)))
        network = InterconnectNetwork(sim, config)
        with pytest.raises(ValueError):
            network.send(make_message(0, 1, MessageClass.ACK, config=config))

    def test_control_vs_data_sizes(self):
        config = InterconnectConfig()
        data = make_message(0, 1, MessageClass.DATA, config=config)
        ctrl = make_message(0, 1, MessageClass.ACK, config=config)
        assert data.size_bytes == config.data_message_bytes
        assert ctrl.size_bytes == config.control_message_bytes


class TestOrdering:
    def test_static_routing_preserves_point_to_point_order(self):
        sim, config, network, received = build_network(RoutingPolicy.STATIC)
        rng = DeterministicRng(5)
        for i in range(300):
            src = rng.randint("s", 0, 16)
            dst = rng.randint("d", 0, 16)
            if src == dst:
                continue
            cls = MessageClass.DATA if i % 3 else MessageClass.REQUEST_READ_ONLY
            network.send(make_message(src, dst, cls, address=64 * i, config=config))
        sim.run()
        assert network.ordering.reorder_rate() == 0.0

    def test_adaptive_routing_can_reorder_under_congestion(self):
        sim, config, network, received = build_network(
            RoutingPolicy.ADAPTIVE, bandwidth=400e6)
        rng = DeterministicRng(5)
        # A burst of traffic injected simultaneously creates congestion and
        # path diversity; some same-stream pairs should arrive out of order.
        for i in range(400):
            src = rng.randint("s", 0, 16)
            dst = rng.randint("d", 0, 16)
            if src == dst:
                continue
            network.send(make_message(src, dst, MessageClass.DATA, address=64 * i,
                                      config=config))
        sim.run()
        assert network.ordering.reorder_rate() > 0.0

    def test_ordering_tracker_counts_per_vnet(self):
        sim, _, network, received = build_network()
        a = make_message(0, 1, MessageClass.WRITEBACK_ACK)
        b = make_message(0, 1, MessageClass.FORWARDED_REQUEST_READ_WRITE)
        network.ordering.assign_send_seq(b)
        network.ordering.assign_send_seq(a)
        # Deliver the later-sent message first: the earlier one is reordered.
        network.deliver_to_endpoint(1, a, delay=1)
        network.deliver_to_endpoint(1, b, delay=2)
        sim.run()
        assert received == [(1, a), (1, b)]
        tracker = network.ordering
        assert tracker.reorder_rate(VirtualNetwork.FORWARDED_REQUEST) == pytest.approx(0.5)
        assert tracker.reorder_rate(VirtualNetwork.RESPONSE) == 0.0


class TestUtilizationAndFlush:
    def test_link_utilization_increases_with_traffic(self):
        sim, config, network, _ = build_network(bandwidth=400e6)
        for i in range(100):
            network.send(make_message(0, 15, MessageClass.DATA, address=64 * i,
                                      config=config))
        sim.run()
        assert network.mean_link_utilization() > 0.0
        assert network.peak_link_utilization() >= network.mean_link_utilization()

    def test_flush_drops_in_flight_messages(self):
        sim, config, network, received = build_network(bandwidth=400e6)
        for i in range(50):
            network.send(make_message(0, 15, MessageClass.DATA, address=64 * i,
                                      config=config))
        sim.run(until=200)  # partially through delivery
        dropped = network.flush()
        delivered_before = len(received)
        sim.run()
        # Nothing new is delivered after the flush (in-flight link transfers
        # are squashed by the epoch check).
        assert len(received) == delivered_before
        assert dropped > 0
        assert network.flushes == 1

    def test_in_flight_count(self):
        sim, config, network, _ = build_network(bandwidth=400e6)
        for i in range(20):
            network.send(make_message(0, 15, MessageClass.DATA, address=64 * i,
                                      config=config))
        assert network.in_flight_messages() > 0
        sim.run()
        assert network.in_flight_messages() == 0

    def test_disable_adaptive_routing_hook(self):
        sim, config, network, _ = build_network(RoutingPolicy.ADAPTIVE)
        router = network.adaptive_router
        assert router is not None
        network.disable_adaptive_routing(1_000)
        assert not router.currently_adaptive

    def test_static_network_has_no_adaptive_router(self):
        _, _, network, _ = build_network(RoutingPolicy.STATIC)
        assert network.adaptive_router is None
        network.disable_adaptive_routing(100)  # must not raise


class TestDeadlockDetection:
    def test_healthy_network_has_no_deadlock(self):
        sim, config, network, _ = build_network()
        for i in range(30):
            network.send(make_message(i % 16, (i + 5) % 16, MessageClass.DATA,
                                      address=64 * i, config=config))
        sim.run()
        assert not detect_switch_deadlock(network.switches).deadlocked
        assert not detect_network_deadlock(network).deadlocked

    def test_no_vc_network_with_reply_coupling_can_deadlock(self):
        sim, config, network, _ = build_network(
            width=2, height=1, buffer_capacity=2, speculative_no_vc=True,
            bandwidth=200e6, nic_limit=2)
        # Re-attach endpoints that reply to every ingested request.
        def make_receiver(node):
            def receive(message):
                if message.payload == "reply":
                    return
                reply = make_message(node, 1 - node, MessageClass.DATA,
                                     address=message.address, config=config)
                reply.payload = "reply"
                network.send(reply)
            return receive
        network.attach(0, make_receiver(0))
        network.attach(1, make_receiver(1))
        for i in range(40):
            network.send(make_message(0, 1, MessageClass.DATA, address=64 * i,
                                      config=config))
            network.send(make_message(1, 0, MessageClass.DATA, address=64 * i + 32,
                                      config=config))
        sim.run(until=200_000, max_events=100_000)
        report = detect_network_deadlock(network)
        assert report.deadlocked
        assert network.messages_delivered < network.messages_sent
