"""Tests for the pluggable topology layer and the topology × scale campaign.

Covers the :class:`~repro.interconnect.topology.Topology` contract for the
mesh and ring implementations (the torus keeps its own long-standing suite
in ``test_topology_routing.py``), the registry, the ``TopologyConfig``
back-compat / content-hash-stability rules, system builds at 4/16/64 nodes,
the ring + no-VC deadlock-and-recover scenario, and the determinism of the
``topology_scale`` experiment under serial and parallel execution.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign.executor import ParallelExecutor, ResultCache, SerialExecutor
from repro.campaign.spec import RunSpec, canonical_json
from repro.core.events import SpeculationKind
from repro.experiments import topology_scale
from repro.experiments.common import benchmark_config
from repro.interconnect.message import MessageClass
from repro.interconnect.network import InterconnectNetwork, make_message
from repro.interconnect.topology import (
    Direction,
    MeshTopology,
    RingTopology,
    Topology,
    TorusTopology,
    make_topology,
    register_topology,
    topology_kinds,
)
from repro.sim.config import (
    CheckpointConfig,
    InterconnectConfig,
    RoutingPolicy,
    SystemConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.sim.engine import Simulator
from repro.system import build_system


# --------------------------------------------------------------------- geometry
class TestMeshTopology:
    def test_edges_have_no_wraparound(self):
        mesh = MeshTopology(4, 4)
        assert mesh.neighbor(3, Direction.EAST) == 3      # east edge: no link
        assert mesh.neighbor(0, Direction.WEST) == 0
        assert mesh.neighbor(0, Direction.NORTH) == 0
        assert mesh.neighbor(12, Direction.SOUTH) == 12
        assert mesh.neighbor(0, Direction.EAST) == 1

    def test_corner_and_interior_port_counts(self):
        mesh = MeshTopology(4, 4)
        assert len(mesh.neighbors(0)) == 2                # corner
        assert len(mesh.neighbors(1)) == 3                # edge
        assert len(mesh.neighbors(5)) == 4                # interior

    def test_distance_is_manhattan(self):
        mesh = MeshTopology(4, 4)
        assert mesh.distance(0, 15) == 6                  # torus would say 2
        assert mesh.distance(0, 3) == 3

    def test_mean_distance_exceeds_torus(self):
        assert (MeshTopology(4, 4).all_pairs_mean_distance()
                > TorusTopology(4, 4).all_pairs_mean_distance())

    @pytest.mark.parametrize("width,height", [(2, 2), (3, 4), (8, 8)])
    def test_minimal_directions_reach_destination(self, width, height):
        mesh = MeshTopology(width, height)
        for src in range(mesh.num_switches):
            for dst in range(mesh.num_switches):
                current, hops = src, 0
                while current != dst:
                    options = mesh.minimal_directions(current, dst)
                    assert options and options[0] != Direction.LOCAL
                    current = mesh.neighbor(current, options[0])
                    hops += 1
                assert hops == mesh.distance(src, dst)

    def test_static_table_matches_torus_semantics(self):
        mesh = MeshTopology(3, 3)
        # X first, then Y; every table entry names an existing link.
        assert mesh.dimension_order_direction(0, 5) == Direction.EAST
        for src in range(9):
            for dst in range(9):
                if src == dst:
                    continue
                direction = mesh.dimension_order_direction(src, dst)
                assert mesh.neighbor(src, direction) != src


class TestRingTopology:
    def test_ports_are_east_west_only(self):
        ring = RingTopology(8)
        assert ring.ports() == (Direction.EAST, Direction.WEST)
        assert ring.neighbor(0, Direction.NORTH) == 0
        assert set(ring.neighbors(0)) == {Direction.EAST, Direction.WEST}

    def test_wraparound_both_ways(self):
        ring = RingTopology(8)
        assert ring.neighbor(7, Direction.EAST) == 0
        assert ring.neighbor(0, Direction.WEST) == 7

    def test_distance_takes_shorter_way(self):
        ring = RingTopology(8)
        assert ring.distance(0, 3) == 3
        assert ring.distance(0, 6) == 2
        assert ring.distance(0, 4) == 4

    def test_diametric_destination_has_two_minimal_directions(self):
        ring = RingTopology(8)
        assert ring.minimal_directions(0, 4) == [Direction.EAST, Direction.WEST]
        assert ring.minimal_directions(0, 3) == [Direction.EAST]
        assert ring.minimal_directions(0, 5) == [Direction.WEST]
        # Static routing stays deterministic on the tie.
        assert ring.dimension_order_direction(0, 4) == Direction.EAST

    def test_degenerate_sizes(self):
        assert RingTopology(1).all_pairs_mean_distance() == 0.0
        assert RingTopology(2).distance(0, 1) == 1
        with pytest.raises(ValueError):
            RingTopology(0)


class TestRegistry:
    def test_builtin_kinds(self):
        assert topology_kinds() == ["torus", "mesh", "ring"]

    def test_make_topology_dispatches(self):
        assert isinstance(make_topology("torus", (4, 4)), TorusTopology)
        assert isinstance(make_topology("mesh", (2, 3)), MeshTopology)
        assert isinstance(make_topology("ring", (6,)), RingTopology)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            make_topology("hypercube", (4, 4))

    def test_wrong_dims_rejected(self):
        with pytest.raises(ValueError):
            make_topology("ring", (4, 4))
        with pytest.raises(ValueError):
            make_topology("mesh", (16,))

    def test_duplicate_registration_rejected(self):
        class Dup(RingTopology):
            kind = "ring"
        with pytest.raises(ValueError, match="registered twice"):
            register_topology(Dup)

    def test_num_switches_is_product_of_dims(self):
        for kind, dims in [("torus", (4, 4)), ("mesh", (3, 5)), ("ring", (7,))]:
            topo = make_topology(kind, dims)
            n = 1
            for d in dims:
                n *= d
            assert topo.num_switches == n

    def test_preset_grid_factorisation(self):
        assert TopologyConfig.preset("torus", 4).dims == (2, 2)
        assert TopologyConfig.preset("mesh", 16).dims == (4, 4)
        assert TopologyConfig.preset("torus", 64).dims == (8, 8)
        assert TopologyConfig.preset("mesh", 12).dims == (3, 4)
        with pytest.raises(ValueError, match="num_nodes >= 1"):
            TopologyConfig.preset("torus", 0)


# ----------------------------------------------------------------- configuration
class TestTopologyConfig:
    def test_preset_shapes(self):
        assert TopologyConfig.preset("torus", 64).dims == (8, 8)
        assert TopologyConfig.preset("ring", 16).dims == (16,)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            TopologyConfig("torus", ())
        with pytest.raises(ValueError):
            TopologyConfig("torus", (0, 4))

    def test_system_config_validates_against_topology(self):
        with pytest.raises(ValueError, match="cannot host"):
            SystemConfig(num_processors=8,
                         interconnect=InterconnectConfig(
                             topology=TopologyConfig("ring", (4,))))

    def test_small_preset_rejects_non_tiling_counts(self):
        with pytest.raises(ValueError, match="do not tile"):
            SystemConfig.small(num_processors=3)
        # The documented rule: exactly one switch per processor.
        for n in (2, 4, 8, 16):
            cfg = SystemConfig.small(num_processors=n, references=10)
            assert cfg.interconnect.num_switches == n

    def test_table2_miss_from_memory_reports_cycles_and_ns(self):
        rows = SystemConfig.paper_defaults().table2_rows()
        assert rows["Miss From Memory"] == "720 cycles / 180 ns (uncontended, 2-hop)"
        assert "torus" in rows["Interconnection Networks"]


# ----------------------------------------------------------------- network builds
def _raw_network(topology: TopologyConfig, *, routing=RoutingPolicy.STATIC,
                 **overrides):
    sim = Simulator()
    config = InterconnectConfig(topology=topology, routing=routing,
                                link_bandwidth_bytes_per_sec=1.6e9,
                                link_latency_cycles=4, **overrides)
    network = InterconnectNetwork(sim, config, frequency_hz=4e9)
    received = []
    for node in range(network.topology.num_switches):
        network.attach(node, lambda m, node=node: received.append((node, m)))
    return sim, config, network, received


class TestNetworksOnNewTopologies:
    @pytest.mark.parametrize("topo", [TopologyConfig("mesh", (4, 4)),
                                      TopologyConfig("ring", (8,)),
                                      TopologyConfig("torus", (4, 4))])
    def test_all_pairs_delivery(self, topo):
        sim, config, network, received = _raw_network(topo)
        sent = 0
        n = network.topology.num_switches
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                network.send(make_message(src, dst, MessageClass.DATA,
                                          address=64 * sent, config=config))
                sent += 1
        sim.run()
        assert network.messages_delivered == sent
        assert len(received) == sent

    def test_hop_counts_match_topology_distance(self):
        sim, config, network, received = _raw_network(TopologyConfig("mesh", (4, 4)))
        network.send(make_message(0, 15, MessageClass.ACK, address=0, config=config))
        sim.run()
        assert received[0][1].hops == network.topology.distance(0, 15) == 6

    def test_mesh_edge_switch_has_no_dangling_links(self):
        _, _, network, _ = _raw_network(TopologyConfig("mesh", (3, 3)))
        corner = network.switch(0)
        assert set(corner.output_links) == {Direction.EAST, Direction.SOUTH}
        assert Direction.WEST not in corner.input_channels


# --------------------------------------------------------------- system scaling
class TestSystemScaling:
    @pytest.mark.parametrize("nodes", [4, 16, 64])
    def test_directory_system_builds_at_every_scale(self, nodes):
        config = benchmark_config("jbb", references=0, num_processors=nodes,
                                  topology="torus")
        system = build_system(config)
        assert len(system.nodes) == nodes
        assert system.network.topology.num_switches == nodes

    def test_64_node_torus_completes_a_quick_run(self):
        config = benchmark_config("jbb", references=40, num_processors=64,
                                  topology="torus",
                                  routing=RoutingPolicy.ADAPTIVE)
        result = build_system(config).run()
        assert result.finished
        assert result.references_completed >= 64 * 40
        assert result.events_executed > 0

    @pytest.mark.parametrize("kind", ["mesh", "ring"])
    def test_new_topologies_run_the_protocol(self, kind):
        config = benchmark_config("jbb", references=60, num_processors=4,
                                  topology=kind)
        system = build_system(config)
        result = system.run()
        assert result.finished
        assert system.invariant_errors() == []

    def test_home_nodes_cover_all_processors_at_scale(self):
        from repro.coherence.common import home_node
        homes = {home_node(64 * i, 64, 64) for i in range(256)}
        assert homes == set(range(64))


class TestRingDeadlockRecovery:
    def _ring_config(self, buffer_capacity: int) -> SystemConfig:
        cfg = SystemConfig.small(num_processors=8, references=150, seed=3)
        return dataclasses.replace(
            cfg,
            interconnect=InterconnectConfig(
                topology=TopologyConfig("ring", (8,)),
                routing=RoutingPolicy.STATIC,
                link_bandwidth_bytes_per_sec=200e6, link_latency_cycles=4,
                switch_buffer_capacity=buffer_capacity,
                speculative_no_vc=True, nic_injection_limit=2),
            checkpoint=CheckpointConfig(directory_interval_cycles=20_000,
                                        recovery_latency_cycles=2_000),
            workload=WorkloadConfig(name="oltp", references_per_processor=150,
                                    seed=3))

    def test_ring_no_vc_small_buffers_deadlocks_and_recovers(self):
        """The acceptance scenario: the ring's wrap-around channel cycle plus
        shared buffers reaches deadlock; the timeout detector recovers and
        the system keeps retiring references."""
        system = build_system(self._ring_config(2))
        result = system.run(max_cycles=4_000_000)
        assert result.recoveries_of(SpeculationKind.INTERCONNECT_DEADLOCK) > 0
        assert result.references_completed > 0
        assert system.invariant_errors() == []

    def test_ring_no_vc_ample_buffers_stays_clean(self):
        system = build_system(self._ring_config(64))
        result = system.run(max_cycles=4_000_000)
        assert result.finished
        assert result.recoveries_of(SpeculationKind.INTERCONNECT_DEADLOCK) == 0


# ------------------------------------------------------------ campaign experiment
class TestTopologyScaleExperiment:
    def test_serial_and_parallel_reports_are_byte_identical(self):
        serial = topology_scale.run(scales=(4,), references=80)
        with ParallelExecutor(max_workers=2) as executor:
            parallel = topology_scale.run(scales=(4,), references=80,
                                          executor=executor)
        assert (canonical_json(serial.to_json())
                == canonical_json(parallel.to_json()))
        assert serial.format() == parallel.format()

    def test_rows_cover_the_grid_with_metrics(self):
        result = topology_scale.run(scales=(4,), references=80)
        assert set(result.rows) == {
            f"{kind}@4/{routing}" for kind in ("torus", "mesh", "ring")
            for routing in ("static", "adaptive")}
        for row in result.rows.values():
            assert row["finished"]
            assert row["runtime_cycles"] > 0
            assert row["events_per_sim_second"] > 0
            assert row["deadlock_recoveries"] == 0  # VC networks: none expected
        assert "Topology x scale sweep" in result.format()

    def test_large_scale_reference_cap_applies(self):
        cfg = topology_scale._point_config(
            "jbb", "torus", 64, RoutingPolicy.STATIC, references=400, seed=1)
        assert (cfg.workload.references_per_processor
                == topology_scale.LARGE_SCALE_REFERENCE_CAP)
        small = topology_scale._point_config(
            "jbb", "torus", 16, RoutingPolicy.STATIC, references=400, seed=1)
        assert small.workload.references_per_processor == 400


# ------------------------------------------------------- executor failure paths
def _bad_spec() -> RunSpec:
    """A spec that passes config validation but fails at system build."""
    config = SystemConfig.small(4, references=50)
    config = dataclasses.replace(
        config, interconnect=dataclasses.replace(
            config.interconnect,
            topology=TopologyConfig("not-a-topology", (2, 2))))
    return RunSpec(config=config, label="bad")


class TestParallelExecutorFailurePaths:
    def test_build_failure_surfaces_original_exception(self):
        with ParallelExecutor(max_workers=2) as executor:
            with pytest.raises(ValueError, match="unknown topology kind"):
                executor.map([_bad_spec()])

    def test_failure_does_not_poison_completed_cache_entries(self, tmp_path):
        good_a = RunSpec(config=SystemConfig.small(4, references=60, seed=1))
        good_b = RunSpec(config=SystemConfig.small(4, references=60, seed=2))
        cache = ResultCache(str(tmp_path))
        with ParallelExecutor(max_workers=2, cache=cache) as executor:
            with pytest.raises(ValueError, match="unknown topology kind"):
                executor.map([good_a, _bad_spec(), good_b])
        # Both completed design points were cached despite the failure...
        assert len(cache) == 2
        # ...and replaying from the cache returns intact results.
        replay = SerialExecutor(cache=cache).map([good_a, good_b])
        assert cache.hits == 2
        assert all(r.references_completed > 0 for r in replay)

    def test_serial_executor_also_surfaces_original_exception(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            SerialExecutor().map([_bad_spec()])
