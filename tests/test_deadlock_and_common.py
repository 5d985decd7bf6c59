"""Tests for the wait-for-graph machinery and common coherence helpers."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import pytest

from repro.coherence.common import (
    MemoryOp,
    Transaction,
    block_address,
    home_node,
)
from repro.interconnect.deadlock import (
    WaitForGraph,
    detect_endpoint_deadlock,
)
from repro.system import build_system


class TestWaitForGraph:
    def test_empty_graph_has_no_cycle(self):
        assert not WaitForGraph().has_cycle()

    def test_chain_has_no_cycle(self):
        graph = WaitForGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        assert not graph.has_cycle()

    def test_two_node_cycle_detected(self):
        graph = WaitForGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == {"a", "b"}

    def test_long_cycle_detected(self):
        graph = WaitForGraph()
        nodes = list(range(6))
        for i in nodes:
            graph.add_edge(i, (i + 1) % 6)
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == set(nodes)

    def test_self_loop_is_a_cycle(self):
        graph = WaitForGraph()
        graph.add_edge("x", "x")
        assert graph.has_cycle()

    def test_disconnected_components(self):
        graph = WaitForGraph()
        graph.add_edge("a", "b")
        graph.add_edge("c", "d")
        graph.add_edge("d", "c")
        assert graph.has_cycle()

    def test_nodes_and_successors(self):
        graph = WaitForGraph()
        graph.add_edge("a", "b")
        graph.add_node("z")
        assert set(graph.nodes) == {"a", "b", "z"}
        assert graph.successors("a") == {"b"}
        assert graph.successors("z") == set()

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    min_size=0, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_acyclic_iff_topological_order_exists(self, edges):
        """Property: find_cycle agrees with a reference topological sort."""
        graph = WaitForGraph()
        adjacency = {}
        for a, b in edges:
            graph.add_edge(a, b)
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set())
        # Kahn's algorithm as the reference oracle.
        indegree = {n: 0 for n in adjacency}
        for a in adjacency:
            for b in adjacency[a]:
                indegree[b] += 1
        frontier = [n for n, d in indegree.items() if d == 0]
        visited = 0
        while frontier:
            node = frontier.pop()
            visited += 1
            for succ in adjacency[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    frontier.append(succ)
        has_cycle_reference = visited != len(adjacency)
        assert graph.has_cycle() == has_cycle_reference

    def test_endpoint_deadlock_wrapper(self):
        report = detect_endpoint_deadlock({"P1": "P2", "P2": "P1"})
        assert report.deadlocked
        assert report.blocked_resources == 2
        assert bool(report)
        ok = detect_endpoint_deadlock({"P1": "P2"})
        assert not ok.deadlocked


class TestCommonHelpers:
    def test_block_address_alignment(self):
        assert block_address(0, 64) == 0
        assert block_address(65, 64) == 64
        assert block_address(127, 64) == 64
        assert block_address(128, 64) == 128

    def test_block_address_requires_power_of_two(self):
        with pytest.raises(ValueError):
            block_address(100, 48)

    def test_home_node_interleaving(self):
        homes = {home_node(64 * i, 4, 64) for i in range(8)}
        assert homes == {0, 1, 2, 3}
        assert home_node(0, 4, 64) == 0
        assert home_node(64, 4, 64) == 1

    def test_home_node_validation(self):
        with pytest.raises(ValueError):
            home_node(0, 0, 64)

    def test_transaction_completion_is_idempotent(self):
        calls = []
        txn = Transaction(node=0, address=0, op=MemoryOp.STORE, txn_id=0)
        txn.on_complete = calls.append
        txn.complete()
        txn.complete()
        assert len(calls) == 1

    def test_transaction_satisfied_requires_data_and_acks(self):
        txn = Transaction(node=0, address=0, op=MemoryOp.STORE, txn_id=0,
                          acks_needed=2)
        assert not txn.satisfied
        txn.data_received = True
        assert not txn.satisfied
        txn.acks_received = 2
        assert txn.satisfied

    def test_transaction_ids_unique(self, small_config):
        """Every controller of a system draws from the system's one
        counter, so no two of its transactions share an id; each system
        has a counter of its own."""
        first = build_system(small_config)
        second = build_system(small_config)
        assert first.txn_ids is not second.txn_ids
        for system in (first, second):
            assert all(ctrl._txn_ids is system.txn_ids
                       for ctrl in system.cache_controllers())
