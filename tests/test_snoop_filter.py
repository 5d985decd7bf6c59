"""The address bus's snoop filter.

The bus calls a cache controller's ``snoop()`` only when the controller is
the requestor, or, for a RequestReadOnly/ReadWrite, holds the block in its
L2, has a Writeback record for it or has its outstanding transaction on it.
These tests check that every skipped call would have returned False and
changed nothing, on the pure handlers and on the compiled ``SnoopCore``,
and pin eviction-heavy runs (Writebacks, a writeback race, deferred
forwards, late invalidates, injected recoveries) to digests computed when
every ordered request still reached every controller.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List

import pytest

from repro import kernel
from repro.campaign.executor import execute_spec
from repro.campaign.spec import RunSpec
from repro.coherence.common import MemoryOp, MemoryRequest
from repro.coherence.snooping.bus import AddressBus, BusRequest, BusRequestType
from repro.coherence.snooping.cache_controller import SnoopingCacheController
from repro.coherence.snooping.states import SnoopState
from repro.experiments.common import benchmark_config
from repro.sim.config import CacheConfig, ProtocolKind, ProtocolVariant
from repro.system import build_system

HAVE_COMPILED = kernel.compiled_available()

TIERS = ["pure", pytest.param("compiled", marks=pytest.mark.skipif(
    not HAVE_COMPILED,
    reason="repro._ckernel extension not built (run tools/build_kernel.py)"))]


@pytest.fixture(autouse=True)
def _restore_tier():
    yield
    kernel.set_kernel_tier(None)


def eviction_heavy(workload: str, variant: ProtocolVariant, *,
                   references: int = 400, num_processors: int = 16):
    """16 nodes with an 8 KB 2-way L2: dirty evictions order Writebacks."""
    return benchmark_config(
        workload, references=references, protocol=ProtocolKind.SNOOPING,
        variant=variant, num_processors=num_processors,
    ).with_updates(l2=CacheConfig(8 * 1024, 2))


def digest(result: Any) -> str:
    encoded = json.dumps(result.to_json(), sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def footprint(controller: SnoopingCacheController, whole_cache: bool,
              address: int) -> tuple:
    """Everything a snoop of ``address`` at ``controller`` could change."""
    cache = controller.cache
    sets = cache._sets if whole_cache else [cache._sets[cache.set_index(address)]]
    lines = sorted((line.address, line.state, line.value, line.last_used)
                   for cache_set in sets for line in cache_set.values())
    records = sorted((addr, record.phase, record.value, record.request.value)
                     for addr, record in controller.writebacks.items())
    forwards = sorted((addr, [id(r) for r in pending])
                      for addr, pending in controller._pending_forwards.items())
    txn = controller.transaction
    txn_state = None if txn is None else tuple(
        getattr(txn, slot, None) for slot in type(txn).__slots__)
    return (lines, records, forwards, sorted(controller._ownership_passed),
            txn_state, controller.detected_misspeculations,
            controller.corner_cases_handled,
            {name: counter.value
             for name, counter in controller._counters.items()},
            len(controller.sim.queue))


# ------------------------------------------------------------ the skip test
def _skipped_by_filter(node: int, controller: SnoopingCacheController,
                       request: BusRequest) -> bool:
    """The filter's skip test, restated from its specification."""
    if node == request.requestor:
        return False
    if request.rtype is BusRequestType.WRITEBACK:
        return True
    address = request.address
    txn = controller.transaction
    return (not controller.cache.contains(address)
            and address not in controller.writebacks
            and (txn is None or txn.address != address))


class TestSkippedSnoopIsNoOp:
    """A foreign request at a cache with no line, no Writeback record and
    no transaction for the block: the handler returns False and touches
    nothing.  The controller holds other state in the same set, so the
    handlers have something they could wrongly change."""

    def _build(self, tier: str):
        kernel.set_kernel_tier(tier)
        system = build_system(eviction_heavy("jbb", ProtocolVariant.SPECULATIVE,
                                             references=10, num_processors=4))
        controller = system.nodes[1].cache_controller
        cache = controller.cache
        stride = cache.config.num_sets * cache.config.block_bytes
        base = 0x4000
        # A line, a Writeback record and a transaction, all on other blocks
        # of the set the snooped block maps to.
        cache.allocate(base + stride, SnoopState.MODIFIED, 7)
        cache.allocate(base + 2 * stride, SnoopState.MODIFIED, 9)
        controller._evict(cache.peek(base + 2 * stride))
        controller.access(MemoryRequest(node=1, op=MemoryOp.LOAD,
                                        address=base + 3 * stride),
                          lambda _request: None)
        assert controller.writebacks and controller.transaction is not None
        return controller, base

    def _check(self, controller, snoop: Callable[[BusRequest], Any],
               address: int) -> None:
        for rtype in BusRequestType:
            request = BusRequest(requestor=2, address=address, rtype=rtype,
                                 value=5 if rtype is BusRequestType.WRITEBACK
                                 else None)
            assert _skipped_by_filter(1, controller, request)
            before = footprint(controller, True, address)
            assert snoop(request) is False
            assert footprint(controller, True, address) == before

    def test_pure_handlers(self):
        controller, address = self._build("pure")
        self._check(controller,
                    lambda request: SnoopingCacheController.snoop(controller,
                                                                  request),
                    address)

    @pytest.mark.skipif(not HAVE_COMPILED,
                        reason="repro._ckernel extension not built")
    def test_compiled_snoop_core(self):
        controller, address = self._build("compiled")
        assert controller.snoop == controller._snoop_core.snoop
        self._check(controller, controller._snoop_core.snoop, address)


def _unfiltered_broadcast(skipped: List[int]):
    """An ``AddressBus._broadcast`` that calls every controller and checks
    each call the filter would skip: it returns False and changes nothing."""

    def broadcast(bus: AddressBus, request: BusRequest) -> None:
        owner_found = False
        for node, _sets, _writebacks, controller in bus._snoopers:
            if _skipped_by_filter(node, controller, request):
                before = footprint(controller, False, request.address)
                assert controller.snoop(request) is False
                assert footprint(controller, False, request.address) == before
                skipped[request.rtype is BusRequestType.WRITEBACK] += 1
            elif controller.snoop(request):
                owner_found = True
        if bus._memory_snooper is not None:
            bus._memory_snooper(request, owner_found)
        for hook in bus._ordered_hooks:
            hook(request)
    return broadcast


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("workload", ["jbb", "hotspot"])
def test_unfiltered_run_matches_and_skips_only_no_ops(tier, workload,
                                                      monkeypatch):
    """Whole eviction-heavy runs with every snoop delivered: each one the
    filter skips is a no-op, and the result bytes equal the filtered run's
    pin."""
    kernel.set_kernel_tier(tier)
    skipped = [0, 0]  # foreign GETS/GETX, foreign Writebacks
    monkeypatch.setattr(AddressBus, "_broadcast",
                        _unfiltered_broadcast(skipped))
    result = execute_spec(RunSpec(
        config=eviction_heavy(workload, ProtocolVariant.SPECULATIVE),
        label="snooping-speculative"))
    assert digest(result) == EVICTION_PINS[workload, "speculative", None][0]
    ordered = result.counters["bus.requests_ordered"]
    # Most deliveries are skippable, foreign Writebacks among them.
    assert sum(skipped) > 10 * ordered and skipped[1] > 0


# ----------------------------------------------------- eviction-heavy pins
#: (workload, variant, injected recoveries per second) -> (RunResult digest,
#: Writebacks issued, first racing RequestReadWrites, deferred forwards,
#: late invalidates), pinned with every ordered request delivered to every
#: controller.
EVICTION_PINS: Dict[tuple, tuple] = {
    ("jbb", "speculative", None): (
        "6f91223062e08a8bbad32723b69ed2b61398ea748c5216444f8734f0fac46cba",
        1335, 1, 5, 3),
    ("jbb", "full", None): (
        "71cef3c28b20734af9f45b41c9ae8da2ce71817ae8357cc70862dafbdbe04e31",
        1335, 1, 5, 3),
    ("hotspot", "speculative", None): (
        "09ab0e6664da3252fa7e953faf2af7732aca39bc5e7971de875496dc644d609b",
        278, 0, 568, 137),
    ("hotspot", "full", None): (
        "c6a5502bc883ed2625953b52d64322c50cacae1937e48362c0ac52e699d7f231",
        278, 0, 568, 137),
    ("producer_consumer", "speculative", None): (
        "6058809d96872f2045fe7af8d6cd33295999aa967ddffc533ab7b6786c198dad",
        1377, 0, 0, 0),
    ("producer_consumer", "full", None): (
        "10180993692c9c5e8343a5cbc3d8ac1241f42e5f7f9592ef9e98385e4ec96508",
        1377, 0, 0, 0),
    # 11 injected recoveries squash Writebacks and transactions mid-flight.
    ("jbb", "speculative", 100.0): (
        "9f86894302638fb50a99eac48a7937b8328a18a24558816905bbd87b5eba6128",
        1796, 0, 4, 5),
}


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("key", sorted(EVICTION_PINS, key=str), ids=str)
def test_eviction_heavy_run_matches_pin(tier, key):
    workload, variant, rate = key
    kernel.set_kernel_tier(tier)
    result = execute_spec(RunSpec(
        config=eviction_heavy(workload, ProtocolVariant(variant)),
        label=f"snooping-{variant}", recovery_rate_per_second=rate))
    counters = result.counters

    def total(suffix: str) -> int:
        return sum(v for k, v in counters.items() if k.endswith(suffix))

    assert (digest(result), total(".writebacks_issued"),
            total(".writeback_race_first_getx"), total(".forwards_deferred"),
            total(".late_invalidates")) == EVICTION_PINS[key]
    if rate is not None:
        assert result.recoveries > 0
