"""A Python call that raises inside a compiled core, on both tiers.

Every compiled core calls back into Python: handlers, counter factories,
the pure cold paths it delegates to.  When such a call raises, the core
must release what it holds and pass the exception up unchanged, so that
``System.run`` raises exactly what the pure tier raises, at the same
simulated cycle.  Each case makes one Python function that a core calls
raise, runs a small system on the requested tier and compares the
exception with the pure run's.  The transaction lifecycle's own hooks are
covered in ``tests/test_controller_lifecycle.py``.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro import kernel
from repro.coherence.snooping.bus import AddressBus
from repro.interconnect.message import MessageClass
from repro.processor.core import BlockingProcessor
from repro.sim.config import ProtocolKind, SystemConfig
from repro.sim.stats import StatsRegistry
from repro.system import build_system

HAVE_COMPILED = kernel.compiled_available()

TIERS = ["pure", pytest.param("compiled", marks=pytest.mark.skipif(
    not HAVE_COMPILED,
    reason="repro._ckernel extension not built (run tools/build_kernel.py)"))]


class Boom(Exception):
    """Raised by the Python function a compiled core calls."""


def _boom(*args) -> None:
    raise Boom(f"raised with {len(args)} arguments")


def _counter_raises(monkeypatch, predicate: Callable[[str], bool]) -> None:
    """Make the stats registry's counter factory raise for matching names."""
    counter = StatsRegistry.counter

    def guarded(self, name):
        if predicate(name):
            raise Boom(f"counter {name}")
        return counter(self, name)

    monkeypatch.setattr(StatsRegistry, "counter", guarded)


def _raise_in_receive(system) -> None:
    for endpoint in system.network._endpoints.values():
        endpoint.receive = _boom


def _raise_in_forwarded_getx_handler(system) -> None:
    for node in system.nodes:
        node.cache_controller._handlers[
            MessageClass.FORWARDED_REQUEST_READ_WRITE] = _boom


#: case -> (protocol, the core that makes the call, where that core sits in
#: a built system, what to make raise: before the system is built (the
#: cores bind their callees at construction) and after).
CASES = {
    "switch-endpoint-receive": (
        ProtocolKind.DIRECTORY, "SwitchCore",
        lambda system: system.network.switches[0]._core,
        None, _raise_in_receive),
    "switch-forwarded-counter": (
        ProtocolKind.DIRECTORY, "SwitchCore",
        lambda system: system.network.switches[0]._core,
        lambda mp: _counter_raises(mp, lambda n: n.endswith(".forwarded")),
        None),
    "processor-issue-miss": (
        ProtocolKind.DIRECTORY, "ProcessorCore",
        lambda system: system.nodes[0].processor._issue_next,
        lambda mp: mp.setattr(BlockingProcessor, "_issue_miss", _boom),
        None),
    "send-vnet-counter": (
        ProtocolKind.DIRECTORY, "MessageSendCore",
        lambda system: system.nodes[0].cache_controller.send,
        lambda mp: _counter_raises(mp, lambda n: n.startswith("network.sent.")),
        None),
    "receive-handler": (
        ProtocolKind.DIRECTORY, "DirectoryReceiveCore",
        lambda system: system.network._endpoints[0].receive,
        None, _raise_in_forwarded_getx_handler),
    "bus-broadcast": (
        ProtocolKind.SNOOPING, "BusCore",
        lambda system: system.bus._bus_core,
        lambda mp: mp.setattr(AddressBus, "_broadcast", _boom),
        None),
    "snoop-counter": (
        ProtocolKind.SNOOPING, "SnoopCore",
        lambda system: system.nodes[0].cache_controller._snoop_core,
        lambda mp: _counter_raises(
            mp, lambda n: n.endswith(".own_request_ordered")),
        None),
}


@pytest.fixture(autouse=True)
def _restore_tier():
    yield
    kernel.set_kernel_tier(None)


def _run_until_raise(tier: str, case: str, monkeypatch):
    protocol, core, locate, before_build, after_build = CASES[case]
    with monkeypatch.context() as patch:
        if before_build is not None:
            before_build(patch)
        kernel.set_kernel_tier(tier)
        config = SystemConfig.small(4, references=200, seed=1).with_updates(
            protocol=protocol)
        system = build_system(config)
        if tier == "compiled":
            assert type(locate(system)) is getattr(kernel.compiled_module(),
                                                   core)
        if after_build is not None:
            after_build(system)
        with pytest.raises(Boom) as excinfo:
            system.run()
    return type(excinfo.value), str(excinfo.value), system.sim.now


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_exception_leaves_system_run_unchanged(tier, case, monkeypatch):
    raised = _run_until_raise(tier, case, monkeypatch)
    assert raised == _run_until_raise("pure", case, monkeypatch)
