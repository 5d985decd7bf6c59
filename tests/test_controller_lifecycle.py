"""The blocking L2 controller's transaction lifecycle, on both tiers.

Both protocols' cache controllers share one lifecycle
(:class:`repro.coherence.controller.BlockingCacheController`), and the
compiled ``TransactionCore`` and ``SnoopCore`` share one C port of it.
Each test drives a single reference straight into node 0's
``l2_access`` of a freshly built, idle system (the processors never
start), so the run exercises exactly one path: a slow-start denial and
its retry, a second outstanding reference, a deadlock timeout, and the
Python hooks the cores call raising.  A compiled run must leave the same
observable state as the pure one.
"""

from __future__ import annotations

import pytest

from repro import kernel
from repro.coherence.common import MemoryOp, MemoryRequest
from repro.coherence.snooping.bus import AddressBus
from repro.core.events import SpeculationKind
from repro.core.forward_progress import SlowStartGate
from repro.sim.config import ProtocolKind, SystemConfig
from repro.system import build_system
from repro.system.directory_system import DirectorySystem

HAVE_COMPILED = kernel.compiled_available()

TIERS = ["pure", pytest.param("compiled", marks=pytest.mark.skipif(
    not HAVE_COMPILED,
    reason="repro._ckernel extension not built (run tools/build_kernel.py)"))]

PROTOCOLS = [ProtocolKind.DIRECTORY, ProtocolKind.SNOOPING]

ADDRESS = 0x1000

#: The protocols' timeout descriptions for transaction 0, a load of
#: ADDRESS, timed out after TIMEOUT cycles (they enter RecoveryRecord.event).
TIMEOUT = 5
TIMEOUT_EVENTS = {
    ProtocolKind.DIRECTORY: (
        "transaction 0 (load 0x1000) timed out after 5 cycles",
        {"txn_id": 0}),
    ProtocolKind.SNOOPING: ("snooping transaction 0 timed out", {}),
}


class Boom(Exception):
    """Raised by a Python hook a compiled core calls."""


def _boom(*_args) -> None:
    raise Boom("hook raised")


@pytest.fixture(autouse=True)
def _restore_tier():
    yield
    kernel.set_kernel_tier(None)


def _idle_system(tier: str, protocol: ProtocolKind):
    kernel.set_kernel_tier(tier)
    config = SystemConfig.small(4, references=10, seed=1).with_updates(
        protocol=protocol)
    return build_system(config)


def _access(system, op: MemoryOp = MemoryOp.LOAD, address: int = ADDRESS):
    """Issue one reference at node 0; returns the completions list."""
    completions = []
    request = MemoryRequest(node=0, op=op, address=address)
    system.nodes[0].processor.l2_access(
        request, lambda req: completions.append((system.sim.now, req.value)))
    return completions


def _outcome(system, completions):
    return {"completions": completions,
            "counters": list(system.stats.counters().items()),
            "denials": system.slow_start_gate.denials}


def _retry_scenario(tier: str, protocol: ProtocolKind):
    system = _idle_system(tier, protocol)
    ctrl = system.nodes[0].cache_controller
    gate = system.slow_start_gate
    gate.enter_slow_start(1, 10)
    gate.outstanding = 1
    completions = _access(system)
    assert ctrl.transaction is None
    system.sim.run(until=49)
    assert ctrl.transaction is None
    system.sim.run(until=50)
    assert ctrl.transaction is not None
    system.sim.run()
    return _outcome(system, completions)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_denied_issue_retries_after_50_cycles(tier, protocol):
    outcome = _retry_scenario(tier, protocol)
    assert outcome["denials"] == 1
    ((now, _value),) = outcome["completions"]
    assert now > 50
    assert outcome == _retry_scenario("pure", protocol)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_second_outstanding_reference_raises(tier, protocol):
    def second_reference(tier_name):
        system = _idle_system(tier_name, protocol)
        _access(system)
        with pytest.raises(RuntimeError) as excinfo:
            _access(system, address=ADDRESS + 0x4000)
        return str(excinfo.value), _outcome(system, [])

    message, outcome = second_reference(tier)
    ctrl_name = ("l2ctrl0" if protocol is ProtocolKind.DIRECTORY
                 else "snoopctrl0")
    assert message == f"{ctrl_name}: blocking processor issued a second reference"
    assert (message, outcome) == second_reference("pure")


def _timeout_scenario(tier: str, protocol: ProtocolKind):
    system = _idle_system(tier, protocol)
    ctrl = system.nodes[0].cache_controller
    events = []
    ctrl.misspeculation_reporter = events.append
    ctrl.timeout_cycles = TIMEOUT
    completions = _access(system)
    system.sim.run()
    return events, _outcome(system, completions)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_timeout_reports_the_protocols_detection(tier, protocol):
    events, outcome = _timeout_scenario(tier, protocol)
    (event,) = events
    assert event.kind is SpeculationKind.INTERCONNECT_DEADLOCK
    assert (event.node, event.address, event.detected_at) == (0, ADDRESS, TIMEOUT)
    assert (event.description, event.details) == TIMEOUT_EVENTS[protocol]
    assert len(outcome["completions"]) == 1
    timeouts = [value for name, value in outcome["counters"]
                if name.endswith(".timeout_detections")]
    assert timeouts == [1]
    pure_events, pure_outcome = _timeout_scenario("pure", protocol)
    assert [e.to_json() for e in events] == [e.to_json() for e in pure_events]
    assert outcome == pure_outcome


def _make_hook_raise(protocol, hook, monkeypatch):
    """Make ``hook`` raise :class:`Boom` in every system built afterwards.

    The cores capture their hooks at construction, so each is patched
    where the system builder reads it, and the cores that would rebind the
    request sender (MessageSendCore, BusCore) are hidden.
    """
    if hook == "may_issue":
        monkeypatch.setattr(SlowStartGate, "may_issue", _boom)
    elif hook == "on_retire":
        monkeypatch.setattr(SlowStartGate, "retired", _boom)
    elif protocol is ProtocolKind.DIRECTORY:
        monkeypatch.setattr(DirectorySystem, "_make_send",
                            lambda self, node_id: _boom)
    else:
        monkeypatch.setattr(AddressBus, "issue", _boom)
    if hook == "request" and HAVE_COMPILED:
        for symbol in ("MessageSendCore", "BusCore"):
            monkeypatch.delattr(kernel.compiled_module(), symbol)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("hook", ["may_issue", "on_retire", "request"])
def test_a_raising_hook_raises_through_the_controller(tier, protocol, hook,
                                                       monkeypatch):
    _make_hook_raise(protocol, hook, monkeypatch)

    def raise_through(tier_name):
        system = _idle_system(tier_name, protocol)
        with pytest.raises(Boom, match="hook raised"):
            _access(system)
            system.sim.run()
        ctrl = system.nodes[0].cache_controller
        return ctrl.transaction is not None, _outcome(system, [])

    outstanding, outcome = raise_through(tier)
    # A request that cannot be sent leaves its transaction outstanding;
    # a refused issue never creates one and a failed retire clears it.
    assert outstanding == (hook == "request")
    assert (outstanding, outcome) == raise_through("pure")
