"""The paper's three speculative designs plus the Figure 4 injector.

Each class implements the :class:`repro.speculation.base.Speculation`
lifecycle for one row of Table 1.  The *detection sites* stay where the
paper puts them — inside the protocol controllers ("one specific invalid
transition") and the per-transaction timeout — but everything around a
site that the two system classes used to duplicate now lives here: which
configurations arm the design, the timeout calculation and the
forward-progress policy construction.  Every detection is reported to the
system's :class:`repro.speculation.manager.SpeculationManager`, which
records it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.events import MisspeculationEvent, SpeculationKind
from repro.core.forward_progress import (
    CombinedPolicy,
    DisableAdaptiveRoutingPolicy,
    SlowStartPolicy,
)
from repro.sim.config import (
    CheckpointConfig,
    ProtocolKind,
    ProtocolVariant,
    SpeculationConfig,
    SystemConfig,
)
from repro.speculation.base import Speculation


def transaction_timeout_cycles(checkpoint: CheckpointConfig,
                               speculation: SpeculationConfig, *,
                               checkpoint_interval_cycles: Optional[int] = None) -> int:
    """Timeout used by the deadlock detector.

    The paper chooses a timeout of three checkpoint intervals: long enough to
    avoid false positives, short enough not to delay SafetyNet commitment
    (which must wait out the detection latency before declaring an interval
    mis-speculation-free).
    """
    interval = (checkpoint_interval_cycles if checkpoint_interval_cycles is not None
                else checkpoint.directory_interval_cycles)
    return max(1, speculation.timeout_checkpoint_intervals) * interval


def injection_period_cycles(rate_per_second: float,
                            cycles_per_second: float) -> Optional[int]:
    """Cycles between two Figure 4 injections (``None`` for a zero rate).

    An injector attached at cycle 0 first fires at this cycle, so the
    replay rule of :meth:`repro.system.base.System.replays` reads it too.
    """
    if rate_per_second == 0:
        return None
    return max(1, int(round(cycles_per_second / rate_per_second)))


class DirectoryP2POrderSpeculation(Speculation):
    """S1 — the directory protocol speculates on point-to-point ordering.

    Detection lives in
    :class:`repro.coherence.directory.cache_controller.DirectoryCacheController`
    (a ForwardedRequest arriving for a block the controller cannot supply);
    forward progress selectively disables adaptive routing so the
    re-execution window is order-preserving.
    """

    kind = SpeculationKind.DIRECTORY_P2P_ORDER

    @classmethod
    def applies_to(cls, config: SystemConfig) -> bool:
        return (config.protocol == ProtocolKind.DIRECTORY
                and config.variant == ProtocolVariant.SPECULATIVE)

    def arm(self, system) -> None:
        self.manager.set_policy(self.kind, DisableAdaptiveRoutingPolicy(
            system.network.disable_adaptive_routing,
            system.config.speculation.adaptive_routing_disable_cycles))


class SnoopingCornerCaseSpeculation(Speculation):
    """S2 — the snooping protocol leaves a writeback corner case unhandled.

    Detection lives in
    :class:`repro.coherence.snooping.cache_controller.SnoopingCacheController`
    (a second foreign RequestReadWrite observed in the LOST_OWNERSHIP
    transient); forward progress is slow-start, which with one outstanding
    transaction makes the two-transaction race impossible.
    """

    kind = SpeculationKind.SNOOPING_CORNER_CASE

    @classmethod
    def applies_to(cls, config: SystemConfig) -> bool:
        return (config.protocol == ProtocolKind.SNOOPING
                and config.variant == ProtocolVariant.SPECULATIVE)

    def arm(self, system) -> None:
        spec = system.config.speculation
        self.manager.set_policy(self.kind, SlowStartPolicy(
            system.slow_start_gate,
            max_outstanding=spec.slow_start_max_outstanding,
            duration_cycles=spec.slow_start_cycles))


class InterconnectDeadlockSpeculation(Speculation):
    """S3 — deadlock detection by coherence-transaction timeout (Section 4).

    The *design* being speculated on is the no-virtual-channel interconnect
    (selected by ``InterconnectConfig.speculative_no_vc``); the timeout
    watchdog itself is armed on every system — it is also the safety net
    that keeps a conventionally designed network from wedging a run
    silently.
    """

    kind = SpeculationKind.INTERCONNECT_DEADLOCK

    @classmethod
    def applies_to(cls, config: SystemConfig) -> bool:
        return True

    def arm(self, system) -> None:
        config = system.config
        spec = config.speculation
        timeout_cycles = transaction_timeout_cycles(
            config.checkpoint, spec,
            checkpoint_interval_cycles=system.checkpoint_interval_cycles())
        for controller in system.cache_controllers():
            controller.timeout_cycles = timeout_cycles
        slow_start = SlowStartPolicy(
            system.slow_start_gate,
            max_outstanding=spec.slow_start_max_outstanding,
            duration_cycles=spec.slow_start_cycles)
        if system.kind == ProtocolKind.DIRECTORY:
            # The directory system escalates: the first recovery just
            # perturbs timing, repeats within the window enter slow-start.
            policy = CombinedPolicy(
                system.sim, slow_start, free_retries=1,
                window_cycles=max(spec.slow_start_cycles,
                                  4 * config.checkpoint.directory_interval_cycles))
        else:
            policy = slow_start
        self.manager.set_policy(self.kind, policy)


class PeriodicInjectionSpeculation(Speculation):
    """The Figure 4 stress test: recoveries at a fixed rate per "second".

    Not armed from configuration (``applies_to`` is always False); it is
    attached explicitly through
    :meth:`repro.system.base.System.attach_recovery_injector` with the
    requested rate.  The injector converts the rate into a period
    in cycles using the system's ``cycles_per_second`` scale and reports an
    ``INJECTED`` mis-speculation every period.
    """

    kind = SpeculationKind.INJECTED

    def __init__(self, manager, *, rate_per_second: float,
                 cycles_per_second: float) -> None:
        if rate_per_second < 0:
            raise ValueError("rate must be non-negative")
        if cycles_per_second <= 0:
            raise ValueError("cycles_per_second must be positive")
        super().__init__(manager)
        self.rate_per_second = rate_per_second
        self.cycles_per_second = cycles_per_second
        self.period_cycles = injection_period_cycles(rate_per_second,
                                                     cycles_per_second)
        self.injections = 0
        self._active = False

    @classmethod
    def applies_to(cls, config: SystemConfig) -> bool:
        return False  # attached explicitly with a rate, never from config

    def arm(self, system) -> None:
        """Nothing to wire: injection is driven by :meth:`start`."""

    def start(self) -> None:
        """Begin injecting (no-op for a zero rate)."""
        period = self.period_cycles
        if period is None or self._active:
            return
        self._active = True
        self.sim.schedule(period, self._fire, label="recovery-injector")

    def _fire(self) -> None:
        self.injections += 1
        self.manager.report(MisspeculationEvent(
            kind=SpeculationKind.INJECTED,
            detected_at=self.sim.now,
            description=(f"injected recovery #{self.injections} "
                         f"({self.rate_per_second}/s stress test)")))
        period = self.period_cycles
        assert period is not None
        self.sim.schedule(period, self._fire, label="recovery-injector")
