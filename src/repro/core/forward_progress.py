"""Forward-progress policies (Section 2, feature 4).

After a recovery the system must guarantee that the execution cannot simply
re-create the same rare event forever.  All three of the paper's designs do
this by *altering the timing of the re-execution*:

* the directory-protocol design selectively disables adaptive routing, which
  makes the interconnect order-preserving during re-execution
  (:class:`DisableAdaptiveRoutingPolicy`), and
* the snooping and interconnect designs enter a "slow-start" mode that
  restricts the number of outstanding coherence transactions — with one
  outstanding transaction neither the snooping corner case (which needs two
  racing transactions) nor a buffer-cycle deadlock can occur
  (:class:`SlowStartPolicy` / :class:`SlowStartGate`).

Policies escalate: the first recovery may simply resume execution (the
timing perturbation of the recovery itself is usually enough), repeated
recoveries within a window apply the heavyweight mechanism.  That mirrors
the paper's "before resorting to slow-start, the system could simply try to
resume execution".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional

from repro.core.events import MisspeculationEvent
from repro.sim.engine import Simulator


class ForwardProgressPolicy(ABC):
    """Applied by the framework after every recovery."""

    name = "abstract"

    @abstractmethod
    def apply(self, event: MisspeculationEvent) -> None:
        """Adjust system behaviour so the detected event cannot recur forever."""

    def describe(self) -> str:
        return self.name


class NoOpPolicy(ForwardProgressPolicy):
    """Resume execution unchanged (relies on recovery's timing perturbation)."""

    name = "resume"

    def apply(self, event: MisspeculationEvent) -> None:  # pragma: no cover - trivial
        return


class DisableAdaptiveRoutingPolicy(ForwardProgressPolicy):
    """Selectively disable adaptive routing for a window after recovery.

    With adaptivity disabled the network is dimension-order routed and
    preserves point-to-point ordering, so the Section 3.1 race cannot recur
    during the re-execution window.  The window length is the knob the paper
    describes for trading worst-case performance against adaptivity benefit
    (never re-enabling bounds the degradation at one mis-speculation).
    """

    name = "disable-adaptive-routing"

    def __init__(self, disable: Callable[[int], None], window_cycles: int) -> None:
        if window_cycles < 0:
            raise ValueError("window must be non-negative")
        self._disable = disable
        self.window_cycles = window_cycles

    def apply(self, event: MisspeculationEvent) -> None:
        self._disable(self.window_cycles)


class SlowStartGate:
    """System-wide limiter on outstanding coherence transactions.

    Cache controllers consult :meth:`may_issue` before issuing a transaction
    and call :meth:`retired` when one completes.  Outside slow-start the gate
    imposes no limit.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.outstanding = 0
        self._limit: Optional[int] = None
        self._limit_until = 0
        self.denials = 0

    # ----------------------------------------------------------------- control
    def enter_slow_start(self, max_outstanding: int, duration_cycles: int) -> None:
        """Restrict concurrency to ``max_outstanding`` for ``duration_cycles``."""
        if max_outstanding < 1:
            raise ValueError("slow-start must allow at least one transaction")
        self._limit = max_outstanding
        self._limit_until = self.sim.now + duration_cycles

    @property
    def active(self) -> bool:
        return self._limit is not None and self.sim.now < self._limit_until

    @property
    def current_limit(self) -> Optional[int]:
        return self._limit if self.active else None

    # ------------------------------------------------------------- controller API
    def may_issue(self, node: int) -> bool:
        limit = self.current_limit
        if limit is not None and self.outstanding >= limit:
            self.denials += 1
            return False
        self.outstanding += 1
        return True

    def retired(self, node: int) -> None:
        if self.outstanding > 0:
            self.outstanding -= 1

    def reset_outstanding(self) -> None:
        """Clear the outstanding count (after a recovery squashes everything)."""
        self.outstanding = 0


class SlowStartPolicy(ForwardProgressPolicy):
    """Enter slow-start mode after a recovery."""

    name = "slow-start"

    def __init__(self, gate: SlowStartGate, *, max_outstanding: int,
                 duration_cycles: int) -> None:
        self.gate = gate
        self.max_outstanding = max_outstanding
        self.duration_cycles = duration_cycles

    def apply(self, event: MisspeculationEvent) -> None:
        self.gate.enter_slow_start(self.max_outstanding, self.duration_cycles)


class CombinedPolicy(ForwardProgressPolicy):
    """Escalating policy: resume first, escalate on repeated mis-speculation.

    The first ``free_retries`` recoveries of a kind within ``window_cycles``
    only perturb timing (the recovery itself); after that the heavyweight
    policy is applied.  This mirrors the paper's observation that the system
    "could simply try to resume execution ... in the likely hope that the
    race does not recur" before falling back to the guaranteed mechanism.
    """

    name = "escalating"

    def __init__(self, sim: Simulator, heavyweight: ForwardProgressPolicy, *,
                 free_retries: int = 1, window_cycles: int = 500_000) -> None:
        self.sim = sim
        self.heavyweight = heavyweight
        self.free_retries = free_retries
        self.window_cycles = window_cycles
        self._recent: List[int] = []

    def apply(self, event: MisspeculationEvent) -> None:
        now = self.sim.now
        self._recent = [t for t in self._recent if now - t <= self.window_cycles]
        self._recent.append(now)
        if len(self._recent) > self.free_retries:
            self.heavyweight.apply(event)

    def describe(self) -> str:
        return f"resume then {self.heavyweight.describe()}"
