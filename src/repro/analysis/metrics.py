"""Metrics used by the experiment drivers."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Tuple

from repro.system.results import RunResult


def normalized_performance(result: RunResult, baseline: RunResult) -> float:
    """The paper's normalized performance: baseline runtime / this runtime.

    1.0 means "as fast as the baseline"; smaller is slower.  Both runs must
    have executed the same workload (same reference streams).
    """
    if result.workload != baseline.workload:
        raise ValueError(
            f"comparing different workloads: {result.workload} vs {baseline.workload}")
    if result.runtime_cycles <= 0:
        return 0.0
    return baseline.runtime_cycles / result.runtime_cycles


def speedup(new: RunResult, old: RunResult) -> float:
    """Speedup of ``new`` over ``old`` (>1 means new is faster)."""
    if new.runtime_cycles <= 0:
        return 0.0
    return old.runtime_cycles / new.runtime_cycles


def mean_and_std(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and (population) standard deviation; (0, 0) for empty input.

    The paper plots one standard deviation as its error bars; experiments
    that run several perturbed simulations per design point use this.
    """
    values = list(values)
    if not values:
        return 0.0, 0.0
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(variance)


def reorder_percentages(result: RunResult) -> Dict[str, float]:
    """Per-virtual-network reorder rates as percentages (Section 5.3)."""
    return {name: 100.0 * rate
            for name, rate in result.reorder_rate_by_vnet.items()}


def recoveries_per_scaled_second(result: RunResult, cycles_per_second: float) -> float:
    """Observed recovery rate under the configured cycle/second scale."""
    if result.runtime_cycles <= 0 or cycles_per_second <= 0:
        return 0.0
    return result.recoveries / (result.runtime_cycles / cycles_per_second)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (0 if any value is non-positive)."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
