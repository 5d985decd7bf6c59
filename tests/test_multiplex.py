"""Tests for one mixed batch multiplexed through the executors.

A batch spanning both protocols and recovery on and off runs as many
systems, built and run one after another in one process or spread over
worker processes.  The load-bearing property is that none of that leaks
into the results: they come back in spec order, and a result read back
from the on-disk cache is byte-identical to the run that stored it.
"""

from __future__ import annotations

from repro.campaign import (
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    canonical_json,
)
from repro.sim.config import ProtocolKind, SystemConfig
from repro.system.results import RunResult


def small_spec(references: int = 120, seed: int = 1, **spec_kwargs) -> RunSpec:
    return RunSpec(config=SystemConfig.small(4, references=references, seed=seed),
                   **spec_kwargs)


def mixed_specs() -> list:
    """A small batch spanning both protocols, recovery off and on."""
    directory = SystemConfig.small(4, references=100, seed=3)
    snooping = directory.with_updates(protocol=ProtocolKind.SNOOPING)
    return [
        small_spec(references=150),
        small_spec(references=150, seed=2),
        RunSpec(config=snooping),
        RunSpec(config=directory),
        small_spec(references=100, recovery_rate_per_second=0.0),
        small_spec(references=100, seed=5, recovery_rate_per_second=2e9),
    ]


def result_bytes(result: RunResult) -> str:
    return canonical_json(result.to_json())


class TestMultiplexDeterminism:
    def test_results_come_back_in_spec_order(self):
        specs = [small_spec(references=60, seed=s, label=f"point-{s}")
                 for s in range(1, 6)]
        with ParallelExecutor(max_workers=2) as executor:
            results = executor.map(specs)
        assert [r.config_label for r in results] == \
               [s.label for s in specs]

    def test_cache_roundtrip_is_identical(self, tmp_path):
        specs = mixed_specs()[:3]
        cold = SerialExecutor(cache=ResultCache(str(tmp_path)))
        warm_cache = ResultCache(str(tmp_path))
        warm = SerialExecutor(cache=warm_cache)
        first = [result_bytes(r) for r in cold.map(specs)]
        second = [result_bytes(r) for r in warm.map(specs)]
        assert warm_cache.hits == len(specs)
        assert first == second
