"""Tests for resumed points (DESIGN.md §9).

Inside a :class:`SerialExecutor` batch, a baseline's run forks a child one
cycle before the first firing of each later injected point of the same
configuration, and the child resumes that point from there.  The
load-bearing properties: every resumed result is byte-identical to a fresh
simulation, no child outlives its batch, and a failed child or a process
without ``os.fork`` falls back to simulating the point in-process.  The
tests run on the kernel tier ``REPRO_KERNEL`` selects.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.analysis.metrics import normalized_performance
from repro.campaign import (
    RunSpec,
    SerialExecutor,
    canonical_json,
    clear_memos,
    execute_spec,
    memo_stats,
)
from repro.campaign import executor as executor_module
from repro.campaign.executor import PERF_COUNTERS, reset_perf_counters
from repro.experiments import fig4_misspeculation_rate as fig4
from repro.speculation.detectors import injection_period_cycles
from repro.system import build_system

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="resuming forks a child")

#: Figure 4's jbb point at 60 references: a baseline of about 40,000 cycles.
CONFIG = fig4._injection_config("jbb", seed=1, references=60)


def period(rate: float) -> int:
    return injection_period_cycles(rate, CONFIG.cycles_per_second)


def batch(*rates: float) -> list:
    """The baseline, then one injected point per rate bounded at 20x its
    injection period, as fig4 bounds them."""
    return [RunSpec(config=CONFIG, label="no-injection")] + [
        RunSpec(config=CONFIG, label=f"inject-{rate:g}s",
                recovery_rate_per_second=rate, max_cycles=20 * period(rate))
        for rate in rates]


def result_bytes(result) -> str:
    return canonical_json(result.to_json())


def fresh_bytes(spec: RunSpec) -> str:
    """``spec`` simulated on its own, outside any batch."""
    clear_memos()
    return result_bytes(execute_spec(spec))


def tallies() -> tuple:
    stats = memo_stats()
    return stats["run_hits"], stats["run_misses"], stats["run_resumes"]


def assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def prefix_events(cycle: int) -> int:
    """Events the baseline executes before ``cycle``, from a paused run."""
    seen = []
    build_system(CONFIG).run(
        pauses=[(cycle, lambda system: seen.append(system.sim.events_executed))])
    return seen[0]


class TestResume:
    def test_two_forks_from_one_baseline_equal_fresh_runs(self):
        """Rates 100/s and 200/s first fire at cycles 20,000 and 10,000,
        both inside the baseline, so the baseline forks twice.  A resumed
        result counts only its suffix's events, once."""
        assert (period(100.0), period(200.0)) == (20_000, 10_000)
        specs = batch(100.0, 200.0)
        reset_perf_counters()
        results = SerialExecutor().map(specs)
        assert_no_children()
        assert tallies() == (0, 1, 2)
        assert PERF_COUNTERS["runs"] == 1
        baseline, *resumed = results
        assert all(result.recoveries for result in resumed)
        assert PERF_COUNTERS["events_executed"] == baseline.events_executed + sum(
            result.events_executed - prefix_events(period(rate))
            for rate, result in zip((100.0, 200.0), resumed))
        for spec, result in zip(specs, results):
            assert result_bytes(result) == fresh_bytes(spec), spec.label

    def test_no_child_outlives_a_batch_that_raises(self):
        """The baseline forks, then a later spec raises before the batch
        reaches the resumed point: the child is killed and reaped."""
        bad = RunSpec(config=CONFIG, label="bad", recovery_rate_per_second=-1.0)
        baseline, injected = batch(100.0)
        with pytest.raises(ValueError):
            SerialExecutor().map([baseline, bad, injected])
        assert_no_children()
        assert tallies() == (0, 2, 0)

    def test_spec_listed_twice_is_resumed_once(self):
        """Children are keyed by spec object: the second entry of the same
        injected spec is simulated in-process, and no child is left over."""
        baseline, injected = batch(100.0)
        results = SerialExecutor().map([baseline, injected, injected])
        assert_no_children()
        assert tallies() == (0, 2, 1)
        assert result_bytes(results[1]) == result_bytes(results[2])

    @pytest.mark.parametrize("body", ["raises", "bad payload"])
    def test_failed_child_is_simulated_in_process(self, monkeypatch, body):
        def broken(system, spec):
            if body == "raises":
                raise RuntimeError("the child failed")
            return type("Garbage", (), {"to_json": lambda self: {}})()

        monkeypatch.setattr(executor_module, "_resume", broken)
        specs = batch(100.0)
        results = SerialExecutor().map(specs)
        assert_no_children()
        assert tallies() == (0, 2, 0)
        for spec, result in zip(specs, results):
            assert result_bytes(result) == fresh_bytes(spec), spec.label

    def test_without_fork_nothing_forks(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        specs = batch(100.0)
        results = SerialExecutor().map(specs)
        assert tallies() == (0, 2, 0)
        for spec, result in zip(specs, results):
            assert result_bytes(result) == fresh_bytes(spec), spec.label

    def test_a_second_thread_prevents_forking(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            SerialExecutor().map(batch(100.0))
        finally:
            release.set()
            thread.join()
        assert tallies() == (0, 2, 0)

    def test_baseline_that_finishes_before_the_pause_forks_nothing(self):
        """At 10/s the injector first fires after the baseline finished:
        no child, and the point replays the baseline."""
        assert period(10.0) > SerialExecutor().map(batch(10.0))[0].runtime_cycles
        assert_no_children()
        assert tallies() == (1, 1, 0)


class TestFig4RerunRule:
    def test_point_unfinished_within_20_periods_is_rerun(self, monkeypatch):
        """At 1000/s the jbb point cannot finish within 20 x 2,000 cycles,
        so fig4 runs it again bounded at 20x its baseline's runtime; its row
        equals that run's."""
        bounds = []
        original = executor_module.execute_spec

        def recording(spec):
            if spec.recovery_rate_per_second:
                bounds.append(spec.max_cycles)
            return original(spec)

        monkeypatch.setattr(executor_module, "execute_spec", recording)
        result = fig4.run(["jbb"], rates=(0.0, 1000.0), references=60, seed=1,
                          executor=SerialExecutor())
        baseline = execute_spec(RunSpec(config=CONFIG, label="no-injection"))
        assert bounds == [20 * period(1000.0), 20 * baseline.runtime_cycles]
        clear_memos()
        direct = execute_spec(RunSpec(
            config=CONFIG, label="inject-1000s", recovery_rate_per_second=1000.0,
            max_cycles=20 * baseline.runtime_cycles))
        assert direct.finished
        assert result.normalized["jbb"][1000.0] == normalized_performance(
            direct, baseline)
        assert result.recoveries["jbb"][1000.0] == direct.recoveries
