"""Tests for sharded, crash-safe, resumable campaign execution.

The load-bearing property is the extended determinism contract: the same
batch of design points must produce byte-identical results whether it runs
serially, sharded over N workers on a shared store, or **killed mid-spec
and resumed** — and a resume must never re-simulate a completed spec (the
cache hit counters prove it).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.campaign import (
    CampaignManifest,
    LeaseBoard,
    ResultCache,
    RunSpec,
    SerialExecutor,
    ShardedExecutor,
    SweepSpec,
    aggregate_partial,
    campaign_status,
    canonical_json,
    config_from_dict,
    config_to_dict,
    execute_spec,
    make_executor,
    read_manifest,
    run_worker,
    spec_from_json,
    worker_summaries,
    write_manifest,
)
from repro.campaign.executor import CACHE_SCHEMA
from repro.campaign.sharding import _Heartbeat, _worker_entry
from repro.experiments.common import benchmark_config
from repro.sim.config import ProtocolKind, SystemConfig

#: Deadline for every polling loop in this module; generous because CI
#: machines can be slow, but the loops exit the moment the condition holds.
POLL_DEADLINE = 120.0


def small_spec(seed: int = 1, references: int = 120, **spec_kwargs) -> RunSpec:
    return RunSpec(config=SystemConfig.small(4, references=references,
                                             seed=seed),
                   label=f"seed{seed}", **spec_kwargs)


def small_sweep(seeds=(1, 2, 3), references: int = 120) -> SweepSpec:
    return SweepSpec.of("sharded-test",
                        [small_spec(seed=s, references=references)
                         for s in seeds])


def result_bytes(results) -> list:
    return [canonical_json(result.to_json()) for result in results]


def wait_until(condition, what: str, deadline: float = POLL_DEADLINE) -> None:
    start = time.time()
    while not condition():
        if time.time() - start > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(0.05)


# --------------------------------------------------------------- spec round trip
class TestSpecRoundTrip:
    CONFIGS = [
        SystemConfig.small(4, references=50),
        benchmark_config("jbb", references=50),
        benchmark_config("hotspot", topology="ring", num_processors=16,
                         references=50),
        benchmark_config("oltp", protocol=ProtocolKind.SNOOPING,
                         references=50, speculative_no_vc=True),
        benchmark_config("jbb", references=50, speculative_no_vc=True),
    ]

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=lambda c: c.workload.name +
                             ("/" + c.protocol.value))
    def test_config_dict_round_trip(self, config):
        """config_from_dict is the exact inverse of config_to_dict."""
        payload = config_to_dict(config)
        rebuilt = config_from_dict(payload)
        assert canonical_json(config_to_dict(rebuilt)) == \
            canonical_json(payload)

    def test_every_field_is_encoded(self):
        """The canonical form omits no field and rewrites no value, at any
        level, so two configurations hash alike only when they are equal."""
        ring = benchmark_config("hotspot", topology="ring", num_processors=16,
                                speculative_no_vc=True, references=50)
        ring = dataclasses.replace(ring, workload=dataclasses.replace(
            ring.workload, params={"hot_blocks": 4}))

        def check(native, encoded, path):
            for key, value in native.items():
                assert key in encoded, f"{path}.{key} is not encoded"
                if isinstance(value, dict):
                    check(value, encoded[key], f"{path}.{key}")
                else:
                    assert json.dumps(encoded[key]) == json.dumps(value), \
                        f"{path}.{key}"

        for config in (SystemConfig.small(4), ring):
            check(dataclasses.asdict(config), config_to_dict(config), "config")

    def test_spec_json_round_trip_keeps_content_hash(self):
        spec = small_spec(recovery_rate_per_second=0.0, max_cycles=123)
        rebuilt = spec_from_json(spec.to_json())
        assert rebuilt.content_hash() == spec.content_hash()
        assert rebuilt == spec

    def test_spec_from_json_rejects_unknown_schema(self):
        payload = small_spec().to_json()
        payload["schema"] = "something/else"
        with pytest.raises(ValueError, match="unsupported spec schema"):
            spec_from_json(payload)


# --------------------------------------------------------------------- manifest
class TestManifest:
    def test_write_read_round_trip(self, tmp_path):
        store = str(tmp_path)
        sweep = small_sweep()
        manifest = CampaignManifest.of("ignored", sweep)
        assert manifest.name == "sharded-test"  # sweep name wins
        assert manifest.campaign_hash() == sweep.content_hash()
        write_manifest(store, manifest)
        loaded = read_manifest(store, manifest.campaign_hash())
        assert loaded is not None
        assert loaded.name == manifest.name
        assert loaded.spec_hashes() == manifest.spec_hashes()
        assert [s.label for s in loaded.specs] == \
            [s.label for s in manifest.specs]

    def test_read_missing_manifest_is_none(self, tmp_path):
        assert read_manifest(str(tmp_path), "deadbeef") is None

    def test_tampered_spec_hash_rejected(self, tmp_path):
        manifest = CampaignManifest.of("t", [small_spec()])
        payload = manifest.to_json()
        payload["specs"][0]["hash"] = "0" * 20
        with pytest.raises(ValueError, match="hash mismatch"):
            CampaignManifest.from_json(payload)

    def test_no_tmp_files_linger(self, tmp_path):
        store = str(tmp_path)
        write_manifest(store, CampaignManifest.of("t", [small_spec()]))
        leftovers = [name for name in os.listdir(os.path.join(store,
                                                              "manifests"))
                     if name.endswith(".tmp")]
        assert leftovers == []


# --------------------------------------------------------- result cache envelope
class TestResultCacheEnvelope:
    def test_envelope_meta_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = small_spec(references=60)
        result = execute_spec(spec)
        cache.put(spec, result, meta={"wall_seconds": 1.25, "worker": "w0"})
        loaded = cache.get(spec)
        assert canonical_json(loaded.to_json()) == \
            canonical_json(result.to_json())
        assert cache.meta(spec) == {"wall_seconds": 1.25, "worker": "w0"}
        with open(cache.path_for(spec), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["schema"] == CACHE_SCHEMA
        assert payload["spec_hash"] == spec.content_hash()

    def test_half_written_entry_is_a_miss(self, tmp_path):
        """A torn entry (crash mid-write) must never poison the spec."""
        cache = ResultCache(str(tmp_path))
        spec = small_spec(references=60)
        result = execute_spec(spec)
        complete = canonical_json({"schema": CACHE_SCHEMA,
                                   "spec_hash": spec.content_hash(),
                                   "result": result.to_json(), "meta": {}})
        with open(cache.path_for(spec), "w", encoding="utf-8") as handle:
            handle.write(complete[:len(complete) // 2])  # truncated JSON
        assert cache.get(spec) is None
        assert cache.misses == 1
        # The poisoned entry heals on the next store.
        cache.put(spec, result)
        assert cache.get(spec) is not None

    def test_misfiled_entry_rejected(self, tmp_path):
        """An envelope recorded for another spec hash is never served, and
        neither is a bare result document (the store writes only
        envelopes)."""
        cache = ResultCache(str(tmp_path))
        spec = small_spec(references=60)
        result = execute_spec(spec)
        misfiled = {"schema": CACHE_SCHEMA, "spec_hash": "f" * 20,
                    "result": result.to_json(), "meta": {}}
        for rejected in (misfiled, result.to_json()):
            with open(cache.path_for(spec), "w", encoding="utf-8") as handle:
                json.dump(rejected, handle)
            assert cache.get(spec) is None
            assert cache.meta(spec) is None and not cache.peek(spec)
        assert cache.misses == 2 and cache.hits == 0

    def test_peek_counts_no_traffic(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = small_spec(references=60)
        assert not cache.peek(spec)
        cache.put(spec, execute_spec(spec))
        assert cache.peek(spec)
        assert cache.hits == 0 and cache.misses == 0

    def test_serial_executor_records_wall_clock(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = small_spec(references=60)
        SerialExecutor(cache=cache).map([spec])
        meta = cache.meta(spec)
        assert meta is not None and meta["wall_seconds"] > 0


# ----------------------------------------------------------------------- leases
class TestLeases:
    def test_claim_is_exclusive(self, tmp_path):
        store = str(tmp_path)
        alice = LeaseBoard(store, "alice")
        bob = LeaseBoard(store, "bob")
        assert alice.claim("spec1")
        assert not bob.claim("spec1")
        assert bob.holder("spec1") == "alice"
        alice.release("spec1")
        assert bob.claim("spec1")

    def test_fresh_lease_cannot_be_reclaimed(self, tmp_path):
        store = str(tmp_path)
        alice = LeaseBoard(store, "alice", stale_after=60.0)
        bob = LeaseBoard(store, "bob", stale_after=60.0)
        assert alice.claim("spec1")
        assert not bob.is_stale("spec1")
        assert not bob.reclaim("spec1")
        assert bob.holder("spec1") == "alice"

    def test_stale_lease_reclaimed_exactly_once(self, tmp_path):
        store = str(tmp_path)
        dead = LeaseBoard(store, "dead", stale_after=0.2)
        assert dead.claim("spec1")
        wait_until(lambda: dead.is_stale("spec1"), "lease to go stale")
        bob = LeaseBoard(store, "bob", stale_after=0.2)
        carol = LeaseBoard(store, "carol", stale_after=0.2)
        assert bob.reclaim("spec1")
        # Bob's takeover lease is fresh, so Carol can neither claim nor
        # reclaim it.
        assert not carol.claim("spec1")
        assert not carol.reclaim("spec1")
        assert carol.holder("spec1") == "bob"

    def test_heartbeat_keeps_lease_fresh(self, tmp_path):
        store = str(tmp_path)
        board = LeaseBoard(store, "beater", stale_after=0.6)
        assert board.claim("spec1")
        with _Heartbeat(board, interval=0.1):
            time.sleep(1.2)  # well past stale_after without heartbeats
            assert not board.is_stale("spec1")
        board.release("spec1")


# ------------------------------------------------------------- sharded executor
class TestShardedExecutor:
    def test_sharded_is_byte_identical_to_serial(self, tmp_path):
        store = str(tmp_path)
        sweep = small_sweep()
        serial = SerialExecutor().map(sweep)
        sharded = ShardedExecutor(2, store, stale_after=10.0,
                                  poll_interval=0.1).map(sweep)
        assert result_bytes(sharded) == result_bytes(serial)
        # The durable campaign record exists and is complete.
        manifest = read_manifest(store, sweep.content_hash())
        assert manifest is not None and len(manifest) == len(sweep)
        partial = aggregate_partial(store, manifest.to_json())
        assert partial["completed"] == partial["total"] == len(sweep)
        assert partial["missing"] == []
        # Every spec records which worker ran it and how long it took.
        for spec_hash, meta in partial["points"].items():
            assert meta["wall_seconds"] > 0
            assert meta["worker"].startswith("w")

    def test_resume_of_complete_campaign_is_pure_cache(self, tmp_path):
        store = str(tmp_path)
        sweep = small_sweep()
        first = ShardedExecutor(2, store, stale_after=10.0,
                                poll_interval=0.1).map(sweep)
        resumed_executor = ShardedExecutor(2, store, resume=True)
        resumed = resumed_executor.map(sweep)
        assert result_bytes(resumed) == result_bytes(first)
        assert resumed_executor.cache.hits == len(sweep)
        assert resumed_executor.cache.misses == 0
        assert resumed_executor.cache.stored == 0

    def test_resume_without_manifest_fails_fast(self, tmp_path):
        with pytest.raises(RuntimeError, match="no.*manifest"):
            ShardedExecutor(1, str(tmp_path),
                            resume=True).map(small_sweep())

    def test_make_executor_wiring(self, tmp_path):
        store = str(tmp_path)
        assert isinstance(make_executor(workers=2, cache_dir=store),
                          ShardedExecutor)
        with pytest.raises(ValueError, match="shared store"):
            make_executor(workers=2)
        with pytest.raises(ValueError, match="resume"):
            make_executor(resume=True)

    def test_worker_requires_published_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no manifest"):
            run_worker(str(tmp_path), "deadbeef", "w0")


# ------------------------------------------------------------- kill and resume
class TestKillAndResume:
    def test_sigkill_mid_spec_then_resume_is_byte_identical(self, tmp_path):
        """The crash/resume satellite, end to end.

        One worker is hard-killed (SIGKILL) mid-spec; its lease goes stale
        and is reclaimed, the campaign is finished by a second worker, and
        the resumed report is byte-identical to an uninterrupted serial
        run with **zero** re-simulation of completed specs (cache hit
        counters prove it).
        """
        store = str(tmp_path)
        # First spec fast, the rest slow: the victim worker completes the
        # first spec and is killed somewhere inside a slow one.
        sweep = SweepSpec.of("kill-resume", [
            small_spec(seed=1, references=100),
            small_spec(seed=2, references=4000),
            small_spec(seed=3, references=4000),
        ])
        hashes = [spec.content_hash() for spec in sweep]
        manifest = CampaignManifest.of("kill-resume", sweep)
        write_manifest(store, manifest)

        ctx = multiprocessing.get_context("spawn")
        victim = ctx.Process(
            target=_worker_entry,
            args=(store, manifest.campaign_hash(), "victim", 1.0))
        victim.start()
        try:
            probe = ResultCache(store)
            board = LeaseBoard(store, "observer", stale_after=1.0)

            def mid_spec() -> bool:
                done = sum(os.path.exists(probe.path_for_hash(h))
                           for h in hashes)
                leased = any(board.is_claimed(h) for h in hashes)
                return done >= 1 and leased and victim.is_alive()

            wait_until(mid_spec, "the worker to be mid-spec with one "
                                 "result landed")
            os.kill(victim.pid, signal.SIGKILL)
        finally:
            victim.join()
        assert victim.exitcode == -signal.SIGKILL

        # The kill left an orphaned claim behind; it goes stale because
        # nothing heartbeats it any more.
        orphaned = [h for h in hashes if board.is_claimed(h)]
        assert orphaned, "SIGKILL should strand the in-flight lease"
        wait_until(lambda: all(board.is_stale(h) for h in orphaned),
                   "the orphaned lease to go stale")
        completed_before_resume = [
            h for h in hashes if os.path.exists(probe.path_for_hash(h))]
        assert len(completed_before_resume) < len(sweep)

        # Resume: a rescuer worker reclaims the stale lease and finishes
        # only what is missing.
        rescuer = run_worker(store, manifest.campaign_hash(), "rescuer",
                             stale_after=1.0)
        assert rescuer["reclaimed"] >= 1
        assert set(rescuer["executed"]) == \
            set(hashes) - set(completed_before_resume)

        # The resumed campaign serves everything from the store: all hits,
        # no misses, no re-simulation.
        resumed_executor = ShardedExecutor(2, store, resume=True)
        resumed = resumed_executor.map(sweep)
        assert resumed_executor.cache.hits == len(sweep)
        assert resumed_executor.cache.misses == 0

        # Byte-identical to an uninterrupted serial run.
        serial = SerialExecutor().map(sweep)
        assert result_bytes(resumed) == result_bytes(serial)

        # The victim's partial progress survived its death (worker
        # summaries are written crash-safely after every spec), and no
        # spec was executed by both workers.
        summaries = {s["worker"].split("-")[0]: s
                     for s in worker_summaries(store,
                                               manifest.campaign_hash())}
        assert set(summaries["victim"]["executed"]) == \
            set(completed_before_resume)
        assert not (set(summaries["victim"]["executed"])
                    & set(summaries["rescuer"]["executed"]))


# ------------------------------------------------------- status and aggregation
class TestStatusAndAggregation:
    def test_partial_report_tracks_progress(self, tmp_path):
        store = str(tmp_path)
        sweep = small_sweep()
        manifest = CampaignManifest.of("progress", sweep)
        write_manifest(store, manifest)
        cache = ResultCache(store)
        first = sweep.specs[0]
        cache.put(first, execute_spec(first),
                  meta={"wall_seconds": 0.5, "worker": "w0"})
        partial = aggregate_partial(store, manifest.to_json())
        assert partial["total"] == 3
        assert partial["completed"] == 1
        assert set(partial["missing"]) == \
            {s.content_hash() for s in sweep.specs[1:]}
        assert partial["wall_seconds_completed"] == pytest.approx(0.5)
        # The document is persisted atomically for crashed-campaign status.
        path = os.path.join(store, "partial",
                            manifest.campaign_hash() + ".json")
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["completed"] == 1

    def test_status_text(self, tmp_path):
        store = str(tmp_path)
        assert "no campaign manifests" in campaign_status(store)
        sweep = small_sweep()
        write_manifest(store, CampaignManifest.of("progress", sweep))
        text = campaign_status(store)
        assert "sharded-test" in text
        assert "0/3" in text

    def test_status_counts_stale_and_active_leases(self, tmp_path):
        store = str(tmp_path)
        sweep = small_sweep()
        manifest = CampaignManifest.of("leases", sweep)
        write_manifest(store, manifest)
        board = LeaseBoard(store, "w0", stale_after=0.2)
        board.claim(sweep.specs[0].content_hash())
        wait_until(lambda: board.is_stale(sweep.specs[0].content_hash()),
                   "lease to go stale")
        fresh = LeaseBoard(store, "w1", stale_after=600.0)
        fresh.claim(sweep.specs[1].content_hash())
        partial = aggregate_partial(store, manifest.to_json())
        # aggregate_partial uses the default staleness threshold, under
        # which both leases are fresh; drive the classification directly.
        assert partial["leases"]["active"] + partial["leases"]["stale"] == 2


# ------------------------------------------------------------------ runner CLI
class TestRunnerFlags:
    def test_status_requires_cache(self):
        from repro.experiments import runner

        with pytest.raises(SystemExit):
            runner.main(["--status"])

    def test_workers_require_cache(self):
        from repro.experiments import runner

        with pytest.raises(SystemExit):
            runner.main(["--workers", "2"])

    def test_resume_requires_workers(self):
        from repro.experiments import runner

        with pytest.raises(SystemExit):
            runner.main(["--resume"])

    def test_workers_exclusive_with_parallel(self, tmp_path):
        from repro.experiments import runner

        with pytest.raises(SystemExit):
            runner.main(["--workers", "2", "--cache", str(tmp_path),
                         "--parallel", "2"])

    def test_status_of_empty_store(self, tmp_path, capsys):
        from repro.experiments import runner

        assert runner.main(["--status", "--cache", str(tmp_path)]) == 0
        assert "no campaign manifests" in capsys.readouterr().out
