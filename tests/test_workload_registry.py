"""Tests for the registry-driven workload layer.

Covers the registry (round-trip, figure order, duplicate rejection), the
fail-fast name/params validation at configuration time, the shared
seed/block-size defaults, the canonical-encoding back-compat contract
(``params=None`` encodes identically to pre-registry configs), golden
stream digests for every new family, the family-specific stream shapes
(hotspot bursts, producer/consumer handoff roles, phased epochs, scaled
footprints, mixed slicing), and the ``workload_matrix`` campaign's
determinism contract (serial == parallel == cached, byte-identical).
"""

from __future__ import annotations

import hashlib
import inspect

import pytest

from repro.campaign import (
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    canonical_json,
)
from repro.campaign.spec import config_to_dict
from repro.experiments import workload_matrix
from repro.experiments.common import benchmark_config, default_workloads
from repro.sim.config import (
    DEFAULT_BLOCK_BYTES,
    DEFAULT_WORKLOAD_SEED,
    SystemConfig,
    WorkloadConfig,
)
from repro.system import build_system
from repro.workloads import (
    PROFILES,
    get_family,
    make_workload,
    mix_statistics,
    paper_workload_names,
    register_workload,
    table3_rows,
    validate_workload,
    workload_names,
)
from repro.workloads import registry as registry_module
from repro.workloads.base import SyntheticWorkload
from repro.workloads.families import (
    MixedWorkload,
    PAPER_PROFILES,
    ScaledFamily,
)

#: Content hash of the plain jbb benchmark design point under the
#: ``repro.campaign.spec/v2`` encoding.  If this pin breaks, every cached
#: campaign result silently invalidates — bump ``SPEC_SCHEMA`` when the
#: encoding changes on purpose, then re-pin.
PRE_REGISTRY_JBB_BENCHMARK_HASH = "a36aa8e1cd02118f2c0e"

#: The parameterized scenario families this PR introduces.
NEW_FAMILIES = ("hotspot", "producer_consumer", "phased", "scaled", "mixed")


def _digest(refs) -> str:
    h = hashlib.sha256()
    for op, addr in refs:
        h.update(f"{op.value}:{addr};".encode())
    return h.hexdigest()[:16]


class TestRegistry:
    def test_round_trip_names_cover_the_registered_set(self):
        names = workload_names()
        assert set(names) == set(table3_rows())
        assert set(names) == set(registry_module._REGISTRY)
        assert len(names) == len(set(names))
        for name in names:
            assert get_family(name).name == name

    def test_paper_five_keep_figure_order_and_lead_the_catalogue(self):
        paper = ["jbb", "apache", "slashcode", "oltp", "barnes"]
        assert paper_workload_names() == paper
        assert workload_names()[:5] == paper
        assert list(PROFILES) == paper
        assert set(NEW_FAMILIES) <= set(workload_names())

    def test_unknown_family_raises_with_known_listing(self):
        with pytest.raises(KeyError, match="producer_consumer"):
            get_family("tpcc")

    def test_duplicate_registration_rejected(self, monkeypatch):
        monkeypatch.setattr(registry_module, "_REGISTRY",
                            dict(registry_module._REGISTRY))

        class Dup(registry_module.WorkloadFamily):
            name = "hotspot"

            def build(self, **kwargs):  # pragma: no cover - never built
                raise NotImplementedError

        with pytest.raises(ValueError, match="registered twice"):
            register_workload(Dup)

    def test_table3_rows_carry_the_family_descriptions(self):
        rows = table3_rows()
        assert rows["jbb"] == PROFILES["jbb"].description
        assert "hot blocks" in rows["hotspot"]


class TestSharedDefaults:
    """Satellite: one source of truth for the seed/block-size defaults."""

    def test_make_workload_signature_uses_the_shared_constants(self):
        params = inspect.signature(make_workload).parameters
        assert params["seed"].default is DEFAULT_WORKLOAD_SEED
        assert params["block_bytes"].default is DEFAULT_BLOCK_BYTES

    def test_config_layer_uses_the_shared_constants(self):
        assert WorkloadConfig().seed == DEFAULT_WORKLOAD_SEED
        assert SystemConfig().block_bytes == DEFAULT_BLOCK_BYTES
        assert SystemConfig().l1.block_bytes == DEFAULT_BLOCK_BYTES

    def test_default_built_workload_matches_config_defaults(self):
        generator = make_workload("jbb", num_processors=2)
        assert generator.seed == WorkloadConfig().seed
        assert generator.block_bytes == SystemConfig().block_bytes


class TestFailFast:
    """Satellite: a typo'd workload axis dies at construction time."""

    def test_workload_config_rejects_unknown_name_listing_registry(self):
        with pytest.raises(ValueError, match="producer_consumer"):
            WorkloadConfig(name="tpcc")

    def test_system_config_construction_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown workload 'tpcc'"):
            SystemConfig(workload=WorkloadConfig(name="tpcc"))

    def test_spec_construction_dies_before_any_simulation(self):
        with pytest.raises(ValueError, match="unknown workload"):
            RunSpec(config=SystemConfig.small(4).with_updates(
                workload=WorkloadConfig(name="jbbb")))

    def test_unknown_param_key_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="does not accept"):
            WorkloadConfig(name="hotspot", params={"hot_block": 4})

    def test_bad_param_value_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="burst_length"):
            WorkloadConfig(name="hotspot", params={"burst_length": 0})
        with pytest.raises(ValueError, match="paper profile"):
            WorkloadConfig(name="scaled", params={"base": "hotspot"})

    def test_bad_fractions_die_at_config_time_naming_the_parameter(self):
        """Out-of-range probabilities must not survive to load_workload,
        and the error must name the user-facing parameter, not the
        internal profile field it feeds."""
        for name, params in (
                ("hotspot", {"hot_fraction": 1.5}),
                ("hotspot", {"write_fraction": -0.1}),
                ("producer_consumer", {"handoff_fraction": 2.0}),
                ("producer_consumer", {"produce_fraction": 1.01}),
                ("phased", {"communicate_shared_fraction": 7.0})):
            (key,) = params
            with pytest.raises(ValueError, match=key):
                WorkloadConfig(name=name, params=params)

    def test_mixed_slice_validation(self):
        with pytest.raises(ValueError, match="unknown workload"):
            validate_workload("mixed", {"slices": [["nope"]]})
        with pytest.raises(ValueError, match="nest"):
            validate_workload("mixed", {"slices": [["mixed"]]})

    def test_profile_override_params_validated_against_profile_fields(self):
        with pytest.raises(ValueError, match="profile overrides"):
            WorkloadConfig(name="jbb", params={"bogus": 1})
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            WorkloadConfig(name="jbb", params={"shared_fraction": 1.5})
        # A valid override is accepted and reaches the generator.
        config = WorkloadConfig(name="jbb", params={"shared_fraction": 0.9})
        assert config.params == {"shared_fraction": 0.9}

    def test_default_workloads_validates_against_the_full_registry(self):
        assert default_workloads() == paper_workload_names()
        assert default_workloads(["hotspot", "jbb"]) == ["hotspot", "jbb"]
        with pytest.raises(ValueError, match="unknown workloads"):
            default_workloads(["tpcc"])


class TestSpecHashStability:
    """Cache keys of workload design points."""

    def test_pre_registry_benchmark_hash_is_pinned(self):
        """The plain benchmark design point keeps its cache key."""
        spec = RunSpec(config=benchmark_config("jbb"))
        assert spec.content_hash() == PRE_REGISTRY_JBB_BENCHMARK_HASH

    def test_explicit_params_change_the_content_hash(self):
        base = RunSpec(config=benchmark_config("jbb"))
        override = RunSpec(config=benchmark_config("jbb").with_updates(
            workload=WorkloadConfig(name="jbb",
                                    params={"shared_fraction": 0.5})))
        assert base.content_hash() != override.content_hash()

    def test_empty_params_normalise_to_none(self):
        """``params={}`` means "family defaults" — the same design point as
        ``params=None``; it must not split the cache key."""
        assert WorkloadConfig(name="jbb", params={}).params is None
        base = RunSpec(config=benchmark_config("jbb"))
        empty = RunSpec(config=benchmark_config("jbb").with_updates(
            workload=WorkloadConfig(
                name="jbb", references_per_processor=500, params={})))
        assert empty.config.workload.params is None
        assert config_to_dict(empty.config)["workload"]["params"] is None
        assert empty.content_hash() == base.content_hash()


class TestGoldenDigests:
    """Golden pins per ``(family, params, seed, node)``.

    A mismatch means a family's draw schedule changed (substream names,
    chunk size, burst/epoch structure...).  That is sometimes deliberate —
    then re-pin and call the schema change out, because every simulated
    result of that family shifts with it.
    """

    def test_hotspot_streams_pinned(self):
        w = make_workload("hotspot", num_processors=4, seed=7)
        assert _digest(w.generate(0, 1000)) == "8aea56abbbc988d8"
        assert _digest(w.generate(1, 1000)) == "a609647ff1f8467f"
        custom = make_workload("hotspot", num_processors=4, seed=7,
                               params={"burst_length": 9.0, "hot_blocks": 4})
        assert _digest(custom.generate(0, 1000)) == "35e5fbaceb35591f"

    def test_producer_consumer_streams_pinned(self):
        w = make_workload("producer_consumer", num_processors=4, seed=7)
        assert _digest(w.generate(0, 1000)) == "8661812908b825d1"
        assert _digest(w.generate(1, 1000)) == "afcc512f8bf47308"

    def test_phased_stream_pinned_across_epochs(self):
        w = make_workload("phased", num_processors=4, seed=7)
        # 4000 references cross two epoch boundaries (epoch_length 1500).
        assert _digest(w.generate(0, 4000)) == "54ad965e2dd8f810"

    def test_scaled_stream_pinned_at_64_nodes(self):
        w = make_workload("scaled", num_processors=64, seed=7)
        assert _digest(w.generate(0, 1000)) == "ddca6f5582f3e977"

    def test_mixed_streams_pinned_and_first_slice_unshifted(self):
        w = make_workload("mixed", num_processors=16, seed=7)
        # Node 0 runs the jbb slice at offset zero: byte-identical to the
        # plain jbb stream (the same pin as test_perf_kernel's).
        assert _digest(w.generate(0, 1000)) == "6a427854685bc753"
        assert _digest(w.generate(8, 1000)) == "155ba30cbb72d902"

    def test_paper_profiles_unchanged_by_the_registry_refactor(self):
        w = make_workload("jbb", num_processors=4, seed=7)
        assert _digest(w.generate(0, 1000)) == "6a427854685bc753"


class TestFamilyShapes:
    def test_hotspot_storms_the_hot_set_in_bursts(self):
        params = get_family("hotspot").validate_params(None)
        w = make_workload("hotspot", num_processors=2, seed=3)
        refs = w.generate(0, 8000)
        hot_limit = params["hot_blocks"] * w.block_bytes
        hot = [(op, a) for op, a in refs if a < hot_limit]
        assert len(hot) / len(refs) == pytest.approx(params["hot_fraction"],
                                                     abs=0.05)
        stores = sum(1 for op, _ in hot if op.value == "store")
        assert stores / len(hot) == pytest.approx(params["write_fraction"],
                                                  abs=0.05)
        # Bursts: consecutive hot references mostly repeat one block.
        repeats = sum(1 for i in range(1, len(hot))
                      if hot[i][1] == hot[i - 1][1])
        assert repeats / len(hot) > 0.5

    def test_producer_consumer_roles_are_per_node(self):
        w = make_workload("producer_consumer", num_processors=4, seed=1)
        buffer_bytes = w.buffer_blocks * w.block_bytes
        stage_limit = 4 * buffer_bytes
        for node in range(4):
            own = node * buffer_bytes
            upstream = ((node - 1) % 4) * buffer_bytes
            for op, addr in w.generate(node, 3000):
                if addr >= stage_limit:
                    continue  # private background traffic
                if op.value == "store":
                    assert own <= addr < own + buffer_bytes
                else:
                    assert upstream <= addr < upstream + buffer_bytes

    def test_phased_alternates_sharing_intensity_by_epoch(self):
        params = get_family("phased").validate_params(None)
        epoch = params["epoch_length"]
        w = make_workload("phased", num_processors=2, seed=5)
        refs = w.generate(0, 2 * epoch)
        shared_limit = w._private_base

        def shared_fraction(chunk):
            return sum(1 for _, a in chunk if a < shared_limit) / len(chunk)

        compute, communicate = refs[:epoch], refs[epoch:]
        assert shared_fraction(compute) < 0.15
        assert shared_fraction(communicate) > 0.4

    def test_phased_epoch_position_continues_across_generate_calls(self):
        params = get_family("phased").validate_params(None)
        epoch = params["epoch_length"]
        split = make_workload("phased", num_processors=2, seed=5)
        first = split.generate(0, epoch)
        second = split.generate(0, epoch)
        whole = make_workload("phased", num_processors=2, seed=5)
        assert first + second == whole.generate(0, 2 * epoch)

    def test_scaled_derivation_grows_with_the_machine(self):
        base = PAPER_PROFILES["jbb"]
        at16 = ScaledFamily.derive_profile(base, num_processors=16,
                                           baseline_processors=16)
        assert at16 == type(base)(**{**base.__dict__, "name": "scaled-jbb"})
        at64 = ScaledFamily.derive_profile(base, num_processors=64,
                                           baseline_processors=16)
        assert at64.shared_blocks == 4 * base.shared_blocks
        assert at64.migratory_records == 4 * base.migratory_records
        assert at64.private_blocks == 2 * base.private_blocks
        w16 = make_workload("scaled", num_processors=16, seed=1)
        w64 = make_workload("scaled", num_processors=64, seed=1)
        assert w64.footprint_blocks > 4 * w16.footprint_blocks

    def test_mixed_slices_partition_nodes_and_address_space(self):
        w = make_workload("mixed", num_processors=16, seed=1)
        assert isinstance(w, MixedWorkload)
        assert [(name, first, count) for name, _g, first, count in w.parts] \
            == [("jbb", 0, 8), ("hotspot", 8, 8)]
        jbb_generator = w.parts[0][1]
        hotspot_offset = jbb_generator.footprint_blocks * w.block_bytes
        assert all(addr >= hotspot_offset for _, addr in w.generate(8, 500))
        assert all(addr < hotspot_offset for _, addr in w.generate(0, 500))
        assert w.footprint_blocks == sum(g.footprint_blocks
                                         for _n, g, _f, _c in w.parts)

    def test_mixed_explicit_counts_and_misfit_rejected(self):
        w = make_workload("mixed", num_processors=6, seed=1,
                          params={"slices": [["oltp", 2], ["barnes"]]})
        assert [(n, f, c) for n, _g, f, c in w.parts] == [("oltp", 0, 2),
                                                          ("barnes", 2, 4)]
        with pytest.raises(ValueError, match="do not fit"):
            make_workload("mixed", num_processors=2,
                          params={"slices": [["jbb", 4]]})

    def test_mix_statistics_on_mixed_streams(self):
        w = make_workload("mixed", num_processors=4, seed=2)
        stats = mix_statistics(w.generate_all(800))
        assert stats["nodes"] == 4.0
        assert 0.0 < stats["stores"] < 1.0
        # jbb and hotspot halves differ in store fraction.
        assert stats["store_fraction_spread"] > 0.03
        homogeneous = make_workload("jbb", num_processors=4, seed=2)
        spread = mix_statistics(homogeneous.generate_all(800))
        assert spread["store_fraction_spread"] < stats["store_fraction_spread"]

    def test_profile_override_params_reach_the_generator(self):
        default = make_workload("jbb", num_processors=2, seed=4)
        skewed = make_workload("jbb", num_processors=2, seed=4,
                               params={"shared_fraction": 0.9})
        assert default.generate(0, 500) != skewed.generate(0, 500)
        assert skewed.profile.shared_fraction == 0.9


class TestSystemIntegration:
    def test_every_family_builds_and_loads_at_16_nodes(self):
        for name in workload_names():
            config = benchmark_config(name, references=50)
            system = build_system(config)
            system.load_workload()
            assert all(len(node.processor.references) == 50
                       for node in system.nodes), name

    def test_scaled_family_builds_and_loads_at_64_nodes(self):
        config = benchmark_config("scaled", references=20, num_processors=64)
        system = build_system(config)
        system.load_workload()
        assert len(system.nodes) == 64
        assert all(node.processor.references for node in system.nodes)

    def test_heterogeneous_family_runs_through_the_protocol(self):
        config = SystemConfig.small(num_processors=4, references=80)
        config = config.with_updates(
            workload=WorkloadConfig(name="producer_consumer",
                                    references_per_processor=80))
        result = build_system(config).run()
        assert result.finished
        assert result.workload == "producer_consumer"


class TestWorkloadMatrix:
    SUBSET = dict(workloads=("producer_consumer",), references=60)

    def test_rows_cover_the_grid(self):
        result = workload_matrix.run(**self.SUBSET)
        assert set(result.rows) == {
            "producer_consumer/directory@vc",
            "producer_consumer/directory@no-vc",
            "producer_consumer/snooping@vc",
            "producer_consumer/snooping@no-vc"}
        for row in result.rows.values():
            assert row["finished"]

    def test_serial_parallel_and_cached_are_byte_identical(self, tmp_path):
        serial = workload_matrix.run(executor=SerialExecutor(), **self.SUBSET)
        with ParallelExecutor(max_workers=2) as executor:
            parallel = workload_matrix.run(executor=executor, **self.SUBSET)
        cache = ResultCache(str(tmp_path / "cache"))
        warm = workload_matrix.run(executor=SerialExecutor(cache=cache),
                                   **self.SUBSET)
        cached = workload_matrix.run(executor=SerialExecutor(cache=cache),
                                     **self.SUBSET)
        assert cache.hits > 0
        blobs = {canonical_json(r.to_json())
                 for r in (serial, parallel, warm, cached)}
        assert len(blobs) == 1

    def test_quick_mode_keeps_one_family_per_kind(self):
        assert workload_matrix.QUICK_WORKLOADS == ("jbb", "hotspot")
        paper = set(paper_workload_names())
        kinds = {name in paper for name in workload_matrix.QUICK_WORKLOADS}
        assert kinds == {True, False}

    def test_registered_with_the_campaign(self):
        from repro.campaign import discover, experiment_names
        discover()
        assert "workload_matrix" in experiment_names()
