"""Kernel tier selection, fallback, and pure/compiled byte-parity.

Three groups:

* **Selection/fallback unit tests** — run everywhere, no extension needed:
  ``REPRO_KERNEL`` parsing, the :func:`repro.kernel.set_kernel_tier`
  override, silent ``auto`` degradation when the extension is absent, and
  the loud :class:`repro.kernel.KernelTierError` on an explicit ``compiled``
  request that cannot be honoured.
* **Parity gates** — auto-skipped when ``repro._ckernel`` is not built:
  the fig4 ``--quick --json`` report must be byte-identical across tiers,
  golden workload digests and spec content hashes must not move, a small
  seeded sweep of registry design points must produce byte-identical result
  JSON on both tiers, and the exhaustive small-reference grid (every
  workload family x both protocols x {vc, no-vc}) must as well.
* **Installation checks** — the compiled tier must actually be *in use*
  (C simulator, C switch cores, C log observers), because a silently
  un-installed fast path would make every parity test vacuous.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import shutil
import sys
import sysconfig
import types

import pytest

from repro import kernel

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HAVE_COMPILED = kernel.compiled_available()

needs_compiled = pytest.mark.skipif(
    not HAVE_COMPILED,
    reason="repro._ckernel extension not built (run tools/build_kernel.py)")


@pytest.fixture(autouse=True)
def _restore_tier():
    """Every test leaves the process on the environment's tier selection."""
    yield
    kernel.set_kernel_tier(None)


@pytest.fixture()
def _clean_env(monkeypatch):
    monkeypatch.delenv(kernel.ENV_VAR, raising=False)


def _stub_extension(monkeypatch, digest: str) -> None:
    """Make ``repro._ckernel`` resolve to a stub built from ``digest``."""
    import repro

    stub = types.ModuleType("repro._ckernel")
    stub.__file__ = "stub/_ckernel.so"
    stub.SOURCE_SHA256 = digest
    monkeypatch.setitem(sys.modules, "repro._ckernel", stub)
    monkeypatch.setattr(repro, "_ckernel", stub, raising=False)
    monkeypatch.setattr(kernel, "_compiled_module", kernel._UNSET)
    monkeypatch.setattr(kernel, "_stale_reason", None)


# ------------------------------------------------------- selection/fallback
class TestTierSelection:
    def test_default_is_auto(self, _clean_env):
        assert kernel.requested_tier() == "auto"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(kernel.ENV_VAR, "pure")
        assert kernel.requested_tier() == "pure"
        assert kernel.active_tier() == "pure"

    def test_env_var_is_normalized(self, monkeypatch):
        monkeypatch.setenv(kernel.ENV_VAR, "  PURE ")
        assert kernel.requested_tier() == "pure"

    def test_unknown_tier_rejected(self, monkeypatch):
        monkeypatch.setenv(kernel.ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="unknown kernel tier"):
            kernel.requested_tier()
        with pytest.raises(ValueError, match="unknown kernel tier"):
            kernel.set_kernel_tier("turbo")

    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv(kernel.ENV_VAR, "auto")
        kernel.set_kernel_tier("pure")
        assert kernel.requested_tier() == "pure"
        assert kernel.active_tier() == "pure"
        kernel.set_kernel_tier(None)
        assert kernel.requested_tier() == "auto"

    def test_pure_tier_builds_the_python_simulator(self):
        from repro.sim.engine import Simulator

        kernel.set_kernel_tier("pure")
        assert kernel.engine_impl() is None
        assert type(kernel.new_simulator()) is Simulator

    def test_auto_falls_back_silently_without_extension(self, monkeypatch,
                                                        _clean_env):
        from repro.sim.engine import Simulator

        monkeypatch.setattr(kernel, "_compiled_module", None)
        assert kernel.active_tier() == "pure"
        assert kernel.engine_impl() is None
        assert type(kernel.new_simulator()) is Simulator

    def test_explicit_compiled_raises_without_extension(self, monkeypatch):
        monkeypatch.setattr(kernel, "_compiled_module", None)
        kernel.set_kernel_tier("compiled")
        with pytest.raises(kernel.KernelTierError,
                           match="tools/build_kernel.py"):
            kernel.active_tier()

    def test_stale_build_runs_pure_under_auto(self, monkeypatch, _clean_env):
        _stub_extension(monkeypatch, "0" * 64)
        with pytest.warns(RuntimeWarning, match="stale build"):
            assert kernel.active_tier() == "pure"
        assert not kernel.compiled_available()

    def test_stale_build_raises_under_compiled(self, monkeypatch):
        _stub_extension(monkeypatch, "0" * 64)
        kernel.set_kernel_tier("compiled")
        with pytest.raises(kernel.KernelTierError,
                           match=r"stale build.*python tools/build_kernel\.py"):
            kernel.active_tier()

    def test_build_from_this_source_is_accepted(self, monkeypatch):
        _stub_extension(monkeypatch, kernel.source_digest())
        assert kernel.compiled_available()

    @needs_compiled
    def test_fresh_build_digest_matches_source(self):
        module = kernel.compiled_module()
        assert module.SOURCE_SHA256 == kernel.source_digest()
        assert kernel.stale_build_reason(module) is None

    def test_digest_covers_every_c_source(self, tmp_path):
        """One changed byte in either C file or the header makes a build
        stale; a built artifact next to the sources does not count."""
        source_dir = os.path.dirname(kernel.__file__)
        names = ["_ckernel.h", "_ckernel_protocol.c", "_ckernelmodule.c"]
        for name in names:
            shutil.copy(os.path.join(source_dir, name), tmp_path / name)
        fresh = kernel.source_digest(str(tmp_path))
        assert fresh == kernel.source_digest()
        (tmp_path / f"_ckernel{sysconfig.get_config_var('EXT_SUFFIX')}"
         ).write_bytes(b"a build")
        assert kernel.source_digest(str(tmp_path)) == fresh
        for name in names:
            path = tmp_path / name
            body = path.read_bytes()
            path.write_bytes(body[:-1] + bytes([body[-1] ^ 1]))
            assert kernel.source_digest(str(tmp_path)) != fresh
            path.write_bytes(body)
        assert kernel.source_digest(str(tmp_path)) == fresh

    def test_kernel_info_reports_unavailable_without_raising(self, monkeypatch):
        monkeypatch.setattr(kernel, "_compiled_module", None)
        kernel.set_kernel_tier("compiled")
        info = kernel.kernel_info()
        assert info["tier"] == "unavailable"
        assert info["compiled_available"] is False

    def test_kernel_info_shape(self):
        info = kernel.kernel_info()
        assert info["requested"] in kernel.TIERS
        assert info["tier"] in ("pure", "compiled", "unavailable")
        assert isinstance(info["compiled_available"], bool)

    @needs_compiled
    def test_auto_prefers_compiled_when_available(self, _clean_env):
        assert kernel.active_tier() == "compiled"

    @needs_compiled
    def test_compiled_tier_builds_the_c_simulator(self):
        kernel.set_kernel_tier("compiled")
        impl = kernel.engine_impl()
        assert impl is not None
        assert isinstance(kernel.new_simulator(), impl.Simulator)

    @needs_compiled
    def test_compiler_tag_recorded(self):
        kernel.set_kernel_tier("compiled")
        assert kernel.compiler_tag()
        assert kernel.kernel_info()["compiler"] == kernel.compiler_tag()


def _build_tool() -> types.ModuleType:
    path = os.path.join(REPO_ROOT, "tools", "build_kernel.py")
    spec = importlib.util.spec_from_file_location("build_kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBuildTool:
    def test_failed_compile_with_an_old_build_in_place_exits_2(self, tmp_path,
                                                               capfd):
        """setup.py reports a compile error as a warning and exits 0; an
        older build left in place must not turn that into success."""
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "_ckernelmodule.c").write_text("not C\n")
        (package / f"_ckernel{sysconfig.get_config_var('EXT_SUFFIX')}"
         ).write_bytes(b"an older build")
        (tmp_path / "setup.py").write_text(
            "import sys\n"
            "print('warning: optional extension repro._ckernel not built "
            "(command gcc failed with exit code 1); the pure-Python kernel "
            "tier will be used', file=sys.stderr)\n")
        assert _build_tool().build(str(tmp_path)) == 2
        assert "build failed" in capfd.readouterr().err


# -------------------------------------------------------- installed-in-use
@needs_compiled
class TestCompiledTierInstalled:
    def _build_system(self):
        from repro.sim.config import SystemConfig
        from repro.system import build_system

        return build_system(SystemConfig.small(num_processors=4,
                                               references=300, seed=11))

    def test_switch_cores_and_log_observers_installed(self):
        kernel.set_kernel_tier("compiled")
        impl = kernel.engine_impl()
        system = self._build_system()
        assert isinstance(system.sim, impl.Simulator)
        switches = system.network.switches
        assert switches
        for switch in switches:
            assert type(switch._core).__name__ == "SwitchCore"
            assert getattr(switch.inject, "__self__", None) is switch._core
        # The cache arrays register through SafetyNet.register_store; under
        # the compiled tier those observers must be the C implementation.
        observers = [node.l2_array._observer for node in system.nodes
                     if node.l2_array._observer is not None]
        assert observers
        for observer in observers:
            assert type(observer).__name__ == "LogObserver"

    def test_pure_tier_leaves_switches_uncompiled(self):
        kernel.set_kernel_tier("pure")
        system = self._build_system()
        assert system.network.switches
        for switch in system.network.switches:
            assert switch._core is None


# ----------------------------------------------------------- parity gates
def _fig4_quick_json(tier: str, path: str) -> bytes:
    from repro.experiments import runner

    env_before = os.environ.get(kernel.ENV_VAR)
    try:
        assert runner.main(["--only", "fig4", "--quick", "--json", path,
                            "--kernel-tier", tier]) == 0
    finally:
        kernel.set_kernel_tier(None)
        if env_before is None:
            os.environ.pop(kernel.ENV_VAR, None)
        else:
            os.environ[kernel.ENV_VAR] = env_before
    with open(path, "rb") as handle:
        return handle.read()


#: The top-level report key describing how the campaign ran (kernel tier,
#: cache traffic, artifact-memo warmth) rather than what it computed; the
#: parity gates compare everything else byte for byte (mirrors
#: tools/compare_reports.py).
EXECUTION_KEY = "execution"


def _canonical_report_bytes(raw: bytes) -> str:
    document = json.loads(raw)
    trimmed = {key: value for key, value in document.items()
               if key != EXECUTION_KEY}
    return json.dumps(trimmed, sort_keys=True, separators=(",", ":"))


@needs_compiled
class TestTierParity:
    def test_fig4_quick_report_byte_identical(self, tmp_path, capsys):
        pure = _fig4_quick_json("pure", str(tmp_path / "pure.json"))
        compiled = _fig4_quick_json("compiled", str(tmp_path / "compiled.json"))
        assert _canonical_report_bytes(pure) == _canonical_report_bytes(compiled)
        # The execution block must say which tier ran (and only differ
        # there): the byte-stability of everything else is the contract.
        assert json.loads(pure)[EXECUTION_KEY]["kernel"]["tier"] == "pure"
        assert (json.loads(compiled)[EXECUTION_KEY]["kernel"]["tier"]
                == "compiled")
        # Sanity: the file is a real report, not an empty artifact.
        report = json.loads(pure)
        assert report["experiments"]["fig4"]["rows"]

    def test_golden_workload_digest_unmoved_on_compiled_tier(self):
        # Workload generation does not go through the kernel seam, but the
        # digest pin still guards against the compiled tier perturbing
        # shared RNG or import-order state.
        from repro.workloads import make_workload

        kernel.set_kernel_tier("compiled")
        workload = make_workload("hotspot", num_processors=4, seed=7)
        refs = workload.generate(0, 1000)
        h = hashlib.sha256()
        for op, addr in refs:
            h.update(f"{op.value}:{addr};".encode())
        assert h.hexdigest()[:16] == "8aea56abbbc988d8"

    def test_spec_hashes_stable_across_tiers(self):
        from repro.campaign.spec import RunSpec
        from repro.experiments.workload_matrix import (
            MAX_CYCLES,
            _point_config,
            _point_label,
        )
        from repro.sim.config import ProtocolKind

        def spec_hash(tier: str) -> str:
            kernel.set_kernel_tier(tier)
            spec = RunSpec(
                config=_point_config("jbb", ProtocolKind.DIRECTORY, False,
                                     references=100, seed=5),
                label=_point_label("jbb", ProtocolKind.DIRECTORY, False),
                max_cycles=MAX_CYCLES)
            return spec.content_hash()

        assert spec_hash("pure") == spec_hash("compiled")

    def test_randomized_design_points_byte_identical(self):
        """Seeded sweep: a handful of registry design points, both tiers."""
        from repro.campaign.executor import execute_spec
        from repro.campaign.spec import RunSpec
        from repro.experiments.workload_matrix import (
            MAX_CYCLES,
            PROTOCOLS,
            S3_MODES,
            _point_config,
            _point_label,
        )
        from repro.workloads import workload_names

        rng = random.Random(0xC0FFEE)
        grid = [(w, p, s3) for w in sorted(workload_names())
                for p in PROTOCOLS for s3 in S3_MODES]
        points = rng.sample(grid, 4)

        def run_tier(tier: str):
            kernel.set_kernel_tier(tier)
            outputs = []
            for workload, protocol, s3 in points:
                spec = RunSpec(
                    config=_point_config(workload, protocol, s3,
                                         references=120, seed=9),
                    label=_point_label(workload, protocol, s3),
                    max_cycles=MAX_CYCLES)
                result = execute_spec(spec)
                outputs.append(json.dumps(result.to_json(), sort_keys=True))
            return outputs

        pure = run_tier("pure")
        compiled = run_tier("compiled")
        for (workload, protocol, s3), a, b in zip(points, pure, compiled):
            assert a == b, (
                f"tier divergence at {workload}/{protocol.value}"
                f"@{'no-vc' if s3 else 'vc'}")

    def test_full_registry_grid_byte_identical(self):
        """Every workload family x both protocols x {vc, no-vc}, both tiers,
        one spec at a time and as one executor batch.

        The exhaustive (small-reference) companion to the seeded sample
        above: with the coherence controllers, processor issue loop, L1 and
        now the snooping transition handlers compiled, a divergence confined
        to one protocol or one workload family's access pattern must not be
        able to hide behind the sample.  Each tier additionally re-runs the
        whole grid as one :class:`SerialExecutor` batch, so warm memos and
        cache set-lists recycled from earlier machines are held to the
        same byte-for-byte oracle as one-spec-at-a-time execution.
        Byte-for-byte on the result JSON, which includes ``events_executed``
        and every counter — the strictest cheap oracle we have.
        """
        from repro.campaign.executor import (
            SerialExecutor,
            clear_run_memo,
            execute_spec,
        )
        from repro.campaign.spec import RunSpec
        from repro.experiments.workload_matrix import (
            MAX_CYCLES,
            PROTOCOLS,
            S3_MODES,
            _point_config,
            _point_label,
        )
        from repro.workloads import workload_names

        grid = [(w, p, s3) for w in sorted(workload_names())
                for p in PROTOCOLS for s3 in S3_MODES]

        def grid_specs():
            return [RunSpec(
                config=_point_config(workload, protocol, s3,
                                     references=60, seed=11),
                label=_point_label(workload, protocol, s3),
                max_cycles=MAX_CYCLES) for workload, protocol, s3 in grid]

        def run_tier(tier: str, in_executor: bool = False):
            # A leg that replayed the previous leg's runs would hold the
            # oracle to itself; the stream and topology memos stay warm.
            clear_run_memo()
            kernel.set_kernel_tier(tier)
            specs = grid_specs()
            if in_executor:
                results = SerialExecutor().map(specs)
            else:
                results = [execute_spec(spec) for spec in specs]
            return [json.dumps(r.to_json(), sort_keys=True) for r in results]

        pure = run_tier("pure")
        legs = [
            ("compiled", run_tier("compiled")),
            ("pure/executor", run_tier("pure", in_executor=True)),
            ("compiled/executor", run_tier("compiled", in_executor=True)),
        ]
        for leg, outputs in legs:
            for (workload, protocol, s3), a, b in zip(grid, pure, outputs):
                assert a == b, (
                    f"{leg} divergence at {workload}/{protocol.value}"
                    f"@{'no-vc' if s3 else 'vc'}")


# ------------------------------------------------------ partial extensions
#: Cores installed under their own symbol check: an extension without one
#: keeps only that path pure.  (ProcessorCore and TransactionCore gate
#: whole groups; the benchmark's ablations are defined by that.)
PER_CORE_SYMBOLS = ("LogObserver", "MessageSendCore", "MemoryCompleteCore",
                    "DirectoryReceiveCore", "BusCore")


def _both_protocols_json(tier: str):
    from repro.campaign.executor import execute_spec
    from repro.campaign.spec import RunSpec
    from repro.experiments.common import benchmark_config
    from repro.sim.config import ProtocolKind

    kernel.set_kernel_tier(tier)
    outputs = []
    for protocol in (ProtocolKind.DIRECTORY, ProtocolKind.SNOOPING):
        config = benchmark_config("jbb", references=40, protocol=protocol,
                                  num_processors=4)
        result = execute_spec(RunSpec(config=config, label=protocol.value))
        outputs.append(json.dumps(result.to_json(), sort_keys=True))
    return outputs


@pytest.fixture(scope="module")
def _pure_both_protocols():
    try:
        return _both_protocols_json("pure")
    finally:
        kernel.set_kernel_tier(None)


@needs_compiled
@pytest.mark.parametrize("symbol", PER_CORE_SYMBOLS)
def test_extension_missing_one_core_falls_back_to_pure_bytes(
        symbol, monkeypatch, _pure_both_protocols):
    monkeypatch.delattr(kernel.compiled_module(), symbol)
    assert _both_protocols_json("compiled") == _pure_both_protocols
