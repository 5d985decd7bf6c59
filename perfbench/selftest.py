"""Tests of the benchmark itself, at tiny stream lengths on both tiers.

Not collected by the repository's test suite (the file name does not match
``test_*.py``); run them explicitly::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import leg  # noqa: E402
import run  # noqa: E402

TINY = {"fig4": 3, "snoop": 3, "grid": 2}
HELD_OUT_SEED = 4


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def shrink(patch, pins_path):
    """Run the workloads at the tiny lengths, checked against ``pins_path``."""
    for workload, references in TINY.items():
        patch.setitem(leg.WORKLOADS[workload], "references", references)
    patch.setattr(run, "PINS_PATH", str(pins_path))
    patch.setattr(run, "SETUP_REPEATS", 1)
    patch.setattr(run, "TRACE_ROUNDS", 1)


@pytest.fixture(scope="module")
def tiny_pins(tmp_path_factory):
    """Pins of the tiny lengths, written by the benchmark's own ``--pin``
    path (which builds the extension and checks the tiers agree)."""
    path = tmp_path_factory.mktemp("pins") / "pins.json"
    with pytest.MonkeyPatch.context() as patch:
        shrink(patch, path)
        run.write_pins()
    return path


@pytest.fixture
def tiny(monkeypatch, tiny_pins):
    shrink(monkeypatch, tiny_pins)
    return json.loads(tiny_pins.read_text())


@pytest.fixture(scope="module")
def extension(tiny_pins):
    return run.EXT_DIR


def cli(capsys, *arguments):
    assert run.main(list(arguments)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_unit_tables_match_benchmark_json():
    document = benchmark_json()
    assert run.END_TO_END_UNITS == units(document["end_to_end"])
    assert run.PER_LAYER_UNITS == units(document["per_layer"])
    assert sorted(w["name"] for w in document["workloads"]) == sorted(
        leg.WORKLOADS)


def test_pins_match_the_workload_lengths():
    pins = run.load_pins()
    assert sorted(pins) == sorted(leg.WORKLOADS)
    for workload, spec in leg.WORKLOADS.items():
        assert pins[workload]["references"] == spec["references"]
        assert pins[workload]["seed"] == leg.DEFAULT_SEED


def test_printed_metrics_match_benchmark_json(capsys, tiny):
    document = benchmark_json()
    plain = cli(capsys, "--workload", "snoop", "--seed", str(HELD_OUT_SEED),
                "--seconds", "0", "--trace", "0")
    assert plain["correct"] and plain["failed"] == 0
    assert {name: m["unit"] for name, m in plain["metrics"].items()} == \
        units(document["end_to_end"])
    traced = cli(capsys, "--workload", "grid", "--seed", str(HELD_OUT_SEED),
                 "--seconds", "0", "--trace", "1")
    assert traced["correct"] and traced["failed"] == 0
    assert {name: m["unit"] for name, m in traced["metrics"].items()} == \
        units(document["per_layer"])
    for name, metric in {**plain["metrics"], **traced["metrics"]}.items():
        assert isinstance(metric["value"], (int, float)), name


def test_corrupted_pin_is_counted_not_raised(capsys, monkeypatch, tmp_path,
                                             tiny):
    points = tiny["snoop"]["points"]
    tiny["snoop"]["points"] = {**points, sorted(points)[0]: "0" * 64}
    corrupted = tmp_path / "pins.json"
    corrupted.write_text(json.dumps(tiny))
    monkeypatch.setattr(run, "PINS_PATH", str(corrupted))
    result = cli(capsys, "--workload", "snoop", "--seed",
                 str(leg.DEFAULT_SEED), "--seconds", "0", "--trace", "0")
    legs = len(run.LEG_ORDER)
    assert not result["correct"]
    assert result["attempted"] == legs * len(points)
    assert result["failed"] == legs  # the corrupted point, once per leg


@pytest.mark.parametrize("seed", [leg.DEFAULT_SEED, HELD_OUT_SEED])
def test_resized_workload_fails_at_every_seed(capsys, monkeypatch, tiny,
                                              seed):
    monkeypatch.setitem(leg.WORKLOADS["snoop"], "references",
                        TINY["snoop"] + 1)
    assert run.main(["--workload", "snoop", "--seed", str(seed),
                     "--seconds", "0", "--trace", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "re-pin" in captured.err


def leg_with(monkeypatch, edit):
    """Make every leg's report pass through ``edit`` before it is scored."""
    real_run_leg = run.run_leg

    def edited_leg(*args, **kwargs):
        report = real_run_leg(*args, **kwargs)
        edit(report)
        return report
    monkeypatch.setattr(run, "run_leg", edited_leg)


def test_point_raising_on_both_tiers_fails_at_held_out_seed(
        capsys, monkeypatch, tiny):
    # At a held-out seed the first pure leg is the reference, so a point
    # that raises the same way on both tiers must not pass by agreeing.
    def raise_last_point(report):
        report["points"][sorted(report["points"])[-1]] = \
            "raised KeyError: 'block'"
    leg_with(monkeypatch, raise_last_point)
    result = cli(capsys, "--workload", "snoop", "--seed", str(HELD_OUT_SEED),
                 "--seconds", "0", "--trace", "0")
    assert not result["correct"]
    assert result["failed"] == len(run.LEG_ORDER)  # once per leg


def test_pass_raising_after_its_points_fails(capsys, monkeypatch, tiny):
    def raise_after_points(report):
        report["errors"].append("seed+0: ZeroDivisionError: division by zero")
    leg_with(monkeypatch, raise_after_points)
    result = cli(capsys, "--workload", "snoop", "--seed", str(HELD_OUT_SEED),
                 "--seconds", "0", "--trace", "0")
    points, legs = len(tiny["snoop"]["points"]), len(run.LEG_ORDER)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (
        legs * points + legs, legs)


def test_score_counts_raised_and_missing_points():
    reference = {"a": "1" * 64, "b": "2" * 64, "c": "3" * 64}
    report = {"tier": "compiled", "hidden": [], "errors": [],
              "points": {"a": "1" * 64, "b": "raised ValueError: boom"}}
    attempted, failed, reasons = run.score([report], reference)
    assert (attempted, failed) == (3, 2)
    assert any("boom" in r for r in reasons)
    assert any("missing" in r for r in reasons)


def leg_process(tmp_ext):
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    return subprocess.run(
        [sys.executable, run.LEG_SCRIPT, "--workload", "snoop", "--tier",
         "compiled", "--references", "2", "--ext-dir", str(tmp_ext)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)


def test_missing_extension_fails_compiled_leg(tmp_path, extension):
    proc = leg_process(tmp_path / "empty")
    assert proc.returncode != 0 and proc.stdout == ""
    assert "no extension build" in proc.stderr


def test_stale_extension_fails_compiled_leg(tmp_path, extension):
    stale = tmp_path / "stale"
    shutil.copytree(extension, stale)
    (stale / "SOURCE_SHA256").write_text("0" * 64 + "\n")
    proc = leg_process(stale)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "stale extension" in proc.stderr


def test_extension_elsewhere_fails_compiled_leg(tmp_path, extension):
    # A stamp that matches but no module in the build directory: whatever
    # else Python finds as repro._ckernel must not be measured.
    stamp_only = tmp_path / "stamp-only"
    (stamp_only / "repro").mkdir(parents=True)
    shutil.copy(os.path.join(extension, "SOURCE_SHA256"), stamp_only)
    proc = leg_process(stamp_only)
    assert proc.returncode != 0 and proc.stdout == ""


def test_leg_failure_is_loud_in_the_runner(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "EXT_DIR", str(tmp_path / "empty"))
    with pytest.raises(run.BenchError):
        run.run_leg("snoop", "compiled", 1, 2)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("tier", run.TIERS)
def test_traced_spans_nest_inside_the_leg(workload, tier, extension):
    report = run.run_leg(workload, tier, 3, TINY[workload], trace=True)
    assert report["tier"] == tier
    spans = run.leg_spans(report)
    assert {"leg", "import", "point", "build", "run", "streams"} <= {
        s["name"] for s in spans}
    assert all(s["self_s"] >= -1e-9 for s in spans), spans
    layers = run.tier_layers(report, spans)
    assert layers["campaign.other_s"] >= -1e-9
    assert report["counts"]["points"] == len(report["points"])


def test_span_check_rejects_broken_traces(extension):
    report = run.run_leg("snoop", "compiled", 3, TINY["snoop"], trace=True)
    run_span = next(i for i, s in enumerate(report["spans"]) if s[0] == "run")

    def unclosed(r):
        r["spans"][run_span][3] = None

    def outlives_parent(r):
        r["spans"][run_span][3] = r["done_at"] + 1.0

    def starts_during_imports(r):
        r["imported_at"] = r["spans"][0][2] + 1e-3

    def overlaps_sibling(r):
        r["spans"].append(list(r["spans"][run_span]))

    for broken in (unclosed, outlives_parent, starts_during_imports,
                   overlaps_sibling):
        copy = json.loads(json.dumps(report))
        broken(copy)
        with pytest.raises(run.BenchError):
            run.leg_spans(copy)
