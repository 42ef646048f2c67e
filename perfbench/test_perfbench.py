"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench -q

Most run ``perfbench/run.py`` in fresh processes on ``service-tiny``
with one-second runs, so the file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, tracing  # noqa: E402
from perfbench.make_reference import golden_mismatches  # noqa: E402
from perfbench.sweeps import WORKLOADS  # noqa: E402
from repro.bench.suite import point_id  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"
REFERENCE = ROOT / "perfbench" / "reference.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*extra, cwd=ROOT, script=RUN):
    # The benchmark finds the package under its checkout, never through
    # the caller's PYTHONPATH.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "service-tiny",
         "--seconds", "1", *extra],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result


@pytest.fixture(scope="module")
def plain():
    return run_bench("--trace", "0")


@pytest.fixture(scope="module")
def traced():
    return run_bench("--trace", "1")


def _names(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    sizes = {name: len(w.specs) for name, w in WORKLOADS.items()}
    assert sizes == {"glsc-4x4": 21, "base-4x4": 21, "service-tiny": 168}


def test_end_to_end_names_and_units_match(plain):
    code, result = plain
    assert code == 0 and result["correct"] and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_names_and_units_match(traced):
    code, result = traced
    assert code == 0 and result["correct"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _names("per_layer")


def test_corrupted_reference_digest_fails(tmp_path, monkeypatch, capsys):
    reference = json.loads(REFERENCE.read_text())
    pid = point_id(WORKLOADS["service-tiny"].specs[0])
    reference[pid]["stats_sha256"] = "0" * 64
    corrupt = tmp_path / "reference.json"
    corrupt.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", corrupt)
    code = run.main(["--workload", "service-tiny", "--seconds", "1",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_warm_pass_is_served_from_the_store(traced):
    metrics = traced[1]["metrics"]
    assert metrics["sim.store.hit_ratio"]["value"] == 1.0
    assert metrics["service.queue.requeued"]["value"] == 0


def test_trace_accounting(traced):
    metrics = {k: v["value"] for k, v in traced[1]["metrics"].items()}
    interval = metrics["sim.machine.run_s"]
    profiled = sum(metrics[f"{layer}.self_s"]
                   for layer in tracing.PROFILED_LAYERS)
    profiled += metrics["sim.machine.self_s"] + metrics["other.self_s"]
    assert abs(profiled - interval) <= tracing.ACCOUNT_TOL * interval
    assert metrics["other.self_s"] <= tracing.OTHER_MAX * interval
    assert metrics["trace.overhead_frac"] > 0


def test_counters_repeat_in_a_fresh_process(traced):
    again = run_bench("--trace", "1")[1]["metrics"]
    first = traced[1]["metrics"]
    exact = [name for name in first
             if name.endswith("calls_per_kinstr")
             or name in ("core.kinstr", "core.gsu.lanes", "sim.kcycles",
                         "mem.cache.l1_accesses",
                         "mem.coherence.invalidations")]
    assert len(exact) == 13
    assert {n: first[n] for n in exact} == {n: again[n] for n in exact}


def test_reference_covers_every_spec_and_agrees_with_goldens():
    reference = json.loads(REFERENCE.read_text())
    pids = {point_id(s) for w in WORKLOADS.values() for s in w.specs}
    assert set(reference) == pids and len(pids) == 210
    checked, bad = golden_mismatches(reference)
    assert checked == {"golden_full.json": 42, "golden_smoke.json": 16}
    assert bad == []


def test_interaction_table_uses_benchmark_names():
    table = json.loads(
        (ROOT / "perfbench" / "interactions.json").read_text())["layers"]
    per_layer = set(_names("per_layer"))
    listed = [name for row in table for name in row["per_layer"]]
    assert sorted(listed) == sorted(per_layer)
    end_to_end = set(_names("end_to_end"))
    workloads = set(WORKLOADS)
    for row in table:
        assert set(row["moves"]) <= end_to_end
        assert set(row["mostly_on"]) | set(row["little_on"]) <= workloads


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run_bench(cwd=tmp_path,
                             script=tmp_path / "perfbench" / "run.py")
    assert code != 0 and result is None
