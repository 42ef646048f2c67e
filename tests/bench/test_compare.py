"""Comparator tests — the drift gate must actually catch drift.

The acceptance-shaped scenarios: re-running unchanged code yields
``ok``; drifted cycles yield ``changed``; a fidelity-band violation
yields ``regressed`` and a nonzero CLI exit code; archives written when
bench runs were still timed load and compare without wall verdicts.
"""

import copy
import json
import shutil
from pathlib import Path

import pytest

from repro.bench import (
    BenchRunner,
    Comparator,
    append_trajectory,
    load_bench,
    load_trajectory,
    trajectory_entry,
    write_bench,
)
from repro.bench.baseline import previous_entry
from repro.bench.fidelity import distill_reference
from repro.bench.suite import BenchSuite
from repro.harness.cli import main

REPO = Path(__file__).resolve().parents[2]


def tiny_suite():
    return BenchSuite.grid(
        "tiny", ("tms",), "tiny", topologies=("1x2",), widths=(4,)
    )


@pytest.fixture(scope="module")
def doc():
    return BenchRunner(tiny_suite(), git_sha="aaa0001").run()


@pytest.fixture
def reference(doc):
    return distill_reference(doc)


class TestBaselineGate:
    def test_unchanged_run_is_ok(self, doc, reference):
        comparison = Comparator().compare(
            doc, trajectory_entry(doc), reference
        )
        assert not comparison.failed
        assert comparison.by_verdict("regressed") == []
        assert all(
            v.verdict in ("ok", "skipped") for v in comparison.verdicts
        )
        assert {v.kind for v in comparison.verdicts} == {
            "cycles", "fidelity",
        }

    def test_rerun_is_ok(self, doc, reference):
        """An actual fresh re-run of the same code compares clean."""
        rerun = BenchRunner(tiny_suite(), git_sha="aaa0002").run()
        comparison = Comparator().compare(
            rerun, trajectory_entry(doc), reference
        )
        assert not comparison.failed
        assert comparison.by_verdict("changed") == []

    def test_missing_point_reported(self, doc):
        shrunk = copy.deepcopy(doc)
        dropped = shrunk["points"].pop()
        comparison = Comparator().compare(shrunk, trajectory_entry(doc))
        missing = comparison.by_verdict("missing")
        assert [v.metric for v in missing] == [f"cycles:{dropped['id']}"]
        assert not comparison.failed


class TestCycleDrift:
    def test_cycle_change_flagged_as_changed(self, doc):
        drifted = copy.deepcopy(doc)
        drifted["points"][0]["cycles"] += 100
        comparison = Comparator().compare(drifted, trajectory_entry(doc))
        changed = comparison.by_verdict("changed")
        assert len(changed) == 1
        assert changed[0].kind == "cycles"
        # Cycle drift alone warns but does not fail the gate; the
        # fidelity bands are the semantic arbiter.
        assert not comparison.failed


class TestFidelityGate:
    def test_speedup_outside_band_regresses(self, doc, reference):
        shifted = copy.deepcopy(doc)
        shifted["fidelity"]["speedup"] = {
            key: value * 3
            for key, value in shifted["fidelity"]["speedup"].items()
        }
        comparison = Comparator().compare(shifted, None, reference)
        assert comparison.failed
        assert any(
            v.metric.startswith("speedup:") for v in
            comparison.by_verdict("regressed")
        )

    def test_failure_rate_outside_band_regresses(self, doc, reference):
        shifted = copy.deepcopy(doc)
        for entry in shifted["fidelity"]["failure_mix"].values():
            entry["rate"] = 0.99
        comparison = Comparator().compare(shifted, None, reference)
        assert any(
            v.metric.startswith("failure_rate:")
            for v in comparison.by_verdict("regressed")
        )

    def test_dominant_cause_flip_regresses(self, doc, reference):
        flipped = copy.deepcopy(doc)
        for entry in flipped["fidelity"]["failure_mix"].values():
            entry["dominant"] = "eviction"
        comparison = Comparator().compare(flipped, None, reference)
        assert any(
            v.metric.startswith("failure_dominant:")
            for v in comparison.by_verdict("regressed")
        )

    def test_unknown_points_skipped_not_failed(self, doc):
        comparison = Comparator().compare(
            doc, None, {"speedup_bands": {}, "failure_mix": {}}
        )
        assert not comparison.failed
        assert comparison.by_verdict("skipped")


class TestCliGate:
    """The CI contract: `bench compare` exits 1 exactly on regression."""

    def _archive(self, tmp_path, doc, reference):
        write_bench(doc, tmp_path)
        append_trajectory(doc, tmp_path / "BENCH_TRAJECTORY.jsonl")
        with open(tmp_path / "BENCH_REFERENCE.json", "w") as fh:
            json.dump(reference, fh)

    def test_clean_compare_exits_zero(self, tmp_path, capsys, doc, reference):
        self._archive(tmp_path, doc, reference)
        code = main(["bench", "compare", "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "GATE: ok" in out

    def test_injected_drift_exits_nonzero(
        self, tmp_path, capsys, doc, reference
    ):
        self._archive(tmp_path, doc, reference)
        # Tamper with the archived document: drift one point's cycles
        # and push one speedup ratio far outside its reference band.
        path = tmp_path / f"BENCH_{doc['git_sha']}.json"
        tampered = load_bench(path)
        tampered["git_sha"] = "bbb0002"
        tampered["points"][0]["cycles"] += 100
        key = next(iter(tampered["fidelity"]["speedup"]))
        tampered["fidelity"]["speedup"][key] *= 5
        write_bench(tampered, tmp_path)

        code = main([
            "bench", "compare", "--dir", str(tmp_path),
            "--bench", str(tmp_path / "BENCH_bbb0002.json"),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "GATE: REGRESSED" in out
        assert "cycles:" in out and "speedup:" in out
        assert "wall:" not in out

    def test_previous_entry_skips_own_sha(self, doc):
        first = trajectory_entry(doc)
        second = dict(first, git_sha="ccc0003")
        assert previous_entry([first, second], "tiny",
                              exclude_sha="ccc0003") is first
        assert previous_entry([first], "tiny",
                              exclude_sha="aaa0001") is first
        assert previous_entry([first], "other-suite") is None

    def test_trajectory_round_trip(self, tmp_path, doc):
        path = tmp_path / "BENCH_TRAJECTORY.jsonl"
        entry = append_trajectory(doc, path)
        loaded = load_trajectory(path)
        assert loaded == [json.loads(json.dumps(entry))]


class TestTimedArchives:
    """Archives from when bench runs were timed still load and gate."""

    def test_old_archive_yields_only_deterministic_verdicts(
        self, tmp_path, capsys
    ):
        for name in ("BENCH_3447dc1.json", "BENCH_TRAJECTORY.jsonl",
                     "BENCH_REFERENCE.json"):
            shutil.copy(REPO / name, tmp_path / name)
        old = load_bench(tmp_path / "BENCH_3447dc1.json")
        assert "wall_s" in old["points"][0]

        code = main([
            "bench", "compare", "--dir", str(tmp_path),
            "--bench", str(tmp_path / "BENCH_3447dc1.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "GATE: ok" in out
        for word in ("wall:", "sim_khz:", "instr_per_sec:",
                     "cyc_per_instr:"):
            assert word not in out

        trajectory = load_trajectory(tmp_path / "BENCH_TRAJECTORY.jsonl")
        baseline = previous_entry(trajectory, old["suite"],
                                  exclude_sha=old["git_sha"])
        assert baseline is not None and "wall" in baseline
        reference = json.loads(
            (tmp_path / "BENCH_REFERENCE.json").read_text()
        )
        comparison = Comparator().compare(old, baseline, reference)
        prefixes = {v.metric.split(":", 1)[0] for v in comparison.verdicts}
        assert prefixes <= {
            "cycles", "speedup", "failure_rate", "failure_dominant",
        }
        assert {"cycles", "speedup", "failure_rate"} <= prefixes
