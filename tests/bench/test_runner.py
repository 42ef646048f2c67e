"""BenchRunner tests: one fresh pass per point, document schema."""

import pytest

from repro.bench.baseline import BENCH_SCHEMA_VERSION
from repro.bench.runner import BenchRunner
from repro.bench.suite import BenchSuite
from repro.errors import VerificationError


def tiny_suite(name="tiny"):
    return BenchSuite.grid(
        name, ("tms",), "tiny", topologies=("1x2",), widths=(1, 4)
    )


@pytest.fixture
def doc(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SHA", "cafef00")
    return BenchRunner(tiny_suite()).run()


class TestRunnerDocument:
    def test_schema_and_identity(self, doc):
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert doc["git_sha"] == "cafef00"
        assert doc["suite"] == "tiny"
        assert doc["deterministic"] is True
        assert doc["provenance"]["repro_version"]

    def test_one_untimed_entry_per_point(self, doc):
        assert len(doc["points"]) == 4
        for point in doc["points"]:
            assert point["cycles"] > 0
            assert point["instructions"] > 0
            assert point["summary"]["cycles"] == point["cycles"]
            assert not {"wall_s", "sim_khz", "cyc_per_s"} & set(point)
        assert not {"repeats", "backend"} & set(doc)
        assert "wall_time_s" not in doc["provenance"]

    def test_fidelity_from_collected_stats(self, doc):
        """Speedups/failure mixes come from MachineStats of this run."""
        speedup = doc["fidelity"]["speedup"]
        assert set(speedup) == {"tms/tiny:1x2:w1", "tms/tiny:1x2:w4"}
        by_id = {p["id"]: p["cycles"] for p in doc["points"]}
        for key, value in speedup.items():
            expected = by_id[key + ":base"] / by_id[key + ":glsc"]
            assert value == pytest.approx(expected)
        mix = doc["fidelity"]["failure_mix"]["tms/tiny:1x2:w4:glsc"]
        assert 0.0 <= mix["rate"] <= 1.0
        assert mix["attempts"] > 0
        assert mix["dominant"] in (None, *mix["mix"].keys())
        if any(mix["mix"].values()):
            assert sum(mix["mix"].values()) == pytest.approx(1.0)

    def test_contention_block_on_every_point(self, doc):
        """The observed pass tags each point with a compact block."""
        for point in doc["points"]:
            block = point["contention"]
            assert set(block) == {
                "kills", "by_cause", "failed_lanes", "hot_line",
                "hot_line_total", "storms", "max_retry_depth",
            }
            assert block["kills"] >= 0
            assert sum(block["by_cause"].values()) == block["kills"]
            if block["hot_line"] is not None:
                # Symbolized through the kernel's named regions.
                assert block["hot_line"].startswith(("tms.", "0x"))

    def test_no_phases_run_omits_contention(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SHA", "cafef00")
        doc = BenchRunner(tiny_suite(), phases=False).run()
        for point in doc["points"]:
            assert "contention" not in point
            assert "phases" not in point

    def test_trajectory_entry_rolls_contention_up(self, doc):
        from repro.bench.baseline import trajectory_entry

        entry = trajectory_entry(doc)
        rollup = entry["contention"]
        assert rollup["kills"] == sum(
            p["contention"]["kills"] for p in doc["points"]
        )
        assert rollup["failed_lanes"] == sum(
            p["contention"]["failed_lanes"] for p in doc["points"]
        )
        assert set(rollup["points"]) == {p["id"] for p in doc["points"]}

    def test_trajectory_entry_without_contention_omits_key(self, doc):
        from repro.bench.baseline import trajectory_entry

        stripped = dict(doc)
        stripped["points"] = [
            {k: v for k, v in p.items() if k != "contention"}
            for p in doc["points"]
        ]
        assert "contention" not in trajectory_entry(stripped)

    def test_observed_pass_must_match_the_sinkless_one(
        self, monkeypatch
    ):
        """A sink that perturbs the model fails the run, loudly."""
        from repro.bench import runner as runner_mod

        original = runner_mod.execute_spec

        def perturbed(spec, *args, obs=None, **kwargs):
            stats = original(spec, *args, obs=obs, **kwargs)
            if obs is not None:
                stats.cycles += 1
            return stats

        monkeypatch.setattr(runner_mod, "execute_spec", perturbed)
        with pytest.raises(VerificationError, match="under observation"):
            BenchRunner(tiny_suite(), git_sha="cafef00").run()
