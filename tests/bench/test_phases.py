"""Phase attribution: synthetic event streams and real bench points."""

import pytest

from repro.bench.phases import PHASE_NAMES, PhaseSink
from repro.bench.runner import BenchRunner
from repro.bench.suite import BenchSuite
from repro.isa.instructions import Kind
from repro.obs.bus import EventBus
from repro.obs.events import ElementOutcome
from repro.sim.trace import TraceEvent


def instr(cycle, latency, sync, thread=0, core=0, kind=Kind.ALU):
    return TraceEvent(
        cycle=cycle, completion=cycle + latency, thread=thread,
        core=core, kind=kind, sync=sync,
    )


def outcome(cycle, ok, op="gatherlink", core=0):
    return ElementOutcome(
        cycle=cycle, core=core, slot=0, line_addr=0x40, op=op,
        lanes=4, ok=ok, cause=None if ok else "line_stolen",
    )


class TestPhaseSink:
    def test_sync_work_is_gather_until_an_element_fails(self):
        sink = PhaseSink()
        sink.on_event(instr(0, 5, sync=True))       # first attempt
        sink.on_event(outcome(5, ok=False))          # reservation lost
        sink.on_event(instr(6, 5, sync=True))        # re-issue
        assert sink.gather == 5
        assert sink.retry == 5

    def test_committed_scattercond_ends_the_retry_loop(self):
        sink = PhaseSink()
        sink.on_event(outcome(0, ok=False))
        sink.on_event(instr(1, 3, sync=True))        # retrying
        sink.on_event(outcome(4, ok=True, op="scattercond"))
        sink.on_event(instr(5, 3, sync=True))        # fresh attempt
        assert sink.retry == 3
        assert sink.gather == 3

    def test_successful_gatherlink_does_not_clear_the_flag(self):
        sink = PhaseSink()
        sink.on_event(outcome(0, ok=False))
        sink.on_event(outcome(1, ok=True, op="gatherlink"))
        sink.on_event(instr(2, 3, sync=True))
        assert sink.retry == 3                       # still recovering

    def test_retry_state_is_per_core(self):
        sink = PhaseSink()
        sink.on_event(outcome(0, ok=False, core=0))
        sink.on_event(instr(1, 2, sync=True, core=0, thread=0))
        sink.on_event(instr(1, 2, sync=True, core=1, thread=4))
        assert sink.retry == 2                       # core 0 only
        assert sink.gather == 2                      # core 1 unaffected

    def test_non_sync_instructions_are_compute(self):
        sink = PhaseSink()
        sink.on_event(instr(0, 4, sync=False))
        assert sink.compute == 4
        assert sink.gather == 0

    def test_breakdown_sums_exactly_to_capacity(self):
        sink = PhaseSink()
        sink.on_event(instr(0, 5, sync=True, thread=0))
        sink.on_event(instr(0, 3, sync=False, thread=1))
        breakdown = sink.breakdown(cycles=10)
        assert breakdown["threads"] == 2
        assert breakdown["capacity"] == 20
        assert (
            breakdown["gather"] + breakdown["compute"]
            + breakdown["retry"] + breakdown["stall"]
        ) == 20
        assert sum(breakdown["fractions"].values()) == pytest.approx(1.0)
        assert tuple(breakdown["fractions"]) == PHASE_NAMES

    def test_stall_clamps_at_zero_when_over_attributed(self):
        sink = PhaseSink()
        sink.on_event(instr(0, 50, sync=False))
        breakdown = sink.breakdown(cycles=10)
        assert breakdown["stall"] == 0
        assert sum(breakdown["fractions"].values()) == pytest.approx(1.0)


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def doc(self):
        suite = BenchSuite.grid(
            "tiny", ("tms",), "tiny", topologies=("1x2",), widths=(4,)
        )
        return BenchRunner(suite, git_sha="abc1234").run()

    def test_every_point_carries_a_phase_breakdown(self, doc):
        for point in doc["points"]:
            breakdown = point["phases"]
            assert breakdown["capacity"] == (
                point["cycles"] * breakdown["threads"]
            )
            assert set(breakdown["fractions"]) == set(PHASE_NAMES)

    def test_glsc_point_attributes_gather_work(self, doc):
        glsc = next(
            p for p in doc["points"]
            if p["spec"]["variant"] == "glsc"
        )
        assert glsc["phases"]["gather"] > 0

    def test_report_renders_the_phase_table(self, doc):
        from repro.bench.baseline import trajectory_entry
        from repro.bench.compare import Comparator
        from repro.bench.fidelity import distill_reference
        from repro.bench.report import render_markdown

        comparison = Comparator().compare(
            doc, trajectory_entry(doc), distill_reference(doc)
        )
        markdown = render_markdown(
            comparison, [trajectory_entry(doc)], doc=doc
        )
        assert "## Phase attribution" in markdown
        assert "| point | gather | compute | retry | stall |" in markdown

    def test_no_phases_flag_omits_the_breakdown(self):
        suite = BenchSuite.grid(
            "tiny", ("tms",), "tiny", topologies=("1x1",), widths=(1,)
        )
        doc = BenchRunner(suite, git_sha="abc1234", phases=False).run()
        assert all("phases" not in p for p in doc["points"])

    def test_observed_pass_does_not_perturb_cycles(self, doc):
        # The runner asserts sinkless == observed cycles internally;
        # reaching here with a doc at all proves it held.  Cross-check
        # one point against a fresh sinkless run anyway.
        from repro.sim.executor import RunSpec, execute_spec

        point = doc["points"][0]
        spec = RunSpec.from_dict(point["spec"])
        bus = EventBus()
        bus.attach(PhaseSink())
        stats = execute_spec(spec, obs=bus)
        bus.close()
        assert stats.cycles == point["cycles"]
