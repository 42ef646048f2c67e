"""BenchRunner: execute a suite fresh and collect the model's output.

Every point is simulated once through
:func:`~repro.sim.executor.execute_spec`, which bypasses the memo and
the on-disk store, so each bench run recomputes every number instead
of reading an old one back.  That pass supplies the point's cycles and
statistics.  Nothing is timed: the simulator's speed is judged by the
same-host A/B of ``perfbench/``, not here.

With ``phases=True`` (the default) the runner adds one observed pass
per point, attributing each point's cycles to
gather/compute/retry/stall via :class:`~repro.bench.phases.PhaseSink`.
The observed pass must retire identical cycles to the sinkless one (a
determinism check, sinkless-vs-observed).  The same pass carries a
:class:`~repro.obs.contention.ContentionSink`, so each point also gets
a compact ``contention`` block (kill counts by cause, the hottest
line, storm windows) at no extra simulation cost.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.errors import VerificationError
from repro.obs.bus import EventBus
from repro.obs.telemetry import run_provenance
from repro.sim.executor import execute_spec
from repro.sim.stats import MachineStats

from repro.bench.baseline import BENCH_SCHEMA_VERSION, current_git_sha
from repro.bench.fidelity import fidelity_metrics
from repro.bench.phases import PhaseSink
from repro.bench.suite import BenchSuite

__all__ = ["BenchRunner"]


class BenchRunner:
    """Runs a :class:`~repro.bench.suite.BenchSuite` into a bench doc."""

    def __init__(
        self,
        suite: BenchSuite,
        git_sha: Optional[str] = None,
        progress=None,
        phases: bool = True,
    ) -> None:
        self.suite = suite
        self.git_sha = git_sha or current_git_sha()
        self._progress = progress  # callable(str) or None
        self.phases = phases
        #: Stats per point id from the last :meth:`run`.
        self.stats_by_id: Dict[str, MachineStats] = {}

    def _note(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    def run(self) -> Dict[str, Any]:
        """Execute the suite and return the bench document (JSON-able)."""
        specs = self.suite.specs()
        ids = self.suite.ids()
        self.stats_by_id = {
            pid: execute_spec(spec) for pid, spec in zip(ids, specs)
        }
        self._note(f"{len(specs)} points simulated")

        phases_by_id: Dict[str, Dict[str, Any]] = {}
        contention_by_id: Dict[str, Dict[str, Any]] = {}
        if self.phases:
            from repro.obs.contention import ContentionSink

            for pid, spec in zip(ids, specs):
                bus = EventBus()
                sink = bus.attach(PhaseSink())
                contention = bus.attach(
                    ContentionSink(n_cores=spec.config().n_cores)
                )
                captured: Dict[str, Any] = {}

                def _capture(machine, captured=captured) -> None:
                    captured["regions"] = machine.image.regions

                stats = execute_spec(spec, obs=bus, on_machine=_capture)
                bus.close()
                sinkless = self.stats_by_id[pid].cycles
                if stats.cycles != sinkless:
                    raise VerificationError(
                        f"bench point {pid} diverges under observation: "
                        f"{sinkless} cycles sinkless, "
                        f"{stats.cycles} with the phase sink attached"
                    )
                phases_by_id[pid] = sink.breakdown(stats.cycles)
                contention_by_id[pid] = contention.summary(
                    regions=captured.get("regions"), stats=stats
                ).compact()
            self._note(f"phase attribution: {len(specs)} observed passes")

        points = []
        for pid, spec in zip(ids, specs):
            stats = self.stats_by_id[pid]
            points.append(
                {
                    "id": pid,
                    "spec": spec.to_dict(),
                    "cycles": stats.cycles,
                    "instructions": stats.total_instructions,
                    "summary": stats.summary(),
                    **(
                        {"phases": phases_by_id[pid]}
                        if pid in phases_by_id else {}
                    ),
                    **(
                        {"contention": contention_by_id[pid]}
                        if pid in contention_by_id else {}
                    ),
                }
            )

        provenance = run_provenance(0.0)
        del provenance["wall_time_s"]  # a bench run is not timed
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "git_sha": self.git_sha,
            "created": time.time(),
            "suite": self.suite.name,
            "deterministic": True,  # enforced above, sinkless-vs-observed
            "provenance": provenance,
            "points": points,
            "fidelity": fidelity_metrics(self.stats_by_id),
        }
