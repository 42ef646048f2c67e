"""Workloads, seeds, the reference check, and one timed sweep.

Each workload is a fixed list of :class:`~repro.RunSpec` driven through
the public :class:`~repro.Executor` API and timed from outside:

* ``glsc-4x4`` and ``base-4x4`` are the paper's Figure 8 at 4x4 on
  dataset A (7 kernels x W{1,4,16}), one variant each, run serially by
  ``Executor(jobs=1)`` with no store;
* ``service-tiny`` is 7 kernels x ``tiny`` x {1x1,1x4,4x1,4x4} x W{1,4,16}
  x {base,glsc}, submitted through a ``queue://`` backend and drained
  into a :class:`~repro.ResultStore` by one in-process ``worker_loop``
  thread: a closed loop with one client.

After each cold ``service-tiny`` sweep, fresh executors re-serve the
whole sweep from its store: that is the warm pass.  The grids use no
store at all.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import repro.kernels.registry as registry
from repro.bench.suite import point_id
from repro.errors import SimulationError
from repro.kernels.registry import KERNEL_ORDER
from repro.service.queue import WorkQueue
from repro.service.worker import worker_loop
from repro.sim.executor import Executor, RunSpec
from repro.sim.stats import MachineStats
from repro.sim.store import ResultStore

__all__ = [
    "Checker", "SweepResult", "WORKLOADS", "Workload", "measure",
    "run_once", "shifted_seeds", "stats_digest",
]

GRID_WIDTHS = (1, 4, 16)
SERVICE_TOPOLOGIES = ("1x1", "1x4", "4x1", "4x4")
VARIANTS = ("base", "glsc")

#: Re-serve passes after each cold sweep of a queued workload.
WARM_PASSES = 2

#: Longest wait for a queue drain before unserved specs count as
#: failed; a clean drain of service-tiny takes ~2.5 s.
QUEUE_TIMEOUT_S = 60.0

#: The worker thread stops after executing the sweep, or after this
#: long without a claim (only reached when a batch failed and stays
#: pending, so the sweep is already lost).
WORKER_IDLE_EXIT_S = 2.0


@dataclass(frozen=True)
class Workload:
    """A named, fixed sweep; ``queued`` selects the service path."""

    name: str
    specs: Tuple[RunSpec, ...]
    queued: bool


def _grid(variant: str) -> Tuple[RunSpec, ...]:
    return tuple(
        RunSpec(kernel, "A", "4x4", width, variant)
        for kernel in KERNEL_ORDER
        for width in GRID_WIDTHS
    )


def _service() -> Tuple[RunSpec, ...]:
    return tuple(
        RunSpec(kernel, "tiny", topology, width, variant)
        for kernel in KERNEL_ORDER
        for topology in SERVICE_TOPOLOGIES
        for width in GRID_WIDTHS
        for variant in VARIANTS
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("glsc-4x4", _grid("glsc"), queued=False),
        Workload("base-4x4", _grid("base"), queued=False),
        Workload("service-tiny", _service(), queued=True),
    )
}


@contextmanager
def shifted_seeds(shift: int) -> Iterator[None]:
    """Add ``shift`` to every dataset generator's seed (0 changes nothing).

    ``make_kernel`` reads generator arguments through the registry
    module's ``dataset_params``, so rebinding that one name reaches
    every execution path in this process, the worker thread included.
    """
    if not shift:
        yield
        return
    original = registry.dataset_params

    def shifted(kernel: str, dataset: str):
        params = original(kernel, dataset)
        params["seed"] += shift
        return params

    registry.dataset_params = shifted
    try:
        yield
    finally:
        registry.dataset_params = original


def stats_digest(stats: MachineStats) -> str:
    """sha256 over the canonical JSON of every counter in ``stats``."""
    payload = json.dumps(
        stats.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class Checker:
    """Counts results that are missing, raised, or not the expected ones.

    ``expected`` maps point ids to ``(cycles, stats sha256)``.  Without
    it (a shifted seed has no reference) the first result seen for a
    point becomes its expectation, so every later sweep and warm pass
    must repeat it exactly.  Kernel oracles and coherence invariants are
    checked inside the simulation path itself (``verify=True``); a spec
    failing them raises and arrives here as an error.
    """

    def __init__(
        self, expected: Optional[Dict[str, Tuple[int, str]]] = None
    ) -> None:
        self.expected = expected
        self.first: Dict[str, Tuple[int, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, pid: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{pid}: {why}")

    def check(
        self,
        specs,
        results: Dict[RunSpec, MachineStats],
        errors: Optional[Dict[RunSpec, str]] = None,
    ) -> None:
        for spec in specs:
            pid = point_id(spec)
            self.attempted += 1
            stats = results.get(spec)
            if stats is None:
                self.fail(pid, (errors or {}).get(spec, "no result"))
                continue
            got = (stats.cycles, stats_digest(stats))
            self.first.setdefault(pid, got)
            want = (self.expected if self.expected is not None
                    else self.first).get(pid)
            if want is None:
                self.fail(pid, "no reference")
            elif tuple(want) != got:
                self.fail(pid, f"got {got}, expected {tuple(want)}")

    def digest(self) -> str:
        """sha256 over every point's (cycles, stats sha256)."""
        lines = "".join(
            f"{pid} {cycles} {sha}\n"
            for pid, (cycles, sha) in sorted(self.first.items())
        )
        return hashlib.sha256(lines.encode()).hexdigest()


@dataclass
class SweepResult:
    """One cold sweep and the warm passes after it (queued only)."""

    seconds: float
    instructions: int
    latencies_ms: List[float]
    warm_seconds: List[float]
    results: Dict[RunSpec, MachineStats]
    #: perf_counter bounds of the cold sweep and of each warm pass.
    cold: Tuple[float, float] = (0.0, 0.0)
    warm: List[Tuple[float, float]] = field(default_factory=list)
    #: Wall time of the worker thread (queued workloads only).
    worker_s: float = 0.0


def _grid_cold(specs):
    """Serial, storeless sweep; a failing spec is isolated and reported."""
    executor = Executor(jobs=1)
    errors: Dict[RunSpec, str] = {}
    began = time.perf_counter()
    try:
        results = executor.run_sweep(specs)
    except Exception:  # noqa: BLE001 — re-run spec by spec to isolate it
        results = {}
        for spec in specs:
            try:
                results[spec] = executor.run(spec)
            except Exception as exc:  # noqa: BLE001 — counted as failed
                errors[spec] = repr(exc)
    ended = time.perf_counter()
    # The serial executor holds spec i's result once specs 0..i have
    # simulated, so time-to-result is the running sum of their walls.
    walls = [t.wall_time_s for t in executor.telemetry
             if t.source == "simulated"]
    latencies = [1e3 * s for s in itertools.accumulate(walls)]
    return results, errors, (began, ended), latencies, 0.0


def _queued_cold(specs, queue_dir: Path, store_dir: Path):
    """Submit through ``queue://`` and drain with one worker thread."""
    url = f"queue://{queue_dir}"
    executor = Executor(
        backend=url, store=ResultStore(store_dir),
        queue_timeout_s=QUEUE_TIMEOUT_S,
    )
    worker_wall = [0.0]

    def drain() -> None:
        began = time.perf_counter()
        try:
            worker_loop(
                WorkQueue.from_url(url), ResultStore(store_dir),
                max_tasks=len(specs), idle_exit_s=WORKER_IDLE_EXIT_S,
            )
        finally:
            worker_wall[0] = time.perf_counter() - began

    worker = threading.Thread(target=drain, name="bench-worker",
                              daemon=True)
    worker.start()
    errors: Dict[RunSpec, str] = {}
    submitted = time.time()
    began = time.perf_counter()
    try:
        results = executor.run_sweep(specs)
    except SimulationError as exc:
        results = {}
        store = ResultStore(store_dir)
        for spec in specs:
            stats = store.load(spec.digest())
            if stats is None:
                errors[spec] = repr(exc)
            else:
                results[spec] = stats
    ended = time.perf_counter()
    worker.join(QUEUE_TIMEOUT_S)
    if worker.is_alive():
        raise RuntimeError("queue worker thread did not stop")
    latencies = [1e3 * (t.created - submitted) for t in executor.telemetry
                 if t.source == "queue"]
    return results, errors, (began, ended), latencies, worker_wall[0]


def _warm(specs, store_dir: Path, checker: Checker):
    """Fresh executors re-serve the sweep from the store."""
    seconds, bounds = [], []
    for _ in range(WARM_PASSES):
        executor = Executor(store=ResultStore(store_dir))
        began = time.perf_counter()
        served = executor.run_sweep(specs)
        ended = time.perf_counter()
        seconds.append(ended - began)
        bounds.append((began, ended))
        checker.check(specs, served)
        for _ in range(len(specs) - executor.store_hits):
            checker.fail("warm pass", "not served from the store")
    return seconds, bounds


def run_once(workload: Workload, tmp_base: Path,
             checker: Checker) -> SweepResult:
    """One cold sweep of ``workload`` plus any warm passes, checked."""
    root = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_base))
    try:
        specs = workload.specs
        store_dir = root / "store"
        warm_seconds, warm_bounds = [], []
        if workload.queued:
            results, errors, cold, latencies, worker_s = _queued_cold(
                specs, root / "queue", store_dir)
        else:
            results, errors, cold, latencies, worker_s = _grid_cold(specs)
        checker.check(specs, results, errors)
        if workload.queued:
            # Failed specs are already counted; the warm passes re-serve
            # the rest.
            served = [spec for spec in specs if spec in results]
            warm_seconds, warm_bounds = _warm(served, store_dir, checker)
        return SweepResult(
            seconds=cold[1] - cold[0],
            instructions=sum(s.total_instructions for s in results.values()),
            latencies_ms=latencies,
            warm_seconds=warm_seconds,
            results=results,
            cold=cold,
            warm=warm_bounds,
            worker_s=worker_s,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


def measure(workload: Workload, seconds: float, tmp_base: Path,
            checker: Checker) -> List[SweepResult]:
    """Repeat :func:`run_once` while another one fits in ``seconds``.

    Runs at least once; stops when repeating the last iteration would
    end past ``seconds``, so a run overshoots by at most one iteration's
    variation instead of a whole iteration.
    """
    sweeps = []
    began = time.perf_counter()
    while True:
        started = time.perf_counter()
        sweeps.append(run_once(workload, tmp_base, checker))
        ended = time.perf_counter()
        if ended - began + (ended - started) > seconds:
            return sweeps
