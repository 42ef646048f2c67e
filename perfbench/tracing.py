"""Traced run: spans around public calls into each layer, plus a profile.

:class:`Tracer` wraps, from outside the package, the public calls that
cross a layer boundary (``make_kernel``, ``KernelBase.allocate`` and
``program``, ``Machine.__init__``/``add_program``/``run``/``batch_step``,
``verify_run``, ``BatchRunner.run``, the ``ResultStore`` reads and
writes, and the ``WorkQueue`` operations).  Each call becomes a span
(name, thread, start, end, parent span); spans stay in memory until
:meth:`Tracer.dump`.  The queue's own counts (files published, tasks
requeued) are read from a fresh default ``MetricsRegistry`` installed
for the traced interval.

The layers inside a simulation (core, GSU, coherence, caches, memory
image, ISA, kernel bodies, the machine loop) have no public boundary,
so the simulation spans run under a per-thread ``cProfile`` whose
function self times and call counts are bucketed through
:data:`MODULE_LAYERS`.  A builtin's time and calls go to the layer of
the function that called it.
"""

from __future__ import annotations

import cProfile
import functools
import itertools
import json
import pstats
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
import repro.kernels.registry as registry
import repro.sim.runner as runner
from repro.kernels.common import KernelBase
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.service.queue import WorkQueue
from repro.sim.batch import BatchRunner
from repro.sim.machine import Machine
from repro.sim.store import ResultStore

__all__ = [
    "MODULE_LAYERS", "PROFILED_LAYERS", "Tracer", "layer_metrics", "unit_of",
]

PACKAGE = Path(repro.__file__).resolve().parent

#: Module (relative to the ``repro`` package) or package prefix -> layer.
MODULE_LAYERS: Dict[str, str] = {
    "core/core.py": "core",
    "core/lsu.py": "core",
    "core/ports.py": "core",
    "core/gsu.py": "core.gsu",
    "core/glsc.py": "core.gsu",
    "mem/coherence.py": "mem.coherence",
    "mem/protocol.py": "mem.coherence",
    "mem/messages.py": "mem.coherence",
    "mem/reservations.py": "mem.coherence",
    "mem/cache.py": "mem.cache",
    "mem/l2.py": "mem.cache",
    "mem/directory.py": "mem.cache",
    "mem/dram.py": "mem.cache",
    "mem/prefetch.py": "mem.cache",
    "mem/image.py": "mem.image",
    "mem/layout.py": "mem.image",
    "isa/": "isa",
    "kernels/": "kernels",
    "workloads/": "workloads",
    "sim/machine.py": "sim.machine",
    "sim/batch.py": "sim.machine",
    "sim/stats.py": "sim.machine",
    "sim/config.py": "sim.machine",
}

#: Layers reported from the profile, with self time and calls/kinstr.
PROFILED_LAYERS = (
    "core", "core.gsu", "mem.coherence", "mem.cache", "mem.image",
    "isa", "kernels",
)

#: Span name -> the metric group it is timed under.  A span nested in
#: another span of the same group is not counted twice.
GROUPS = {
    "make_kernel": "workloads.gen",
    "allocate": "mem.image.alloc",
    "program": "isa.program",
    "add_program": "isa.program",
    "Machine": "sim.machine.build",
    "run": "sim.machine.run",
    "batch_step": "sim.machine.run",
    "verify_run": "sim.runner.verify",
    "BatchRunner.run": "service.worker.batch",
    "save": "sim.store.save",
    "load": "sim.store.load",
    "load_record": "sim.store.load",
    "submit": "service.queue.submit",
    "submit_many": "service.queue.submit",
    "claim": "service.queue.claim",
    "ack": "service.queue.ack",
    "nack": "service.queue.ack",
    "requeue_expired": "service.queue.requeue",
}

#: The traced run's own accounting limits: the bucketed profile must
#: cover the simulation interval within ACCOUNT_TOL of it, and what no
#: layer claims must stay under OTHER_MAX of it.
ACCOUNT_TOL = 0.10
OTHER_MAX = 0.05


_UNIT_SUFFIXES = (
    ("_s", "s"), ("_ratio", "fraction"), ("_frac", "fraction"),
    ("_per_kinstr", "calls/kinstr"), ("_per_lane", "us"),
    (".kinstr", "kinstr"), (".kcycles", "kcycles"), (".lanes", "lanes"),
)


def unit_of(metric: str) -> str:
    """The unit a per-layer metric is printed in."""
    for suffix, unit in _UNIT_SUFFIXES:
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None outside the map."""
    try:
        rel = Path(filename).resolve().relative_to(PACKAGE).as_posix()
    except ValueError:
        return None
    for prefix, layer in MODULE_LAYERS.items():
        if rel == prefix or (prefix.endswith("/") and rel.startswith(prefix)):
            return layer
    return None


@dataclass
class Span:
    """One traced call; ``parent`` is the enclosing span in its thread."""

    id: int
    name: str
    thread: str
    start: float
    end: float
    parent: int
    key: str = ""
    detail: Any = None


def _digest(args, kwargs) -> str:
    return str(args[1]) if len(args) > 1 else str(kwargs["digest"])


def _found(args, kwargs, result) -> bool:
    return result is not None


class Tracer:
    """Installs span wrappers and per-thread profilers; a context manager."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Default registry while tracing; the queues made then count here.
        self.metrics = MetricsRegistry()
        self._previous_metrics: Optional[MetricsRegistry] = None

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._previous_metrics = set_registry(self.metrics)
        wrap = self._wrap
        wrap(registry, "make_kernel", "make_kernel")
        for cls in registry.KERNELS.values():
            wrap(cls, "allocate", "allocate")
        wrap(KernelBase, "program", "program")
        wrap(Machine, "__init__", "Machine")
        wrap(Machine, "add_program", "add_program")
        wrap(Machine, "run", "run", simulate=True)
        wrap(Machine, "batch_step", "batch_step", simulate=True)
        wrap(runner, "verify_run", "verify_run")
        wrap(BatchRunner, "run", "BatchRunner.run")
        wrap(ResultStore, "save", "save", key=_digest)
        wrap(ResultStore, "load", "load", key=_digest, detail=_found)
        wrap(ResultStore, "load_record", "load_record", key=_digest,
             detail=_found)
        wrap(WorkQueue, "submit", "submit")
        wrap(WorkQueue, "submit_many", "submit_many")
        wrap(WorkQueue, "claim", "claim", detail=_found)
        wrap(WorkQueue, "ack", "ack")
        wrap(WorkQueue, "nack", "nack")
        wrap(WorkQueue, "requeue_expired", "requeue_expired")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        set_registry(self._previous_metrics)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _profile(self) -> cProfile.Profile:
        profile = getattr(self._local, "profile", None)
        if profile is None:
            profile = self._local.profile = cProfile.Profile()
            with self._lock:
                self._profiles.append(profile)
        return profile

    def _wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        simulate: bool = False,
        key: Optional[Callable] = None,
        detail: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``key(args, kwargs)`` labels the span (a store digest) and
        ``detail(args, kwargs, result)`` records its outcome; a call
        that raises records no span.  ``simulate`` spans run under this
        thread's profiler.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            profile = tracer._profile() if simulate else None
            start = time.perf_counter()
            if profile is not None:
                profile.enable()
            try:
                result = original(*args, **kwargs)
            finally:
                if profile is not None:
                    profile.disable()
                end = time.perf_counter()
                stack.pop()
            tracer.spans.append(Span(
                span_id, name, threading.current_thread().name,
                start, end, parent,
                key(args, kwargs) if key is not None else "",
                detail(args, kwargs, result) if detail is not None else None,
            ))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    # -- output ----------------------------------------------------------

    def profile_buckets(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds and calls per layer ("other" for the rest)."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        if not self._profiles:
            return self_s, calls
        stats = pstats.Stats(self._profiles[0])
        for profile in self._profiles[1:]:
            stats.add(profile)
        for (filename, _, _), (_, nc, tt, _, callers) in stats.stats.items():
            layer = layer_of(filename)
            if layer is None and filename == "~" and callers:
                # A builtin: charge each caller's share to its layer.
                for (caller_file, _, _), (c_nc, _, c_tt, _) in callers.items():
                    owner = layer_of(caller_file) or "other"
                    self_s[owner] += c_tt
                    calls[owner] += c_nc
                continue
            self_s[layer or "other"] += tt
            calls[layer or "other"] += nc
        return self_s, calls

    def dump(self, path: Path) -> None:
        """Write every span as JSON (called once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def _outermost(spans: List[Span]) -> List[Span]:
    """The spans not nested inside another span of their own group."""
    by_id = {span.id: span for span in spans}
    kept = []
    for span in spans:
        group = GROUPS[span.name]
        parent = by_id.get(span.parent)
        while parent is not None and GROUPS[parent.name] != group:
            parent = by_id.get(parent.parent)
        if parent is None:
            kept.append(span)
    return kept


def _within(span: Span, bounds) -> bool:
    return any(lo <= span.start <= hi for lo, hi in bounds)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, sweeps, untraced_sweep_s: float
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics per traced sweep, plus accounting problems."""
    n = len(sweeps)
    spans = tracer.spans
    outer = _outermost(spans)
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for span in outer:
        totals[GROUPS[span.name]] += span.end - span.start
        counts[GROUPS[span.name]] += 1

    def seconds(group: str) -> float:
        return totals[group] / n

    def count(group: str) -> float:
        return counts[group] / n

    results = list(sweeps[0].results.values())
    total = lambda attr: sum(getattr(s, attr) for s in results)  # noqa: E731
    kinstr = sum(s.total_instructions for s in results) / 1e3
    lanes = total("gatherlink_elements") + total("scattercond_elements")
    saved = total("l1_accesses_saved_by_combining")

    self_s, calls = tracer.profile_buckets()
    all_calls = sum(calls.values())
    interval = seconds("sim.machine.run")

    metrics: Dict[str, float] = {
        "workloads.gen_s": seconds("workloads.gen"),
        "mem.image.alloc_s": seconds("mem.image.alloc"),
        "isa.program_s": seconds("isa.program"),
        "core.kinstr": kinstr,
        "core.gsu.lanes": lanes,
        "core.gsu.success_ratio": _ratio(
            total("scattercond_successes"), total("scattercond_elements")),
        "core.gsu.combine_ratio": _ratio(
            saved, saved + total("l1_sync_accesses")),
        "core.gsu.us_per_lane": _ratio(1e6 * self_s["core.gsu"] / n, lanes),
        "mem.coherence.invalidations": total("invalidations_sent"),
        "mem.coherence.writebacks": total("writebacks"),
        "mem.coherence.sc_success_ratio": _ratio(
            total("sc_count") - total("sc_failures"), total("sc_count")),
        "mem.cache.l1_accesses": total("l1_accesses"),
        "mem.cache.l1_miss_ratio": _ratio(
            total("l1_misses"), total("l1_accesses")),
        "sim.machine.build_s": seconds("sim.machine.build"),
        "sim.machine.run_s": interval,
        "sim.machine.self_s": self_s["sim.machine"] / n,
        "sim.kcycles": total("cycles") / 1e3,
        "sim.runner.verify_s": seconds("sim.runner.verify"),
        "total.calls_per_kinstr": _ratio(all_calls / n, kinstr),
        "other.self_s": self_s["other"] / n,
    }
    for layer in PROFILED_LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer] / n
        metrics[f"{layer}.calls_per_kinstr"] = _ratio(calls[layer] / n,
                                                      kinstr)

    # Store, queue, worker and executor, from the spans.
    warm_bounds = [b for sweep in sweeps for b in sweep.warm]
    cold_bounds = [sweep.cold for sweep in sweeps]
    warm_loads = [s for s in spans if s.name == "load"
                  and _within(s, warm_bounds)]
    warm_seconds = [t for sweep in sweeps for t in sweep.warm_seconds]
    queue_files = tracer.metrics.get("queue_batch_size")
    queue_ops = tracer.metrics.get("queue_tasks_total")
    claims = [s for s in spans if s.name == "claim"]
    metrics.update({
        "sim.store.save_s": seconds("sim.store.save"),
        "sim.store.saves": count("sim.store.save"),
        "sim.store.load_s": seconds("sim.store.load"),
        "sim.store.loads": count("sim.store.load"),
        "sim.store.warm_s": statistics.median(warm_seconds)
        if warm_seconds else 0.0,
        "sim.store.hit_ratio": _ratio(
            sum(1 for s in warm_loads if s.detail), len(warm_loads)),
        "service.queue.submit_s": seconds("service.queue.submit"),
        "service.queue.files": queue_files.count() / n
        if queue_files is not None else 0.0,
        "service.queue.claim_s": seconds("service.queue.claim"),
        "service.queue.claims": count("service.queue.claim"),
        "service.queue.claim_hit_ratio": _ratio(
            sum(1 for s in claims if s.detail), len(claims)),
        "service.queue.ack_s": seconds("service.queue.ack"),
        "service.queue.requeued": queue_ops.value(op="requeued") / n
        if queue_ops is not None else 0.0,
    })

    # Worker busy: from a claim that got a task to its ack or nack.
    busy = 0.0
    worker_spans = sorted(
        (s for s in spans if s.name in ("claim", "ack", "nack")
         and s.thread != "MainThread"),
        key=lambda s: s.start,
    )
    claimed_at: Optional[float] = None
    for span in worker_spans:
        if span.name == "claim":
            if span.detail:
                claimed_at = span.end
        elif claimed_at is not None:
            busy += span.end - claimed_at
            claimed_at = None
    worker_wall = sum(sweep.worker_s for sweep in sweeps)
    metrics["service.worker.busy_s"] = busy / n
    metrics["service.worker.idle_s"] = max(0.0, worker_wall - busy) / n

    # Executor wait: a record landing in the store -> the executor's read,
    # matched within each cold sweep (every sweep saves the same digests).
    wait = 0.0
    for bounds in cold_bounds:
        in_sweep = [s for s in spans if _within(s, [bounds])]
        saved_at = {s.key: s.end for s in in_sweep
                    if s.name == "save" and s.thread != "MainThread"}
        wait += sum(
            s.end - saved_at[s.key] for s in in_sweep
            if s.name == "load_record" and s.thread == "MainThread"
            and s.detail and s.key in saved_at
        )
    metrics["sim.executor.wait_s"] = wait / n

    traced = statistics.median(sweep.seconds for sweep in sweeps)
    metrics["trace.overhead_frac"] = traced / untraced_sweep_s - 1.0

    problems = []
    profiled = sum(self_s.values()) / n
    if abs(profiled - interval) > ACCOUNT_TOL * interval:
        problems.append(
            f"profiled self time {profiled:.3f}s does not cover the "
            f"simulation interval {interval:.3f}s"
        )
    if self_s["other"] / n > OTHER_MAX * interval:
        problems.append(
            f"other.self_s {self_s['other'] / n:.3f}s exceeds "
            f"{OTHER_MAX:.0%} of the simulation interval {interval:.3f}s"
        )
    return {k: float(v) for k, v in metrics.items()}, problems
