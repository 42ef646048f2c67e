"""Sweep service: the executor/store pair as a multi-host backend.

The run layer already makes every simulation a content-addressed
value (:class:`~repro.sim.executor.RunSpec` digests keying a
:class:`~repro.sim.store.ResultStore`).  This package promotes that
pair into an always-on service:

* :class:`~repro.service.queue.WorkQueue` — a file-based work queue
  (``queue://<dir>``) with atomic-rename claims and lease/requeue-on-
  timeout semantics, so N independent worker processes drain one
  sweep and stragglers are retried;
* :mod:`~repro.service.worker` — the ``repro worker`` drain loop:
  claim, simulate the claimed file's specs on every usable CPU,
  persist to the shared store in submission order, acknowledge;
* :class:`~repro.service.server.SweepServer` — a stdlib-only asyncio
  HTTP frontend (``repro serve``) answering spec-digest queries from
  the store, enqueueing misses, and streaming batched results;
* :class:`~repro.service.client.SweepClient` — a typed client that
  submits a :class:`~repro.sim.executor.Sweep`, polls, streams, and
  reconstructs :class:`~repro.sim.stats.MachineStats` identically to
  a local run.

Determinism is the contract that makes this safe: a spec's result is
a pure function of its digest, so any worker on any host produces the
same record (byte-identical apart from provenance), racing writers
are harmless, and a warm store answers without simulating.
"""

from repro.service.client import SweepClient
from repro.service.queue import WorkQueue, parse_queue_url
from repro.service.server import SweepServer
from repro.service.worker import worker_loop

__all__ = [
    "SweepClient",
    "SweepServer",
    "WorkQueue",
    "parse_queue_url",
    "worker_loop",
]
