"""File-based work queue with lease/requeue-on-timeout semantics.

One queue directory is the rendezvous for a whole sweep: any number
of submitters enqueue :class:`~repro.sim.executor.RunSpec` payloads,
any number of ``repro worker`` processes (on any host sharing the
filesystem) drain them.  No daemon owns the queue — every mutation is
a single atomic filesystem operation, so crashed participants never
wedge it.

Layout::

    <root>/
      pending/<seq>-<digest>.json          submitted, unclaimed tasks
      leased/<seq>-<digest>.<nonce>.json   claimed tasks, with lease
                                           metadata
      spans/<actor>.jsonl                  sweep-trace sidecars (see
                                           :mod:`repro.obs.sweeptrace`)
      workers/<worker_id>.json             worker heartbeat snapshots

``<seq>`` is the submit time in nanoseconds, zero-padded to a fixed
width, so name order is submission order and a claim serves tasks
first-in first-out from one directory listing — no payload reads, no
per-entry ``stat``.  Equal times (two submitters on one clock tick)
fall back to digest order, which is deterministic.  A task keeps its
``<seq>`` through lease, nack and requeue, so a retried task goes back
to its original place in line.

A task's payload is its spec (plus the digest, submission time, and —
for traced sweeps — the sweep's trace id).  :meth:`WorkQueue.submit_many`
additionally publishes *batch* files (``<seq>-batch-<sha>.json``)
carrying up to N specs each; a batch claims/acks/nacks/requeues as one
unit, and the worker runs its members one by one, saving each record
as soon as it finishes.  The ``queue_batch_size`` histogram records
specs-per-file either way.
The state machine:

* **submit** — atomic publish into ``pending/`` (temp file +
  ``os.replace``).  Submitting a digest that is already pending or
  leased is a no-op, so many clients can submit overlapping sweeps.
* **claim** — ``os.rename(pending/<s>-<d>.json,
  leased/<s>-<d>.<nonce>.json)`` on the lowest-named pending file.
  Rename is atomic and fails for every process but one, so a task can
  never be claimed twice; the winner then rewrites the leased file
  with its identity and a lease deadline.
* **ack** — the worker persisted the result to the shared store;
  unlink the leased file.  The store write happens *before* the ack,
  so a crash between the two leaves a lease that expires and requeues
  — the re-run produces a value-equal record (simulations are
  deterministic), which the next worker skips via the store check.
* **requeue** — anyone (workers between claims, the server on a
  timer, the executor while polling) may call
  :meth:`WorkQueue.requeue_expired`: leased files whose deadline
  passed are renamed back into ``pending/`` under their original
  name.  The nonce in the leased filename keeps a straggler's late
  ``ack`` from deleting a lease now held by the replacement worker.

Telemetry: every transition bumps a ``queue_tasks_total{op=...}``
counter in the queue's :class:`~repro.obs.metrics.MetricsRegistry`
(submitted/claimed/acked/nacked/requeued/poisoned), and
:meth:`WorkQueue.counts` serves pending/leased depths from
registry-backed tallies maintained incrementally by this instance's
own operations — refreshed by a directory scan at most once per
``counts_ttl_s`` (other processes mutate the same directories), or on
demand with ``counts(verify=True)`` / :meth:`verify_counts`, the
``--verify`` cross-check.  When an :class:`~repro.obs.bus.EventBus`
is attached (``obs=``), transitions additionally emit
:class:`~repro.obs.events.TaskPhase` events behind the standard
``wants_service`` zero-allocation guard.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ConfigError
from repro.obs.log import NULL_LOGGER, StructLogger
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.sweeptrace import SpanLog
from repro.sim.executor import RunSpec

__all__ = ["Task", "WorkQueue", "parse_queue_url", "DEFAULT_LEASE_S"]

#: How long a claim holds a task before anyone may requeue it.
DEFAULT_LEASE_S = 120.0

#: How long cached queue depths are served before a rescan (seconds).
DEFAULT_COUNTS_TTL_S = 1.0

#: Digits in the zero-padded submit-time prefix of a task file name.
SEQ_WIDTH = 20

#: URL scheme selecting this backend (``queue:///abs`` or ``queue://rel``).
QUEUE_SCHEME = "queue://"


def parse_queue_url(url: str) -> Path:
    """The directory a ``queue://<dir>`` backend URL names."""
    if not url.startswith(QUEUE_SCHEME):
        raise ConfigError(
            f"unsupported backend URL {url!r} (expected {QUEUE_SCHEME}<dir>)"
        )
    root = url[len(QUEUE_SCHEME):]
    if not root:
        raise ConfigError(f"backend URL {url!r} names no directory")
    return Path(root)


def _task_digest(stem: str) -> str:
    """The digest a task file stem names (``<seq>-<digest>`` or bare).

    Bare ``<digest>`` stems are files written by hand or by older
    submitters; they still claim, in name order.
    """
    seq, sep, digest = stem.partition("-")
    if sep and len(seq) == SEQ_WIDTH and seq.isdigit():
        return digest
    return stem


def _task_names(directory: Path) -> List[str]:
    """Task file names in ``directory``, in claim order (temp files skipped)."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(
        name for name in names
        if name.endswith(".json") and not name.startswith(".")
    )


@dataclass(frozen=True)
class Task:
    """One claimed unit of work (hold it only between claim and ack).

    A task is normally one spec; :meth:`WorkQueue.submit_many` also
    publishes *batch* tasks — one queue file carrying several specs —
    in which case :attr:`members` lists every ``(digest, spec)`` pair
    (in submission order), :attr:`digest` is the batch's content id
    (``batch-<sha>``), and :attr:`spec` echoes the first member for
    display.  Batches claim, ack, nack, and requeue as one unit.
    """

    digest: str
    spec: RunSpec
    lease_path: Path
    trace_id: str = ""  # sweep trace the submitter threaded through
    members: Tuple[Tuple[str, RunSpec], ...] = ()

    @property
    def is_batch(self) -> bool:
        return bool(self.members)


class WorkQueue:
    """Shared-directory task queue of :class:`RunSpec` payloads."""

    def __init__(
        self,
        root: Path,
        lease_s: float = DEFAULT_LEASE_S,
        metrics: Optional[MetricsRegistry] = None,
        logger: Optional[StructLogger] = None,
        obs: Optional[Any] = None,
        counts_ttl_s: float = DEFAULT_COUNTS_TTL_S,
    ) -> None:
        if lease_s <= 0:
            raise ConfigError(f"lease_s must be > 0, got {lease_s}")
        self.root = Path(root)
        self.lease_s = lease_s
        self.pending_dir = self.root / "pending"
        self.leased_dir = self.root / "leased"
        self._nonce = 0
        self._last_seq = 0
        self.metrics = metrics if metrics is not None else get_registry()
        self.logger = (logger or NULL_LOGGER).bind(queue=str(self.root))
        self.obs = obs
        self.counts_ttl_s = counts_ttl_s
        self._tasks_total = self.metrics.counter(
            "queue_tasks_total",
            "Queue state transitions by operation",
            labelnames=("op",),
        )
        self._pending_gauge = self.metrics.gauge(
            "queue_pending_depth", "Unclaimed tasks in the queue",
            labelnames=("queue",),
        )
        self._leased_gauge = self.metrics.gauge(
            "queue_leased_depth", "Claimed (leased) tasks in the queue",
            labelnames=("queue",),
        )
        self._batch_size_hist = self.metrics.histogram(
            "queue_batch_size",
            "Specs per submitted queue file (1 = unbatched)",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        )
        # Instance-local depth cache: None until the first scan; then
        # maintained incrementally by this instance's own transitions
        # and refreshed by TTL (other processes share the directory).
        self._depth: Optional[Dict[str, int]] = None
        self._scanned_at = 0.0
        self._span_log: Optional[SpanLog] = None

    @classmethod
    def from_url(
        cls, url: str, lease_s: float = DEFAULT_LEASE_S, **kwargs: Any
    ) -> "WorkQueue":
        """Construct from a ``queue://<dir>`` backend URL."""
        return cls(parse_queue_url(url), lease_s=lease_s, **kwargs)

    # -- telemetry plumbing ----------------------------------------------

    def _count(self, op: str, pending_delta: int, leased_delta: int) -> None:
        """One transition: bump the op counter, track the depths."""
        self._tasks_total.inc(op=op)
        if self._depth is not None:
            self._depth["pending"] = max(
                0, self._depth["pending"] + pending_delta
            )
            self._depth["leased"] = max(
                0, self._depth["leased"] + leased_delta
            )
            self._publish_depth()

    def _publish_depth(self) -> None:
        if self._depth is not None:
            queue = str(self.root)
            self._pending_gauge.set(self._depth["pending"], queue=queue)
            self._leased_gauge.set(self._depth["leased"], queue=queue)

    def _phase(
        self, phase: str, digest: str, actor: str, trace_id: str
    ) -> None:
        obs = self.obs
        if obs is not None and obs.wants_service:
            from repro.obs.events import TaskPhase

            obs.emit(TaskPhase(
                ts=time.time(), digest=digest, phase=phase,
                actor=actor, trace_id=trace_id,
            ))

    def span_log(self, actor: str = "queue") -> SpanLog:
        """The sweep-trace sidecar writer for ``actor`` in this queue."""
        if self._span_log is None or self._span_log.actor != actor:
            self._span_log = SpanLog(self.root, actor)
        return self._span_log

    # -- submit ----------------------------------------------------------

    def submit(
        self,
        spec: RunSpec,
        digest: Optional[str] = None,
        trace_id: str = "",
    ) -> bool:
        """Enqueue one spec; False if its digest is already in flight.

        ``digest`` may be passed to spare re-hashing when the caller
        (the executor, the server) already resolved it.  ``trace_id``
        threads a sweep-scoped trace through the payload: claimed
        tasks carry it, the worker stamps it into the stored record's
        provenance, and an ``enqueued`` span lands in the queue's
        trace sidecar (see :mod:`repro.obs.sweeptrace`).
        """
        digest = digest or spec.digest()
        return self.submit_many(
            [spec], 1, digests=[digest], trace_id=trace_id
        ) == 1

    def submit_many(
        self,
        specs: Sequence[RunSpec],
        batch_size: int,
        digests: Optional[Sequence[str]] = None,
        trace_id: str = "",
    ) -> int:
        """Enqueue specs as files of up to ``batch_size`` specs each.

        Files are published in spec order, each with a later ``<seq>``
        than the one before, so workers claim them in that order.  One
        queue file per group keeps the filesystem traffic (and the
        claim/ack round-trips) at ``N / batch_size`` instead of ``N``;
        the claiming worker still runs and saves each member on its
        own, so results stream back in submission order.  A group of
        one is published in the plain single-spec shape.  The batch
        digest (``batch-<sha>`` over the member digests) keys the
        file; a group or spec whose digest is already pending or
        leased is skipped, so resubmitting is a no-op.  ``digests``
        optionally provides pre-computed member digests (parallel to
        ``specs``).  Returns how many *specs* were newly queued.
        """
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        specs = list(specs)
        if digests is None:
            digests = [spec.digest() for spec in specs]
        else:
            digests = list(digests)
            if len(digests) != len(specs):
                raise ConfigError(
                    f"{len(digests)} digests for {len(specs)} specs"
                )
        self.pending_dir.mkdir(parents=True, exist_ok=True)
        self.leased_dir.mkdir(parents=True, exist_ok=True)
        in_flight = self._in_flight_digests()
        queued = 0
        for base in range(0, len(specs), batch_size):
            group = list(zip(digests[base:base + batch_size],
                             specs[base:base + batch_size]))
            payload: Dict[str, Any] = {"enqueued": time.time()}
            if len(group) == 1:
                digest, spec = group[0]
                payload["spec"] = spec.to_dict()
            else:
                digest = "batch-" + hashlib.sha256(
                    "".join(d for d, _ in group).encode("utf-8")
                ).hexdigest()[:40]
                payload["batch"] = [
                    {"digest": d, "spec": spec.to_dict()}
                    for d, spec in group
                ]
            if digest in in_flight:
                continue
            in_flight.add(digest)
            payload["digest"] = digest
            if trace_id:
                payload["trace"] = {"id": trace_id}
            self._publish_pending(digest, payload)
            queued += len(group)
            self._count("submitted", +1, 0)
            self._batch_size_hist.observe(float(len(group)))
            self.logger.debug(
                "submit" if len(group) == 1 else "submit-batch",
                digest=digest[:18], size=len(group), trace_id=trace_id,
            )
            self._phase("enqueued", digest, "queue", trace_id)
            if trace_id:
                for member, _ in group:
                    self.span_log().record("enqueued", member, trace_id)
        return queued

    def _publish_pending(self, digest: str, payload: Dict[str, Any]) -> None:
        """Atomically land one payload as ``pending/<seq>-<digest>.json``.

        ``<seq>`` is the submit time in nanoseconds, forced strictly
        increasing within this instance so back-to-back submits on a
        coarse clock still keep their order.
        """
        seq = max(time.time_ns(), self._last_seq + 1)
        self._last_seq = seq
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.pending_dir), prefix=f".{digest[:12]}.",
            suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(
                tmp_name,
                self.pending_dir / f"{seq:0{SEQ_WIDTH}d}-{digest}.json",
            )
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def submit_sweep(
        self, specs: Iterable[RunSpec], trace_id: str = ""
    ) -> int:
        """Enqueue every spec; returns how many were newly queued."""
        return self.submit_many(list(specs), 1, trace_id=trace_id)

    def _in_flight_digests(self) -> Set[str]:
        """Digests pending or leased right now (one listing per dir)."""
        return {
            _task_digest(name.split(".", 1)[0])
            for directory in (self.pending_dir, self.leased_dir)
            for name in _task_names(directory)
        }

    def _in_flight(self, digest: str) -> bool:
        return digest in self._in_flight_digests()

    # -- claim / ack -----------------------------------------------------

    def claim(
        self,
        worker_id: str = "",
        exclude: Collection[str] = (),
    ) -> Optional[Task]:
        """Atomically take one pending task, or None if none remain.

        The rename is the claim; losing a race for one task just moves
        on to the next.  The winner stamps the leased file with its
        identity and deadline (sweepers fall back to the file's mtime
        if that rewrite never lands).  ``exclude`` digests are skipped
        without claiming — workers pass the specs they already failed,
        so a poison task stays pending for *other* workers instead of
        livelocking this one (a nacked task keeps its place at the
        head of the line, so it would otherwise be the very next claim
        again).

        Tasks are served in submission order: pending names start with
        the zero-padded submit time, so the claim is the first name in
        one sorted listing (see the module docstring).
        """
        for name in _task_names(self.pending_dir):
            stem = name[: -len(".json")]
            digest = _task_digest(stem)
            if digest in exclude:
                continue
            self._nonce += 1
            nonce = f"{os.getpid()}-{self._nonce}-{time.time_ns() % 10**9}"
            lease_path = self.leased_dir / f"{stem}.{nonce}.json"
            try:
                os.rename(self.pending_dir / name, lease_path)
            except OSError:
                continue  # someone else won this task
            task = self._load_task(digest, lease_path)
            if task is None:
                # Unreadable payload: drop the lease rather than loop
                # on a poison task forever.
                try:
                    os.unlink(lease_path)
                except OSError:
                    pass
                self._count("poisoned", -1, 0)
                self.logger.warning(
                    "poison-drop", digest=digest[:12], worker_id=worker_id
                )
                self._phase("poisoned", digest, worker_id or "queue", "")
                continue
            self._stamp_lease(task, worker_id)
            self._count("claimed", -1, +1)
            self.logger.debug(
                "claim", digest=digest[:12], worker_id=worker_id,
                trace_id=task.trace_id,
            )
            self._phase(
                "claimed", digest, worker_id or "queue", task.trace_id
            )
            return task
        return None

    def _load_task(self, digest: str, path: Path) -> Optional[Task]:
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            trace_id = str((payload.get("trace") or {}).get("id", ""))
            if "batch" in payload:
                members = tuple(
                    (str(entry["digest"]), RunSpec.from_dict(entry["spec"]))
                    for entry in payload["batch"]
                )
                if not members:
                    return None
                return Task(
                    digest=digest, spec=members[0][1], lease_path=path,
                    trace_id=trace_id, members=members,
                )
            spec = RunSpec.from_dict(payload["spec"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None
        return Task(
            digest=digest, spec=spec, lease_path=path, trace_id=trace_id
        )

    def _stamp_lease(self, task: Task, worker_id: str) -> None:
        """Rewrite the leased file with holder identity + deadline."""
        import platform

        payload: Dict[str, Any] = {
            "digest": task.digest,
            "lease": {
                "worker_id": worker_id,
                "host": platform.node(),
                "pid": os.getpid(),
                "claimed": time.time(),
                "deadline": time.time() + self.lease_s,
            },
        }
        if task.members:
            # A batch lease must keep its member list: an expired
            # lease renames back to pending, and the next claimer
            # re-reads the payload.
            payload["batch"] = [
                {"digest": digest, "spec": spec.to_dict()}
                for digest, spec in task.members
            ]
        else:
            payload["spec"] = task.spec.to_dict()
        if task.trace_id:
            payload["trace"] = {"id": task.trace_id}
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.leased_dir), prefix=".lease.", suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp_name, task.lease_path)
        except OSError:
            pass

    def ack(self, task: Task) -> None:
        """Mark a claimed task done (call only after the store save).

        A missing lease file means the lease expired and the task was
        requeued; that is not an error — the result is already in the
        store, and the requeued copy will be skipped by the next
        worker's store check.  (A late ack of a requeued task is not
        counted: the nonce-named unlink fails, so the replacement's
        lease — and the leased depth — stays intact.)
        """
        try:
            os.unlink(task.lease_path)
        except OSError:
            return
        self._count("acked", 0, -1)
        self.logger.debug("ack", digest=task.digest[:12])

    def nack(self, task: Task) -> None:
        """Return a claimed task to pending immediately (failed run).

        The task keeps its original place in line: its lease name
        starts with its pending name's ``<seq>-<digest>`` stem.
        """
        stem = task.lease_path.name.split(".", 1)[0]
        try:
            os.rename(task.lease_path, self.pending_dir / f"{stem}.json")
        except OSError:
            return
        self._count("nacked", +1, -1)
        self.logger.info(
            "nack", digest=task.digest[:12], trace_id=task.trace_id
        )
        self._phase("nacked", task.digest, "queue", task.trace_id)

    # -- lease expiry ----------------------------------------------------

    def requeue_expired(self, now: Optional[float] = None) -> List[str]:
        """Move every expired lease back to pending; returns digests.

        The deadline comes from the lease stamp; an unstamped or
        unreadable lease falls back to the file's mtime plus the
        queue's lease window.  A requeued task goes back under its
        original pending name, so it keeps its place in line.  If a
        fresh submit of the same digest races the requeue, both copies
        stay pending; they are value-identical, and whichever is
        claimed second is skipped by the worker's store check.
        """
        now = time.time() if now is None else now
        requeued: List[str] = []
        for name in _task_names(self.leased_dir):
            path = self.leased_dir / name
            stem = name.split(".", 1)[0]
            digest = _task_digest(stem)
            deadline = None
            trace_id = ""
            try:
                with open(path, encoding="utf-8") as fh:
                    payload = json.load(fh)
                deadline = (payload.get("lease") or {}).get("deadline")
                trace_id = str((payload.get("trace") or {}).get("id", ""))
            except (OSError, ValueError, AttributeError):
                pass
            if deadline is None:
                try:
                    deadline = path.stat().st_mtime + self.lease_s
                except OSError:
                    continue  # vanished: acked under us
            if now <= float(deadline):
                continue
            try:
                os.rename(path, self.pending_dir / f"{stem}.json")
                requeued.append(digest)
            except OSError:
                continue  # acked or requeued by someone else
            self._count("requeued", +1, -1)
            self.logger.info(
                "requeue-expired", digest=digest[:12], trace_id=trace_id
            )
            self._phase("requeued", digest, "queue", trace_id)
            if trace_id:
                self.span_log().record("requeued", digest, trace_id)
        return requeued

    # -- introspection ---------------------------------------------------

    def _scan_counts(self) -> Dict[str, int]:
        """Ground truth by directory scan (the pre-telemetry counts)."""
        return {
            "pending": len(_task_names(self.pending_dir)),
            "leased": len(_task_names(self.leased_dir)),
        }

    def counts(self, verify: bool = False) -> Dict[str, int]:
        """``{"pending": n, "leased": n}`` — tracked, scan-refreshed.

        Served from the registry-backed depth tallies this instance
        maintains on its own transitions; a directory scan refreshes
        them when they have never been primed, when ``counts_ttl_s``
        has elapsed since the last scan (other processes move files
        too), or always with ``verify=True``.
        """
        now = time.monotonic()
        if (
            verify
            or self._depth is None
            or now - self._scanned_at > self.counts_ttl_s
        ):
            self._depth = self._scan_counts()
            self._scanned_at = now
            self._publish_depth()
        return dict(self._depth)

    def verify_counts(self) -> Dict[str, Any]:
        """Cross-check the tracked depths against a directory scan.

        Returns ``{"tracked", "scan", "match"}`` and resyncs the
        tracked depths to the scan — the ``repro status --verify`` /
        ``/v1/metrics?verify=1`` view.  A mismatch is not corruption:
        tracked depths lag other processes' transitions by up to the
        scan TTL by design.
        """
        tracked = dict(self._depth) if self._depth is not None else None
        scan = self._scan_counts()
        self._depth = dict(scan)
        self._scanned_at = time.monotonic()
        self._publish_depth()
        return {
            "tracked": tracked,
            "scan": scan,
            "match": tracked is None or tracked == scan,
        }

    def is_empty(self) -> bool:
        counts = self.counts(verify=True)
        return counts["pending"] == 0 and counts["leased"] == 0

    def pending_digests(self) -> List[str]:
        """Digests currently pending (claim order), leased excluded."""
        return [
            _task_digest(name[: -len(".json")])
            for name in _task_names(self.pending_dir)
        ]

    def describe(self) -> Dict[str, Any]:
        return {"root": str(self.root), "lease_s": self.lease_s,
                **self.counts()}
