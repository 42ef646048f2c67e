"""Workers draining a queue must be invisible in the results.

The acceptance test of the sweep service: two detached worker
*processes* (the real CLI verb, not an in-process shortcut) drain one
smoke sweep from a ``queue://`` directory, and the store they fill is
byte-identical to a serial in-process run — only provenance (worker
identity, timestamps) may differ.  Alongside it, in-process
``worker_loop`` tests cover the store-skip and poison-spec paths.
"""

import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench.suite import BenchSuite
from repro.obs.log import StructLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.sweeptrace import collect_spans, read_heartbeats
from repro.service.queue import WorkQueue
from repro.service.worker import _usable_cpus, worker_loop
from repro.sim.executor import Executor, RunSpec
from repro.sim.store import ResultStore

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")
SPEC = RunSpec("tms", "tiny", "1x1", 4, "glsc")


def canonical_records(store: ResultStore):
    """digest -> canonical JSON bytes of the record, sans provenance."""
    out = {}
    for digest in store.digests():
        record = store.load_record(digest)
        assert record is not None, f"unreadable record {digest}"
        record.pop("provenance", None)
        record.pop("created", None)
        out[digest] = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode()
    return out


def test_two_worker_processes_drain_smoke_sweep_byte_identical(tmp_path):
    specs = list(BenchSuite.smoke().specs())

    serial_store = ResultStore(tmp_path / "serial")
    Executor(jobs=1, store=serial_store).run_sweep(specs)

    queue_dir = tmp_path / "queue"
    shared_store = ResultStore(tmp_path / "shared")
    WorkQueue(queue_dir).submit_sweep(specs)

    workers = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.harness", "worker",
                f"queue://{queue_dir}",
                "--cache-dir", str(shared_store.root),
                "--worker-id", f"test-worker-{n}",
                "--exit-when-empty", "--quiet",
            ],
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
        )
        for n in range(2)
    ]
    for proc in workers:
        assert proc.wait(timeout=300) == 0

    assert WorkQueue(queue_dir).is_empty()
    serial_records = canonical_records(serial_store)
    shared_records = canonical_records(shared_store)
    assert set(shared_records) == set(serial_records)
    for digest, payload in serial_records.items():
        assert shared_records[digest] == payload, (
            f"record {digest} differs between serial and worker runs"
        )

    # Both workers pulled weight, and each record names its producer.
    producers = {
        shared_store.load_record(d)["provenance"].get("worker_id")
        for d in shared_store.digests()
    }
    assert producers <= {"test-worker-0", "test-worker-1"}
    assert len(producers) == 2, "one worker drained everything"


def test_executor_queue_backend_delegates_to_workers(tmp_path):
    """``Executor(backend="queue://...")`` runs nothing itself."""
    import threading

    store = ResultStore(tmp_path / "store")
    queue_dir = tmp_path / "queue"
    executor = Executor(
        store=store,
        backend=f"queue://{queue_dir}",
        queue_poll_s=0.05,
        queue_timeout_s=120,
    )
    worker = threading.Thread(
        target=worker_loop,
        args=(WorkQueue(queue_dir), store),
        kwargs={"worker_id": "bg", "idle_exit_s": 10, "poll_s": 0.05,
                "max_tasks": 1},
        daemon=True,
    )
    worker.start()

    local = Executor(store=ResultStore(tmp_path / "local")).run(SPEC)
    stats = executor.run(SPEC)
    assert stats == local
    assert executor.counters.queued == 1
    assert executor.counters.simulated == 0
    assert [t.source for t in executor.telemetry] == ["queue"]
    worker.join(timeout=60)
    assert not worker.is_alive()


def test_record_without_journal_line_is_collected_by_the_scan(tmp_path):
    """A put whose journal line is lost still reaches the executor.

    The executor tails the store journal every few milliseconds, but
    the journal is best-effort; the record files are the ground truth.
    A worker whose journal appends all fail must still have its
    results collected by the once-per-``queue_poll_s`` existence scan.
    """
    import threading

    poll_s = 0.3
    queue_dir = tmp_path / "queue"
    store = ResultStore(tmp_path / "store")
    worker_store = ResultStore(store.root)
    worker_store._append_index = lambda entry: None     # journal lost
    saved_at = []
    save = worker_store.save

    def timed_save(*args, **kwargs):
        path = save(*args, **kwargs)
        saved_at.append(time.time())
        return path

    worker_store.save = timed_save
    executor = Executor(
        store=store, backend=f"queue://{queue_dir}",
        queue_poll_s=poll_s, queue_timeout_s=30,
    )
    worker = threading.Thread(
        target=worker_loop,
        args=(WorkQueue(queue_dir), worker_store),
        kwargs={"worker_id": "no-journal", "max_tasks": 1,
                "idle_exit_s": 10},
        daemon=True,
    )
    worker.start()
    stats = executor.run(SPEC)
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert store.journal_size() == 0
    assert stats == Executor().run(SPEC)
    (collected,) = executor.telemetry
    assert collected.source == "queue"
    # One scan period, plus slack for a loaded host.
    assert collected.created - saved_at[0] <= poll_s + 0.25


class TestWorkerLoop:
    def test_idle_sleep_backs_off_and_resets_after_a_claim(
        self, tmp_path, monkeypatch
    ):
        """Empty claims sleep 1 ms, doubling to ``poll_s``; a claim resets.

        Sleeping is stubbed out, so the test sees the worker's schedule
        without waiting for it: after ten empty claims one task lands,
        after ten more another, and the worker stops after both.
        """
        import repro.service.worker as worker_mod

        store = ResultStore(tmp_path / "s")
        queue = WorkQueue(tmp_path / "q")
        arrivals = {10: SPEC, 20: RunSpec("hip", "tiny", "1x1", 4, "glsc")}
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) in arrivals:
                queue.submit(arrivals[len(sleeps)])

        monkeypatch.setattr(worker_mod.time, "sleep", fake_sleep)
        summary = worker_loop(
            queue, store, worker_id="w", poll_s=0.2, max_tasks=2
        )
        assert summary.executed == 2
        ramp = [0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128,
                0.2, 0.2]
        assert sleeps == ramp + ramp

    def test_skips_digests_the_store_already_holds(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        Executor(store=store).run(SPEC)
        queue = WorkQueue(tmp_path / "q")
        queue.submit(SPEC)
        summary = worker_loop(
            queue, store, worker_id="w", exit_when_empty=True
        )
        assert summary.skipped == 1
        assert summary.executed == 0
        assert queue.is_empty()

    def test_survives_a_poison_spec(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        queue = WorkQueue(tmp_path / "q")
        queue.submit(RunSpec("no-such-kernel", "tiny", "1x1", 4, "glsc"))
        queue.submit(SPEC)
        summary = worker_loop(
            queue, store, worker_id="w", exit_when_empty=True
        )
        assert summary.executed == 1
        assert summary.failed == 1
        assert SPEC.digest() in store
        # The failed task was nacked, not lost: it is pending again.
        assert queue.counts()["pending"] == 1


class TestWorkerTelemetry:
    def drain(self, tmp_path, trace_id=""):
        """One worker drains one traced (or untraced) task."""
        registry = MetricsRegistry()
        stream = io.StringIO()
        store = ResultStore(tmp_path / "s", metrics=registry)
        queue = WorkQueue(tmp_path / "q", metrics=registry)
        queue.submit(SPEC, trace_id=trace_id)
        summary = worker_loop(
            queue, store, worker_id="w0", exit_when_empty=True,
            log=StructLogger(stream=stream), heartbeat_s=0.0,
        )
        return summary, registry, stream, store, queue

    def test_worker_metrics_count_claims_and_outcomes(self, tmp_path):
        summary, registry, _, _, _ = self.drain(tmp_path)
        assert summary.executed == 1
        assert registry.get("worker_claims_total").value(
            worker_id="w0"
        ) == 1
        assert registry.get("worker_tasks_total").value(
            worker_id="w0", outcome="executed"
        ) == 1
        assert registry.get("worker_sim_seconds").count(
            worker_id="w0"
        ) == 1
        assert registry.get("store_puts_total").total() == 1

    def test_heartbeat_file_carries_the_counters(self, tmp_path):
        summary, _, _, _, queue = self.drain(tmp_path)
        beats = read_heartbeats(queue.root)
        assert len(beats) == 1
        beat = beats[0]
        assert beat["worker_id"] == "w0"
        assert beat["claims"] == 1
        assert beat["executed"] == 1
        assert beat["failed"] == 0
        assert beat["sim_wall_s"] > 0.0

    def test_contention_series_and_heartbeat_rollup(self, tmp_path):
        # A contended multi-thread point produces nonzero conflict
        # counters; the worker folds them into contention_* series and
        # its heartbeat so the server can aggregate across processes.
        registry = MetricsRegistry()
        store = ResultStore(tmp_path / "s", metrics=registry)
        queue = WorkQueue(tmp_path / "q", metrics=registry)
        contended = RunSpec("tms", "tiny", "4x4", 4, "glsc")
        queue.submit(contended)
        summary = worker_loop(
            queue, store, worker_id="w0", exit_when_empty=True,
            heartbeat_s=0.0,
        )
        stats = store.load_record(contended.digest())["stats"]
        expected = sum(stats["glsc_element_failures"].values())
        assert expected > 0
        assert summary.contention_failed_lanes == expected
        lanes = registry.get("contention_failed_lanes_total")
        assert lanes.total() == expected
        assert registry.get("contention_failure_rate").count(
            worker_id="w0"
        ) == 1
        beat = read_heartbeats(queue.root)[0]
        assert beat["contention_failed_lanes"] == expected
        assert beat["contention_sc_failures"] == stats["sc_failures"]

    def test_single_thread_task_stays_consistent(self, tmp_path):
        # Even a 1x1 point feeds the series (intra-vector aliases can
        # fail lanes without any cross-thread contention); the summary,
        # registry, and heartbeat must agree with the stored stats.
        summary, registry, _, store, queue = self.drain(tmp_path)
        stats = store.load_record(SPEC.digest())["stats"]
        expected = sum(stats["glsc_element_failures"].values())
        assert summary.contention_failed_lanes == expected
        assert registry.get(
            "contention_failed_lanes_total"
        ).total() == expected
        assert registry.get("contention_failure_rate").count(
            worker_id="w0"
        ) == 1
        beat = read_heartbeats(queue.root)[0]
        assert beat["contention_failed_lanes"] == expected

    def test_structured_log_narrates_the_drain(self, tmp_path):
        _, _, stream, _, _ = self.drain(tmp_path)
        records = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        events = [r["event"] for r in records]
        assert "done-task" in events
        done = next(r for r in records if r["event"] == "done-task")
        assert done["worker_id"] == "w0"
        assert done["digest"] == SPEC.digest()[:12]

    def test_traced_drain_leaves_lifecycle_spans(self, tmp_path):
        _, _, _, store, queue = self.drain(tmp_path, trace_id="t1")
        phases = [
            s["phase"] for s in collect_spans(queue.root, trace_id="t1")
        ]
        assert phases == ["enqueued", "claimed", "simulated", "saved"]
        record = store.load_record(SPEC.digest())
        assert record["provenance"]["trace_id"] == "t1"

    def test_untraced_drain_stamps_no_trace_provenance(self, tmp_path):
        _, _, _, store, queue = self.drain(tmp_path)
        record = store.load_record(SPEC.digest())
        assert "trace_id" not in record["provenance"]
        assert collect_spans(queue.root) == []

    def test_failed_task_counts_as_failed_outcome(self, tmp_path):
        registry = MetricsRegistry()
        stream = io.StringIO()
        store = ResultStore(tmp_path / "s", metrics=registry)
        queue = WorkQueue(tmp_path / "q", metrics=registry)
        queue.submit(RunSpec("no-such-kernel", "tiny", "1x1", 4, "glsc"))
        worker_loop(
            queue, store, worker_id="w0", exit_when_empty=True,
            log=StructLogger(stream=stream),
        )
        assert registry.get("worker_tasks_total").value(
            worker_id="w0", outcome="failed"
        ) == 1
        fails = [
            json.loads(line) for line in stream.getvalue().splitlines()
            if json.loads(line)["event"] == "fail"
        ]
        assert len(fails) == 1
        assert fails[0]["level"] == "warning"


class TestPoolDrain:
    """A claimed file's members simulate in the worker's process pool."""

    SPECS = [
        RunSpec("tms", "A", "1x1", 4, "glsc"),
        RunSpec("gbc", "A", "1x1", 4, "glsc"),
        RunSpec("hip", "A", "1x1", 4, "glsc"),
        RunSpec("tms", "A", "1x1", 4, "base"),
    ]

    def test_file_members_drain_in_parallel_byte_identical(self, tmp_path):
        serial_store = ResultStore(tmp_path / "serial")
        Executor(jobs=1, store=serial_store).run_sweep(self.SPECS)

        stream = io.StringIO()
        queue = WorkQueue(tmp_path / "q", metrics=MetricsRegistry())
        store = ResultStore(tmp_path / "pool")
        queue.submit_many(self.SPECS, batch_size=len(self.SPECS))
        summary = worker_loop(
            queue, store, worker_id="w-pool", exit_when_empty=True,
            log=StructLogger(stream=stream),
        )
        assert summary.claims == 1
        assert summary.executed == len(self.SPECS)
        assert canonical_records(store) == canonical_records(serial_store)

        done = [
            record for record in map(json.loads,
                                     stream.getvalue().splitlines())
            if record["event"] == "done-task"
        ]
        # Saved in submission order, each naming the process it ran in.
        assert [r["digest"] for r in done] == [
            spec.digest()[:12] for spec in self.SPECS
        ]
        pids = {r["pid"] for r in done}
        assert os.getpid() not in pids
        if _usable_cpus() >= 2:
            assert len(pids) >= 2
        for spec in self.SPECS:
            provenance = store.load_record(spec.digest())["provenance"]
            assert provenance["worker_id"] == "w-pool"
            assert provenance["worker_pid"] in pids
        assert multiprocessing.active_children() == []

    def test_poison_member_error_comes_back_from_the_pool(self, tmp_path):
        stream = io.StringIO()
        queue = WorkQueue(tmp_path / "q", metrics=MetricsRegistry())
        bad = RunSpec("no-such-kernel", "tiny", "1x1", 4, "glsc")
        queue.submit_many([bad, SPEC], batch_size=2)
        summary = worker_loop(
            queue, ResultStore(tmp_path / "s"), worker_id="w",
            exit_when_empty=True, log=StructLogger(stream=stream),
        )
        assert (summary.failed, summary.executed) == (1, 1)
        (fail,) = [
            record for record in map(json.loads,
                                     stream.getvalue().splitlines())
            if record["event"] == "fail"
        ]
        assert fail["error"].startswith("ConfigError(")
        assert multiprocessing.active_children() == []

    def test_dead_pool_process_is_replaced_not_poisoned(
        self, tmp_path, monkeypatch
    ):
        """A pool process that dies takes no member down with it.

        The second member of the first file kills its pool process on
        its first attempt only.  The worker nacks that file without
        poisoning it, replaces the pool, re-claims the file at once and
        finishes the drain; no lease has to expire.
        """
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the crash hook reaches pool processes by fork")
        from repro.sim import executor as executor_mod

        marker = tmp_path / "crashed-once"
        victim = self.SPECS[1].digest()
        serial = executor_mod.execute_spec

        def crash_once(spec, *args, **kwargs):
            if spec.digest() == victim and not marker.exists():
                marker.touch()
                os._exit(1)
            return serial(spec, *args, **kwargs)

        monkeypatch.setattr(executor_mod, "execute_spec", crash_once)
        registry = MetricsRegistry()
        queue = WorkQueue(tmp_path / "q", metrics=registry)
        store = ResultStore(tmp_path / "s")
        queue.submit_many(self.SPECS, batch_size=2)    # two files of two
        summary = worker_loop(
            queue, store, worker_id="w", exit_when_empty=True
        )
        assert marker.exists()
        # The first file is claimed twice: before and after the crash.
        assert summary.claims == 3
        assert summary.failed == 0
        assert summary.executed == len(self.SPECS)
        assert registry.get("worker_pool_rebuilds_total").value(
            worker_id="w"
        ) == 1
        assert queue.is_empty()
        for spec in self.SPECS:
            want = json.loads(json.dumps(serial(spec).to_dict()))
            assert store.load_record(spec.digest())["stats"] == want
        assert multiprocessing.active_children() == []

    def test_worker_id_does_not_leak_into_later_executors(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", metrics=MetricsRegistry())
        queue.submit(SPEC)
        worker_loop(queue, ResultStore(tmp_path / "s"), worker_id="w-old",
                    exit_when_empty=True)
        store = ResultStore(tmp_path / "local")
        Executor(store=store).run(SPEC)
        provenance = store.load_record(SPEC.digest())["provenance"]
        assert provenance["worker_id"] == ""
