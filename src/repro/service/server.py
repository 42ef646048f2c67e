"""``repro serve``: stdlib-only asyncio HTTP frontend over the store.

The server owns no simulation state — it answers spec-digest queries
from the shared :class:`~repro.sim.store.ResultStore`, enqueues
misses onto the :class:`~repro.service.queue.WorkQueue` for detached
workers to drain, and streams batched results back for large grids.
It also sweeps expired leases on a timer, so stragglers are requeued
even when no worker is between claims.

Endpoints (JSON unless noted; one request per connection)::

    GET  /healthz              liveness + store/queue counts
    GET  /v1/metrics           Prometheus text exposition (0.0.4) of
                               the process registry plus worker
                               heartbeat series; ``?format=json`` for
                               the JSON view, ``?verify=1`` to
                               cross-check queue depths by scan
    GET  /v1/result/<digest>   one full store record, 404 on a miss
                               (the 404 body says whether it is queued)
    POST /v1/sweep             {"specs": [RunSpec.to_dict(), ...],
                                "trace_id": optional} -> digests
                               (input order), hits, enqueued, pending,
                               trace_id (minted when absent)
    POST /v1/status            {"digests": [...]} -> done/pending split
    POST /v1/results           {"digests": [...]} -> chunked NDJSON
                               stream, one store record per line, only
                               digests the store has (clients re-poll
                               for the rest)

Every request lands in ``http_requests_total{route,method}`` and a
per-route latency histogram; streamed records are counted; worker
heartbeat files under the queue dir surface as
``worker_heartbeat_*{worker_id=...}`` series, so a single
``/v1/metrics`` scrape shows a whole multi-process drain.  Sweeps are
traced: ``POST /v1/sweep`` mints (or accepts) a sweep trace id,
threads it through every enqueued payload, and appends ``submitted``
/ ``streamed`` spans to the server's sidecar — see
:mod:`repro.obs.sweeptrace`.

The HTTP layer is deliberately minimal (HTTP/1.1, ``Connection:
close``, ``Content-Length`` or chunked bodies) — enough for
:class:`~repro.service.client.SweepClient` and ``curl``, with no
dependency beyond the standard library.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.obs.log import StructLogger, to_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.sweeptrace import SpanLog, new_trace_id, read_heartbeats
from repro.service.queue import WorkQueue
from repro.sim.executor import RunSpec
from repro.sim.store import ResultStore

__all__ = ["SweepServer"]

#: Hard cap on request bodies (a million-point sweep submits in
#: batches well under this).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Records per flushed chunk when streaming results.
DEFAULT_BATCH = 256

#: Heartbeat counter fields surfaced as per-worker metric series.
_HEARTBEAT_SERIES = (
    ("claims", "worker_heartbeat_claims",
     "Tasks claimed, per worker heartbeat"),
    ("executed", "worker_heartbeat_executed",
     "Tasks simulated fresh, per worker heartbeat"),
    ("skipped", "worker_heartbeat_skipped",
     "Tasks skipped via store hit, per worker heartbeat"),
    ("failed", "worker_heartbeat_failed",
     "Tasks nacked after a failed simulation, per worker heartbeat"),
    ("requeued", "worker_heartbeat_requeued",
     "Expired leases recycled, per worker heartbeat"),
    ("sim_wall_s", "worker_heartbeat_sim_wall_seconds",
     "Wall seconds spent simulating, per worker heartbeat"),
    ("contention_failed_lanes", "contention_failed_lanes",
     "Failed GLSC element lanes across executed tasks, per worker"),
    ("contention_sc_failures", "contention_sc_failures",
     "Failed scalar store-conditionals across executed tasks, "
     "per worker"),
)


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _parse_query(raw_query: str) -> Dict[str, str]:
    """``a=1&b=2`` -> dict (no %-decoding: our params are plain)."""
    out: Dict[str, str] = {}
    for pair in raw_query.split("&"):
        if not pair:
            continue
        name, _, value = pair.partition("=")
        out[name] = value
    return out


class SweepServer:
    """Asyncio HTTP frontend for one store (+ optional work queue)."""

    def __init__(
        self,
        store: ResultStore,
        queue: Optional[WorkQueue] = None,
        host: str = "127.0.0.1",
        port: int = 8787,
        batch: int = DEFAULT_BATCH,
        log: Union[StructLogger, Callable[[str], None], None] = None,
        sweep_interval_s: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store
        self.queue = queue
        self.host = host
        self.port = port
        self.batch = max(1, batch)
        self.logger = to_logger(log, component="server")
        if sweep_interval_s is None and queue is not None:
            sweep_interval_s = max(1.0, queue.lease_s / 2.0)
        self.sweep_interval_s = sweep_interval_s
        if metrics is not None:
            self.metrics = metrics
        elif queue is not None:
            self.metrics = queue.metrics  # one registry per process
        else:
            from repro.obs.metrics import get_registry

            self.metrics = get_registry()
        self._http_requests = self.metrics.counter(
            "http_requests_total", "Requests served, by route",
            labelnames=("route", "method"),
        )
        self._http_seconds = self.metrics.histogram(
            "http_request_seconds", "Request handling latency",
            labelnames=("route",),
        )
        self._streamed = self.metrics.counter(
            "records_streamed_total",
            "Store records streamed over /v1/results",
        )
        self._spans = (
            SpanLog(queue.root, "server") if queue is not None else None
        )
        self.started = threading.Event()  # set once the port is bound
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.requests = 0

    # -- lifecycle -------------------------------------------------------

    async def serve_forever(self) -> None:
        """Bind, serve until :meth:`stop`, sweeping leases on a timer."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle, self.host,
                                            self.port)
        self.port = server.sockets[0].getsockname()[1]
        self.logger.info(
            "serving", url=f"http://{self.host}:{self.port}",
            store=str(self.store.root),
            queue=str(self.queue.root) if self.queue else "",
        )
        self.started.set()
        sweeper = (
            asyncio.ensure_future(self._sweep_leases())
            if self.queue is not None and self.sweep_interval_s
            else None
        )
        try:
            async with server:
                await self._stop.wait()
        finally:
            if sweeper is not None:
                sweeper.cancel()
            self.logger.info("stopped")

    def stop(self) -> None:
        """Thread-safe shutdown request."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)

    async def _sweep_leases(self) -> None:
        while True:
            await asyncio.sleep(self.sweep_interval_s)
            requeued = self.queue.requeue_expired()
            if requeued:
                self.logger.info(
                    "requeue-sweep", expired=len(requeued)
                )

    # -- HTTP plumbing ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        route = ""
        method = ""
        begun = time.perf_counter()
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, body = request
            self.requests += 1
            route = self._route_label(path)
            await self._route(method, path, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 — keep serving
            self.logger.error("request-error", error=repr(exc),
                              route=route)
            try:
                await self._respond(
                    writer, 500, {"error": "internal", "detail": repr(exc)}
                )
            except Exception:
                pass
        finally:
            if route:
                self._http_requests.inc(route=route, method=method)
                self._http_seconds.observe(
                    time.perf_counter() - begun, route=route
                )
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    def _route_label(path: str) -> str:
        """Bounded-cardinality route name for metric labels."""
        path = path.split("?", 1)[0]
        if path.startswith("/v1/result/"):
            return "/v1/result"
        known = ("/healthz", "/v1/metrics", "/v1/sweep", "/v1/status",
                 "/v1/results")
        return path if path in known else "unknown"

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, path, _ = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            return None
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        if content_length > MAX_BODY_BYTES:
            return None
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        return method.upper(), path, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
    ) -> None:
        await self._respond_bytes(
            writer, status, _json_bytes(payload), "application/json"
        )

    async def _respond_text(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        text: str,
        content_type: str = "text/plain; version=0.0.4; charset=utf-8",
    ) -> None:
        await self._respond_bytes(
            writer, status, text.encode("utf-8"), content_type
        )

    async def _respond_bytes(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
    ) -> None:
        reason = {200: "OK", 404: "Not Found", 400: "Bad Request",
                  405: "Method Not Allowed", 500: "Internal Server Error"}
        writer.write(
            f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1")
        )
        writer.write(body)
        await writer.drain()

    # -- routing ---------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        path, _, raw_query = path.partition("?")
        query = _parse_query(raw_query)
        if method == "GET" and path == "/healthz":
            await self._respond(writer, 200, self._health())
            return
        if method == "GET" and path == "/v1/metrics":
            await self._get_metrics(query, writer)
            return
        if method == "GET" and path.startswith("/v1/result/"):
            await self._get_result(path[len("/v1/result/"):], writer)
            return
        if method == "POST" and path == "/v1/sweep":
            await self._post_sweep(body, writer)
            return
        if method == "POST" and path == "/v1/status":
            await self._post_status(body, writer)
            return
        if method == "POST" and path == "/v1/results":
            await self._post_results(body, writer)
            return
        await self._respond(
            writer, 404, {"error": "no such endpoint", "path": path}
        )

    def _health(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "store": {
                "root": str(self.store.root),
                "indexed": len(self.store.index()),
            },
            "queue": self.queue.describe() if self.queue else None,
            "requests": self.requests,
            "time": time.time(),
        }

    # -- metrics ---------------------------------------------------------

    def _heartbeat_lines(self) -> List[str]:
        """Worker heartbeat files rendered as Prometheus series.

        Workers are separate processes; their registries live in their
        own memory.  Their heartbeat snapshots under the queue dir are
        the cross-process bridge: one scrape of this server shows the
        whole drain.  (Distinct ``worker_heartbeat_*`` names keep
        these from colliding with the in-process ``worker_*`` series
        a same-process drain — tests, mostly — registers directly.)
        """
        if self.queue is None:
            return []
        beats = read_heartbeats(self.queue.root)
        if not beats:
            return []
        lines: List[str] = []
        for key, name, help_text in _HEARTBEAT_SERIES:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            for beat in beats:
                worker = str(beat.get("worker_id", "")).replace('"', "'")
                value = beat.get(key, 0)
                lines.append(
                    f'{name}{{worker_id="{worker}"}} {value}'
                )
        lines.append(
            "# HELP worker_heartbeat_age_seconds "
            "Seconds since each worker's last heartbeat"
        )
        lines.append("# TYPE worker_heartbeat_age_seconds gauge")
        for beat in beats:
            worker = str(beat.get("worker_id", "")).replace('"', "'")
            lines.append(
                f'worker_heartbeat_age_seconds'
                f'{{worker_id="{worker}"}} {beat.get("age_s", 0.0):.3f}'
            )
        return lines

    async def _get_metrics(
        self, query: Dict[str, str], writer: asyncio.StreamWriter
    ) -> None:
        verify = query.get("verify", "") not in ("", "0", "false")
        verification = None
        if self.queue is not None:
            if verify:
                verification = self.queue.verify_counts()
            else:
                self.queue.counts()  # refresh depth gauges (TTL-capped)
        if query.get("format") == "json":
            payload: Dict[str, Any] = {
                "metrics": self.metrics.to_dict(),
                "workers": (
                    read_heartbeats(self.queue.root)
                    if self.queue is not None else []
                ),
                "queue": self.queue.describe() if self.queue else None,
                "requests": self.requests,
            }
            if verification is not None:
                payload["queue_verify"] = verification
            await self._respond(writer, 200, payload)
            return
        extra = self._heartbeat_lines()
        if verification is not None:
            extra = extra + [
                "# queue depth cross-check (scan vs tracked): "
                + json.dumps(verification, sort_keys=True)
            ]
        text = self.metrics.render_prometheus(extra_lines=extra)
        await self._respond_text(writer, 200, text)

    async def _get_result(
        self, digest: str, writer: asyncio.StreamWriter
    ) -> None:
        record = self.store.load_record(digest)
        if record is not None:
            await self._respond(writer, 200, record)
            return
        queued = bool(self.queue and self.queue._in_flight(digest))
        await self._respond(
            writer, 404,
            {"error": "miss", "digest": digest, "queued": queued},
        )

    @staticmethod
    def _parse_payload(body: bytes) -> Optional[Dict[str, Any]]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    @classmethod
    def _parse_body(cls, body: bytes, key: str) -> Optional[List[Any]]:
        payload = cls._parse_payload(body)
        items = payload.get(key) if payload is not None else None
        return items if isinstance(items, list) else None

    async def _post_sweep(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """Resolve digests for submitted specs; enqueue the misses.

        Every sweep gets a trace id — the client's, when the payload
        carries one, else freshly minted — returned in the response
        and threaded through each enqueued task so workers and the
        result stream can be stitched into one distributed trace.
        """
        payload = self._parse_payload(body)
        spec_dicts = (
            payload.get("specs") if payload is not None else None
        )
        if not isinstance(spec_dicts, list):
            await self._respond(
                writer, 400, {"error": "body must be {'specs': [...]}"}
            )
            return
        trace_id = str(payload.get("trace_id") or "") or new_trace_id()
        digests: List[str] = []
        misses: List[Tuple[str, RunSpec]] = []
        hits = enqueued = pending = 0
        for spec_dict in spec_dicts:
            try:
                spec = RunSpec.from_dict(spec_dict)
                digest = spec.digest()
            except Exception:
                await self._respond(
                    writer, 400,
                    {"error": "unparsable spec", "spec": spec_dict},
                )
                return
            digests.append(digest)
            if self.store.load_record(digest) is not None:
                hits += 1
            elif self.queue is None:
                pending += 1
            else:
                misses.append((digest, spec))
        if misses:
            # One submit for the whole sweep: the queue lists its
            # in-flight digests once, not once per spec.
            if self._spans is not None:
                for digest, _ in misses:
                    self._spans.record("submitted", digest, trace_id)
            enqueued = self.queue.submit_many(
                [spec for _, spec in misses], 1,
                digests=[digest for digest, _ in misses],
                trace_id=trace_id,
            )
            pending += len(misses) - enqueued  # already in flight
        self.logger.info(
            "sweep", specs=len(digests), hits=hits, enqueued=enqueued,
            pending=pending, trace_id=trace_id,
        )
        await self._respond(
            writer, 200,
            {
                "digests": digests,
                "hits": hits,
                "enqueued": enqueued,
                "pending": pending,
                "queue": self.queue is not None,
                "trace_id": trace_id,
            },
        )

    async def _post_status(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        digests = self._parse_body(body, "digests")
        if digests is None:
            await self._respond(
                writer, 400, {"error": "body must be {'digests': [...]}"}
            )
            return
        done = [d for d in digests
                if self.store.load_record(d) is not None]
        done_set = set(done)
        await self._respond(
            writer, 200,
            {
                "total": len(digests),
                "done": len(done),
                "pending": [d for d in digests if d not in done_set],
            },
        )

    async def _post_results(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """Stream available records as chunked NDJSON, batch-flushed."""
        digests = self._parse_body(body, "digests")
        if digests is None:
            await self._respond(
                writer, 400, {"error": "body must be {'digests': [...]}"}
            )
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        chunk: List[bytes] = []
        sent = 0
        for digest in dict.fromkeys(digests):  # dedup, keep order
            record = self.store.load_record(digest)
            if record is None:
                continue
            chunk.append(_json_bytes(record) + b"\n")
            sent += 1
            if self._spans is not None:
                trace_id = str(
                    (record.get("provenance") or {}).get("trace_id", "")
                )
                if trace_id:
                    self._spans.record("streamed", digest, trace_id)
            if len(chunk) >= self.batch:
                self._write_chunk(writer, b"".join(chunk))
                chunk.clear()
                await writer.drain()
        if chunk:
            self._write_chunk(writer, b"".join(chunk))
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        self._streamed.inc(sent)
        self.logger.info(
            "streamed", sent=sent, requested=len(digests)
        )

    @staticmethod
    def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(f"{len(data):x}\r\n".encode("latin-1"))
        writer.write(data)
        writer.write(b"\r\n")
