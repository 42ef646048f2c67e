"""Persistent, content-addressed store of verified run results.

Every simulation the executor performs is keyed by a SHA-256 digest of
the :class:`~repro.sim.executor.RunSpec` *and* the fully resolved
:class:`~repro.sim.config.MachineConfig` (see ``RunSpec.digest``).  A
result therefore survives process exits but is invalidated the moment
any machine parameter, override, or store schema version changes —
there is no way to read a stale number.

Layout (one JSON file per run, atomically written)::

    <cache_dir>/
      <digest>.json     {"version", "digest", "spec", "config",
                         "stats", "provenance", "created"}
      index.jsonl       append-only put journal (digest, kernel,
                        cycles, created) — cheap listing, tailed by
                        queue-backed executors, rebuildable
      store.meta        best-effort hit/miss tally sidecar

Records are forward-compatible: loaders ignore keys they do not
recognize, so adding fields (as ``provenance`` was) never invalidates
old caches.

**Concurrent-writer semantics** (the sweep service runs many worker
processes against one store): each :meth:`ResultStore.save` writes a
private temp file and publishes it with ``os.replace``, so a digest's
record file is always exactly one complete JSON document — never torn,
whatever the interleaving.  When several writers race on the *same*
digest the last ``os.replace`` wins; because a digest fixes the spec,
the resolved config, and the deterministic simulation output, the
racing records differ only in their ``provenance``/``created`` blocks,
so which writer wins is unobservable to readers.  The index sidecar is
an O_APPEND journal of one small JSON line per put: appends from
concurrent processes land whole on local filesystems, a torn final
line (a crash mid-append) is skipped by the reader, and
:meth:`ResultStore.rebuild_index` regenerates the journal from the
record files — the files stay the ground truth.

The store also keeps a best-effort hit/miss tally in a ``store.meta``
sidecar (not a ``*.json`` result file, so it can never be mistaken
for a record): every :meth:`ResultStore.load` bumps the persistent
totals (an executor sweep bumps them once for all its lookups), which
``repro cache stats`` surfaces together with the simulated wall time
the cached records represent (read from each record's provenance).

The default cache directory is ``.glsc-cache/`` in the current working
directory, overridable with the ``REPRO_CACHE_DIR`` environment
variable or the harness ``--cache-dir`` flag.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.sim.stats import MachineStats

__all__ = ["ResultStore", "STORE_VERSION", "default_cache_dir"]

#: Schema version folded into every run digest; bump on any change to
#: the digest payload or the stored-stats format to invalidate cleanly.
STORE_VERSION = 1


def default_cache_dir() -> Path:
    """The default on-disk cache location (env-overridable)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".glsc-cache"))


class ResultStore:
    """Digest-keyed JSON store of :class:`MachineStats` results.

    The store is strictly a cache: entries are immutable once written,
    corrupt or unreadable files behave as misses, and deleting the
    directory is always safe.
    """

    #: Sidecar file holding the persistent hit/miss tally.
    TALLY_NAME = "store.meta"

    #: Append-only journal of puts (one JSON line each).
    INDEX_NAME = "index.jsonl"

    def __init__(
        self,
        root: Optional[Path] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.metrics = metrics if metrics is not None else get_registry()
        self._puts = self.metrics.counter(
            "store_puts_total", "Result records persisted"
        )
        self._put_bytes = self.metrics.counter(
            "store_put_bytes_total",
            "Serialized record bytes written by puts",
        )
        self._journal_appends = self.metrics.counter(
            "store_journal_appends_total",
            "Lines appended to the index journal",
        )
        self._index_rebuilds = self.metrics.counter(
            "store_index_rebuilds_total",
            "Full index regenerations from record files",
        )

    # -- paths ----------------------------------------------------------

    def path_for(self, digest: str) -> Path:
        """Where the result for ``digest`` lives (whether or not it exists)."""
        return self.root / f"{digest}.json"

    # -- read -----------------------------------------------------------

    def load(self, digest: str, tally: bool = True) -> Optional[MachineStats]:
        """The stored stats for ``digest``, or ``None`` on a miss.

        Each load adds its hit or miss to the persistent tally unless
        ``tally`` is false; a caller that looks up many digests passes
        ``tally=False`` and records them all with one :meth:`bump_tally`.
        """
        record = self.load_record(digest)
        if tally:
            self.bump_tally(hits=int(record is not None),
                            misses=int(record is None))
        if record is None:
            return None
        return MachineStats.from_dict(record["stats"])

    def load_record(self, digest: str) -> Optional[Dict[str, Any]]:
        """The full stored record (spec/config/stats), or ``None``."""
        path = self.path_for(digest)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(record, dict)
            or record.get("version") != STORE_VERSION
            or record.get("digest") != digest
            or "stats" not in record
        ):
            return None
        return record

    def __contains__(self, digest: str) -> bool:
        return self.load_record(digest) is not None

    def digests(self) -> Iterator[str]:
        """All digests currently present on disk."""
        if not self.root.is_dir():
            return iter(())
        return (p.stem for p in sorted(self.root.glob("*.json")))

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    # -- write ----------------------------------------------------------

    def save(
        self,
        digest: str,
        stats: MachineStats,
        spec: Optional[Dict[str, Any]] = None,
        config: Optional[Dict[str, Any]] = None,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist one result; atomic against concurrent writers.

        The write goes to a temp file in the same directory followed by
        ``os.replace``, so parallel executors (or service workers on
        other hosts sharing the directory) racing on the same digest
        end with one complete file, never a torn one; the last writer
        wins, and racing records are value-equal apart from provenance
        (see the module docstring for the full contract).  Every put
        also appends a line to the index journal, best-effort.

        ``provenance`` records how the number was produced (repro
        version, python/platform, wall time, worker pid — see
        :func:`repro.obs.telemetry.run_provenance`), keeping stored
        results auditable.  Readers ignore keys they do not know, so
        records written before this field existed stay loadable.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        # Serialize exactly once: the stats dict feeds the record, the
        # record serializes to one payload whose bytes are both what
        # hits the disk and what the put-bytes counter measures, and
        # the journal line reuses the already-built dict.  Batched
        # sweeps put dozens of records back to back, so the redundant
        # re-walks this replaces were measurable.
        stats_dict = stats.to_dict()
        record = {
            "version": STORE_VERSION,
            "digest": digest,
            "spec": spec or {},
            "config": config or {},
            "stats": stats_dict,
            "provenance": provenance or {},
            "created": time.time(),
        }
        payload = json.dumps(record, sort_keys=True)
        path = self.path_for(digest)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=f".{digest[:12]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._puts.inc()
        self._put_bytes.inc(len(payload.encode("utf-8")))
        self._append_index(
            {
                "digest": digest,
                "kernel": (spec or {}).get("kernel", "?"),
                "cycles": stats_dict.get("cycles", stats.cycles),
                "created": record["created"],
            }
        )
        return path

    def clear(self) -> int:
        """Delete every stored result; returns how many were removed."""
        removed = 0
        for digest in list(self.digests()):
            try:
                self.path_for(digest).unlink()
                removed += 1
            except OSError:
                pass
        try:
            (self.root / self.INDEX_NAME).unlink()
        except OSError:
            pass
        return removed

    # -- index sidecar ---------------------------------------------------

    def _append_index(self, entry: Dict[str, Any]) -> None:
        """Append one put to the journal (crash-safe, never raises).

        A single ``os.write`` on an ``O_APPEND`` descriptor, so
        concurrent writers interleave whole lines on local
        filesystems.  A crash can at worst leave a torn *final* line,
        which :meth:`index` skips.
        """
        try:
            line = json.dumps(entry, sort_keys=True) + "\n"
            fd = os.open(
                self.root / self.INDEX_NAME,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            try:
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)
            self._journal_appends.inc()
        except OSError:
            pass

    def index(self) -> Dict[str, Dict[str, Any]]:
        """The put journal as ``{digest: newest entry}``.

        Unparsable lines (torn tail from a crashed writer) are
        skipped; the journal may mention digests whose record was
        since pruned, and misses puts from before the journal existed
        — :meth:`rebuild_index` reconciles it with the record files,
        which remain the ground truth.
        """
        entries: Dict[str, Dict[str, Any]] = {}
        try:
            with open(self.root / self.INDEX_NAME, encoding="utf-8") as fh:
                for line in fh:
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(entry, dict) and "digest" in entry:
                        entries[entry["digest"]] = entry
        except OSError:
            pass
        return entries

    def journal_size(self) -> int:
        """The put journal's length in bytes (0 when there is none)."""
        try:
            return os.stat(self.root / self.INDEX_NAME).st_size
        except OSError:
            return 0

    def journal_since(self, offset: int) -> Tuple[List[str], int]:
        """Digests journaled after byte ``offset``, and where to resume.

        Reads only the bytes appended since ``offset``.  The resume
        offset is the end of the last complete line, so a line still
        being appended is read whole on the next call; unparsable
        lines are skipped, exactly as :meth:`index` does.  A journal
        shorter than ``offset`` was rebuilt, and is read from the
        top.  A tail can miss a put (a lost or torn line), so callers
        must still check the record files now and then.
        """
        size = self.journal_size()
        if size < offset:
            offset = 0
        if size == offset:
            return [], offset
        try:
            with open(self.root / self.INDEX_NAME, "rb") as fh:
                fh.seek(offset)
                chunk = fh.read(size - offset)
        except OSError:
            return [], offset
        end = chunk.rfind(b"\n") + 1
        digests = []
        for line in chunk[:end].splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and "digest" in entry:
                digests.append(str(entry["digest"]))
        return digests, offset + end

    def rebuild_index(self) -> int:
        """Regenerate the journal from the record files; returns count."""
        self.root.mkdir(parents=True, exist_ok=True)
        lines = []
        for digest, record in self.records():
            lines.append(
                json.dumps(
                    {
                        "digest": digest,
                        "kernel": (record.get("spec") or {}).get(
                            "kernel", "?"
                        ),
                        "cycles": (record.get("stats") or {}).get(
                            "cycles", 0
                        ),
                        "created": record.get("created", 0),
                    },
                    sort_keys=True,
                )
            )
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=".index.", suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        os.replace(tmp_name, self.root / self.INDEX_NAME)
        self._index_rebuilds.inc()
        return len(lines)

    # -- inspection / maintenance (``repro cache``) ----------------------

    def records(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Every valid ``(digest, record)`` pair currently on disk."""
        for digest in self.digests():
            record = self.load_record(digest)
            if record is not None:
                yield digest, record

    def tally(self) -> Dict[str, int]:
        """The persistent hit/miss totals (zeroes when never tallied)."""
        try:
            with open(self.root / self.TALLY_NAME, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return {"hits": 0, "misses": 0}
        if not isinstance(data, dict):
            return {"hits": 0, "misses": 0}
        return {
            "hits": int(data.get("hits", 0)),
            "misses": int(data.get("misses", 0)),
        }

    def bump_tally(self, hits: int = 0, misses: int = 0) -> None:
        """Add to the persistent hit/miss totals (best effort, never raises).

        One read and one ``os.replace`` of ``store.meta``, whatever the
        counts; nothing is written when both are zero.
        """
        if not (hits or misses):
            return
        try:
            totals = self.tally()
            totals["hits"] += hits
            totals["misses"] += misses
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.root), prefix=".tally.", suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(totals, fh)
            os.replace(tmp_name, self.root / self.TALLY_NAME)
        except OSError:
            pass

    def stale_digests(self) -> List[str]:
        """Digests whose entries can no longer be produced or trusted.

        An entry is stale when its record is unreadable/invalid (wrong
        version, torn write) or when re-deriving the digest from the
        record's stored spec no longer matches its filename — the
        signature of a :class:`~repro.sim.config.MachineConfig` schema
        change that left orphaned keys behind.  Records without a
        stored spec (pre-provenance writers) cannot be re-derived and
        are conservatively kept.
        """
        from repro.sim.executor import RunSpec  # deferred: import cycle

        stale = []
        for digest in self.digests():
            record = self.load_record(digest)
            if record is None:
                stale.append(digest)
                continue
            spec_dict = record.get("spec") or {}
            if not spec_dict:
                continue
            try:
                fresh = RunSpec.from_dict(spec_dict).digest()
            except Exception:
                stale.append(digest)
                continue
            if fresh != digest:
                stale.append(digest)
        return stale

    def prune(self, dry_run: bool = False) -> List[str]:
        """Remove every stale entry; returns the digests affected."""
        stale = self.stale_digests()
        if not dry_run:
            for digest in stale:
                try:
                    self.path_for(digest).unlink()
                except OSError:
                    pass
        return stale

    def size_bytes(self) -> int:
        """Total on-disk size of the stored result files."""
        total = 0
        for digest in self.digests():
            try:
                total += self.path_for(digest).stat().st_size
            except OSError:
                pass
        return total

    def describe(self) -> Dict[str, Any]:
        """Aggregate view for ``repro cache stats``.

        Hit/miss totals come from the persistent tally; the simulated
        wall time the cache represents (i.e. what a cold re-run would
        cost) is summed from each record's provenance.
        """
        entries = 0
        wall_saved = 0.0
        by_kernel: Dict[str, int] = {}
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for _, record in self.records():
            entries += 1
            provenance = record.get("provenance") or {}
            wall_saved += float(provenance.get("wall_time_s", 0.0) or 0.0)
            kernel = (record.get("spec") or {}).get("kernel", "?")
            by_kernel[kernel] = by_kernel.get(kernel, 0) + 1
            created = record.get("created")
            if isinstance(created, (int, float)):
                oldest = created if oldest is None else min(oldest, created)
                newest = created if newest is None else max(newest, created)
        tally = self.tally()
        return {
            "root": str(self.root),
            "entries": entries,
            "size_bytes": self.size_bytes(),
            "hits": tally["hits"],
            "misses": tally["misses"],
            "simulated_wall_s": wall_saved,
            "by_kernel": by_kernel,
            "oldest": oldest,
            "newest": newest,
            "stale": len(self.stale_digests()),
        }
