"""Bench archive IO: ``BENCH_<sha>.json`` files and the trajectory.

Two artifacts live at the repo root, both committed:

* ``BENCH_<git-sha>.json`` — the full document of one bench run
  (every point's cycles, stats summary, phase and contention blocks,
  and the fidelity metrics).  One file per archived run; the comparator
  reads these directly.
* ``BENCH_TRAJECTORY.jsonl`` — one compact line per archived run
  (headline numbers plus per-point cycles), append-only.  This is
  what sparklines and "previous baseline" lookups read, so the
  history stays greppable even when old ``BENCH_*.json`` files are
  pruned.

Everything is schema-versioned (``BENCH_SCHEMA_VERSION``); loaders
reject documents from a different schema rather than mis-reading
them.  Within a schema, readers ignore keys they do not use, so
archives written when bench runs were still timed (``wall_s``,
``sim_khz``, ``repeats``, ``backend``) load unchanged.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ConfigError

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "TRAJECTORY_NAME",
    "REFERENCE_NAME",
    "append_trajectory",
    "bench_filename",
    "current_git_sha",
    "latest_bench_file",
    "load_bench",
    "load_reference",
    "load_trajectory",
    "previous_entry",
    "trajectory_entry",
    "write_bench",
]

#: Schema of bench documents and trajectory lines; bump on layout change.
BENCH_SCHEMA_VERSION = 1

#: Default artifact names at the repository root.
TRAJECTORY_NAME = "BENCH_TRAJECTORY.jsonl"
REFERENCE_NAME = "BENCH_REFERENCE.json"


def current_git_sha(root: Optional[Path] = None) -> str:
    """The short git sha naming a bench run.

    ``REPRO_BENCH_SHA`` overrides (tests, tarball builds); outside a
    git checkout the sha is ``"nogit"`` rather than an error — bench
    runs must work anywhere the simulator does.
    """
    override = os.environ.get("REPRO_BENCH_SHA")
    if override:
        return override
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(root) if root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "nogit"


def bench_filename(sha: str) -> str:
    return f"BENCH_{sha}.json"


def write_bench(doc: Mapping[str, Any], out_dir: Path) -> Path:
    """Write one bench document to ``out_dir`` (named by its sha)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / bench_filename(doc["git_sha"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_bench(path: Path) -> Dict[str, Any]:
    """Load and schema-check one bench document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "points" not in doc:
        raise ConfigError(f"{path} is not a bench document")
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ConfigError(
            f"{path} has bench schema {doc.get('schema_version')!r}, "
            f"this build reads {BENCH_SCHEMA_VERSION}"
        )
    return doc


def latest_bench_file(root: Path) -> Optional[Path]:
    """The most recently modified ``BENCH_*.json`` under ``root``."""
    candidates = [
        p for p in Path(root).glob("BENCH_*.json")
        if p.name != REFERENCE_NAME
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda p: p.stat().st_mtime)


# -- trajectory -----------------------------------------------------------

def trajectory_entry(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Condense a bench document into one trajectory line.

    Keeps everything the comparator and the sparkline renderer need:
    per-point cycles, the fidelity metrics, the contention roll-up and
    headline counts.
    """
    points = doc["points"]
    cycles: Dict[str, int] = {
        point["id"]: point["cycles"] for point in points
    }
    speedups = list(doc.get("fidelity", {}).get("speedup", {}).values())
    contention: Dict[str, Dict[str, Any]] = {
        point["id"]: point["contention"]
        for point in points
        if isinstance(point.get("contention"), dict)
    }
    entry_contention: Dict[str, Any] = {}
    if contention:
        entry_contention = {
            "points": contention,
            "kills": sum(c.get("kills", 0) for c in contention.values()),
            "failed_lanes": sum(
                c.get("failed_lanes", 0) for c in contention.values()
            ),
            "storms": sum(c.get("storms", 0) for c in contention.values()),
            "max_retry_depth": max(
                c.get("max_retry_depth", 0) for c in contention.values()
            ),
        }
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": doc["git_sha"],
        "created": doc["created"],
        "suite": doc["suite"],
        "headline": {
            "points": len(points),
            "total_cycles": sum(cycles.values()),
            "total_instructions": sum(
                p.get("instructions", 0) for p in points
            ),
            "mean_speedup": (
                sum(speedups) / len(speedups) if speedups else 0.0
            ),
        },
        "cycles": cycles,
        "fidelity": doc.get("fidelity", {}),
        **({"contention": entry_contention} if entry_contention else {}),
    }


def append_trajectory(
    doc: Mapping[str, Any], path: Path
) -> Dict[str, Any]:
    """Append ``doc``'s condensed entry to the trajectory file."""
    entry = trajectory_entry(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        json.dump(entry, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return entry


def load_trajectory(path: Path) -> List[Dict[str, Any]]:
    """Every parseable trajectory entry, oldest first."""
    path = Path(path)
    if not path.exists():
        return []
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if (
                isinstance(entry, dict)
                and entry.get("schema_version") == BENCH_SCHEMA_VERSION
            ):
                entries.append(entry)
    return entries


def previous_entry(
    trajectory: List[Dict[str, Any]],
    suite: str,
    exclude_sha: Optional[str] = None,
) -> Optional[Dict[str, Any]]:
    """The newest trajectory entry of ``suite`` (skipping one sha).

    ``exclude_sha`` is the run being compared, so re-running at the
    same commit still compares against the *previous* commit's point.
    If every entry has that sha, the newest one is used after all —
    comparing against yourself beats comparing against nothing.
    """
    matching = [e for e in trajectory if e.get("suite") == suite]
    if not matching:
        return None
    older = [e for e in matching if e.get("git_sha") != exclude_sha]
    return (older or matching)[-1]


def load_reference(path: Path) -> Optional[Dict[str, Any]]:
    """The fidelity-reference bands, or None when absent/unreadable."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            reference = json.load(fh)
    except (OSError, ValueError):
        return None
    return reference if isinstance(reference, dict) else None


def stamp(timestamp: Optional[float] = None) -> str:
    """ISO-ish UTC stamp used in report headers."""
    return time.strftime(
        "%Y-%m-%d %H:%M:%S UTC", time.gmtime(timestamp or time.time())
    )
