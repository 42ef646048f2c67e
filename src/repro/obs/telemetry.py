"""Run-level telemetry and provenance for the executor layer.

Where :mod:`repro.obs.events` watches *inside* a simulation,
telemetry watches the run itself: how long one spec took on the wall
clock, what simulation throughput that is, which worker ran it, and
whether the result was simulated fresh or served from the memo /
on-disk store.  The :class:`~repro.sim.executor.Executor` records one
:class:`RunTelemetry` per spec it serves; the harness surfaces them
with ``--telemetry`` and the ``profile`` subcommand, and the
:class:`~repro.sim.store.ResultStore` persists them (plus
:func:`run_provenance`) next to each cached result so stored numbers
stay auditable.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Iterable, List

__all__ = ["RunTelemetry", "run_provenance", "render_telemetry"]

#: How a result was obtained.  ``queue`` means a detached service
#: worker simulated it and the executor collected it from the shared
#: store (the ``queue://`` backend); ``batch`` means it was simulated
#: fresh in-process alongside other specs by the batched backend
#: (:mod:`repro.sim.batch`).
SOURCES = ("simulated", "memo", "store", "queue", "batch")


@dataclass
class RunTelemetry:
    """One spec's execution record (reporting, not measurement)."""

    label: str
    digest: str
    source: str            # one of SOURCES
    cycles: int = 0
    instructions: int = 0
    wall_time_s: float = 0.0
    worker_pid: int = 0
    worker_host: str = ""  # host that simulated it ("" = this one)
    created: float = 0.0   # unix timestamp
    trace_id: str = ""     # sweep trace this run belonged to ("" = none)
    batch_id: str = ""     # batch this run was simulated in ("" = solo)
    batch_occupancy: int = 0  # specs sharing that batch (0 = solo)

    @property
    def cycles_per_second(self) -> float:
        """Simulated cycles per wall-clock second (hot-path health)."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.cycles / self.wall_time_s

    @property
    def sim_khz(self) -> float:
        """Simulated kilocycles per wall-clock second.

        The headline throughput unit: a 100 sim_khz simulator retires
        100k simulated cycles per real second.
        """
        return self.cycles_per_second / 1e3

    @property
    def instr_per_sec(self) -> float:
        """Simulated instructions retired per wall-clock second."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.instructions / self.wall_time_s

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["cycles_per_second"] = self.cycles_per_second
        out["sim_khz"] = self.sim_khz
        out["instr_per_sec"] = self.instr_per_sec
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunTelemetry":
        """Rebuild from :meth:`to_dict` output (unknown keys ignored)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def run_provenance(wall_time_s: float) -> Dict[str, Any]:
    """Audit fields stored with every fresh result (satellite of the
    store schema: version is recorded separately by the store itself).

    With the store now shared between hosts by the sweep service,
    every record carries *who* produced it: ``host`` (the machine) and
    ``worker_id`` (``""`` here; the service worker overwrites it with
    its own name, and ``worker_pid`` with the pool process that
    simulated).  The worker additionally stamps the sweep's
    ``trace_id`` into the provenance it saves (see
    :mod:`repro.obs.sweeptrace`), so a stored number names the
    distributed drain that produced it.
    """
    from repro import __version__

    return {
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host": platform.node(),
        "worker_id": "",
        "wall_time_s": wall_time_s,
        "worker_pid": os.getpid(),
        "created": time.time(),
    }


def render_telemetry(entries: Iterable[RunTelemetry]) -> str:
    """Fixed-width telemetry table (harness ``--telemetry`` output)."""
    rows: List[RunTelemetry] = list(entries)
    lines = [
        f"{'spec':44s} {'source':>9s} {'cycles':>10s} "
        f"{'wall(s)':>8s} {'cyc/s':>12s} {'pid':>7s}"
    ]
    for t in rows:
        lines.append(
            f"{t.label[:44]:44s} {t.source:>9s} {t.cycles:10d} "
            f"{t.wall_time_s:8.3f} {t.cycles_per_second:12.0f} "
            f"{t.worker_pid:7d}"
        )
    simulated = [t for t in rows if t.source in ("simulated", "batch")]
    total_wall = sum(t.wall_time_s for t in simulated)
    total_cycles = sum(t.cycles for t in simulated)
    lines.append(
        f"{len(rows)} specs ({len(simulated)} simulated, "
        f"{len(rows) - len(simulated)} cached); "
        f"{total_cycles} fresh cycles in {total_wall:.2f}s wall"
        + (
            f" ({total_cycles / total_wall:.0f} cyc/s)"
            if total_wall > 0
            else ""
        )
    )
    return "\n".join(lines)
