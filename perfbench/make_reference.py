#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json`` and cross-check it.

    python3 perfbench/make_reference.py

Simulates every spec of every workload at the registered dataset seeds
through the solo path (``execute_spec``, oracle and invariants on) and
records ``(cycles, stats sha256)`` per point id.  Every point that also
appears in ``tests/bench/data/golden_full.json`` or ``golden_smoke.json``
must agree with it; ``git diff perfbench/reference.json`` then shows
whether the committed file was stale.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
GOLDENS = ROOT / "tests" / "bench" / "data"

sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench.sweeps import WORKLOADS, stats_digest  # noqa: E402
from repro.bench.suite import point_id  # noqa: E402
from repro.sim.executor import execute_spec  # noqa: E402


def golden_mismatches(reference: dict) -> tuple:
    """(points cross-checked per golden file, mismatching point ids)."""
    checked, bad = {}, []
    for name in ("golden_full.json", "golden_smoke.json"):
        golden = json.loads((GOLDENS / name).read_text())
        shared = sorted(set(golden) & set(reference))
        checked[name] = len(shared)
        bad += [pid for pid in shared if golden[pid] != reference[pid]]
    return checked, bad


def main() -> int:
    reference = {}
    for workload in WORKLOADS.values():
        for spec in workload.specs:
            stats = execute_spec(spec, verify=True)
            reference[point_id(spec)] = {
                "cycles": stats.cycles,
                "stats_sha256": stats_digest(stats),
            }
    checked, bad = golden_mismatches(reference)
    print(f"{len(reference)} points; cross-checked {checked}")
    if bad:
        print(f"differ from the goldens: {bad}", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
