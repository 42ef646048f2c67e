#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload glsc-4x4 --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
``BENCHMARK.json`` names the workloads and the metrics.  With
``--trace 0`` the run times whole sweeps, with tracing off, for about
``--seconds`` and prints the end-to-end metrics; ``setup_s`` is the
median over fresh processes started with ``--setup-only``.  With
``--trace 1`` it times one plain sweep, then traces further sweeps (see
``perfbench/tracing.py``) and prints the per-layer metrics; the spans go
to ``.perfbench-out/``.

``--seed 0`` keeps every dataset's registered seed, so each result is
checked against ``perfbench/reference.json``.  Any other seed is added
to every generator seed; results are then checked by the kernel oracles
and coherence invariants, and must repeat exactly across the run's
sweeps and warm passes.  Every run prints a sha256 over all specs'
(cycles, stats sha256), so two commits can be shown statistic-identical
at any seed.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; ``failed`` counts results that raised, failed an oracle
or invariant, or differ from the reference.  The exit code is 0 only
when nothing failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
TMP = ROOT / ".perfbench-tmp"
OUT = ROOT / ".perfbench-out"

#: Fresh-process set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 5

#: A tiny spec simulated during set-up, so lazy imports and first-call
#: costs land in set-up instead of the first timed sweep.
WARMUP = ("hip", "tiny", "1x1", 4, "glsc")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(args):
    """Imports, workload, checker and a warm-up simulation."""
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import sweeps
    from repro.sim.executor import RunSpec, execute_spec

    if args.workload not in sweeps.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"known: {sorted(sweeps.WORKLOADS)}"
        )
    workload = sweeps.WORKLOADS[args.workload]
    expected = None
    if args.seed == 0:
        reference = json.loads(REFERENCE.read_text())
        expected = {
            pid: (entry["cycles"], entry["stats_sha256"])
            for pid, entry in reference.items()
        }
    execute_spec(RunSpec(*WARMUP))
    TMP.mkdir(exist_ok=True)
    return sweeps, workload, sweeps.Checker(expected)


def _time_setups(args) -> float:
    """Median seconds from process start to ready, over fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        began = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - began)
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up process failed")
    print("perfbench: set-ups " + " ".join(f"{t:.3f}" for t in samples)
          + " s", file=sys.stderr)
    return statistics.median(samples)


def _end_to_end(sweeps_run, setup_s: float):
    print("perfbench: sweeps " + " ".join(
        f"{s.seconds:.3f}" for s in sweeps_run) + " s", file=sys.stderr)
    latencies = sorted(ms for s in sweeps_run for ms in s.latencies_ms)
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "sweep_s": (statistics.median(s.seconds for s in sweeps_run), "s"),
        "sim_kips": (statistics.median(
            s.instructions / s.seconds / 1e3 for s in sweeps_run), "kinstr/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "result_p50_ms": (statistics.median(latencies), "ms"),
        "result_p90_ms": (deciles[8], "ms"),
    }


def _per_layer(sweeps, workload, checker, seconds: float):
    from perfbench import tracing

    began = time.perf_counter()
    untraced = sweeps.run_once(workload, TMP, checker)
    with tracing.Tracer() as tracer:
        traced = sweeps.measure(
            workload, seconds - (time.perf_counter() - began), TMP, checker)
    metrics, problems = tracing.layer_metrics(tracer, traced,
                                              untraced.seconds)
    tracer.dump(OUT / f"spans-{workload.name}.json")
    for problem in problems:
        checker.fail("trace accounting", problem)
    return {name: (value, tracing.unit_of(name))
            for name, value in metrics.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sweeps, workload, checker = _setup(args)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    try:
        with sweeps.shifted_seeds(args.seed):
            if args.trace:
                metrics = _per_layer(sweeps, workload, checker, args.seconds)
            else:
                setup_s = _time_setups(args)
                metrics = _end_to_end(
                    sweeps.measure(workload, args.seconds, TMP, checker),
                    setup_s,
                )
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    for error in checker.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    print(f"stats-digest {workload.name} seed={args.seed} {checker.digest()}")
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
