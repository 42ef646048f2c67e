"""Regression observatory: bench suites, baselines, and drift gates.

Per-run observability (:mod:`repro.obs`) watches one simulation;
this package watches the *model's output* across commits.  A fixed
grid of bench points (:mod:`repro.bench.suite`) is simulated fresh,
once per point (:mod:`repro.bench.runner`), the resulting document is
archived as a schema-versioned ``BENCH_<git-sha>.json`` and appended
to a trajectory (:mod:`repro.bench.baseline`), and a
:class:`~repro.bench.compare.Comparator` diffs every metric against
the previous baseline and the committed fidelity-reference bands
distilled from the paper's Figure 6/8 and Table 4
(:mod:`repro.bench.fidelity`) — classifying each as ok / changed /
regressed so CI can fail on silent drift.

Quickstart::

    python -m repro.harness bench run --suite smoke
    python -m repro.harness bench compare        # exit 1 on regression
    python -m repro.harness bench report         # markdown + sparklines

Two kinds of drift are caught:

* **model drift** — simulated cycle counts are deterministic, so any
  change against the baseline is flagged;
* **fidelity drift** — GLSC/Base speedup ratios and Table-4 failure-
  cause mixes leaving the committed reference bands (the paper-shape
  gate) fail the comparison outright.

Nothing here measures the simulator's speed.  A speed claim is a
same-host A/B of fresh, interleaved processes against the parent
commit, made with the repository benchmark (``perfbench/run.py``).
"""

from repro.bench.baseline import (
    BENCH_SCHEMA_VERSION,
    append_trajectory,
    bench_filename,
    current_git_sha,
    latest_bench_file,
    load_bench,
    load_trajectory,
    trajectory_entry,
    write_bench,
)
from repro.bench.compare import Comparator, Comparison, Verdict
from repro.bench.fidelity import distill_reference, fidelity_metrics
from repro.bench.report import render_markdown, sparkline
from repro.bench.runner import BenchRunner
from repro.bench.suite import BenchPoint, BenchSuite, SUITE_NAMES, get_suite

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchPoint",
    "BenchRunner",
    "BenchSuite",
    "Comparator",
    "Comparison",
    "SUITE_NAMES",
    "Verdict",
    "append_trajectory",
    "bench_filename",
    "current_git_sha",
    "distill_reference",
    "fidelity_metrics",
    "get_suite",
    "latest_bench_file",
    "load_bench",
    "load_trajectory",
    "render_markdown",
    "sparkline",
    "trajectory_entry",
    "write_bench",
]
