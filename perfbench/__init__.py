"""The repository benchmark: verified, timed sweeps of the paper's grid.

``run.py`` is the entry point; ``BENCHMARK.json`` at the repository root
names the workloads and metrics it prints.
"""
