"""The repository benchmark: compile, tune and serve workloads.

Run it from the repository root::

    python3 perfbench/run.py --workload compile_zoo --seed 1 --seconds 30 --trace 0

``run.py`` documents the workloads and metrics; ``BENCHMARK.json`` at the
repository root lists them with their regression bounds.
"""
