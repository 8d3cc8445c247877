"""The repo benchmark: workloads, correctness gate and per-layer tracing.

Run it with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/README.md`` for the workloads, metrics and the layer map.
"""
