"""End-to-end and per-layer benchmark for the thetacob command line.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
