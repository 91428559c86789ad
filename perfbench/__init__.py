"""Rollup-engine benchmark: end-to-end workloads plus a traced per-layer run.

Run `python3 perfbench/run.py --help`; see perfbench/README.md.
"""
