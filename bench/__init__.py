"""The repository's benchmark: workloads, spans and per-layer metrics.

Entry point: ``python3 bench/run.py``; see ``bench/README.md``.
"""
