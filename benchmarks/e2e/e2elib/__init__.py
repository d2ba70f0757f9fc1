"""Support code of the layered end-to-end benchmark (``benchmarks/e2e/run.py``).

Nothing here is imported by the package under ``src/``; the benchmark drives
``repro`` only through its public entry points and keeps its own spans,
statistics, input generation and correctness checks in this directory.
"""
