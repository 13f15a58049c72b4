"""End-to-end and per-layer benchmark of the TG simulation flow.

Run with ``python3 benchmarks/e2e/run.py``; see ``README.md`` here.
"""
