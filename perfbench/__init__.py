"""Seeded performance benchmark for dynroute; run it with ``python3 perfbench/run.py``."""
