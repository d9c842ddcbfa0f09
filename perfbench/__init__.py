"""Benchmark of the hapod package; see run.py."""
