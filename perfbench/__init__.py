"""Benchmark of the repro library: see run.py."""
