"""Benchmark of the NeuMMU simulator; see METRICS.md and run.py."""
