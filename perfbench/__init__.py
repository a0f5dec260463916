"""Benchmark of the reproduction: four workloads timed end to end and
traced layer by layer (see README.md)."""
