"""Benchmark of qmelon: seeded workloads, oracles and layer tracing."""
