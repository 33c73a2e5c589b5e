"""Benchmark of the atomfield CLI: seeded workloads, output checks, tracing."""
