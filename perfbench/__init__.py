"""The benchmark harness: workloads, span tracer and load generator."""
