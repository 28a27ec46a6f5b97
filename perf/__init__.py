"""The repository benchmark: five judged workloads and a sixth run by hand,
eight end-to-end metrics, a traced per-layer run.  See ``perf/README.md``;
``BENCHMARK.json`` at the repository root is the contract this package
implements."""
