"""The repository's end-to-end and per-layer benchmark.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``BENCHMARK.json`` lists the
workloads and the metrics, with their units, that the run prints.

* :mod:`perfbench.workloads` — the three named workloads and their configs.
* :mod:`perfbench.measure` — one run through the public backend path, its
  correctness checks, peak memory, and the end-to-end summary.
* :mod:`perfbench.spans` — run-time wrappers around the program's public
  functions, span self time, and the per-layer metrics of a traced run.
"""
