"""The repository benchmark: four workloads measured end to end and, in a
separate traced run, layer by layer — always from outside ``src/``.

``python -m bench`` runs it (see ``bench/README.md``); ``BENCHMARK.json``
at the repository root names every workload and metric.
"""
