"""Shard-parallel execution of a *single* simulation.

The scenario families whose work decomposes into independent shards
(``kv``: consistent-hashed server pools; ``soak``: independent
sub-soaks) can run each shard's event loop in its own worker process and
merge the observation streams afterwards — with the merged
``history_digest``, checker verdicts and ``summarize()`` output equal to
the serial run's, by construction and by hard assertion
(``tests/test_parallel_sim.py``, ``benchmarks/test_bench_parallel_sim
.py``).

Layering:

* :mod:`~repro.parallel.plan` — :class:`ShardPlan`, the picklable unit
  of work (topology, hash-derived seed, fault timeline, shard-local op
  schedule slice);
* :mod:`~repro.parallel.executor` — :class:`ShardExecutor` /
  :func:`execute_shard_plan`, one shard's sub-simulation run to
  completion in a worker, shipping back compact
  :class:`ShardOutcome` records;
* :mod:`~repro.parallel.runner` — :class:`ParallelScenarioRunner`
  (process pool / inline dispatch) plus the family-specific merges.

Entry point for users: ``run_scenario("kv", ..., parallel=4)`` or
``run_scenario("soak", ..., shards=4, parallel=4)``.
"""

from .executor import ShardExecutor, ShardOutcome, execute_shard_plan
from .plan import ShardPlan, kv_shard_plans, soak_shard_plans
from .runner import (MergedScenarioResult, ParallelScenarioRunner,
                     merge_kv_outcomes, merge_soak_outcomes,
                     normalize_parallel, run_parallel_kv,
                     run_parallel_soak)

__all__ = [
    "MergedScenarioResult", "ParallelScenarioRunner", "ShardExecutor",
    "ShardOutcome", "ShardPlan", "execute_shard_plan", "kv_shard_plans",
    "merge_kv_outcomes", "merge_soak_outcomes", "normalize_parallel",
    "run_parallel_kv", "run_parallel_soak", "soak_shard_plans",
]
