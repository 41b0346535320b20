"""Shard plans: the picklable unit of work of the parallel engine.

A :class:`ShardPlan` is everything one worker process needs to replay a
single shard of a scenario — topology knobs, the shard's hash-derived
seed, its (already re-anchorable) fault timeline, and the shard-local
slice of the concrete operation schedule.  Plans are built **once**, in
the parent, from the same primitives the serial path uses
(:class:`~repro.kvstore.sharding.HashRing` placement via
:func:`~repro.kvstore.sharding.partition_ops`,
:func:`~repro.kvstore.sharding.derive_shard_seed` seeds, the kv family's
own :func:`~repro.workloads.scenarios.kv_op_batches` schedule), which is
what makes the parallel execution *serial-equivalent*: a worker's
sub-simulation is byte-identical to the corresponding shard of the serial
run, because both are the same deterministic function of the same plan.

Plans hold plain data only (strings, numbers, tuples, dicts) so they
pickle under any multiprocessing start method, including ``spawn``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..kvstore.sharding import HashRing, derive_shard_seed, partition_ops
from ..workloads.scenarios import KVOp, kv_op_batches, shard_timelines


@dataclass(frozen=True)
class ShardPlan:
    """One shard's complete, self-contained work description.

    * ``family`` — ``"kv"`` or ``"soak"`` (the shard-structured families);
    * ``seed`` — the shard's simulation seed, already hash-derived from
      the scenario seed (``derive_shard_seed``), never the raw seed;
    * ``params`` — plain-data keyword arguments of the family's per-shard
      execution (topology, budgets, fault knobs);
    * ``op_batches`` — for ``kv``: the shard-local slice of each global
      batch (create, then put/get per round), with values pre-drawn in
      global enumeration order;
    * ``run_faults`` / ``timeline`` — for ``kv``: whether the global
      fault phase executes, and this shard's whole fault timeline (dict
      form: the scalar bursts, then the shard's own events; times
      relative to the shard clock — the executor re-anchors it to the
      shard's post-create instant, exactly as the serial run does).
    """

    family: str
    shard_index: int
    shard_count: int
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)
    op_batches: Tuple[Tuple[KVOp, ...], ...] = ()
    run_faults: bool = False
    timeline: Optional[Dict[str, Any]] = None

    def stage_names(self) -> List[str]:
        """The ordered stage vocabulary this plan's executor steps through.

        Stages are the cross-shard synchronization points of the serial
        run (batch barriers); the merge logic aligns worker outcomes on
        them.  Every shard of one scenario shares the same list.
        """
        if self.family == "soak":
            return ["run"]
        stages = ["create"]
        if self.run_faults:
            stages.append("faults")
        for round_index in range(int(self.params.get("rounds", 1))):
            stages.append(f"put{round_index}")
            stages.append(f"get{round_index}")
        return stages


def kv_shard_plans(shard_count: int, seed: int, client_count: int,
                   num_keys: int, rounds: int, corruption_times,
                   corruption_fraction, fault_timelines, vnodes: int = 64,
                   **pool: Any
                   ) -> Tuple[List[ShardPlan], List[str], HashRing]:
    """Slice one kv scenario (its resolved parameters) into per-shard plans.

    ``pool`` — the per-shard construction knobs (``n``, ``t``,
    ``byzantine_count``/``_strategy``, ``trace_backend``,
    ``enforce_resilience``, ``max_events``) — ships to the workers as is.
    Returns ``(plans, keys, ring)`` — the ring is the same placement the
    serial ``ShardedKVStore`` builds (``vnodes`` included, so ring
    density cannot drift between the serial and parallel paths), so the
    merge step can seal each key against its own shard's τ.
    """
    ring = HashRing(shard_count, vnodes=vnodes)
    clients = [f"c{index + 1}" for index in range(client_count)]
    keys = [f"k{index}" for index in range(num_keys)]
    # the serial run's own schedule, materialized up front (see
    # kv_op_batches: eager and lazy draws yield the same values).
    slices = [partition_ops(batch, lambda op: ring.shard_for(op[2]))
              for batch in kv_op_batches(keys, clients, rounds)]

    timelines = shard_timelines(corruption_times, corruption_fraction,
                                fault_timelines, shard_count)
    run_faults = bool(corruption_times or fault_timelines)

    params = dict(pool, client_count=client_count, rounds=rounds)
    return [ShardPlan(
        family="kv", shard_index=shard, shard_count=shard_count,
        seed=derive_shard_seed(seed, shard), params=dict(params),
        op_batches=tuple(tuple(batch.get(shard, []))
                         for batch in slices),
        run_faults=run_faults,
        timeline=timelines[shard].to_dict(),
    ) for shard in range(shard_count)], keys, ring


def soak_shard_plans(shards: int, seed: int,
                     params: Dict[str, Any]) -> List[ShardPlan]:
    """Slice a soak scenario into ``shards`` independent sub-soaks.

    A single shard keeps the scenario seed untouched (``shards=1`` must
    be indistinguishable from the legacy single-cluster run); multiple
    shards derive per-shard seeds the same way the sharded KV store does.
    """
    seeds = ([seed] if shards == 1 else
             [derive_shard_seed(seed, index) for index in range(shards)])
    return [ShardPlan(family="soak", shard_index=index, shard_count=shards,
                      seed=shard_seed, params=dict(params))
            for index, shard_seed in enumerate(seeds)]
