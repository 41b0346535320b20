"""Byzantine fault-tolerant, self-stabilizing key-value store service.

Two deployment shapes behind one vocabulary:

* :class:`StabilizingKVStore` — every key on one shared server pool (the
  original facade; simplest to reason about, one operation at a time);
* :class:`ShardedKVStore` — keys consistent-hashed across independent
  pools that fail independently, with :class:`Pipeline` keeping many
  operations in flight per client.

The sharded shape is *elastic*: the ring is mutable and
:class:`Rebalancer` performs live resharding (split/merge/join/retire
plus vnode migration) with deterministic state transfer while clients
keep issuing through the pipeline.
"""

from .pipeline import Pipeline, PipelineHandle
from .rebalance import RebalanceReport, Rebalancer
from .sharded import ShardedKVStore, build_sharded_kv_store
from .sharding import (HashRing, derive_shard_seed, partition_ops,
                       shard_router)
from .store import StabilizingKVStore, build_kv_store

__all__ = [
    "HashRing", "Pipeline", "PipelineHandle", "RebalanceReport",
    "Rebalancer", "ShardedKVStore", "StabilizingKVStore", "build_kv_store",
    "build_sharded_kv_store", "derive_shard_seed", "partition_ops",
    "shard_router",
]
