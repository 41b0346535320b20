"""Sharded KV service: consistent-hashed keys over independent clusters.

``StabilizingKVStore`` (``repro.kvstore.store``) hosts every key on one
shared server pool.  :class:`ShardedKVStore` scales that out the way a
production deployment would: ``S`` independent :class:`~repro.registers
.system.Cluster` pools (one per shard, each with its own scheduler,
trace — recording nothing unless ``trace_backend="full"`` — randomness
and network), a consistent-hash ring placing each key
on exactly one shard, and hash-derived per-shard seeds so the pools'
random streams are independent.

Because shards share nothing, they **fail independently**: a transient
burst, partition or Byzantine strategy installed on shard 2 is invisible
to every other shard — ``injector_for`` / ``install_timeline`` scope the
whole fault vocabulary of ``repro.faults`` to one shard.

Clients are *logical* names (``c1..cm``): each shard hosts its own
client process per name, so one logical client can have one operation in
flight on every shard simultaneously — the concurrency the client-side
:class:`~repro.kvstore.pipeline.Pipeline` exploits.

>>> store = build_sharded_kv_store(shard_count=2, seed=5)
>>> store.put_sync("c1", "cat", 1)
>>> store.get_sync("c2", "cat")
1
>>> 0 <= store.shard_for("cat") < 2
True
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from ..faults.schedule import FaultTimeline
from ..faults.transient import TransientFaultInjector
from ..registers.bounded_seq import WsnConfig
from ..registers.mwmr import DEFAULT_SEQ_BOUND
from ..registers.system import Cluster, ClusterConfig, ClusterGroup
from ..sim.process import OperationHandle
from .sharding import HashRing, derive_shard_seed, partition_ops
from .store import StabilizingKVStore


class ShardedKVStore:
    """``shard_count`` independent single-pool stores behind one facade.

    Construction knobs mirror :class:`~repro.kvstore.store
    .StabilizingKVStore` — ``n``/``t`` size *each* shard's pool, and any
    extra :class:`~repro.registers.system.ClusterConfig` keyword applies
    to every shard.  ``trace_backend`` defaults to ``"null"`` (record
    nothing, fused sends): a service-layer store is throughput-bound, and
    ``"full"`` switches recording back on per instance for debugging.
    """

    def __init__(self, shard_count: int = 4, n: int = 9, t: int = 1,
                 seed: int = 0, client_count: int = 2,
                 seq_bound: int = DEFAULT_SEQ_BOUND,
                 wsn_config: Optional[WsnConfig] = None,
                 trace_backend: str = "null",
                 vnodes: int = 64, client_prefix: str = "c",
                 **config_kwargs: Any):
        if shard_count < 1:
            raise ValueError("need at least one shard")
        self.seed = seed
        # pool recipe, kept so joined shards are built exactly like the
        # constructor-time ones (live resharding spawns pools later).
        self._pool_recipe = dict(n=n, t=t, trace_backend=trace_backend,
                                 **config_kwargs)
        self._store_recipe = dict(client_count=client_count,
                                  seq_bound=seq_bound,
                                  wsn_config=wsn_config,
                                  client_prefix=client_prefix)
        self.ring = HashRing(shard_count, vnodes=vnodes)
        self.group = ClusterGroup([
            ClusterConfig(seed=derive_shard_seed(seed, index),
                          **self._pool_recipe)
            for index in range(shard_count)])
        self.stores: List[StabilizingKVStore] = [
            StabilizingKVStore(cluster, **self._store_recipe)
            for cluster in self.group]
        self.client_pids = [f"{client_prefix}{index + 1}"
                            for index in range(client_count)]
        self._injectors: Dict[int, TransientFaultInjector] = {}

    # -- placement ---------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.stores)

    def shard_for(self, key: str) -> int:
        """The shard index owning ``key`` (consistent hashing)."""
        return self.ring.shard_for(key)

    def store_for(self, key: str) -> StabilizingKVStore:
        return self.stores[self.shard_for(key)]

    def cluster_for(self, key: str) -> Cluster:
        return self.group[self.shard_for(key)]

    @property
    def keys(self) -> List[str]:
        """Every key any shard has materialized, sorted."""
        seen = set()
        for store in self.stores:
            seen.update(store.keys)
        return sorted(seen)

    # -- operations --------------------------------------------------------
    def put(self, client_pid: str, key: str, value: Any) -> OperationHandle:
        """Start ``put`` on ``key``'s shard; returns the operation handle
        (``handle.meta["shard"]`` records the placement)."""
        shard = self.shard_for(key)
        handle = self.stores[shard].put(client_pid, key, value)
        handle.meta["shard"] = shard
        return handle

    def get(self, client_pid: str, key: str) -> OperationHandle:
        """Start ``get`` on ``key``'s shard; returns the operation handle."""
        shard = self.shard_for(key)
        handle = self.stores[shard].get(client_pid, key)
        handle.meta["shard"] = shard
        return handle

    def run_ops(self, handles: Sequence[OperationHandle],
                max_events: int = 2_000_000) -> None:
        """Run shards (index order) until every listed operation is done.

        ``max_events`` is a per-shard budget, as in ``Cluster.run_ops``.
        """
        by_shard = partition_ops(handles,
                                 lambda handle: handle.meta.get("shard", 0))
        for shard in sorted(by_shard):
            self.group[shard].run_ops(by_shard[shard],
                                      max_events=max_events)

    # -- synchronous convenience ------------------------------------------
    def put_sync(self, client_pid: str, key: str, value: Any,
                 max_events: int = 2_000_000) -> None:
        self.run_ops([self.put(client_pid, key, value)],
                     max_events=max_events)

    def get_sync(self, client_pid: str, key: str,
                 max_events: int = 2_000_000) -> Any:
        handle = self.get(client_pid, key)
        self.run_ops([handle], max_events=max_events)
        return handle.result

    # -- elasticity --------------------------------------------------------
    def spawn_pool(self) -> int:
        """Bring one more independent shard pool online (cluster + store)
        at the next index, built from the constructor's recipe with the
        usual hash-derived seed.  The pool owns **no ring slots yet** —
        pair with a ring mutation (:class:`~repro.kvstore.rebalance
        .Rebalancer` does both, plus the state transfer)."""
        index = len(self.stores)
        cluster = self.group.append(
            ClusterConfig(seed=derive_shard_seed(self.seed, index),
                          **self._pool_recipe))
        self.stores.append(StabilizingKVStore(cluster,
                                              **self._store_recipe))
        return index

    def join(self, vnodes: Optional[int] = None) -> int:
        """Grow ``S → S + 1``: spawn a pool *and* give it ring slots.

        Placement changes immediately (no state transfer) — use
        :meth:`~repro.kvstore.rebalance.Rebalancer.join` when existing
        keys must follow their slots to the new shard.
        """
        index = self.spawn_pool()
        ring_index = self.ring.add_shard(vnodes)
        if ring_index != index:  # pragma: no cover - construction bug
            raise RuntimeError(f"ring allocated shard {ring_index} but "
                               f"pool index is {index}")
        return index

    # -- per-shard fault envelope ------------------------------------------
    def injector_for(self, shard: int) -> TransientFaultInjector:
        """The (lazily created) transient-fault injector of one shard."""
        injector = self._injectors.get(shard)
        if injector is None:
            injector = TransientFaultInjector.for_cluster(self.group[shard])
            injector.label = f"shard{shard}"
            self._injectors[shard] = injector
        return injector

    def install_timeline(self, shard: int,
                         timeline: Union[dict, FaultTimeline], *,
                         anchor: Union[None, str, float] = None
                         ) -> FaultTimeline:
        """Install a declarative fault timeline on *one* shard.

        Other shards never see it — the isolation a sharded deployment
        exists to provide.  ``anchor`` rebases the timeline's (relative)
        event times before installation:

        * ``None`` — install as written (times are absolute);
        * ``"now"`` — shift by the shard cluster's current simulated
          time, so a relative timeline starts "from here" (the common
          case mid-workload);
        * a number — shift by that offset explicitly.

        Returns the timeline actually installed (post-shift), so callers
        can read ``tau_no_tr`` and friends in absolute time.
        """
        if not isinstance(timeline, FaultTimeline):
            timeline = FaultTimeline.from_dict(timeline)
        if anchor is not None:
            if anchor == "now":
                offset = self.group[shard].now
            elif isinstance(anchor, bool) or not isinstance(
                    anchor, (int, float)):
                raise ValueError(f"anchor must be None, 'now' or a number, "
                                 f"got {anchor!r}")
            else:
                offset = float(anchor)
            timeline = timeline.shifted(offset)
        timeline.install(self.group[shard], self.injector_for(shard))
        return timeline

    # -- aggregate counters ------------------------------------------------
    @property
    def messages_sent(self) -> int:
        return self.group.messages_sent

    @property
    def events_processed(self) -> int:
        return self.group.events_processed

    @property
    def now(self) -> float:
        """Latest shard-local clock (shards are independent simulations)."""
        return self.group.now


def build_sharded_kv_store(shard_count: int = 4, n: int = 9, t: int = 1,
                           seed: int = 0, client_count: int = 2,
                           **kwargs: Any) -> ShardedKVStore:
    """One-liner constructor mirroring ``build_kv_store``."""
    return ShardedKVStore(shard_count=shard_count, n=n, t=t, seed=seed,
                          client_count=client_count, **kwargs)
