"""Client-side pipelining: enqueue many operations, drain them in one run.

The serial facade pattern (``put_sync`` / ``get_sync``) drives the
simulation once **per operation** — one quorum round-trip finishes before
the next begins, so a store with ``S`` shards and ``m`` logical clients
still executes exactly one operation at a time.  :class:`Pipeline` is the
batch API a real service client would use instead:

* operations are *enqueued* (program order preserved per client);
* each ``(shard, client)`` lane keeps one operation in flight — the
  paper's processes are sequential — and chains the next one the moment
  the previous completes, with no scheduler round-trip in between;
* :meth:`Pipeline.flush` drains every shard once, so up to
  ``shards x clients`` operations are in flight simultaneously.

The payoff is simulated-time throughput: the same workload that takes
``ops x latency`` serially completes in roughly ``ops / (S x m)`` slots
pipelined (measured, with the wall-clock events/sec alongside, by
``benchmarks/test_bench_kv.py`` → ``BENCH_kv.json``).

Lanes are independent, so operations in different lanes are *concurrent*
in simulated time — a pipelined ``get`` racing a pipelined ``put`` of the
same key may legally return the older value (that is the atomicity
guarantee, not a bug).  Flush between batches when you need ordering:

>>> from repro.kvstore.sharded import build_sharded_kv_store
>>> store = build_sharded_kv_store(shard_count=2, seed=11)
>>> pipe = Pipeline(store)
>>> writes = [pipe.put("c1", f"k{i}", i) for i in range(4)]
>>> _ = pipe.flush()                    # all four puts drain together
>>> reads = [pipe.get("c2", f"k{i}") for i in range(4)]
>>> _ = pipe.flush()
>>> [read.result for read in reads]
[0, 1, 2, 3]
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..sim.errors import OperationError, SimulationLimitReached
from ..sim.process import OperationHandle
from .sharding import shard_router

#: queued-but-not-yet-issued operation: (issue thunk, pipeline handle).
_Lane = Deque[Tuple[Callable[[], OperationHandle], "PipelineHandle"]]


class PipelineHandle:
    """Future-like result of a pipelined operation.

    Resolves to the underlying :class:`~repro.sim.process
    .OperationHandle` once the lane issues the operation; ``result``
    raises until the operation completed (drive the store via
    :meth:`Pipeline.flush`).
    """

    __slots__ = ("kind", "client", "key", "shard", "handle")

    def __init__(self, kind: str, client: str, key: str, shard: int):
        self.kind = kind
        self.client = client
        self.key = key
        self.shard = shard
        self.handle: Optional[OperationHandle] = None

    @property
    def done(self) -> bool:
        return self.handle is not None and self.handle.done

    @property
    def result(self) -> Any:
        if self.handle is None:
            raise OperationError(
                f"pipelined {self.kind}({self.key}) not yet issued "
                "(call Pipeline.flush)")
        return self.handle.result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return (f"PipelineHandle({self.kind}({self.key!r}) "
                f"@{self.client}/shard{self.shard}, {state})")


class Pipeline:
    """Batch ``put``/``get`` front-end for a (sharded) KV store.

    Works with both :class:`~repro.kvstore.sharded.ShardedKVStore` and
    the single-pool :class:`~repro.kvstore.store.StabilizingKVStore`
    (which behaves as one shard).  While a pipeline has pending
    operations it owns its clients: starting operations on the same
    client processes through another API concurrently violates the
    paper's one-operation-per-process rule and raises ``OperationError``.
    """

    def __init__(self, store,
                 on_complete: Optional[Callable[[OperationHandle],
                                                None]] = None):
        self.store = store
        #: observer invoked with each underlying operation handle the
        #: moment it completes (shard-local completion order) — how the
        #: streaming observation pipeline taps pipelined KV runs.
        self.on_complete = on_complete
        self._shard_for = shard_router(store)
        self._lanes: Dict[Tuple[int, str], _Lane] = {}
        self._in_flight: Dict[Tuple[int, str], bool] = {}
        self._outstanding: List[int] = [0] * len(self._clusters())
        self.issued: List[PipelineHandle] = []

    def _clusters(self) -> List[Any]:
        """The store's clusters, re-read on every drain so shards joined
        after construction (live resharding) acquire drainable lanes."""
        group = getattr(self.store, "group", None)
        return list(group) if group is not None else [self.store.cluster]

    # -- enqueueing --------------------------------------------------------
    def put(self, client_pid: str, key: str, value: Any) -> PipelineHandle:
        """Queue ``put(key, value)`` by ``client_pid``; returns a future."""
        shard, store = self._shard_for(key), self.store
        return self._enqueue(
            PipelineHandle("put", client_pid, key, shard),
            lambda: store.put(client_pid, key, value))

    def get(self, client_pid: str, key: str) -> PipelineHandle:
        """Queue ``get(key)`` by ``client_pid``; returns a future."""
        shard, store = self._shard_for(key), self.store
        return self._enqueue(
            PipelineHandle("get", client_pid, key, shard),
            lambda: store.get(client_pid, key))

    def _enqueue(self, pending: PipelineHandle,
                 issue: Callable[[], OperationHandle]) -> PipelineHandle:
        lane_key = (pending.shard, pending.client)
        lane = self._lanes.setdefault(lane_key, deque())
        lane.append((issue, pending))
        self.issued.append(pending)
        while pending.shard >= len(self._outstanding):
            self._outstanding.append(0)
        self._outstanding[pending.shard] += 1
        if not self._in_flight.get(lane_key):
            self._issue_next(lane_key)
        return pending

    def _issue_next(self, lane_key: Tuple[int, str]) -> None:
        lane = self._lanes.get(lane_key)
        if not lane:
            self._in_flight[lane_key] = False
            return
        issue, pending = lane.popleft()
        self._in_flight[lane_key] = True
        handle = issue()
        pending.handle = handle
        # weakly: the handle sits in the store's cluster, which a stalled
        # pipeline dropped with its store must not keep alive
        pipeline = weakref.ref(self)
        handle.on_done(lambda done: pipeline() is not None and pipeline()
                       ._completed(lane_key, pending.shard, done))

    def _completed(self, lane_key: Tuple[int, str], shard: int,
                   handle: OperationHandle) -> None:
        # observe first, then chain the lane's next operation *before*
        # decrementing, so the stream sees completions in order and the
        # shard's outstanding count never transiently reads drained while
        # work remains queued.
        if self.on_complete is not None:
            self.on_complete(handle)
        self._issue_next(lane_key)
        self._outstanding[shard] -= 1

    # -- inspection --------------------------------------------------------
    @property
    def pending(self) -> int:
        """Operations enqueued or in flight, not yet completed."""
        return sum(self._outstanding)

    def pending_on(self, shard: int) -> int:
        if shard >= len(self._outstanding):
            return 0
        return self._outstanding[shard]

    # -- draining ----------------------------------------------------------
    def drain_shard(self, shard: int,
                    max_events: int = 2_000_000) -> None:
        """Run one shard until its in-flight operations complete.

        Completed handles stay in :attr:`issued` (the next ``flush``
        returns them); this only forces the shard-local drain — the
        "ops in flight to the old owner finish there" half of a live
        rebalance handoff (``repro.kvstore.rebalance``).
        """
        if self.pending_on(shard) == 0:
            return
        self._clusters()[shard].scheduler.run_until(
            lambda: self._outstanding[shard] == 0, max_events=max_events)

    def flush(self, max_events: int = 2_000_000) -> List[PipelineHandle]:
        """Run every shard (index order) until its pipeline drains.

        ``max_events`` is a per-shard budget; exhausting it raises
        :class:`~repro.sim.errors.SimulationLimitReached` (the observable
        symptom of a violated resilience assumption, same as
        ``Cluster.run_ops``).  Returns the issued handles in enqueue
        order — all completed.

        Flush is resumable: if a shard stalls, handles that *did*
        complete are detached from :attr:`issued` and annotated on the
        exception as ``exc.drained`` (enqueue order), while unfinished
        ones stay queued — so a retrying caller sees every handle exactly
        once and never a stale duplicate.
        """
        try:
            for shard, cluster in enumerate(self._clusters()):
                if self.pending_on(shard) == 0:
                    continue
                cluster.scheduler.run_until(
                    lambda shard=shard: self._outstanding[shard] == 0,
                    max_events=max_events)
        except SimulationLimitReached as exc:
            drained = [handle for handle in self.issued if handle.done]
            self.issued = [handle for handle in self.issued
                           if not handle.done]
            exc.drained = drained
            raise
        drained, self.issued = self.issued, []
        return drained
