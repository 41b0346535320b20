"""Tests of the self-stabilizing Byzantine KV store facade."""

import gc
import tracemalloc
from collections import Counter

import pytest

from repro.faults.byzantine import strategy_factory
from repro.faults.schedule import FaultTimeline
from repro.faults.transient import TransientFaultInjector
from repro.kvstore.store import StabilizingKVStore, build_kv_store
from repro.registers.system import Cluster, ClusterConfig


def test_put_get_roundtrip():
    store = build_kv_store(seed=1)
    store.put_sync("c1", "k", 42)
    assert store.get_sync("c1", "k") == 42


def test_cross_client_visibility():
    store = build_kv_store(seed=2, client_count=3)
    store.put_sync("c1", "k", "hello")
    assert store.get_sync("c3", "k") == "hello"


def test_independent_keys():
    store = build_kv_store(seed=3)
    store.put_sync("c1", "a", 1)
    store.put_sync("c2", "b", 2)
    assert store.get_sync("c1", "b") == 2
    assert store.get_sync("c2", "a") == 1
    assert store.keys == ["a", "b"]


def test_overwrites_by_different_clients():
    store = build_kv_store(seed=4)
    store.put_sync("c1", "k", "first")
    store.put_sync("c2", "k", "second")
    assert store.get_sync("c1", "k") == "second"


def test_get_of_missing_key_returns_none():
    store = build_kv_store(seed=5)
    assert store.get_sync("c1", "nothing") is None


def test_unknown_client_rejected():
    store = build_kv_store(seed=6)
    with pytest.raises(KeyError):
        store.put("ghost", "k", 1)


def test_requires_at_least_one_client():
    cluster = Cluster(ClusterConfig(n=9, t=1, seed=0))
    with pytest.raises(ValueError):
        StabilizingKVStore(cluster, client_count=0)


def test_tolerates_byzantine_server():
    store = build_kv_store(seed=7)
    cluster = store.cluster
    cluster.make_byzantine(["s4"],
                           strategy_factory("random-garbage", cluster))
    store.put_sync("c1", "k", "safe")
    assert store.get_sync("c2", "k") == "safe"


def test_recovers_after_partial_corruption():
    store = build_kv_store(seed=8)
    store.put_sync("c1", "k", "before")
    injector = TransientFaultInjector.for_cluster(store.cluster)
    injector.corrupt_all(store.cluster.servers, fraction=0.3)
    store.put_sync("c1", "k", "after")
    assert store.get_sync("c2", "k") == "after"


def test_register_reuse_per_key():
    store = build_kv_store(seed=9)
    first = store.register_for("k")
    second = store.register_for("k")
    assert first is second


def test_async_handles():
    store = build_kv_store(seed=10)
    put = store.put("c1", "k", 1)
    store.cluster.run_ops([put])
    get = store.get("c2", "k")
    store.cluster.run_ops([get])
    assert get.result == 1


class TestLazyKeyCreationDeterminism:
    """Keys materialize on first use; creation order must be a pure
    function of the operation program, never of dict/set iteration."""

    def test_same_program_same_execution(self):
        def run():
            store = build_kv_store(seed=20)
            for index in range(6):
                store.put_sync(f"c{index % 2 + 1}", f"k{index}", index)
            reads = [store.get_sync("c1", f"k{index}")
                     for index in range(6)]
            return (store.keys, reads, store.cluster.now,
                    store.cluster.network.messages_sent)

        assert run() == run()

    def test_creation_order_does_not_leak_into_other_keys(self):
        """Touching keys in different orders still yields the same
        per-key results (registers are independent automatons)."""
        forward = build_kv_store(seed=21)
        for index in range(4):
            forward.put_sync("c1", f"k{index}", index)
        backward = build_kv_store(seed=21)
        for index in reversed(range(4)):
            backward.put_sync("c1", f"k{index}", index)
        assert forward.keys == backward.keys
        for index in range(4):
            assert forward.get_sync("c2", f"k{index}") == \
                backward.get_sync("c2", f"k{index}") == index

    def test_get_creates_the_register_too(self):
        store = build_kv_store(seed=22)
        assert store.get_sync("c1", "never-written") is None
        assert store.keys == ["never-written"]


class TestMultiClientBurstInterleavings:
    """Multi-client put/get interleavings while a declarative burst
    timeline corrupts server state mid-run."""

    def test_interleaved_clients_survive_burst_timeline(self):
        store = build_kv_store(seed=23, client_count=3)
        cluster = store.cluster
        for index in range(3):
            store.put_sync(f"c{index + 1}", f"k{index}", f"v{index}")
        injector = TransientFaultInjector.for_cluster(cluster)
        timeline = (FaultTimeline()
                    .burst(cluster.now + 1.0, fraction=0.2,
                           targets="servers")
                    .burst(cluster.now + 2.0, fraction=0.2,
                           targets="servers"))
        timeline.install(cluster, injector)
        cluster.run(until=cluster.now + 3.0)
        assert injector.corruptions > 0
        # concurrent post-burst repair writes by all three clients
        handles = [store.put(f"c{index + 1}", f"k{index}",
                             f"repaired{index}")
                   for index in range(3)]
        cluster.run_ops(handles)
        # cross-client reads see the repaired values
        for index in range(3):
            reader = f"c{(index + 1) % 3 + 1}"
            assert store.get_sync(reader, f"k{index}") == \
                f"repaired{index}"

    def test_concurrent_same_key_writes_linearize(self):
        from repro.checkers.atomicity import check_linearizable
        from repro.checkers.history import History

        store = build_kv_store(seed=24, client_count=2)
        cluster = store.cluster
        store.put_sync("c1", "k", "w0")
        injector = TransientFaultInjector.for_cluster(cluster)
        injector.corrupt_all(cluster.servers, fraction=0.2)
        writes = [store.put("c1", "k", "w1"), store.put("c2", "k", "w2")]
        cluster.run_ops(writes)
        reads = [store.get("c1", "k"), store.get("c2", "k")]
        cluster.run_ops(reads)
        history = History.from_handles(writes + reads)
        assert check_linearizable(history, initial="w0").ok
        assert reads[0].result in ("w1", "w2")
        assert reads[0].result == reads[1].result


class TestPerKeyFootprint:
    """What a stored key costs: its state, not registration plumbing.

    Each key is an MWMR register over ``m`` SWSR copies per writer, so
    ``m² × n`` server automatons with two corruptible variables each
    (36 automatons and 72 variables at ``n=9, m=2``).  Those variables
    are declared by the automaton's class; a variable record exists only
    while a fault is being injected.
    """

    KEYS = 16
    #: ~8 KB/key measured on CPython 3.11; a per-variable record with
    #: its name string costs ~11 KB/key more
    MAX_BYTES_PER_KEY = 12_000

    def _store(self):
        cluster = Cluster(ClusterConfig(n=9, t=1, seed=1,
                                        trace_backend="null"))
        store = StabilizingKVStore(cluster, client_count=2)
        store.register_for("warm")      # first-use caches are not per key
        return store

    @staticmethod
    def _census():
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.get_objects())

    def test_registering_keys_creates_no_functions_or_cells(self):
        store = self._store()
        before = self._census()
        for index in range(self.KEYS):
            store.register_for(f"k{index}")
        grown = self._census() - before
        assert grown["function"] == 0 and grown["cell"] == 0, grown
        assert grown["AtomicRegisterServer"] == self.KEYS * 4 * 9
        assert grown["CorruptibleVar"] == 0

    def test_bytes_per_key_stay_under_the_ceiling(self):
        store = self._store()
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for index in range(self.KEYS):
                store.register_for(f"k{index}")
            gc.collect()
            per_key = (tracemalloc.get_traced_memory()[0] - start) / self.KEYS
        finally:
            tracemalloc.stop()
        assert per_key < self.MAX_BYTES_PER_KEY, per_key
