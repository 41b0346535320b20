"""A finished run frees what it built, and a released cluster fails loudly.

A cluster's internals are cyclic by construction; the cluster tears them
down when its last reference goes (``repro.registers.system``).  These
guards run with the cycle collector off: every family's cell, the runs
that stop early, and the service must leave nothing for it, and a part
kept past its cluster must refuse work with a typed error naming it.
"""

import asyncio
import gc
import weakref

import pytest

from gc_guard import garbage_left_by
from repro.kvstore.pipeline import Pipeline
from repro.kvstore.sharded import build_sharded_kv_store
from repro.registers.system import Cluster, ClusterConfig, build_swsr_regular
from repro.service import KVClient, KVService, ServiceServer
from repro.sim.errors import ClusterReleasedError, SimulationLimitReached
from repro.workloads.spec import ScenarioSpec, run_scenario
from test_cross_kernel import DATALINK_CELLS, FAMILY_CELLS


@pytest.mark.parametrize("backend", ["full", "null"])
@pytest.mark.parametrize("family", sorted(FAMILY_CELLS))
def test_family_cell_leaves_no_cyclic_garbage(family, backend):
    params = dict(FAMILY_CELLS[family], trace_backend=backend)
    assert garbage_left_by(lambda: ScenarioSpec(family, params).run()) == 0


@pytest.mark.parametrize("cell", sorted(DATALINK_CELLS))
def test_datalink_cell_leaves_no_cyclic_garbage(cell):
    # senders still retrying towards the last t servers hold live timers
    assert garbage_left_by(
        lambda: run_scenario("swsr", **DATALINK_CELLS[cell])) == 0


def test_starved_cell_leaves_no_cyclic_garbage():
    # the budget runs out mid-operation: pending handles, live
    # coroutines and queued events are all still there when it is dropped
    def starve():
        result = run_scenario("partition", seed=3, partition_count=2,
                              partition_duration=1_000.0, max_events=100_000)
        assert not result.completed

    assert garbage_left_by(starve) == 0


def test_stalled_pipeline_leaves_no_cyclic_garbage():
    def stall():
        store = build_sharded_kv_store(shard_count=2, seed=5)
        pipe = Pipeline(store)
        for index in range(6):
            pipe.put("c1", f"k{index}", index)
            pipe.get("c2", f"k{index}")
        with pytest.raises(SimulationLimitReached):
            pipe.flush(max_events=50)
        assert pipe.pending

    assert garbage_left_by(stall) == 0


def test_dropped_service_frees_its_clusters_without_a_collection():
    async def serve(service):
        server = ServiceServer(service)
        async with KVClient.loopback(server) as client:
            await client.put("k", 1)
            assert await client.batch([("put", "j", 2), ("get", "k")]) \
                == [None, 1]
        await server.shutdown()

    gc.collect()
    gc.disable()
    try:
        service = KVService(shard_count=2, seed=7)
        clusters = [weakref.ref(cluster) for cluster in service.store.group]
        loop = asyncio.new_event_loop()
        loop.run_until_complete(serve(service))
        loop.close()
        del service
        assert [ref() for ref in clusters] == [None, None]
    finally:
        gc.enable()


def test_a_stray_path_back_to_the_cluster_is_a_cycle_not_a_leak():
    # a pending event holding the facade keeps the cluster off the
    # refcount path; the collector must still be able to free it
    cluster = Cluster(ClusterConfig(n=9, t=1, seed=1))
    cluster.scheduler.schedule(5.0, cluster.run)
    ref = weakref.ref(cluster)
    del cluster
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("transport", ["direct", "datalink"])
def test_a_part_kept_past_its_cluster_fails_loudly(transport):
    cluster = Cluster(ClusterConfig(n=9, t=1, seed=1, transport=transport))
    writer, _ = build_swsr_regular(cluster)
    cluster.run_ops([writer.write("before")])
    scheduler = writer.scheduler
    del cluster
    with pytest.raises(ClusterReleasedError, match=r"^w cannot start write"):
        writer.write("after")
        scheduler.run()
    with pytest.raises(ClusterReleasedError, match=r"^w cannot send to 's1'"):
        writer.send("s1", "hello")
    assert scheduler.pending_count() == 0
