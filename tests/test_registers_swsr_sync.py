"""Tests of the synchronous-link variant (Figure 5 / Theorem 2, t < n/3).

The synchronous model has no entry points of its own: the same
``build_swsr_regular`` / ``build_swsr_atomic`` on a cluster configured
``synchronous=True`` switch the roles to the Figure 5 waits and thresholds.
"""

import pytest

from repro.faults.byzantine import strategy_factory
from repro.faults.transient import TransientFaultInjector
from repro.registers.base import QuorumParams
from repro.registers.system import (Cluster, ClusterConfig,
                                    build_swsr_atomic, build_swsr_regular)
from repro.workloads.spec import run_scenario


def make_sync_system(n=4, t=1, seed=0, atomic=False, **kwargs):
    config = ClusterConfig(n=n, t=t, seed=seed, synchronous=True,
                           delay_bound=1.0, **kwargs)
    cluster = Cluster(config)
    build = build_swsr_atomic if atomic else build_swsr_regular
    writer, reader = build(cluster, initial="v_init")
    assert writer.role.params.synchronous and reader.role.params.synchronous
    return cluster, writer, reader


def run_op(cluster, handle, max_events=500_000):
    cluster.run_ops([handle], max_events=max_events)
    return handle.result


class TestSyncParams:
    def test_bound_is_n_over_3(self):
        Cluster(ClusterConfig(n=4, t=1, synchronous=True))  # ok
        with pytest.raises(ValueError, match=r"n >= 3t \+ 1"):
            Cluster(ClusterConfig(n=3, t=1, synchronous=True))

    def test_thresholds(self):
        params = QuorumParams(n=7, t=2, synchronous=True, delay_bound=1.0)
        assert params.ack_quorum == 7      # all n
        assert params.value_quorum == 3    # t + 1
        assert params.help_quorum == 3     # t + 1
        assert params.delay_bound == 1.0


class TestSyncRegular:
    def test_write_then_read(self):
        cluster, writer, reader = make_sync_system()
        run_op(cluster, writer.write("sync"))
        assert run_op(cluster, reader.read()) == "sync"

    def test_tolerates_one_of_four_byzantine(self):
        """t = 1 with only n = 4 servers — impossible asynchronously."""
        cluster, writer, reader = make_sync_system(seed=1)
        cluster.make_byzantine(["s1"],
                               strategy_factory("random-garbage", cluster))
        run_op(cluster, writer.write("tight"))
        assert run_op(cluster, reader.read()) == "tight"

    def test_silent_byzantine_times_out(self):
        """A mute server forces the timeout path (line 02.M / 11.M)."""
        cluster, writer, reader = make_sync_system(seed=2)
        cluster.make_byzantine(["s2"], strategy_factory("silent", cluster))
        run_op(cluster, writer.write("patience"))
        assert run_op(cluster, reader.read()) == "patience"

    def test_two_byzantine_of_seven(self):
        cluster, writer, reader = make_sync_system(n=7, t=2, seed=3)
        cluster.make_byzantine(["s1"], strategy_factory("silent", cluster))
        cluster.make_byzantine(["s2"], strategy_factory("stale", cluster))
        run_op(cluster, writer.write("seven"))
        assert run_op(cluster, reader.read()) == "seven"

    def test_stabilizes_after_corruption(self):
        cluster, writer, reader = make_sync_system(seed=4)
        injector = TransientFaultInjector.for_cluster(cluster)
        injector.corrupt_all(cluster.servers + [writer, reader])
        run_op(cluster, writer.write("fresh"))
        assert run_op(cluster, reader.read()) == "fresh"


class TestSyncAtomic:
    def test_write_then_read(self):
        cluster, writer, reader = make_sync_system(atomic=True)
        run_op(cluster, writer.write("at"))
        assert run_op(cluster, reader.read()) == "at"

    def test_with_byzantine(self):
        cluster, writer, reader = make_sync_system(atomic=True, seed=5)
        cluster.make_byzantine(["s4"],
                               strategy_factory("inversion-attack", cluster))
        for value in ("a", "b", "c"):
            run_op(cluster, writer.write(value))
            assert run_op(cluster, reader.read()) == value


class TestSyncScenarios:
    def test_regular_scenario_stabilizes(self):
        result = run_scenario("swsr", kind="regular", n=4, t=1, seed=6,
                              synchronous=True, num_writes=4,
                              num_reads=4, corruption_times=(2.0,),
                              byzantine_count=1,
                              byzantine_strategy="silent")
        assert result.completed
        assert result.report.stable

    def test_atomic_scenario_stabilizes(self):
        result = run_scenario("swsr", kind="atomic", n=7, t=2, seed=7,
                              synchronous=True, num_writes=4,
                              num_reads=4, corruption_times=(2.0,),
                              byzantine_count=2)
        assert result.completed
        assert result.report.stable

    def test_sync_uses_fewer_servers_than_async_for_same_t(self):
        """The headline resilience gap: t=2 needs 7 sync vs 17 async."""
        sync_result = run_scenario("swsr", kind="regular", n=7, t=2, seed=8,
                                   synchronous=True, num_writes=2,
                                   num_reads=2, byzantine_count=2)
        async_result = run_scenario("swsr", kind="regular", n=17, t=2, seed=8,
                                    num_writes=2, num_reads=2,
                                    byzantine_count=2)
        assert sync_result.completed and sync_result.report.stable
        assert async_result.completed and async_result.report.stable
