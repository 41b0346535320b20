"""Unit tests for Byzantine strategies and mobile Byzantine rotation."""

import pytest

from repro.faults.byzantine import (CollusionCoordinator,
                                    FabricatedQuorumStrategy,
                                    STRATEGY_FACTORIES, SilentStrategy,
                                    StaleReplyStrategy, strategy_factory)
from repro.faults.schedule import FaultTimeline
from repro.faults.transient import TransientFaultInjector
from repro.registers.system import Cluster, ClusterConfig, build_swsr_regular


def make_cluster(n=9, t=1, seed=0):
    cluster = Cluster(ClusterConfig(n=n, t=t, seed=seed))
    writer, reader = build_swsr_regular(cluster, initial="v_init")
    return cluster, writer, reader


def run_op(cluster, handle, max_events=500_000):
    cluster.run_ops([handle], max_events=max_events)
    return handle.result


def test_all_named_strategies_resolvable():
    cluster, writer, reader = make_cluster()
    for name in STRATEGY_FACTORIES:
        factory = strategy_factory(name, cluster)
        strategy = factory(cluster.servers[0])
        assert hasattr(strategy, "on_deliver")


def test_unknown_strategy_rejected():
    cluster, writer, reader = make_cluster()
    with pytest.raises(ValueError):
        strategy_factory("nope", cluster)
    # "crash" was a second name for "silent"; a crash is a timeline event
    with pytest.raises(ValueError, match="expected one of silent, ") as exc:
        strategy_factory("crash", cluster)
    assert "'crash'" in str(exc.value)
    with pytest.raises(ValueError, match="unknown Byzantine strategy 'crash'"):
        FaultTimeline().byzantine(1.0, ["s1"], "crash").install(
            cluster, TransientFaultInjector.for_cluster(cluster))


def test_silent_strategy_suppresses_confirms():
    cluster, writer, reader = make_cluster()
    cluster.make_byzantine(["s1"], lambda server: SilentStrategy())
    assert not cluster.server("s1").confirm_enabled


def test_restoring_correctness_reenables_confirms():
    cluster, writer, reader = make_cluster()
    cluster.make_byzantine(["s1"], lambda server: SilentStrategy())
    cluster.make_byzantine(["s1"], None)
    assert cluster.server("s1").confirm_enabled
    assert cluster.byzantine_ids == []


def test_byzantine_ids_listing():
    cluster, writer, reader = make_cluster()
    cluster.make_byzantine(["s2", "s5"],
                           strategy_factory("stale", cluster))
    assert cluster.byzantine_ids == ["s2", "s5"]


def test_stale_strategy_serves_frozen_snapshot():
    cluster, writer, reader = make_cluster(seed=1)
    strategy = StaleReplyStrategy()
    cluster.make_byzantine(["s1"], lambda server: strategy)
    run_op(cluster, writer.write("fresh"))
    # the snapshot was taken at the pre-write state
    assert strategy._snapshot["reg"][0] == "v_init"


def test_fabricated_quorum_strategy_colludes():
    cluster, writer, reader = make_cluster(seed=2)
    coordinator = CollusionCoordinator(fabricated_value="evil")
    cluster.make_byzantine(
        ["s1"], lambda server: FabricatedQuorumStrategy(coordinator))
    # with t=1 the single liar cannot assemble a 2t+1 quorum:
    run_op(cluster, writer.write("good"))
    assert run_op(cluster, reader.read()) == "good"


def rotate(cluster, sets, times, strategy="silent"):
    """Install a mobile-Byzantine rotation; returns its injector."""
    injector = TransientFaultInjector.for_cluster(cluster)
    FaultTimeline().rotation(times, sets, strategy).install(cluster, injector)
    return injector


def test_exceeding_t_in_mobile_controller_rejected():
    cluster, writer, reader = make_cluster()
    with pytest.raises(ValueError, match="exceeds t=1"):
        rotate(cluster, [["s1", "s2"]], [1.0])


def test_mobile_rotation_moves_byzantine_set():
    cluster, writer, reader = make_cluster(seed=3)
    rotate(cluster, [["s1"], ["s2"]], [1.0, 2.0])
    cluster.run(until=1.5)
    assert cluster.byzantine_ids == ["s1"]
    cluster.run(until=2.5)
    assert cluster.byzantine_ids == ["s2"]


def test_mobile_recovery_corrupts_recovered_server():
    """A server leaving the Byzantine set re-joins with arbitrary state."""
    cluster, writer, reader = make_cluster(seed=4)
    injector = rotate(cluster, [["s1"], ["s2"]], [1.0, 2.0])
    cluster.run(until=2.5)
    assert injector.corruptions > 0  # s1's state was fuzzed on recovery


def test_register_survives_mobile_byzantine_rotation():
    cluster, writer, reader = make_cluster(seed=5)
    rotate(cluster, [["s1"], ["s3"], ["s7"]], [1.0, 30.0, 60.0],
           "random-garbage")
    results = []
    cluster.run(until=5.0)
    run_op(cluster, writer.write("alpha"))
    results.append(run_op(cluster, reader.read()))
    cluster.run(until=65.0)
    run_op(cluster, writer.write("omega"))
    results.append(run_op(cluster, reader.read()))
    assert results == ["alpha", "omega"]


def test_rotation_times_length_mismatch_rejected():
    cluster, writer, reader = make_cluster()
    with pytest.raises(ValueError, match="one Byzantine set per"):
        rotate(cluster, [["s1"]], [1.0, 2.0])
