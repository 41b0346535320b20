"""Unit tests for the transient-failure injector."""

import pytest

from repro.faults.schedule import FaultTimeline
from repro.faults.transient import (TransientFaultInjector, garbage_message,
                                    garbage_value)
from repro.registers.base import QuorumParams
from repro.registers.swsr_atomic import AtomicWriterRole
from repro.registers.swsr_regular import RegularRegisterServer
from repro.registers.system import (Cluster, ClusterConfig,
                                    build_swsr_atomic, build_swsr_regular)
from repro.sim.random_source import RandomSource
from repro.sim.trace import FAULT


def make_cluster(seed=0):
    cluster = Cluster(ClusterConfig(n=9, t=1, seed=seed))
    writer, reader = build_swsr_regular(cluster, initial="v_init")
    injector = TransientFaultInjector.for_cluster(cluster)
    return cluster, writer, reader, injector


def test_corrupt_var_changes_value():
    cluster, writer, reader, injector = make_cluster()
    server = cluster.servers[0]
    before = server.automatons["reg"].last_val
    injector.corrupt_var(server, "reg.last_val")
    assert server.automatons["reg"].last_val != before


def test_corrupt_process_touches_all_registered_vars():
    cluster, writer, reader, injector = make_cluster()
    server = cluster.servers[0]
    touched = injector.corrupt_process(server)
    assert set(touched) == {"reg.last_val", "reg.helping_val"}


def test_corrupt_process_with_prefix_filter():
    cluster, writer, reader, injector = make_cluster()
    server = cluster.servers[0]
    touched = injector.corrupt_process(server, prefix="reg.last")
    assert touched == ["reg.last_val"]


def test_corrupt_fraction_zero_is_noop():
    cluster, writer, reader, injector = make_cluster()
    server = cluster.servers[0]
    before = server.automatons["reg"].last_val
    touched = injector.corrupt_process(server, fraction=0.0)
    assert touched == []
    assert server.automatons["reg"].last_val == before


def test_corrupt_all_counts():
    cluster, writer, reader, injector = make_cluster()
    count = injector.corrupt_all(cluster.servers)
    assert count == 9 * 2


def test_corruption_traced():
    cluster, writer, reader, injector = make_cluster()
    injector.corrupt_process(cluster.servers[0])
    assert cluster.trace.count(FAULT) == 2


def test_corruption_is_deterministic_per_seed():
    def corrupted_value(seed):
        cluster, writer, reader, injector = make_cluster(seed)
        injector.corrupt_process(cluster.servers[0])
        return cluster.servers[0].automatons["reg"].last_val

    assert corrupted_value(5) == corrupted_value(5)


def test_preload_link_garbage_schedules_messages():
    cluster, writer, reader, injector = make_cluster()
    before = cluster.scheduler.pending_count()
    injector.preload_link_garbage("w", "s1", count=3)
    assert cluster.scheduler.pending_count() == before + 3


def test_garbage_everywhere_covers_all_links():
    cluster, writer, reader, injector = make_cluster()
    injector.garbage_everywhere(["w", "r"], cluster.server_ids, per_link=1)
    # 2 clients x 9 servers x 2 directions = 36 messages
    assert cluster.scheduler.pending_count() >= 36


def test_burst_schedules_future_corruption():
    cluster, writer, reader, injector = make_cluster()
    FaultTimeline().burst(1.0, targets="servers") \
        .burst(2.0, targets="servers").install(cluster, injector)
    assert injector.corruptions == 0
    cluster.run(until=3.0)
    assert injector.corruptions > 0


def test_garbage_value_and_message_are_deterministic():
    a = RandomSource(1).stream("g")
    b = RandomSource(1).stream("g")
    assert garbage_value(a) == garbage_value(b)
    assert garbage_message(a) == garbage_message(b)


def test_injector_without_network_rejects_link_ops():
    cluster, writer, reader, injector = make_cluster()
    bare = TransientFaultInjector(RandomSource(0).stream("x"),
                                  cluster.trace, cluster.scheduler)
    with pytest.raises(ValueError):
        bare.preload_link_garbage("w", "s1")


@pytest.mark.parametrize("fraction", [1.5, -0.5, float("nan")])
def test_fraction_outside_unit_interval_is_rejected(fraction):
    cluster, writer, reader, injector = make_cluster()
    server = cluster.servers[0]
    before = server.automatons["reg"].last_val
    with pytest.raises(ValueError, match="fraction"):
        injector.corrupt_process(server, fraction=fraction)
    with pytest.raises(ValueError, match="fraction"):
        injector.corrupt_all(cluster.servers, fraction=fraction)
    assert injector.corruptions == 0
    assert server.automatons["reg"].last_val == before


def test_prefix_matching_nothing_is_rejected():
    cluster, writer, reader, injector = make_cluster()
    with pytest.raises(ValueError, match=r"prefix 'rge\.'"):
        injector.corrupt_process(cluster.servers[0], prefix="rge.")
    assert injector.corruptions == 0


def test_corruption_writes_through_the_registered_attribute():
    cluster, writer, reader, injector = make_cluster()
    server = cluster.servers[0]
    var = server.corruptible["reg.helping_val"]
    assert var.owner is server.automatons["reg"]
    assert var.attr == "helping_val"
    value = injector.corrupt_var(server, "reg.helping_val")
    assert server.automatons["reg"].helping_val is value


def _corrupt_unknown_server_var(cluster, writer, injector):
    injector.corrupt_var(cluster.servers[0], "reg.nope")


def _corrupt_unknown_client_var(cluster, writer, injector):
    injector.corrupt_var(writer, "reg.last_val")


def _host_a_second_server_automaton(cluster, writer, injector):
    server = cluster.servers[0]
    server.add_automaton(RegularRegisterServer(server, "reg"))


def _host_a_second_writer_role(cluster, writer, injector):
    AtomicWriterRole(writer, "reg", QuorumParams(n=9, t=1))


@pytest.mark.parametrize("act, message", [
    (_corrupt_unknown_server_var,
     r"^s1 has no corruptible variable named 'reg\.nope'$"),
    (_corrupt_unknown_client_var,
     r"^w has no corruptible variable named 'reg\.last_val'$"),
    (_host_a_second_server_automaton, r"^s1 already hosts register 'reg'$"),
    (_host_a_second_writer_role,
     r"^w already has a corruptible variable named 'reg\.wsn'$"),
])
def test_unknown_or_colliding_variables_fail_typed(act, message):
    """An unknown name fails naming the process and the variable; an
    owner whose ``<reg_id>.<attr>`` is already held fails when it is
    hosted, not at the first fault.  Nothing is corrupted either way."""
    cluster = Cluster(ClusterConfig(n=9, t=1, seed=0))
    writer, _ = build_swsr_atomic(cluster)
    injector = TransientFaultInjector.for_cluster(cluster)
    before = sorted(cluster.servers[0].corruptible) + sorted(writer.corruptible)
    with pytest.raises(ValueError, match=message):
        act(cluster, writer, injector)
    assert injector.corruptions == 0 and cluster.trace.count(FAULT) == 0
    assert sorted(cluster.servers[0].corruptible) + \
        sorted(writer.corruptible) == before
