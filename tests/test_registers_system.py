"""Unit tests for the cluster builder and configuration."""

import pytest

from repro.registers.base import ServerAutomaton
from repro.registers.system import (Cluster, ClusterConfig, build_mwmr,
                                    build_swmr, build_swsr_regular)
from repro.sim.errors import SimulationLimitReached
from repro.sim.network import AsyncDelay, SyncDelay


def test_config_delay_model_matches_timing_mode():
    assert isinstance(ClusterConfig(synchronous=False).delay_model(),
                      AsyncDelay)
    assert isinstance(ClusterConfig(synchronous=True).delay_model(),
                      SyncDelay)


def test_cluster_creates_n_servers():
    cluster = Cluster(ClusterConfig(n=9, t=1))
    assert len(cluster.servers) == 9
    assert cluster.server_ids == [f"s{i}" for i in range(1, 10)]


def test_server_lookup():
    cluster = Cluster(ClusterConfig(n=9, t=1))
    assert cluster.server("s3").pid == "s3"
    with pytest.raises(KeyError):
        cluster.server("s99")


def test_resilience_enforced_at_construction():
    with pytest.raises(ValueError):
        Cluster(ClusterConfig(n=8, t=1))
    Cluster(ClusterConfig(n=8, t=1, enforce_resilience=False))


def test_sync_params_carry_delay_bound():
    cluster = Cluster(ClusterConfig(n=4, t=1, synchronous=True,
                                    delay_bound=2.5))
    assert cluster.params.delay_bound == 2.5
    assert cluster.params.synchronous


def test_async_params_have_no_delay_bound():
    cluster = Cluster(ClusterConfig(n=9, t=1))
    assert cluster.params.delay_bound is None


def test_unknown_transport_rejected():
    cluster = Cluster(ClusterConfig(n=9, t=1, transport="pigeon"))
    with pytest.raises(ValueError):
        cluster.make_client("c")


def test_clients_are_tracked():
    cluster = Cluster(ClusterConfig(n=9, t=1))
    cluster.make_client("a")
    cluster.make_client("b")
    assert [client.pid for client in cluster.clients] == ["a", "b"]


def test_run_ops_raises_on_nontermination():
    cluster = Cluster(ClusterConfig(n=9, t=1))
    writer, reader = build_swsr_regular(cluster)
    # make every server silent: reads/writes can never gather acks.
    # (This exceeds t, which is exactly the point of the test.)
    from repro.faults.byzantine import SilentStrategy
    for server in cluster.servers:
        server.strategy = SilentStrategy()
        server.confirm_enabled = False
    handle = writer.write("lost")
    with pytest.raises(SimulationLimitReached):
        cluster.run_ops([handle], max_events=50_000)


def test_run_ops_stops_at_the_last_completion():
    """Completions are counted down: the run stops on the event that
    finishes the last listed operation, whatever the listing order, and
    never looks at ``done`` again."""
    cluster = Cluster(ClusterConfig(n=9, t=1, seed=4))
    writer, reader = build_swsr_regular(cluster)
    write, read = writer.write("v"), reader.read()
    cluster.run_ops([read, write, read])        # a repeated handle is fine
    assert write.done and read.done
    assert cluster.now == max(write.response_time, read.response_time)
    # already-done handles and an empty list return at once
    events = cluster.scheduler.events_processed
    cluster.run_ops([write, read])
    cluster.run_ops([])
    cluster.run_ops(iter([write]))
    assert cluster.scheduler.events_processed == events


def test_now_tracks_scheduler():
    cluster = Cluster(ClusterConfig(n=9, t=1))
    assert cluster.now == 0.0
    cluster.scheduler.schedule(4.0, lambda: None)
    cluster.run()
    assert cluster.now == 4.0


def test_build_swmr_registers_clients():
    cluster = Cluster(ClusterConfig(n=9, t=1))
    register = build_swmr(cluster, ["r1", "r2"])
    assert set(register.readers) == {"r1", "r2"}
    assert len(cluster.clients) == 3  # writer + 2 readers


def test_build_mwmr_names_processes():
    cluster = Cluster(ClusterConfig(n=9, t=1))
    register = build_mwmr(cluster, 3)
    assert [process.pid for process in register.processes] == \
        ["p1", "p2", "p3"]


def test_mwmr_epoch_parameter_validated():
    cluster = Cluster(ClusterConfig(n=9, t=1))
    with pytest.raises(ValueError):
        build_mwmr(cluster, 4, k=2)  # k must be >= m


def test_a_second_register_under_a_hosted_reg_id_is_rejected():
    """Two registers sharing ``reg_id`` used to alias: the second
    overwrote the hosted automatons and a read through it returned what
    was written only through the first."""
    cluster = Cluster(ClusterConfig(n=9, t=1, seed=1))
    writer, _ = build_swsr_regular(cluster, writer_pid="w1",
                                   reader_pid="r1")
    automatons = [server.automatons["reg"] for server in cluster.servers]
    with pytest.raises(ValueError, match="'reg"):
        build_swsr_regular(cluster, writer_pid="w2", reader_pid="r2")
    assert [server.automatons["reg"]
            for server in cluster.servers] == automatons
    assert all(sorted(server.corruptible) == ["reg.helping_val",
                                              "reg.last_val"]
               for server in cluster.servers)
    # a distinct reg_id is a distinct register
    _, reader = build_swsr_regular(cluster, reg_id="other", initial="init",
                                   writer_pid="w3", reader_pid="r3")
    cluster.run_ops([writer.write("from-w1")])
    read = reader.read()
    cluster.run_ops([read])
    assert read.result == "init"


def test_add_automaton_rejects_a_hosted_reg_id():
    cluster = Cluster(ClusterConfig(n=9, t=1))
    server = cluster.servers[0]
    first = server.add_automaton(ServerAutomaton(server, "reg"))
    with pytest.raises(ValueError, match=r"s1 already hosts register 'reg'"):
        server.add_automaton(ServerAutomaton(server, "reg"))
    assert server.automatons == {"reg": first}
