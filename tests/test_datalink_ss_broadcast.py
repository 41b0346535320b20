"""Tests for the ss-broadcast abstraction (both transports).

Checks the six properties of Section 2.1 as far as they are observable:
termination, eventual delivery, synchronized delivery, no duplication,
validity, order delivery.
"""

import pytest

from repro.registers.base import RegisterClientProcess, ServerProcess
from repro.registers.system import Cluster, ClusterConfig
from repro.sim.process import Predicate


class DeliveryLog:
    """Per-server log of ss-delivered payloads."""

    def __init__(self, cluster):
        self.deliveries = {server.pid: [] for server in cluster.servers}
        for server in cluster.servers:
            original = server.ss_deliver

            def logged(client, payload, phase, pid=server.pid,
                       original=original):
                self.deliveries[pid].append(payload)
                original(client, payload, phase)

            server.ss_deliver = logged


def broadcast_and_wait(cluster, client, payload, max_events=200_000):
    handle = client.start_operation(
        "bc", client.ss_broadcast(payload))
    cluster.scheduler.run_until(lambda: handle.done, max_events=max_events)
    return handle


@pytest.fixture(params=["direct", "datalink"])
def transported_cluster(request):
    config = ClusterConfig(n=9, t=1, seed=5, transport=request.param)
    cluster = Cluster(config)
    client = cluster.make_client("w")
    return cluster, client


def test_termination(transported_cluster):
    cluster, client = transported_cluster
    handle = broadcast_and_wait(cluster, client, "m1")
    assert handle.done


def test_eventual_delivery_to_all_correct_servers(transported_cluster):
    cluster, client = transported_cluster
    log = DeliveryLog(cluster)
    broadcast_and_wait(cluster, client, "m1")
    cluster.run()  # drain: eventually *every* correct server delivers
    delivered = [pid for pid, items in log.deliveries.items() if "m1" in items]
    assert len(delivered) == 9


def test_synchronized_delivery(transported_cluster):
    """At least n - 2t correct servers deliver within the invocation."""
    cluster, client = transported_cluster
    log = DeliveryLog(cluster)
    handle = broadcast_and_wait(cluster, client, "m1")
    delivered_now = sum(1 for items in log.deliveries.values()
                        if "m1" in items)
    assert delivered_now >= cluster.params.n - 2 * cluster.params.t


def test_no_duplication(transported_cluster):
    cluster, client = transported_cluster
    log = DeliveryLog(cluster)
    broadcast_and_wait(cluster, client, "m1")
    cluster.run()
    for items in log.deliveries.values():
        assert items.count("m1") <= 1


def test_order_delivery(transported_cluster):
    cluster, client = transported_cluster
    log = DeliveryLog(cluster)
    for message in ("a", "b", "c"):
        broadcast_and_wait(cluster, client, message)
    cluster.run()
    for items in log.deliveries.values():
        ours = [item for item in items if item in ("a", "b", "c")]
        assert ours == ["a", "b", "c"]


def test_phases_increase(transported_cluster):
    cluster, client = transported_cluster
    first = client.transport.begin("x")
    second = client.transport.begin("y")
    assert second.phase > first.phase


def test_completion_counts_distinct_servers_only():
    config = ClusterConfig(n=9, t=1, seed=5)
    cluster = Cluster(config)
    client = cluster.make_client("w")
    handle = client.transport.begin("m")
    for _ in range(20):
        handle.confirm("s1")  # one server confirming many times
    assert not handle.completed()
    for index in range(2, 9):
        handle.confirm(f"s{index}")
    assert handle.completed()


def test_direct_transport_ignores_unrelated_messages():
    config = ClusterConfig(n=9, t=1, seed=5)
    cluster = Cluster(config)
    client = cluster.make_client("w")
    assert not client.transport.on_network_message("s1", "not-a-confirm")


def test_datalink_transport_counts_packets():
    config = ClusterConfig(n=9, t=1, seed=5, transport="datalink")
    cluster = Cluster(config)
    client = cluster.make_client("w")
    broadcast_and_wait(cluster, client, "m1", max_events=500_000)
    assert client.transport.total_packets() > 0


def test_validity_initial_link_garbage_may_deliver():
    """Garbage preloaded on a raw channel may be ss-delivered (Validity

    allows it) but must not break later real broadcasts.
    """
    config = ClusterConfig(n=9, t=1, seed=5, transport="datalink")
    cluster = Cluster(config)
    client = cluster.make_client("w")
    from repro.datalink.packets import DataPacket
    forward = client.transport.forward_links["s1"]
    forward.preload([DataPacket(0, (99, "garbage")),
                     DataPacket(1, (99, "garbage"))])
    log = DeliveryLog(cluster)
    handle = broadcast_and_wait(cluster, client, "real", max_events=500_000)
    assert handle.done
    cluster.run()
    assert all("real" in items for items in log.deliveries.values())


def _golden_cells():
    import json
    import os
    path = os.path.join(os.path.dirname(__file__), "golden",
                        "datalink_cells.json")
    with open(path) as handle:
        return json.load(handle)


@pytest.mark.parametrize("backend", ["full", "null"])
@pytest.mark.parametrize("cell", ["async", "sync"])
def test_datalink_cells_match_their_golden_summaries(cell, backend):
    """Two small datalink cells, pinned as generated before packets and
    acks moved to non-cancellable scheduler calls: every packet still
    takes one ``(time, seq)`` pair, so nothing observable may move."""
    from repro.api import run_scenario
    golden = _golden_cells()[cell]
    result = run_scenario("swsr", **dict(golden["params"],
                                         trace_backend=backend))
    summary = result.summarize().to_dict()
    assert summary["events_processed"] == \
        golden["summary"]["events_processed"]
    assert summary == golden["summary"]
