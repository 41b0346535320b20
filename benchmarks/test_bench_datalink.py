"""Experiment P3 — data-link substrate overhead.

The footnote-3 stabilizing data link pays ``2 * (round-trip-cap + 1)``
acknowledged round trips per message.  This bench measures raw packets per
ss-broadcast as channel capacity grows, and the end-to-end cost of running
the full register stack over the packet-level transport vs the direct one.
"""

import pytest

from repro.analysis.tables import Table
from repro.registers.system import Cluster, ClusterConfig
from repro.workloads.spec import run_scenario


def _packets_per_broadcast(cap: int, broadcasts: int = 3) -> float:
    cluster = Cluster(ClusterConfig(n=9, t=1, seed=700, transport="datalink",
                                    datalink_cap=cap, trace_backend="null"))
    client = cluster.make_client("w")
    for index in range(broadcasts):
        handle = client.start_operation(
            "bc", client.ss_broadcast(f"m{index}"))
        cluster.scheduler.run_until(lambda: handle.done,
                                    max_events=2_000_000)
    return client.transport.total_packets() / broadcasts


def test_p3a_packets_vs_capacity(benchmark, report):
    def sweep():
        return [(cap, _packets_per_broadcast(cap)) for cap in (1, 2, 4)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table("P3a  raw packets per ss-broadcast vs channel capacity "
                  "(n=9 servers)",
                  ["cap", "packets/broadcast", "expected shape"])
    for cap, packets in rows:
        table.row(cap, packets, "grows with cap (2*(2cap+1) round trips)")
    report(table.render())
    assert rows[-1][1] > rows[0][1]


def test_p3b_transport_cost_ratio(benchmark, report):
    def run_both():
        direct = run_scenario("swsr", kind="regular", n=9, t=1, seed=701,
                              transport="direct", num_writes=2,
                              num_reads=2, op_gap=30.0)
        datalink = run_scenario("swsr", kind="regular", n=9, t=1, seed=701,
                                transport="datalink", num_writes=2,
                                num_reads=2, op_gap=30.0,
                                max_events=4_000_000)
        return direct, datalink

    direct, datalink = benchmark.pedantic(run_both, rounds=1, iterations=1)
    direct_events = direct.cluster.scheduler.events_processed
    datalink_events = datalink.cluster.scheduler.events_processed
    table = Table("P3b  full register run: direct vs packet-level transport",
                  ["transport", "simulator events", "stable"])
    table.row("direct", direct_events, direct.report.stable)
    table.row("datalink", datalink_events, datalink.report.stable)
    report(table.render())
    assert direct.report.stable and datalink.report.stable
    assert datalink_events > direct_events
