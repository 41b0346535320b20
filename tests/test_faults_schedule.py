"""Unit tests for fault timelines installed on a bare cluster."""

from repro.faults import schedule
from repro.faults.schedule import FaultTimeline
from repro.faults.transient import TransientFaultInjector
from repro.registers.system import Cluster, ClusterConfig, build_swsr_regular


def make_cluster(seed=0):
    cluster = Cluster(ClusterConfig(n=9, t=1, seed=seed))
    build_swsr_regular(cluster, initial="v_init")
    injector = TransientFaultInjector.for_cluster(cluster)
    return cluster, injector


def test_plan_tracks_tau_no_tr():
    timeline = FaultTimeline().burst(3.0).link_garbage(1.0)
    assert timeline.tau_no_tr == 3.0


def test_plan_applies_actions_at_times(monkeypatch):
    cluster, injector = make_cluster()
    fired = []
    monkeypatch.setattr(schedule, "_FAULT_TAPS", [
        lambda t, lane, kind, detail: fired.append((t, lane, kind, detail))])
    FaultTimeline().crash_recovery(2.0, 4.0, ["s1"], corrupt=False) \
        .install(cluster, injector)
    cluster.run(until=3.0)
    assert cluster.byzantine_ids == ["s1"]
    cluster.run(until=5.0)
    assert cluster.byzantine_ids == []
    assert fired == [(2.0, "cluster", "crash", {"servers": ["s1"]}),
                     (4.0, "cluster", "recover",
                      {"servers": ["s1"], "corrupt": False})]


def test_burst_plan_corrupts_at_each_time(monkeypatch):
    cluster, injector = make_cluster()
    fired = []
    monkeypatch.setattr(schedule, "_FAULT_TAPS", [
        lambda t, lane, kind, detail: fired.append((t, kind, detail))])
    FaultTimeline().burst(1.0, targets="servers") \
        .burst(2.0, targets="servers").install(cluster, injector)
    cluster.run(until=3.0)
    assert injector.corruptions == 2 * 9 * 2  # two bursts, 9 servers, 2 vars
    # the tap reports a burst's effect, not its arguments
    assert fired == [(1.0, "burst", {"corrupted": 18, "targets": 9}),
                     (2.0, "burst", {"corrupted": 18, "targets": 9})]


def test_burst_plan_with_link_garbage(monkeypatch):
    cluster, injector = make_cluster()
    fired = []
    monkeypatch.setattr(schedule, "_FAULT_TAPS", [
        lambda t, lane, kind, detail: fired.append((kind, detail))])
    FaultTimeline().burst(1.0).link_garbage(1.0, per_link=2) \
        .install(cluster, injector)
    cluster.run(until=1.5)
    assert injector.corruptions > 0
    # 2 clients x 9 servers x 2 directions
    assert fired[1] == ("link-garbage", {"links": 36, "per_link": 2})


def test_empty_burst_plan():
    cluster, injector = make_cluster()
    before = cluster.scheduler.pending_count()
    timeline = FaultTimeline()
    timeline.install(cluster, injector)
    assert cluster.scheduler.pending_count() == before
    assert timeline.tau_no_tr == 0.0
