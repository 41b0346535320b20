"""Unit tests for bounded-capacity lossy channels."""

import pytest

from repro.datalink.bounded_link import BoundedCapacityLink
from repro.sim.network import FixedDelay
from repro.sim.scheduler import Scheduler


def make_link(cap=2, delay=1.0):
    scheduler = Scheduler()
    received = []
    link = BoundedCapacityLink(scheduler, "a", "b", cap,
                               deliver=received.append,
                               delay_model=FixedDelay(delay))
    return scheduler, link, received


def test_delivers_within_capacity():
    scheduler, link, received = make_link(cap=3)
    assert link.send("p1")
    assert link.send("p2")
    scheduler.run()
    assert received == ["p1", "p2"]


def test_drops_beyond_capacity():
    scheduler, link, received = make_link(cap=2)
    assert link.send("p1")
    assert link.send("p2")
    assert not link.send("p3")  # dropped
    scheduler.run()
    assert received == ["p1", "p2"]
    assert link.dropped == 1


def test_capacity_frees_after_delivery():
    scheduler, link, received = make_link(cap=1)
    link.send("p1")
    scheduler.run()
    assert link.send("p2")
    scheduler.run()
    assert received == ["p1", "p2"]


def test_fifo_order():
    scheduler, link, received = make_link(cap=5)
    for index in range(5):
        link.send(index)
    scheduler.run()
    assert received == list(range(5))


def test_preload_fills_up_to_capacity():
    scheduler, link, received = make_link(cap=2)
    placed = link.preload(["g1", "g2", "g3"])
    assert placed == 2
    scheduler.run()
    assert received == ["g1", "g2"]


def test_preload_past_capacity_places_exactly_cap_and_drops_nothing():
    scheduler, link, received = make_link(cap=3)
    placed = link.preload(f"g{index}" for index in range(7))
    assert placed == 3 == link.in_flight
    # every placed packet was offered through send(); none was dropped
    assert (link.offered, link.dropped) == (3, 0)
    assert link.preload(["more"]) == 0 and link.offered == 3
    scheduler.run()
    assert received == ["g0", "g1", "g2"]


def test_arrivals_are_call_entries_in_fifo_order():
    """Packets are non-cancellable scheduler calls: each takes one
    ``(time, seq)`` pair and one event, and a later packet with a shorter
    delay still arrives after an earlier one (the FIFO clamp)."""
    from repro.sim.network import ScriptedDelay
    scheduler = Scheduler()
    received = []
    delays = iter([2.0, 0.5, 3.0])
    link = BoundedCapacityLink(
        scheduler, "a", "b", 5,
        deliver=lambda packet: received.append((scheduler.now, packet)),
        delay_model=ScriptedDelay(lambda *_args: next(delays)))
    for packet in ("p0", "p1", "p2"):
        link.send(packet)
    assert scheduler.pending_count() == 3
    scheduler.run()
    assert received == [(2.0, "p0"), (2.0, "p1"), (3.0, "p2")]
    assert scheduler.events_processed == 3


def test_counters():
    scheduler, link, received = make_link(cap=1)
    link.send("a")
    link.send("b")  # dropped
    scheduler.run()
    assert link.offered == 2
    assert link.delivered == 1
    assert link.dropped == 1


def test_invalid_capacity_rejected():
    scheduler = Scheduler()
    with pytest.raises(ValueError):
        BoundedCapacityLink(scheduler, "a", "b", 0, deliver=lambda p: None)


def test_in_flight_tracking():
    scheduler, link, received = make_link(cap=3)
    link.send("a")
    link.send("b")
    assert link.in_flight == 2
    scheduler.run()
    assert link.in_flight == 0
