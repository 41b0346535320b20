"""Unit tests for the footnote-3 alternating-bit stabilizing data link."""

import pytest

from repro.datalink.alternating_bit import (AlternatingBitReceiver,
                                            AlternatingBitSender)
from repro.datalink.bounded_link import BoundedCapacityLink
from repro.datalink.packets import AckPacket, DataPacket
from repro.sim.network import FixedDelay
from repro.sim.scheduler import HeapScheduler, Scheduler


def make_pair(cap=2, delay=0.05, retry=0.2, scheduler=None):
    """A sender/receiver pair wired over bounded forward/ack channels,
    each channel calling its receiver's bound method (as the datalink
    transport wires them)."""
    scheduler = scheduler or Scheduler()
    delivered = []
    ack_link = BoundedCapacityLink(scheduler, "b", "a", cap, deliver=None,
                                   delay_model=FixedDelay(delay))
    receiver = AlternatingBitReceiver(ack_link, delivered.append)
    forward = BoundedCapacityLink(scheduler, "a", "b", cap,
                                  deliver=receiver.on_packet,
                                  delay_model=FixedDelay(delay))
    sender = AlternatingBitSender(scheduler, forward, retry_interval=retry)
    ack_link.deliver = sender.on_ack
    return scheduler, sender, receiver, forward, ack_link, delivered


def test_single_message_delivered_exactly_once():
    scheduler, sender, receiver, *_rest, delivered = make_pair()
    done = []
    sender.enqueue("m1", on_complete=lambda: done.append(1))
    scheduler.run(until=50.0)
    assert delivered == ["m1"]
    assert done == [1]
    assert sender.idle


def test_fifo_stream_of_messages():
    scheduler, sender, receiver, *_rest, delivered = make_pair()
    for index in range(5):
        sender.enqueue(index)
    scheduler.run(until=200.0)
    assert delivered == list(range(5))
    assert sender.completed_sends == 5


def test_no_duplicate_delivery_despite_retransmissions():
    # Large retry pressure: retransmissions flood the channel, but the
    # 0 -> 1 bit edge delivers each body exactly once.
    scheduler, sender, receiver, *_rest, delivered = make_pair(retry=0.06)
    sender.enqueue("only")
    scheduler.run(until=100.0)
    assert delivered == ["only"]


def test_survives_initial_garbage_on_both_channels():
    scheduler, sender, receiver, forward, ack_link, delivered = make_pair()
    # arbitrary initial content (transient failures): stale data + acks
    forward.preload([DataPacket(1, "ghost"), DataPacket(0, "ghost2")])
    ack_link.preload([AckPacket(0), AckPacket(1)])
    sender.enqueue("real")
    scheduler.run(until=100.0)
    # Validity allows delivering initial-garbage bodies; the *real* message
    # must still arrive, exactly once, after the garbage drains.
    assert delivered.count("real") == 1
    assert delivered[-1] == "real"


def test_completion_needs_cap_plus_one_acks():
    scheduler, sender, receiver, *_rest, delivered = make_pair(cap=2)
    done = []
    sender.enqueue("m", on_complete=lambda: done.append(1))
    # after only a couple of events nothing has completed yet
    scheduler.run(until=0.06)
    assert done == []
    scheduler.run(until=100.0)
    assert done == [1]


def test_receiver_acks_every_data_packet():
    scheduler, sender, receiver, forward, ack_link, delivered = make_pair()
    sender.enqueue("m")
    scheduler.run(until=100.0)
    assert ack_link.offered >= 2 * (forward.cap + 1) - forward.dropped - 2


def test_stale_acks_of_other_bit_ignored():
    scheduler, sender, receiver, *_rest, delivered = make_pair(cap=3)
    sender.enqueue("m")
    # inject stale acks for bit 1 while sender is still in bit-0 phase
    sender.on_ack(AckPacket(1))
    sender.on_ack(AckPacket(1))
    scheduler.run(until=100.0)
    assert delivered == ["m"]


def test_ack_outside_any_send_is_ignored():
    scheduler, sender, receiver, *_rest, delivered = make_pair()
    sender.on_ack(AckPacket(0))  # no active send: must not crash
    assert sender.idle


def test_queueing_while_busy():
    scheduler, sender, receiver, *_rest, delivered = make_pair()
    sender.enqueue("first")
    sender.enqueue("second")  # queued behind the active send
    assert not sender.idle
    scheduler.run(until=200.0)
    assert delivered == ["first", "second"]


def test_retransmission_overcomes_channel_loss():
    # cap=1: most retransmissions are dropped, yet delivery succeeds.
    scheduler, sender, receiver, *_rest, delivered = make_pair(cap=1)
    sender.enqueue("tough")
    scheduler.run(until=500.0)
    assert delivered == ["tough"]


@pytest.mark.parametrize("kernel", [Scheduler, HeapScheduler])
def test_preloaded_garbage_of_any_shape_flushes_within_one_bit_phase(kernel):
    """Arbitrary initial content on both channels — objects that are not
    packets, a data packet with a tag no message uses, the other half's
    packet class — is consumed before the first bit phase ends: it never
    counts as an ack, is never ss-delivered, and the real message goes
    through exactly once on the non-cancellable arrival path."""
    scheduler, sender, receiver, forward, ack_link, delivered = make_pair(
        cap=4, scheduler=kernel())
    garbage_forward = ["junk", None, DataPacket(0, "ghost", tag=9),
                       AckPacket(0, tag=1)]
    garbage_reverse = [("junk",), DataPacket(1, "stray", tag=1),
                       AckPacket(1, tag=9), 42]
    assert forward.preload(garbage_forward) == 4
    assert ack_link.preload(garbage_reverse) == 4
    arrivals = []
    for link in (forward, ack_link):
        def logged(packet, _inner=link.deliver):
            arrivals.append((scheduler.now, packet, sender._bit))
            _inner(packet)
        link.deliver = logged
    done = []
    sender.enqueue("real", on_complete=lambda: done.append(scheduler.now))
    scheduler.run(until=100.0)
    assert delivered == ["real"] and len(done) == 1 and sender.idle
    garbage = [(time, bit) for time, packet, bit in arrivals
               if any(packet is junk
                      for junk in garbage_forward + garbage_reverse)]
    assert len(garbage) == 8
    # every garbage arrival lands while the first message is still in its
    # bit-0 phase: flushed within one bit phase
    assert all(bit == 0 for _, bit in garbage)
    assert max(time for time, _ in garbage) < done[0]
