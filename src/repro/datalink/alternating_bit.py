"""Footnote-3 self-stabilizing data link (alternating bit, cap+1 acks).

Quoting the paper: *"when a message m send operation is invoked by a correct
process pi to a correct process pj, pi repeatedly sends the packet (0, m) to
pj until receiving (cap + 1) packets from pj (where cap is the maximal
number of packets in transit from pi to pj and back).  Then pi repeatedly
sends the packets (1, m) to pj until receiving (cap + 1) packets from pj.
Process pj sends (bit, ack) only when receiving (bit, m), and executes
ss_deliver(m) when receiving the packet (1, m) immediately after receiving
the packet (0, m)."*

Receiving ``cap + 1`` acknowledgements for the current bit guarantees that
at least one of them was generated *after* the current packet was first
received, because at most ``cap`` stale packets (including arbitrary initial
garbage) can be in transit on the round trip.  That is what makes the
protocol self-stabilizing: arbitrary initial channel content is flushed
within one bit phase.

:class:`AlternatingBitSender` additionally queues messages so a stream can
be pushed through one at a time, preserving the FIFO *order delivery*
property of ss-broadcast.

A channel hands every arrival, garbage of any type included, straight to
:meth:`AlternatingBitReceiver.on_packet` (forward) or
:meth:`AlternatingBitSender.on_ack` (reverse); each drops what is not its
packet class.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from ..sim.scheduler import Scheduler
from .bounded_link import BoundedCapacityLink
from .packets import AckPacket, DataPacket


class AlternatingBitSender:
    """Reliable FIFO sender over a bounded-capacity lossy channel.

    ``round_trip_cap`` is the paper's ``cap``: the maximal number of packets
    in transit *from pi to pj and back*.  With per-direction channels of
    capacity ``c`` each that is ``2c`` (the default).  Requiring
    ``round_trip_cap + 1`` acknowledgements of the current bit guarantees at
    least one of them was generated after the current packet was received:
    at most ``round_trip_cap`` stale packets (data or ack) can sit anywhere
    on the loop when a bit phase starts.
    """

    def __init__(self, scheduler: Scheduler, link: BoundedCapacityLink,
                 retry_interval: float = 0.25,
                 round_trip_cap: int = None):
        self.scheduler = scheduler
        self.link = link
        self.retry_interval = retry_interval
        self.cap = (round_trip_cap if round_trip_cap is not None
                    else 2 * link.cap)
        self._queue: Deque[Tuple[Any, Optional[Callable[[], None]]]] = deque()
        self._current: Optional[Tuple[Any, Optional[Callable[[], None]]]] = None
        self._bit = 0
        self._acks_for_bit = 0
        self._timer = None
        self.completed_sends = 0
        # bounded per-message stream tag (see packets.DataPacket.tag)
        self._tag = 0
        self._tag_modulus = 2 * self.cap + 4

    # -- public API -------------------------------------------------------
    def enqueue(self, body: Any,
                on_complete: Optional[Callable[[], None]] = None) -> None:
        """Queue ``body`` for reliable delivery; FIFO w.r.t. earlier sends."""
        self._queue.append((body, on_complete))
        if self._current is None:
            self._start_next()

    def on_ack(self, ack: Any) -> None:
        """Feed whatever arrives on the reverse channel."""
        if self._current is None or not isinstance(ack, AckPacket):
            return  # garbage, or a stale ack outside any send: ignore
        if ack.bit != self._bit or ack.tag != self._tag:
            return  # ack of another bit phase or message: stale, ignore
        self._acks_for_bit += 1
        if self._acks_for_bit >= self.cap + 1:
            if self._bit == 0:
                self._bit = 1
                self._acks_for_bit = 0
                self._transmit()
            else:
                self._finish_current()

    @property
    def idle(self) -> bool:
        return self._current is None and not self._queue

    # -- internals -------------------------------------------------------
    def _start_next(self) -> None:
        if not self._queue:
            self._current = None
            self._cancel_timer()
            return
        self._current = self._queue.popleft()
        self._bit = 0
        self._acks_for_bit = 0
        self._tag = (self._tag + 1) % self._tag_modulus
        self._transmit()

    def _finish_current(self) -> None:
        current = self._current
        self._current = None
        self.completed_sends += 1
        self._cancel_timer()
        # Start the next queued message *before* running the completion
        # callback: the callback may wake a client coroutine that enqueues
        # further messages re-entrantly, and must observe consistent state.
        self._start_next()
        if current is not None and current[1] is not None:
            current[1]()

    def _transmit(self) -> None:
        if self._current is None:
            return
        self.link.send(DataPacket(self._bit, self._current[0], self._tag))
        # re-arm the retry timer: ``_cancel_timer`` and ``schedule``
        # inlined, as this runs once per transmitted packet
        timer = self._timer
        if timer is not None:
            timer.cancel()
        scheduler = self.scheduler
        self._timer = scheduler.schedule_at(
            scheduler.now + self.retry_interval, self._transmit,
            label="ab-retry")

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


class AlternatingBitReceiver:
    """Receiver half: acks every data packet, delivers on a 0 -> 1 edge."""

    def __init__(self, ack_link: BoundedCapacityLink,
                 deliver: Callable[[Any], None]):
        self.ack_link = ack_link
        self.deliver = deliver
        # Previous data-packet (bit, tag); arbitrary initial value is
        # tolerated (worst case: one spurious or one missed delivery of
        # initial garbage, both allowed by the Validity property).
        self.prev: Optional[tuple] = None
        self.deliveries = 0

    def on_packet(self, packet: Any) -> None:
        """Feed whatever arrives on the forward channel."""
        if not isinstance(packet, DataPacket):
            return  # non-packet garbage on the raw channel: dropped
        tag = packet.tag
        self.ack_link.send(AckPacket(packet.bit, tag))
        if packet.bit == 1 and self.prev == (0, tag):
            self.deliveries += 1
            self.deliver(packet.body)
        self.prev = (packet.bit, tag)
