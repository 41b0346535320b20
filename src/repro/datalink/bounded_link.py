"""Bounded-capacity raw channels.

The self-stabilizing data link of footnote 3 is defined over channels that
can hold at most ``cap`` packets in transit (Dolev [5], §4.2).  Such a
channel may *lose* packets offered beyond its capacity and may start with
arbitrary content (transient failures), but does not corrupt, duplicate or
create packets after the last transient failure.

:class:`BoundedCapacityLink` implements exactly that over the simulator's
scheduler.  It is deliberately *not* a :class:`repro.sim.network.Link`:
the reliable FIFO links of the basic model are what the ss-broadcast
abstraction *provides on top of* these weaker channels.

A packet in transit is one non-cancellable scheduler call, ``(time, seq,
BoundedCapacityLink._arrive, link, packet)``; a :class:`FixedDelay` is read
as a constant, the way the network's fused sends inline the uniform draw.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable

from ..sim.network import DelayModel, FixedDelay
from ..sim.scheduler import Scheduler


class BoundedCapacityLink:
    """A lossy, bounded-capacity, FIFO packet channel.

    Packets offered while ``cap`` packets are already in flight are dropped
    (counted in :attr:`dropped`).  Use :meth:`preload` to model arbitrary
    initial channel content.  ``deliver(packet)`` receives every arrival,
    garbage included; telling packets from garbage is the receiver's job.
    """

    def __init__(self, scheduler: Scheduler, src: str, dst: str, cap: int,
                 deliver: Callable[[Any], None],
                 delay_model: DelayModel = None,
                 rng: random.Random = None):
        if cap < 1:
            raise ValueError("capacity must be at least 1")
        self.scheduler = scheduler
        self.src = src
        self.dst = dst
        self.cap = cap
        self.deliver = deliver
        self.delay_model = delay_model or FixedDelay(0.05)
        self.rng = rng or random.Random(0)
        self.in_flight = 0
        self.dropped = 0
        self.delivered = 0
        self.offered = 0
        self._last_delivery = 0.0

    def send(self, packet: Any) -> bool:
        """Offer a packet; returns False if the channel was full (dropped)."""
        self.offered += 1
        if self.in_flight >= self.cap:
            self.dropped += 1
            return False
        self.in_flight += 1
        model = self.delay_model
        delay = (model.delay if type(model) is FixedDelay
                 else model.sample(self.src, self.dst, packet, self.rng))
        scheduler = self.scheduler
        delivery_time = scheduler.now + delay
        if delivery_time < self._last_delivery:    # FIFO
            delivery_time = self._last_delivery
        else:
            self._last_delivery = delivery_time
        scheduler.schedule_call(delivery_time, BoundedCapacityLink._arrive,
                                self, packet)
        return True

    def preload(self, packets: Iterable[Any]) -> int:
        """Fill the channel with arbitrary initial content (up to ``cap``).

        Returns how many packets were placed (at most ``cap``).  Each counts
        in :attr:`offered`, like traffic; none counts as :attr:`dropped`.
        """
        placed = 0
        for packet in packets:
            if self.in_flight >= self.cap:
                break
            self.send(packet)
            placed += 1
        return placed

    def _arrive(self, packet: Any) -> None:
        self.in_flight -= 1
        self.delivered += 1
        self.deliver(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"BoundedCapacityLink({self.src}->{self.dst}, cap={self.cap}, "
                f"in_flight={self.in_flight}, dropped={self.dropped})")
