"""Self-stabilizing communication substrate.

* bounded-capacity lossy raw channels (:mod:`~repro.datalink.bounded_link`),
* the footnote-3 alternating-bit stabilizing data link
  (:mod:`~repro.datalink.alternating_bit`),
* the ss-broadcast abstraction with two interchangeable transports
  (:mod:`~repro.datalink.ss_broadcast`).

Packets and acks in transit are non-cancellable scheduler calls.
"""

from .alternating_bit import AlternatingBitReceiver, AlternatingBitSender
from .bounded_link import BoundedCapacityLink
from .packets import AckPacket, DataPacket, SSConfirm, SSMsg, SSReply
from .ss_broadcast import (BroadcastHandle, ClientTransport,
                           DataLinkClientTransport, DirectClientTransport)

__all__ = [
    "AckPacket", "AlternatingBitReceiver", "AlternatingBitSender",
    "BoundedCapacityLink", "BroadcastHandle", "ClientTransport",
    "DataLinkClientTransport", "DataPacket", "DirectClientTransport",
    "SSConfirm", "SSMsg", "SSReply",
]
