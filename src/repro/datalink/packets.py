"""Wire formats of the communication substrate.

Two layers:

* **ss-broadcast layer** (client <-> server, over the reliable FIFO links of
  the basic model): :class:`SSMsg` carries a broadcast payload with its
  substrate *phase token*; :class:`SSConfirm` is the substrate-level delivery
  confirmation that lets the broadcaster satisfy the abstraction's
  *termination* / *synchronized delivery* properties; :class:`SSReply`
  carries an algorithm-level acknowledgement (ACK_WRITE / ACK_READ) echoing
  the phase token of the broadcast it answers (see DESIGN.md §2.5 on why the
  token lives in the substrate, mirroring the paper's FIFO-matching remark).

* **data-link layer** (footnote 3): :class:`DataPacket` / :class:`AckPacket`
  with an alternating ``bit``, exchanged over bounded-capacity raw channels.

:class:`SSMsg` is built once per broadcast and the same object is handed
to all ``n`` servers, so it is frozen: a Byzantine strategy must not be
able to edit what the other servers will read.  :class:`SSConfirm`,
:class:`SSReply`, :class:`DataPacket` and :class:`AckPacket` are built
per transmission for a single receiver — nothing to guard, and a frozen
dataclass pays one ``object.__setattr__`` per field on the hottest
allocations of a run (a datalink cell builds tens of thousands of
packets) — so they are plain slotted classes that still compare, hash,
print and pickle by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class SSMsg:
    """A broadcast payload in transit from a client to one server."""

    phase: int
    sender: str
    payload: Any


@dataclass(slots=True, unsafe_hash=True)
class SSConfirm:
    """Substrate-level confirmation that one server ss-delivered a phase."""

    phase: int


@dataclass(slots=True, unsafe_hash=True)
class SSReply:
    """An algorithm-level acknowledgement correlated to a broadcast phase."""

    phase: int
    payload: Any


@dataclass(slots=True, unsafe_hash=True)
class DataPacket:
    """Alternating-bit data packet ``(bit, m)`` of the footnote-3 protocol.

    ``tag`` is a bounded per-message stream counter (the footnote's protocol
    implicitly serialises one message at a time; the explicit tag makes ack
    matching robust to stale packets straddling a message boundary, in the
    spirit of the token-circulation data links of [6, 7]).
    """

    bit: int
    body: Any
    tag: int = 0


@dataclass(slots=True, unsafe_hash=True)
class AckPacket:
    """Alternating-bit acknowledgement ``(bit, ack)``, echoing the tag."""

    bit: int
    tag: int = 0
