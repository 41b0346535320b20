"""The ss-broadcast communication abstraction (Section 2.1).

Properties provided to the register algorithms: Termination, Eventual
delivery, Synchronized delivery (at least ``n - 2t`` correct servers deliver
within the invocation interval), No duplication, Validity, Order delivery.

Two interchangeable client-side transports:

* :class:`DirectClientTransport` — property-faithful fast model over the
  reliable FIFO links of the basic model.  Each broadcast sends one
  ``SSMsg`` per server; the server's substrate confirms delivery with one
  ``SSConfirm``; the invocation *terminates* once ``n - t`` servers
  confirmed, hence at least ``n - 2t`` correct servers delivered within the
  invocation interval (synchronized delivery).

* :class:`DataLinkClientTransport` — the real thing: one footnote-3
  alternating-bit sender per server over bounded-capacity lossy channels
  (``repro.datalink.alternating_bit``).  A broadcast completes when the
  data-link handshake finished towards ``n - t`` servers; handshake
  completion implies the receiver delivered, giving the same guarantee from
  weaker channels.  Each channel hands its arrivals straight to a bound
  method of the half it feeds, and the client is polled only when a send
  completes — an ack by itself cannot end a wait.

Both carry a substrate *phase token* used to correlate algorithm-level
acknowledgements with the broadcast they answer
(``tests/test_datalink_ss_broadcast.py``).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Set

from ..sim.network import DelayModel, FixedDelay
from ..sim.process import Process
from ..sim.random_source import RandomSource
from ..sim.scheduler import Scheduler
from ..sim.trace import BROADCAST
from .alternating_bit import AlternatingBitReceiver, AlternatingBitSender
from .bounded_link import BoundedCapacityLink
from .packets import SSConfirm, SSMsg


class BroadcastHandle:
    """Tracks substrate-level delivery confirmations for one broadcast."""

    __slots__ = ("phase", "needed", "confirmed")

    def __init__(self, phase: int, needed: int):
        self.phase = phase
        self.needed = needed
        self.confirmed: Set[str] = set()

    def confirm(self, server: str) -> None:
        self.confirmed.add(server)

    def completed(self) -> bool:
        """Termination condition of the ss_broadcast invocation."""
        return len(self.confirmed) >= self.needed


class ClientTransport:
    """Interface of the client-side ss-broadcast endpoint."""

    def begin(self, payload: Any) -> BroadcastHandle:
        raise NotImplementedError

    def on_network_message(self, src: str, msg: Any) -> bool:
        """Consume substrate messages; return True if handled."""
        raise NotImplementedError

    def retire(self, phase: int) -> None:
        """Forget bookkeeping for a finished broadcast."""

    def release(self) -> None:
        """Drop wiring that reaches back here (the cluster was released)."""


class DirectClientTransport(ClientTransport):
    """Fast, property-faithful transport over the reliable FIFO links."""

    def __init__(self, process: Process, servers: List[str], quorum: int):
        self.process = process
        self.servers = list(servers)
        self.quorum = quorum
        self._phases = itertools.count(1)
        self._handles: Dict[int, BroadcastHandle] = {}

    def begin(self, payload: Any) -> BroadcastHandle:
        phase = next(self._phases)
        handle = BroadcastHandle(phase, self.quorum)
        self._handles[phase] = handle
        self.process.trace.emit(self.process.scheduler.now, BROADCAST,
                                self.process.pid, phase=phase, payload=payload)
        # one frozen SSMsg shared across all servers (n-1 allocations
        # saved), sent straight through the outbox (``send`` inlined)
        process = self.process
        message = SSMsg(phase, process.pid, payload)
        outbox = process.outbox
        for server in self.servers:
            outbox[server](message)
        return handle

    def on_network_message(self, src: str, msg: Any) -> bool:
        if isinstance(msg, SSConfirm):
            handle = self._handles.get(msg.phase)
            if handle is not None:
                handle.confirm(src)
            return True
        return False

    def retire(self, phase: int) -> None:
        self._handles.pop(phase, None)


class DataLinkClientTransport(ClientTransport):
    """Packet-level transport: alternating-bit data links per server.

    ``server_processes`` maps server id to the actual process object so the
    receiver half can be wired to its ``ss_deliver`` method.
    """

    def __init__(self, process: Process, server_processes: Dict[str, Process],
                 quorum: int, scheduler: Scheduler,
                 randomness: RandomSource, cap: int = 2,
                 retry_interval: float = 0.25,
                 delay_model: Optional[DelayModel] = None):
        self.process = process
        self.quorum = quorum
        self._phases = itertools.count(1)
        self._handles: Dict[int, BroadcastHandle] = {}
        self.senders: Dict[str, AlternatingBitSender] = {}
        self.forward_links: Dict[str, BoundedCapacityLink] = {}
        self.reverse_links: Dict[str, BoundedCapacityLink] = {}
        delay = delay_model or FixedDelay(0.05)
        for server_id, server in server_processes.items():
            fwd_rng = randomness.stream(f"dl:{process.pid}->{server_id}")
            rev_rng = randomness.stream(f"dl:{server_id}->{process.pid}")

            def deliver(body: Any, server=server,
                        client_id=process.pid) -> None:
                # body is (phase, payload); garbage bodies from preloaded
                # channel content may have any shape -> Validity allows
                # delivering them; guard the unpack.
                if isinstance(body, tuple) and len(body) == 2:
                    server.ss_deliver(client_id, body[1], body[0])

            # each channel calls its receiver's bound method; the reverse
            # channel is wired once the sender it feeds exists
            reverse = BoundedCapacityLink(
                scheduler, server_id, process.pid, cap, deliver=None,
                delay_model=delay, rng=rev_rng)
            receiver = AlternatingBitReceiver(reverse, deliver)
            forward = BoundedCapacityLink(
                scheduler, process.pid, server_id, cap,
                deliver=receiver.on_packet, delay_model=delay, rng=fwd_rng)
            sender = AlternatingBitSender(scheduler, forward, retry_interval)
            # no poll per ack: only a completed send can end a wait, and
            # its ``confirm`` callback (``begin``) polls
            reverse.deliver = sender.on_ack
            self.senders[server_id] = sender
            self.forward_links[server_id] = forward
            self.reverse_links[server_id] = reverse

    def begin(self, payload: Any) -> BroadcastHandle:
        phase = next(self._phases)
        handle = BroadcastHandle(phase, self.quorum)
        self._handles[phase] = handle
        self.process.trace.emit(self.process.scheduler.now, BROADCAST,
                                self.process.pid, phase=phase, payload=payload)
        for server_id, sender in self.senders.items():
            def confirm(server_id=server_id, handle=handle):
                handle.confirm(server_id)
                self.process.poll()
            sender.enqueue((phase, payload), on_complete=confirm)
        return handle

    def on_network_message(self, src: str, msg: Any) -> bool:
        # Data-link packets never travel over the Network; SSConfirm unused.
        return isinstance(msg, SSConfirm)

    def retire(self, phase: int) -> None:
        self._handles.pop(phase, None)

    def release(self) -> None:
        # each channel's receiver reaches the channel feeding its peer,
        # and a pending send's ``confirm`` reaches this transport
        for link in (*self.forward_links.values(),
                     *self.reverse_links.values()):
            link.deliver = None
        self.senders.clear()

    def total_packets(self) -> int:
        """Raw packets offered on all channels (bench P3 statistic)."""
        forward = sum(link.offered for link in self.forward_links.values())
        reverse = sum(link.offered for link in self.reverse_links.values())
        return forward + reverse
