"""Shared infrastructure of the register constructions.

* :class:`QuorumParams` — the ``n``/``t`` arithmetic of the paper, with the
  resilience checks (``n >= 8t + 1`` asynchronous, ``n >= 3t + 1``
  synchronous).
* :class:`ServerProcess` — hosts one or more server automatons (so SWMR
  per-reader copies and the KV store share server processes), dispatches
  ss-delivered payloads, and supports Byzantine strategy override and
  transient corruption.
* :class:`RegisterClientProcess` — client base: ss-broadcast coroutine
  helper plus phase-correlated reply collection.
* quorum-counting helpers used by the reader/writer predicates
  (lines 03, 12, 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from ..datalink.packets import SSConfirm, SSMsg, SSReply
from ..datalink.ss_broadcast import (BroadcastHandle, ClientTransport,
                                     DirectClientTransport)
from ..sim.process import Predicate, Process, WaitCondition
from ..sim.scheduler import Scheduler
from ..sim.trace import NOTE, TraceBackend
from .messages import BOT


class _BroadcastComplete(WaitCondition):
    """``ss_broadcast`` termination: enough substrate confirmations.

    Equivalent to ``Predicate(handle.completed)``, but edge-triggered:
    ``handle.confirmed`` grows only where the client records a
    confirmation, and that code reports the one that makes it ``needed``.
    """

    __slots__ = ("handle",)
    edge_triggered = True

    def __init__(self, handle):
        self.handle = handle

    def satisfied(self) -> bool:
        handle = self.handle
        return len(handle.confirmed) >= handle.needed


class _PhaseReplies(dict):
    """One broadcast phase's replies, ``server -> payload`` in arrival
    order, and how many of them the coroutine's wait asked for (0 until a
    :class:`_RepliesCollected` is built over it): the reply that makes
    ``len == awaited`` is the crossing."""

    awaited = 0


class _RepliesCollected(WaitCondition):
    """Replies received from ``count`` different servers (flattened
    ``await_replies`` predicate holding the phase's reply dict directly).

    Edge-triggered: the dict grows only in ``on_message``, which reports
    the reply that makes it ``count``.
    """

    __slots__ = ("collected", "count", "phase")
    edge_triggered = True

    def __init__(self, collected: _PhaseReplies, count: int, phase: int):
        self.collected = collected
        self.count = collected.awaited = count
        self.phase = phase

    def satisfied(self) -> bool:
        return len(self.collected) >= self.count


@dataclass(frozen=True)
class QuorumParams:
    """The ``(n, t)`` arithmetic of the constructions.

    Asynchronous (Figures 2/3): requires ``n >= 8t + 1``; the writer checks
    for ``4t + 1`` equal helping values (line 03), clients wait for ``n - t``
    acknowledgements, the reader needs ``2t + 1`` equal values (lines 12/14).

    Synchronous (Figure 5): requires ``n >= 3t + 1``; clients wait for all
    ``n`` servers or a timeout, thresholds drop to ``t + 1`` and the writer
    check to ``t + 1`` (lines 02.M/03.M/12.M/14.M).
    """

    n: int
    t: int
    synchronous: bool = False
    #: known upper bound on message transfer delays (synchronous model only);
    #: clients derive their round-trip timeouts from it (Appendix A).
    delay_bound: Optional[float] = None

    def __post_init__(self):
        if self.t < 0 or self.n < 1:
            raise ValueError(f"invalid (n={self.n}, t={self.t})")

    @property
    def satisfies_resilience(self) -> bool:
        if self.synchronous:
            return self.n >= 3 * self.t + 1
        return self.n >= 8 * self.t + 1

    def require_resilience(self) -> None:
        if not self.satisfies_resilience:
            bound = "3t + 1" if self.synchronous else "8t + 1"
            raise ValueError(
                f"n={self.n}, t={self.t} violates n >= {bound}; pass "
                f"enforce_resilience=False to experiment beyond the bound")

    @property
    def ack_quorum(self) -> int:
        """How many acknowledgements a client waits for (line 02 / 11)."""
        return self.n if self.synchronous else self.n - self.t

    @property
    def value_quorum(self) -> int:
        """Equal values needed to return from a read (lines 12 / 14)."""
        return self.t + 1 if self.synchronous else 2 * self.t + 1

    @property
    def help_quorum(self) -> int:
        """Equal helping values sparing a NEW_HELP_VAL broadcast (line 03)."""
        return self.t + 1 if self.synchronous else 4 * self.t + 1

    @property
    def sync_quorum(self) -> int:
        """Correct servers guaranteed to ss-deliver within the invocation."""
        return self.n - 2 * self.t


# ----------------------------------------------------------------------
# quorum counting helpers
# ----------------------------------------------------------------------
def value_with_quorum(values: List[Any], quorum: int,
                      exclude_bot: bool = False) -> Optional[Any]:
    """Return a value occurring at least ``quorum`` times, else ``None``.

    When several do, the most frequent wins, the first seen among equally
    frequent ones.  With ``exclude_bot`` the ⊥ marker is not a candidate
    (the helping-value predicates of lines 03/14 require ``w != ⊥``).

    Register values are application data and may be unhashable (dicts,
    lists); those are counted by type and ``repr``, the right notion of
    "same value" here because correct servers echo exactly what the
    writer broadcast.
    """
    counts: Dict[Any, int] = {}
    unhashable: Dict[Any, Any] = {}     # stand-in key -> first value seen
    for value in values:
        try:
            counts[value] = counts.get(value, 0) + 1
        except TypeError:
            key = ("__unhashable__", type(value).__name__, repr(value))
            if key not in counts:
                unhashable[key] = value
            counts[key] = counts.get(key, 0) + 1
    # a dict keeps the first key object it saw and its insertion order, so
    # a strict ``>`` scan returns the first-seen value of the first-seen
    # winner
    winner, most = None, quorum - 1
    for key, count in counts.items():
        if count > most and not (exclude_bot and key is BOT):
            winner, most = key, count
    return unhashable.get(winner, winner)


def first_k(replies: Dict[str, Any], k: int) -> List[Tuple[str, Any]]:
    """The first ``k`` replies in arrival order (dict preserves insertion)."""
    items = list(replies.items())
    return items[:k]


# ----------------------------------------------------------------------
# server side
# ----------------------------------------------------------------------
class ServerAutomaton:
    """Base class of per-register server state machines.

    Handlers receive the client id, the ss-delivered payload and the
    substrate phase token, and answer through ``self.server.reply``.
    Slotted, like its subclasses: a server hosts one per register copy.
    A subclass names its transient-failure-corruptible slots in
    ``CORRUPTIBLE`` and draws their replacements with ``fuzzer(attr)``.
    """

    __slots__ = ("server", "reg_id")
    CORRUPTIBLE: Tuple[str, ...] = ()

    def __init__(self, server: "ServerProcess", reg_id: str):
        self.server = server
        self.reg_id = reg_id

    def on_deliver(self, client: str, payload: Any, phase: int) -> None:
        raise NotImplementedError


class ServerProcess(Process):
    """A storage server: hosts register automatons, may turn Byzantine.

    ``strategy`` is ``None`` while the server is correct; a Byzantine
    strategy object (``repro.faults.byzantine``) otherwise.  Mobile
    Byzantine failures (footnote 1) are modelled by swapping the strategy
    at runtime.
    """

    def __init__(self, pid: str, scheduler: Scheduler, trace: TraceBackend):
        super().__init__(pid, scheduler, trace)
        self.automatons: Dict[str, ServerAutomaton] = {}
        self.strategy = None
        self.confirm_enabled = True
        self.deliveries = 0

    def add_automaton(self, automaton: ServerAutomaton) -> ServerAutomaton:
        """Host ``automaton``; one automaton per ``reg_id``."""
        if automaton.reg_id in self.automatons:
            raise ValueError(f"{self.pid} already hosts register "
                             f"{automaton.reg_id!r}")
        self.automatons[automaton.reg_id] = automaton
        return automaton

    def corruptible_owners(self) -> Iterable[ServerAutomaton]:
        return self.automatons.values()

    def release(self) -> None:
        super().release()
        self.automatons.clear()

    def on_message(self, src: str, msg: Any) -> None:
        # The server half of the direct ss-broadcast substrate, the
        # dominant per-delivery path: confirm (unless a strategy suppresses
        # it) before the automaton runs, reply to the link peer ``src``.
        if isinstance(msg, SSMsg):
            if self.confirm_enabled:
                self.outbox[src](SSConfirm(msg.phase))
            # ``ss_deliver`` stays a real call — it is the instrumentable
            # seam of the ss-broadcast abstraction (tests wrap it).
            self.ss_deliver(src, msg.payload, msg.phase)
            return
        # Anything else is channel garbage (transient failures): tolerated.
        self.trace.emit(self.scheduler.now, NOTE, self.pid,
                        ignored=type(msg).__name__)

    def ss_deliver(self, client: str, payload: Any, phase: int) -> None:
        """Entry point of the ss-broadcast abstraction at this server."""
        self.deliveries += 1
        if self.strategy is not None:
            self.strategy.on_deliver(self, client, payload, phase)
            return
        # inlined dispatch() — the correct-server hot path
        automaton = self.automatons.get(getattr(payload, "reg_id", None))
        if automaton is not None:
            automaton.on_deliver(client, payload, phase)

    def dispatch(self, client: str, payload: Any, phase: int) -> None:
        """Run the correct automaton for ``payload`` (if any)."""
        reg_id = getattr(payload, "reg_id", None)
        automaton = self.automatons.get(reg_id)
        if automaton is not None:
            automaton.on_deliver(client, payload, phase)

    def reply(self, client: str, payload: Any, phase: int) -> None:
        """Send an algorithm-level acknowledgement 'by return' (line 20/23)."""
        self.send(client, SSReply(phase, payload))


# ----------------------------------------------------------------------
# client side
# ----------------------------------------------------------------------
class RegisterClientProcess(Process):
    """Base class of writer/reader processes.

    Owns the client-side ss-broadcast transport and collects phase-correlated
    replies: at most one reply per (phase, server) is retained — the paper's
    FIFO-matching remark means further replies from the same server answer
    *later* broadcasts, and a correct server sends exactly one.
    """

    #: the one register role a stand-alone writer/reader hosts
    role: Any = None

    def __init__(self, pid: str, scheduler: Scheduler, trace: TraceBackend):
        super().__init__(pid, scheduler, trace)
        self.transport: Optional[ClientTransport] = None
        self._replies: Dict[int, _PhaseReplies] = {}
        #: ``reg_id -> (role, ...)``: the register roles hosted here
        self.roles: Dict[str, Tuple[Any, ...]] = {}

    def attach_transport(self, transport: ClientTransport) -> None:
        self.transport = transport

    def host_role(self, role: Any) -> None:
        """Host ``role``: its ``CORRUPTIBLE`` variables become this
        process's, and none may share a name with one already held."""
        held = self.roles.get(role.reg_id, ())
        for attr in role.CORRUPTIBLE:
            if any(attr in other.CORRUPTIBLE for other in held):
                raise ValueError(f"{self.pid} already has a corruptible "
                                 f"variable named {role.reg_id + '.' + attr!r}")
        self.roles[role.reg_id] = held + (role,)

    def corruptible_owners(self) -> Iterable[Any]:
        return (role for held in self.roles.values() for role in held)

    def release(self) -> None:
        super().release()
        self.roles.clear()
        transport, self.transport = self.transport, None
        if transport is not None:
            transport.release()
        if self.role is not None:   # kept: ``write`` must reach the refusal
            self.role.host = None

    def on_message(self, src: str, msg: Any) -> bool:
        """Record a reply or confirmation; true when it is the one that
        brings its phase's collection to the size waited for."""
        if isinstance(msg, SSReply):
            collected = self._replies.get(msg.phase)
            if collected is not None and src not in collected:
                collected[src] = msg.payload
                return len(collected) == collected.awaited
            return False
        transport = self.transport
        # Inlined DirectClientTransport.on_network_message + confirm() —
        # every broadcast collects n confirmations through here.
        if isinstance(msg, SSConfirm) and \
                type(transport) is DirectClientTransport:
            handle = transport._handles.get(msg.phase)
            if handle is not None:
                confirmed = handle.confirmed
                if src not in confirmed:
                    confirmed.add(src)
                    return len(confirmed) == handle.needed
            return False
        if transport is not None and \
                transport.on_network_message(src, msg):
            # a transport this class does not inline counts for itself:
            # whatever it consumed may have completed a broadcast
            return True
        self.trace.emit(self.scheduler.now, NOTE, self.pid,
                        ignored=type(msg).__name__)
        return False

    # -- coroutine helpers -------------------------------------------------
    def ss_broadcast(self, payload: Any) -> Generator[WaitCondition, None, int]:
        """The blocking ``ss_broadcast(m)`` invocation; returns the phase."""
        handle = self.transport.begin(payload)
        self._replies[handle.phase] = _PhaseReplies()
        if type(handle) is BroadcastHandle:
            yield _BroadcastComplete(handle)
        else:
            # transports may return handle variants with their own
            # completion bookkeeping — wait on the method, not the fields
            yield Predicate(handle.completed,
                            label=f"ss_broadcast:{handle.phase}")
        return handle.phase

    def replies(self, phase: int) -> Dict[str, Any]:
        return self._replies.get(phase, {})

    def await_replies(self, phase: int, count: int) -> WaitCondition:
        """Condition: replies received from ``count`` different servers."""
        collected = self._replies.get(phase)
        if collected is None:
            # phase unknown (already retired, or never broadcast): fall
            # back to a live lookup so the condition can never resurrect
            # a dropped phase dict.
            return Predicate(lambda: len(self._replies.get(phase, ())) >= count,
                             label=f"await_replies:{phase}:{count}")
        return _RepliesCollected(collected, count, phase)

    def retire_phase(self, phase: int) -> None:
        """Drop bookkeeping of a completed wait (keeps memory bounded)."""
        self._replies.pop(phase, None)
        if self.transport is not None:
            self.transport.retire(phase)
