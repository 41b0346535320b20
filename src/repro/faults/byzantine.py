"""Byzantine server strategies (Section 2.1 failure model, footnote 1).

A Byzantine server *"behaves arbitrarily ... sending erroneous values, not
sending a message when this should be done, stopping its execution"*.  Each
strategy below is one concrete adversary; a cluster installs them with
``cluster.make_byzantine(ids, factory)``.  ``strategy = None`` means the
server is correct.

The strategies receive every ss-delivered payload (the channel still
delivers — Byzantine servers own their behaviour, not the network) and
decide what, if anything, to reply.  The *mobile* failures of footnote 1
— the Byzantine set moves between operations, and a server leaving the
set re-joins the correct ones with an arbitrary (corrupted) state — are
the ``byzantine`` events of :class:`~repro.faults.schedule.FaultTimeline`.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from ..registers.base import ServerProcess
from ..registers.messages import BOT, AckRead, AckWrite, NewHelpVal, Read, Write
from .transient import garbage_value


class ByzantineStrategy:
    """Base class; subclasses override :meth:`on_deliver`."""

    name = "byzantine"

    def attach(self, server: ServerProcess) -> None:
        """Hook run when installed on ``server``."""

    def on_deliver(self, server: ServerProcess, client: str, payload: Any,
                   phase: int) -> None:
        raise NotImplementedError


class SilentStrategy(ByzantineStrategy):
    """Never replies (and suppresses substrate confirmations): a mute or

    crashed server.  Exercises the ``n - t`` waits: operations must
    terminate without it.  A crash that should later recover is the
    ``crash`` / ``recover`` pair of :class:`~repro.faults.schedule
    .FaultTimeline` events, which run this strategy in between.
    """

    name = "silent"

    def __init__(self, suppress_confirm: bool = True):
        self.suppress_confirm = suppress_confirm

    def attach(self, server: ServerProcess) -> None:
        if self.suppress_confirm:
            server.confirm_enabled = False

    def on_deliver(self, server: ServerProcess, client: str, payload: Any,
                   phase: int) -> None:
        return None


class RandomGarbageStrategy(ByzantineStrategy):
    """Replies to every request with freshly fabricated random values."""

    name = "random-garbage"

    def __init__(self, rng: random.Random):
        self.rng = rng

    def on_deliver(self, server: ServerProcess, client: str, payload: Any,
                   phase: int) -> None:
        if isinstance(payload, Write):
            server.reply(client,
                         AckWrite(payload.reg_id, garbage_value(self.rng)),
                         phase)
        elif isinstance(payload, Read):
            server.reply(client,
                         AckRead(payload.reg_id, garbage_value(self.rng),
                                 garbage_value(self.rng)),
                         phase)
        # NEW_HELP_VAL needs no reply; silently dropped.


class StaleReplyStrategy(ByzantineStrategy):
    """Pretends to be stuck in the past: answers from a frozen snapshot.

    The snapshot of each register's state is taken lazily the first time
    the register is queried and never updated, so the server keeps
    acknowledging writes while advertising ancient values to reads.
    """

    name = "stale"

    def __init__(self):
        self._snapshot: Dict[str, Any] = {}

    def _frozen(self, server: ServerProcess, reg_id: str) -> Any:
        if reg_id not in self._snapshot:
            automaton = server.automatons.get(reg_id)
            if automaton is None:
                self._snapshot[reg_id] = (None, BOT)
            else:
                self._snapshot[reg_id] = (automaton.last_val,
                                          automaton.helping_val)
        return self._snapshot[reg_id]

    def on_deliver(self, server: ServerProcess, client: str, payload: Any,
                   phase: int) -> None:
        reg_id = getattr(payload, "reg_id", None)
        if reg_id is None:
            return
        last_val, helping_val = self._frozen(server, reg_id)
        if isinstance(payload, Write):
            server.reply(client, AckWrite(reg_id, helping_val), phase)
        elif isinstance(payload, Read):
            server.reply(client, AckRead(reg_id, last_val, helping_val), phase)


class EquivocateStrategy(ByzantineStrategy):
    """Keeps honest *state* (so it can lie credibly) but poisons reads.

    Writes are applied to the real automaton (which acknowledges honestly);
    every read gets a unique fabricated value, so this server can never
    contribute to a read quorum — maximally unhelpful without being silent.
    """

    name = "equivocate"

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._counter = 0

    def on_deliver(self, server: ServerProcess, client: str, payload: Any,
                   phase: int) -> None:
        if isinstance(payload, (Write, NewHelpVal)):
            server.dispatch(client, payload, phase)
            return
        if isinstance(payload, Read):
            self._counter += 1
            unique = f"equivocal#{server.pid}#{self._counter}"
            server.reply(client,
                         AckRead(payload.reg_id, unique, unique), phase)


class InversionAttackStrategy(ByzantineStrategy):
    """Actively pushes new/old inversions: tracks the write stream and

    answers every read with the *previous* value instead of the latest one
    (with ⊥ as helping value, denying the helping mechanism too).
    """

    name = "inversion-attack"

    def __init__(self):
        self._history: Dict[str, List[Any]] = {}

    def on_deliver(self, server: ServerProcess, client: str, payload: Any,
                   phase: int) -> None:
        if isinstance(payload, Write):
            self._history.setdefault(payload.reg_id, []).append(payload.value)
            server.dispatch(client, payload, phase)  # honest ack, fresh state
            return
        if isinstance(payload, NewHelpVal):
            return  # refuse to help
        if isinstance(payload, Read):
            values = self._history.get(payload.reg_id, [])
            stale = values[-2] if len(values) >= 2 else \
                (values[-1] if values else None)
            server.reply(client, AckRead(payload.reg_id, stale, BOT), phase)


class FlipFlopStrategy(ByzantineStrategy):
    """Answers alternate reads with the newest and the oldest value.

    This is the adversary of the deterministic Figure-1 reproduction
    (``repro.experiments.figure1``): with a write stalled half-way through
    the server set, ``t`` flip-flopping servers swing the majority between
    the new and the old value across two successive reads, producing a
    new/old inversion on the *regular* register.  State is tracked honestly
    (writes are applied and acknowledged) so the lies are credible.
    """

    name = "flip-flop"

    def __init__(self):
        self._history: Dict[str, List[Any]] = {}
        self._read_count = 0

    def on_deliver(self, server: ServerProcess, client: str, payload: Any,
                   phase: int) -> None:
        if isinstance(payload, Write):
            self._history.setdefault(payload.reg_id, []).append(payload.value)
            server.dispatch(client, payload, phase)
            return
        if isinstance(payload, NewHelpVal):
            return
        if isinstance(payload, Read):
            values = self._history.get(payload.reg_id, [])
            if not values:
                automaton = server.automatons.get(payload.reg_id)
                fallback = automaton.last_val if automaton else None
                server.reply(client, AckRead(payload.reg_id, fallback, BOT),
                             phase)
                return
            self._read_count += 1
            # odd reads: newest value; even reads: oldest value.
            value = values[-1] if self._read_count % 2 == 1 else values[0]
            server.reply(client, AckRead(payload.reg_id, value, BOT), phase)


class CollusionCoordinator:
    """Shared blackboard letting several Byzantine servers tell one lie."""

    def __init__(self, fabricated_value: Any = "evil"):
        self.fabricated_value = fabricated_value


class FabricatedQuorumStrategy(ByzantineStrategy):
    """All colluding servers answer reads with the same fabricated value,

    attempting to assemble a ``2t + 1`` quorum for a value that was never
    written (only possible when the resilience bound is violated and/or
    enough correct servers are stale).
    """

    name = "fabricated-quorum"

    def __init__(self, coordinator: CollusionCoordinator):
        self.coordinator = coordinator

    def on_deliver(self, server: ServerProcess, client: str, payload: Any,
                   phase: int) -> None:
        lie = self.coordinator.fabricated_value
        if isinstance(payload, Write):
            server.reply(client, AckWrite(payload.reg_id, lie), phase)
        elif isinstance(payload, Read):
            server.reply(client, AckRead(payload.reg_id, lie, lie), phase)


STRATEGY_FACTORIES = {
    "silent": lambda cluster: (lambda server: SilentStrategy()),
    "random-garbage": lambda cluster: (lambda server: RandomGarbageStrategy(
        cluster.randomness.stream(f"byz:{server.pid}"))),
    "stale": lambda cluster: (lambda server: StaleReplyStrategy()),
    "equivocate": lambda cluster: (lambda server: EquivocateStrategy(
        cluster.randomness.stream(f"byz:{server.pid}"))),
    "inversion-attack": lambda cluster: (lambda server: InversionAttackStrategy()),
    "flip-flop": lambda cluster: (lambda server: FlipFlopStrategy()),
}


def strategy_factory(name: str, cluster):
    """Look up a named strategy factory bound to ``cluster`` randomness."""
    check_strategy(name)
    return STRATEGY_FACTORIES[name](cluster)


def check_strategy(name: Any) -> None:
    """Reject a name that is not a key of :data:`STRATEGY_FACTORIES`,
    listing the names that are."""
    if name not in STRATEGY_FACTORIES:
        raise ValueError(f"unknown Byzantine strategy {name!r} (expected "
                         f"one of {', '.join(STRATEGY_FACTORIES)})")
