"""Process abstraction and coroutine-style blocking operations.

The paper models each participant (writer, reader, servers) as a state
machine with ``send``/``receive``.  Servers are purely reactive, so they are
plain :class:`Process` subclasses overriding :meth:`Process.on_message`.

Writers and readers execute *blocking* operations ("wait until messages
ACK_WRITE received from (n-t) different servers...").  We express those as
generator coroutines that yield :class:`WaitCondition` objects; the hosting
:class:`Process` resumes the generator when the pending condition holds.
This keeps the algorithm code visually close to the paper's pseudo-code
(compare ``repro/registers/swsr_regular.py`` with Figure 2).

What a delivery costs
---------------------
Every blocking line of Figures 2-4 is a count reaching a threshold, so the
code that records an arrival knows whether it mattered:
:meth:`Process.on_message` returns true on a *crossing* — the collection
it just grew reached the size its wait asked for.  A condition whose truth
can change through such arrivals only is *edge-triggered*
(:attr:`WaitCondition.edge_triggered`, a property of its class: the
registers' confirmation and reply counts, and composites made only of
those); while one is pending, a delivery re-evaluates it only on a
crossing, so the other ``n - 1`` arrivals of a phase cost one attribute
test.  Every other condition is *level* and is re-evaluated after every
delivery: a :class:`Deadline` (a delivery whose timestamp ties the deadline
must still win on sequence number), a :class:`Predicate` (its callable may
read anything — the datalink transports' handle variants wait through
one), and any composite holding either.  The rule is written once, in
:meth:`Process.deliver`, which every network delivery calls (directly, or
through a recording wrapper).  Timers and explicit :meth:`Process.poll`
calls always re-evaluate.

A process sends through its :attr:`Process.outbox`, the ``dst ->
send(message)`` mapping ``Network.register`` installs: how a message
travels (fused closure or general path) is the network's decision, made
in ``repro.sim.network`` and nowhere else.  A wait condition gets
everything it needs — the hosting process, hence the clock — from
:meth:`WaitCondition.arm`; composites only forward it.

Corruptible state
-----------------
Transient failures may corrupt *any* local variable (Section 2.1); which
ones is a property of each automaton of the paper (``last_val``/
``helping_val`` on a server, ``wsn`` on the writer, ``(pwsn, pv)`` on the
reader), so it is declared once per class: an owner class (a server
automaton, a register role) names them in ``CORRUPTIBLE`` next to its
``__slots__``, and ``owner.fuzzer(attr)`` returns the configuration's
shared ``fuzz(rng)`` drawing an arbitrary value of the domain.  A process
enumerates the owners it already holds (:meth:`Process.corruptible_owners`:
a server's automatons, a client's roles), so a hosted register costs its
state and nothing per variable; :attr:`Process.corruptible` builds the
``<reg_id>.<attr> -> CorruptibleVar`` map when a fault is injected, and
the injector in ``repro.faults.transient`` overwrites exactly those, with
``setattr``.  A name is unique per process: an owner colliding with one
already held is refused when it is hosted.  Substrate bookkeeping (the
event queue, phase tokens — see DESIGN.md §2.5) is not declared, hence
not corrupted, mirroring the paper's reliance on a self-stabilizing data
link.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Generator, Iterable, List, NamedTuple,
                    Optional)

from .errors import ClusterReleasedError, OperationError
from .scheduler import Scheduler
from .trace import OP_INVOKE, OP_RESPONSE, TraceBackend


# ----------------------------------------------------------------------
# wait conditions
# ----------------------------------------------------------------------
class WaitCondition:
    """Base class for things a client coroutine can block on."""

    #: True when the condition can become true only through an arrival
    #: that ``Process.on_message`` reports as a crossing (see "What a
    #: delivery costs"); a level condition is re-evaluated after every
    #: delivery.  Fixed by the class, derived from the children by a
    #: composite — never passed in.
    edge_triggered = False

    def arm(self, process: "Process") -> None:
        """Hook called when a coroutine starts waiting on this condition."""

    def satisfied(self) -> bool:
        raise NotImplementedError


class Predicate(WaitCondition):
    """Blocks until an arbitrary zero-argument callable returns true."""

    def __init__(self, fn: Callable[[], bool], label: str = ""):
        self._fn = fn
        self.label = label

    def satisfied(self) -> bool:
        return bool(self._fn())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Predicate({self.label or self._fn!r})"


class Deadline(WaitCondition):
    """Blocks until virtual time reaches ``at``.

    Arms a wake-up event so the hosting process re-checks its pending
    condition exactly when the deadline passes (used by the synchronous-link
    variant's timeouts, Figure 5 lines 02.M/11.M).
    """

    def __init__(self, at: float):
        self.at = at
        self._scheduler: Optional[Scheduler] = None  # the clock, once armed

    def arm(self, process: "Process") -> None:
        if self._scheduler is None:
            scheduler = self._scheduler = process.scheduler
            if self.at > scheduler.now:
                scheduler.schedule_at(self.at, process.poll, label="deadline")

    def satisfied(self) -> bool:
        scheduler = self._scheduler
        return scheduler is not None and scheduler.now >= self.at


class _Composite(WaitCondition):
    """A condition over child conditions; arming it arms them all.

    Edge-triggered exactly when every child is: one level child makes
    the whole wait level.
    """

    def __init__(self, *children: WaitCondition):
        self.children = list(children)
        self.edge_triggered = all(child.edge_triggered for child in children)

    def arm(self, process: "Process") -> None:
        for child in self.children:
            child.arm(process)


class AnyOf(_Composite):
    """Satisfied when any child condition is satisfied."""

    def satisfied(self) -> bool:
        return any(child.satisfied() for child in self.children)


class AllOf(_Composite):
    """Satisfied when every child condition is satisfied."""

    def satisfied(self) -> bool:
        return all(child.satisfied() for child in self.children)


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------
class OperationHandle:
    """Future-like result of a client operation."""

    def __init__(self, name: str, process_id: str, invoke_time: float):
        self.name = name
        self.process_id = process_id
        self.invoke_time = invoke_time
        self.response_time: Optional[float] = None
        self.done = False
        self._result: Any = None
        self.callbacks: List[Callable[["OperationHandle"], None]] = []
        #: free-form annotations (operation kind, written value, register id)
        #: used to build checker histories; see repro.checkers.history.
        self.meta: Dict[str, Any] = {}

    @property
    def result(self) -> Any:
        if not self.done:
            raise OperationError(f"operation {self.name} has not completed")
        return self._result

    def _complete(self, result: Any, time: float) -> None:
        self._result = result
        self.response_time = time
        self.done = True
        for callback in self.callbacks:
            callback(self)
        self.callbacks.clear()      # never run again: stop pinning owners

    def on_done(self, callback: Callable[["OperationHandle"], None]) -> None:
        if self.done:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = f"done={self._result!r}" if self.done else "pending"
        return f"Op({self.name} @{self.process_id}, {status})"


OpGenerator = Generator[WaitCondition, None, Any]


class _AnyRunnable(WaitCondition):
    """:func:`join_all`'s wait: some child coroutine's condition holds.

    One object for the whole join, looking at the live ``pending``
    table.  ``satisfied`` leaves the indexes it found runnable in
    :attr:`runnable`, so the join advances exactly the children the
    resuming evaluation saw, without scanning them again.
    """

    def __init__(self, pending: Dict[int, WaitCondition]):
        self.pending = pending
        self.runnable: List[int] = []

    def arm(self, process: "Process") -> None:
        # re-armed at every yield of the join, i.e. whenever ``pending``
        # changed: the children may be other conditions by now
        conditions = self.pending.values()
        for condition in conditions:
            condition.arm(process)
        self.edge_triggered = all(condition.edge_triggered
                                  for condition in conditions)

    def satisfied(self) -> bool:
        self.runnable = [index for index, condition in self.pending.items()
                         if condition.satisfied()]
        return bool(self.runnable)


def join_all(*generators: OpGenerator) -> OpGenerator:
    """Run several operation coroutines concurrently; return their results.

    Used by the SWMR construction (write the same value to every reader's
    copy, §5.1) and the MWMR scan (read all ``m`` SWMR registers, Figure 4
    lines 01/09).  Waits until any child's pending condition holds, then
    advances, in index order, every child that became runnable.
    """
    pending: Dict[int, WaitCondition] = {}
    live: Dict[int, OpGenerator] = {}
    results: List[Any] = [None] * len(generators)

    for index, generator in enumerate(generators):
        try:
            pending[index] = generator.send(None)
            live[index] = generator
        except StopIteration as stop:
            results[index] = stop.value

    wait = _AnyRunnable(pending)
    while live:
        if not wait.satisfied():
            yield wait
        for index in wait.runnable:
            try:
                pending[index] = live[index].send(None)
            except StopIteration as stop:
                results[index] = stop.value
                del live[index]
                del pending[index]
    return results


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
class CorruptibleVar(NamedTuple):
    """One transient-failure-corruptible variable, ``owner.attr``, and the
    ``fuzz(rng)`` that draws an arbitrary replacement; only
    :attr:`Process.corruptible` builds these, for the fault at hand."""

    owner: Any
    attr: str
    fuzz: Callable[[Any], Any]


class Process:
    """A participant of the simulated system.

    Subclasses implement :meth:`on_message`.  Client subclasses start
    blocking operations with :meth:`start_operation`.
    """

    released = False    # set by ``release``: no operation starts after it

    def __init__(self, pid: str, scheduler: Scheduler, trace: TraceBackend):
        self.pid = pid
        self.scheduler = scheduler
        self.trace = trace
        #: ``dst -> send(message)``, this process's side of the network;
        #: installed by ``Network.register``, which owns what is in it.
        self.outbox: Optional[Dict[str, Callable[[Any], None]]] = None
        #: deliveries so far (``Network.messages_delivered`` sums these)
        self.messages_received = 0
        self._current_op: Optional[OperationHandle] = None
        self._current_gen: Optional[OpGenerator] = None
        self._current_cond: Optional[WaitCondition] = None
        self._advancing = False

    # -- messaging ------------------------------------------------------
    def send(self, dst: str, message: Any) -> None:
        """Send ``message`` over the (FIFO, reliable) link to ``dst``."""
        self.outbox[dst](message)

    def deliver(self, src: str, message: Any) -> None:
        """Called by the network when a message arrives; do not override.

        The one wake rule (see "What a delivery costs"): a pending
        edge-triggered condition is re-evaluated only when ``on_message``
        reports a crossing, anything else after every delivery.
        """
        self.messages_received += 1
        crossed = self.on_message(src, message)
        if self._current_gen is not None:
            condition = self._current_cond
            if crossed or condition is None:
                self.poll()
            # a level condition: pre-check it, so the common no-progress
            # delivery skips the ``poll`` frame
            elif not condition.edge_triggered and condition.satisfied():
                self.poll()

    def on_message(self, src: str, message: Any) -> Optional[bool]:
        """Protocol reaction to a delivered message.  Override me.

        Return true when this arrival is a *crossing*: it grew a
        collection an edge-triggered condition counts to exactly the size
        that condition waits for.  Processes that only ever block on
        level conditions have nothing to report.
        """

    # -- corruptible state ---------------------------------------------
    def corruptible_owners(self) -> Iterable[Any]:
        """The objects this process holds whose class declares
        ``CORRUPTIBLE`` variables (subclasses say where they keep them)."""
        return ()

    @property
    def corruptible(self) -> Dict[str, CorruptibleVar]:
        """``<reg_id>.<attr> -> CorruptibleVar`` over every declared
        variable of every owner held, built afresh on each access."""
        return {f"{owner.reg_id}.{attr}":
                CorruptibleVar(owner, attr, owner.fuzzer(attr))
                for owner in self.corruptible_owners()
                for attr in owner.CORRUPTIBLE}

    def release(self) -> None:
        """Drop what points back at this process (its cluster was dropped;
        subclasses extend this).  A pending operation is abandoned."""
        self.released = True
        if self._current_op is not None:
            self._current_op.callbacks.clear()
        self._current_gen = self._current_cond = None

    # -- blocking operations ---------------------------------------------
    def start_operation(self, name: str, generator: OpGenerator) -> OperationHandle:
        """Begin a blocking operation; processes are sequential (§2.1)."""
        if self.released:
            raise ClusterReleasedError(
                f"{self.pid} cannot start {name}: its cluster was released")
        if self._current_op is not None and not self._current_op.done:
            raise OperationError(
                f"{self.pid} is sequential: {self._current_op.name} still running")
        handle = OperationHandle(name, self.pid, self.scheduler.now)
        self._current_op = handle
        self._current_gen = generator
        self._current_cond = None
        self.trace.emit(self.scheduler.now, OP_INVOKE, self.pid, op=name)
        # Kick the coroutine on a fresh event so invocation time ordering is
        # consistent with message deliveries already queued at `now`.
        self.scheduler.schedule(0.0, self.poll, label=f"start:{name}")
        return handle

    def poll(self) -> None:
        """Re-evaluate the pending wait condition and advance the coroutine."""
        if self._advancing:
            return
        generator = self._current_gen
        if generator is None:
            return
        self._advancing = True
        try:
            while True:
                if self._current_cond is not None:
                    if not self._current_cond.satisfied():
                        return
                    self._current_cond = None
                try:
                    condition = generator.send(None)
                except StopIteration as stop:
                    handle = self._current_op
                    self._current_gen = None
                    self._current_cond = None
                    self.trace.emit(self.scheduler.now, OP_RESPONSE, self.pid,
                                    op=handle.name, result=stop.value)
                    handle._complete(stop.value, self.scheduler.now)
                    return
                except BaseException:
                    # a dead generator answers the next ``send`` with
                    # StopIteration(None), which would pass for a normal
                    # return: drop it, the operation never completes
                    self._current_gen = None
                    self._current_cond = None
                    raise
                condition.arm(self)
                self._current_cond = condition
        finally:
            self._advancing = False

    @property
    def busy(self) -> bool:
        """True while a blocking operation is in progress."""
        return self._current_op is not None and not self._current_op.done

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.pid!r})"
