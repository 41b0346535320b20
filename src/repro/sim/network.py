"""Directed, reliable, FIFO message-passing network.

The paper's basic model (Section 2.1): ``4n`` directed asynchronous links
connecting each server to the writer and the reader, each link FIFO and
reliable (no loss, corruption, duplication or creation) — except that
transient failures may place arbitrary *initial* content on links, which we
support via :meth:`Network.preload`, and that fault timelines may take a
link *down* (a partition): messages sent over a down link are dropped and
counted, messages already in flight still arrive.

Delay models
------------
* :class:`AsyncDelay` — arbitrary finite delays (no bound known to the
  processes); default model for Theorems 1, 3, 4.
* :class:`SyncDelay` — delays bounded by a constant known to the processes;
  model for the Appendix-A variant (Theorem 2).
* :class:`FixedDelay` — handy in unit tests and hand-built schedules.
* :class:`ScriptedDelay` — fully adversarial: a callable chooses each delay,
  used to build the Figure-1 new/old-inversion schedule and the
  quorum-attack experiments.

Every model implements ``sample(src, dst, msg, rng)``; the endpoint and
message arguments let adversarial models build exact interleavings, and
the uniform signature keeps the per-message path free of type dispatch.

Send path
---------
"Send ``message`` from ``src`` to ``dst``" has one definition, and it
lives here: every sender owns an *outbox*, a mapping ``dst ->
send(message)`` handed to the process at :meth:`Network.register`, and
every send in the code base — :meth:`Network.send`, ``Process.send`` and
the inlined protocol hot paths — is the one indexed call
``outbox[dst](message)``.  A miss validates ``dst`` and files the
general path (partitions, trace recording) bound to that link; it stays
the entry on a recording backend.  Otherwise it is replaced by the link's
*fused* closure: when the backend records nothing and the scheduler is
the calendar kernel (``type(scheduler) is Scheduler`` —
observed, not configured), the first send over an up link compiles a
closure capturing the link, its delay model's ``sample`` method, its RNG
stream, the destination's receiver and the calendar's geometry, so every
later send is one dict hit plus straight-line arithmetic — no attribute
chases, no intermediate frames, no :class:`EventHandle`, only the
delivery tuple allocated.  The closure self-checks ``down_votes`` (so a
partition can never be raced past) and is dropped whenever the link's
delay model is swapped.  The general path thus carries only a
:class:`~repro.sim.trace.FullTrace` run's sends, sends over partitioned
links and the :class:`~repro.sim.scheduler.HeapScheduler` oracle.

Delivery path
-------------
Every route files the same non-cancellable scheduler entry, ``(time,
seq, receiver, src, message)``, fired as ``receiver(src, message)``.  A
destination's *receiver*, fixed when it registers, is its bound
``Process.deliver`` (the one copy of the wake rule) or, when the backend
records, a wrapper that records the delivery and then calls it.
:attr:`Network.messages_delivered` sums what ``Process.deliver`` counted.
Fused and general sends consume identical ``(time, seq)`` pairs, so
executions are bit-identical across backends and against the oracle.

Ownership
---------
The send path is cyclic by construction (an outbox entry reaches the
network, fused also the destination's ``deliver``) and pays nothing to
avoid it: the owning ``Cluster``, once dropped, calls
:meth:`Network.release`, which empties every outbox and the receiver
table and releases every process; a later send raises
:class:`~repro.sim.errors.ClusterReleasedError`.
"""

from __future__ import annotations

import random
from functools import partial
from heapq import heappush
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from .errors import (ClusterReleasedError, LinkError, SchedulerError,
                     UnknownProcessError)
from .process import Process
from .random_source import RandomSource
from .scheduler import Scheduler
from .trace import DELIVER, DROP, SEND, TraceBackend


# ----------------------------------------------------------------------
# delay models
# ----------------------------------------------------------------------
class DelayModel:
    """Strategy deciding the transfer delay of each message on a link.

    ``sample`` sees the link endpoints and the message so adversarial
    models can choose delays per message; plain models ignore the extras.
    """

    #: Upper bound on delays known to the processes, or None (asynchronous).
    bound: Optional[float] = None

    def sample(self, src: str, dst: str, msg: Any,
               rng: random.Random) -> float:
        raise NotImplementedError


class FixedDelay(DelayModel):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0):
        if delay <= 0:
            raise LinkError("delay must be positive")
        self.delay = delay
        self.bound = delay

    def sample(self, src: str, dst: str, msg: Any,
               rng: random.Random) -> float:
        return self.delay


class AsyncDelay(DelayModel):
    """Unbounded-looking random delays (asynchronous links).

    Delays are drawn uniformly from ``[lo, hi]`` but the *processes* are
    given no bound (``bound is None``): algorithms relying on timeouts
    cannot be run over this model, exactly as in the paper's asynchronous
    setting.
    """

    def __init__(self, lo: float = 0.1, hi: float = 10.0):
        if not 0 < lo <= hi:
            raise LinkError("need 0 < lo <= hi")
        self.lo = lo
        self.hi = hi
        self.bound = None

    def sample(self, src: str, dst: str, msg: Any,
               rng: random.Random) -> float:
        return rng.uniform(self.lo, self.hi)


class SyncDelay(DelayModel):
    """Delays in ``(0, bound]`` with the bound known to the processes."""

    def __init__(self, bound: float = 1.0):
        if bound <= 0:
            raise LinkError("bound must be positive")
        self.bound = bound

    def sample(self, src: str, dst: str, msg: Any,
               rng: random.Random) -> float:
        return rng.uniform(1e-6, self.bound)


class ScriptedDelay(DelayModel):
    """Adversarial delays chosen by a callable ``chooser(src, dst, msg, rng)``.

    The chooser sees the endpoints and the message, so integration tests can
    build exact interleavings (e.g. the Figure-1 inversion schedule).
    """

    def __init__(self, chooser, bound: Optional[float] = None):
        self.chooser = chooser
        self.bound = bound

    def sample(self, src: str, dst: str, msg: Any,
               rng: random.Random) -> float:
        return self.chooser(src, dst, msg, rng)


# ----------------------------------------------------------------------
# links and network
# ----------------------------------------------------------------------
class Link:
    """One directed FIFO reliable link.

    Downtime is *vote-counted*, not boolean: each cut adds a vote, each
    heal removes one, and the link is up only at zero votes.  That way
    two overlapping partitions that both cover this link keep it down
    until **both** have healed (a plain flag would let the first heal
    silently reopen the other partition's cut).
    """

    __slots__ = ("src", "dst", "delay_model", "rng", "last_delivery",
                 "messages_sent", "messages_dropped", "down_votes")

    def __init__(self, src: str, dst: str, delay_model: DelayModel,
                 rng: random.Random):
        self.src = src
        self.dst = dst
        self.delay_model = delay_model
        self.rng = rng
        self.last_delivery = 0.0
        self.messages_sent = 0
        self.messages_dropped = 0
        self.down_votes = 0

    @property
    def up(self) -> bool:
        return self.down_votes == 0

    def cut(self) -> None:
        self.down_votes += 1

    def heal(self) -> None:
        if self.down_votes > 0:
            self.down_votes -= 1

    def next_delivery_time(self, now: float, message: Any) -> float:
        """FIFO-respecting delivery instant for a message sent at ``now``."""
        candidate = now + self.delay_model.sample(self.src, self.dst,
                                                 message, self.rng)
        # FIFO: never deliver before a previously sent message on this link.
        if candidate < self.last_delivery:
            candidate = self.last_delivery
        else:
            self.last_delivery = candidate
        return candidate


class Outbox(dict):
    """One sender's ``dst -> send(message)`` table (see "Send path"):
    an entry is the link's fused closure or, until one is compiled, the
    general path bound to the link, so callers never branch."""

    def __init__(self, general: Callable[[str], Callable[[Any], None]]):
        self._general = general

    def __missing__(self, dst: str) -> Callable[[Any], None]:
        # Memoised: on a recording backend or the oracle nothing is ever
        # fused, so this entry carries every message, not just the first.
        send = self[dst] = self._general(dst)
        return send


def _released(src: str, dst: str) -> Callable[[Any], None]:
    """A released network's outbox miss (see "Ownership")."""
    raise ClusterReleasedError(
        f"{src} cannot send to {dst!r}: its cluster was released")


class Network:
    """The set of all links plus process registry and delivery machinery."""

    def __init__(self, scheduler: Scheduler, randomness: RandomSource,
                 trace: TraceBackend, default_delay: Optional[DelayModel] = None):
        self.scheduler = scheduler
        self.randomness = randomness
        self.trace = trace
        self.default_delay = default_delay or AsyncDelay()
        self.processes: Dict[str, Process] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        #: whether sends, deliveries and drops are recorded
        self._records = trace.records
        # Fused per-link send closures are compiled (lazily, on first
        # send) only when the backend records nothing and the scheduler
        # is the kernel they inline; see module docstring.
        self._fast_path = not self._records and type(scheduler) is Scheduler
        self._outboxes: Dict[str, Outbox] = {}
        #: pid -> what a delivery to it calls (see "Delivery path")
        self._receivers: Dict[str, Callable[[str, Any], None]] = {}

    # -- topology ---------------------------------------------------------
    def register(self, process: Process) -> Process:
        self.processes[process.pid] = process
        self._receivers[process.pid] = (
            partial(self._record_delivery, process)
            if self._records else process.deliver)
        process.outbox = self._outbox(process.pid)
        return process

    def release(self) -> None:
        """Unwire every sender, receiver and process (see "Ownership")."""
        for src, outbox in self._outboxes.items():
            outbox.clear()
            outbox._general = partial(_released, src)
        self._receivers.clear()
        for process in self.processes.values():
            process.release()

    @property
    def messages_delivered(self) -> int:
        """Messages delivered so far, on every route and backend."""
        return sum(process.messages_received
                   for process in self.processes.values())

    def _outbox(self, src: str) -> Outbox:
        outbox = self._outboxes.get(src)
        if outbox is None:
            outbox = self._outboxes[src] = Outbox(
                partial(self._general_send, src))
        return outbox

    def _general_send(self, src: str, dst: str) -> Callable[[Any], None]:
        """An outbox miss: the general path bound to link ``src -> dst``."""
        if dst not in self.processes:
            raise UnknownProcessError(f"no process {dst!r} registered")
        return partial(self._send_slow, self.link(src, dst))

    def link(self, src: str, dst: str,
             delay_model: Optional[DelayModel] = None) -> Link:
        """Get or create the directed link ``src -> dst``."""
        key = (src, dst)
        existing = self.links.get(key)
        if existing is not None:
            if delay_model is not None:
                existing.delay_model = delay_model
                # the fused closure captured the old model's sample method
                self._outbox(src).pop(dst, None)
            return existing
        model = delay_model or self.default_delay
        rng = self.randomness.stream(f"link:{src}->{dst}")
        created = Link(src, dst, model, rng)
        self.links[key] = created
        return created

    def connect_all(self, clients: Iterable[str], servers: Iterable[str],
                    delay_model: Optional[DelayModel] = None) -> None:
        """Create the paper's 4n-link topology (both directions)."""
        server_list = list(servers)
        for client in clients:
            for server in server_list:
                self.link(client, server, delay_model)
                self.link(server, client, delay_model)

    # -- partitions -------------------------------------------------------
    def set_link_up(self, src: str, dst: str, up: bool = True) -> None:
        """Vote one directed link down (drop its traffic) or back up.

        Votes are counted (see :class:`Link`): pair every down with an
        up, as the partition/heal timeline events do.
        """
        link = self.link(src, dst)
        if up:
            link.heal()
        else:
            link.cut()

    def set_partition(self, group: Sequence[str], up: bool = False) -> None:
        """Cut (``up=False``) or heal (``up=True``) every link between

        ``group`` and the rest of the registered processes, both
        directions.  Messages already in flight still arrive; messages
        sent while a link is down are dropped and counted.  Cuts are
        vote-counted per link, so overlapping partitions compose: a link
        covered by two partitions stays down until both heal.
        """
        members = set(group)
        unknown = [pid for pid in group if pid not in self.processes]
        if unknown:
            # a typo'd group would otherwise cut nothing and pass vacuously
            raise UnknownProcessError(
                f"cannot partition unregistered process(es) {unknown}")
        others = [pid for pid in self.processes if pid not in members]
        for inside in group:
            for outside in others:
                self.set_link_up(inside, outside, up)
                self.set_link_up(outside, inside, up)

    # -- transport ----------------------------------------------------------
    def send(self, src: str, dst: str, message: Any) -> None:
        self._outbox(src)[dst](message)

    def _send_slow(self, link: Link, message: Any) -> None:
        """The general send path: partitions, trace recording.

        Also the fused path's compiler — an eligible link gets its
        closure installed in the sender's outbox here, so the very next
        send over the link skips straight to it.
        """
        now = self.scheduler.now
        if link.down_votes:
            # partitioned: the message is lost, visibly.
            link.messages_dropped += 1
            self.messages_dropped += 1
            if self._records:
                self.trace.emit(now, DROP, link.src, dst=link.dst, msg=message)
            return
        if self._fast_path:
            fast = self._compile_fast_send(link)
            self._outboxes[link.src][link.dst] = fast
            fast(message)
            return
        self._enqueue(link, message, now,
                      link.next_delivery_time(now, message))

    def _enqueue(self, link: Link, message: Any, now: float,
                 delivery_time: float, **detail: Any) -> None:
        """Count ``message`` onto ``link``, record the SEND (with the
        caller's extra ``detail``) on a recording backend and file its
        delivery to the destination's receiver."""
        src, dst = link.src, link.dst
        link.messages_sent += 1
        self.messages_sent += 1
        if self._records:
            self.trace.emit(now, SEND, src, dst=dst, msg=message, **detail)
        self.scheduler.schedule_call(delivery_time, self._receivers[dst],
                                     src, message)

    def _compile_fast_send(self, link: Link) -> Callable[[Any], None]:
        """Compile the per-link fused send closure.

        Everything immutable is captured at compile time (endpoints, the
        delay model's bound ``sample``, the link RNG, the destination's
        receiver, the scheduler's calendar geometry); mutable scheduler
        state (clock, cursor, base, overflow heap) is read through the
        scheduler each call.  The
        closure performs exactly the slow path's effects for an up link —
        same counters, same FIFO clamp, same ``(time, seq)`` consumption —
        and bails back to :meth:`_send_slow` whenever the link has down
        votes, so partitions behave identically.
        """
        sched = self.scheduler
        src, dst = link.src, link.dst
        model = link.delay_model
        rng = link.rng
        seq = sched._seq
        # Inline the delay draw for the stock uniform models: both are
        # ``rng.uniform(lo, hi)``, i.e. ``lo + (hi - lo) * rng.random()``
        # — reproduced bit-for-bit below (one RNG draw, same arithmetic),
        # just without the two Python frames.
        model_type = type(model)
        if model_type is AsyncDelay:
            lo, span = model.lo, model.hi - model.lo
        elif model_type is SyncDelay:
            lo, span = 1e-6, model.bound - 1e-6
        else:
            lo = span = None
        sample = model.sample
        rand = rng.random
        receiver = self._receivers[dst]
        buckets = sched._buckets
        invw = sched._inv_width
        nb = sched._nb

        def fast_send(message: Any, _link: Link = link,
                      _slow: Callable = self._send_slow) -> None:
            if _link.down_votes:
                _slow(_link, message)
                return
            _link.messages_sent += 1
            self.messages_sent += 1
            now = sched.now
            if lo is not None:
                time = now + (lo + span * rand())
            else:
                time = now + sample(src, dst, message, rng)
            if time < _link.last_delivery:
                time = _link.last_delivery
            else:
                _link.last_delivery = time
            if time < now:
                raise SchedulerError(
                    f"cannot schedule at {time}, current time is {now}")
            entry = (time, next(seq), receiver, src, message)
            # inlined Scheduler._insert
            idx = int((time - sched._base) * invw)
            cur = sched._cur
            if idx <= cur:
                heappush(buckets[cur], entry)
            elif idx < nb:
                buckets[idx].append(entry)
            else:
                heappush(sched._far, entry)
            sched._live += 1

        return fast_send

    def preload(self, src: str, dst: str, messages: Iterable[Any],
                spread: float = 0.5) -> None:
        """Place arbitrary initial content on a link (transient failures).

        The garbage messages are delivered FIFO ahead of anything sent
        later, within ``spread`` time units of the current instant.  They
        count as sent messages (per link and globally) and emit SEND
        events, so message statistics are consistent with normal traffic.
        """
        link = self.link(src, dst)
        now = self.scheduler.now
        garbage = list(messages)
        for index, message in enumerate(garbage):
            offset = spread * (index + 1) / (len(garbage) + 1)
            delivery_time = max(now + offset, link.last_delivery)
            link.last_delivery = delivery_time
            self._enqueue(link, message, now, delivery_time, preload=True)

    def _record_delivery(self, process: Process, src: str,
                         message: Any) -> None:
        """The receiver of ``process`` on a recording backend."""
        self.trace.emit(self.scheduler.now, DELIVER, process.pid, src=src,
                        msg=message)
        process.deliver(src, message)
