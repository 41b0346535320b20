"""Virtual-time discrete-event scheduler — one binary heap.

The scheduler is the heart of the deterministic substrate: every message
delivery, timer expiry and fault injection is an event ordered by
``(time, sequence-number)``.  The secondary key makes the execution order
total and deterministic even for simultaneous events — events scheduled
earlier run earlier.

The paper's model assumes processing takes zero time and only message
transfers take time; we mirror that by running each event callback
atomically at its scheduled instant.  That order is all the kernel
provides, so the pending set is one ``heapq`` list: a push per event
filed, a pop per event fired.  (The benchmark workloads never hold more
than ~800 pending events; at that size a calendar queue measured 2–8 %
more CPU per op than this heap.)

Two kinds of queue entry share the heap (plain tuples, so ordering
comparisons run at C speed and never look past the unique ``seq``):

* ``(time, seq, handle)`` — a cancellable event carrying an
  :class:`EventHandle`, filed by :meth:`Scheduler.schedule_at` (timers,
  fault injections, operation kicks, drivers);
* ``(time, seq, fn, a, b)`` — a non-cancellable call ``fn(a, b)``, filed
  by :meth:`Scheduler.schedule_call`: every network delivery
  (``receiver(src, message)``) and every footnote-3 packet or ack arrival
  (``BoundedCapacityLink._arrive(link, packet)``).  The tuple is the
  whole event — no handle, no label, no argument tuple to unpack.

Timers keep handles because they get cancelled, and a cancelled entry is
dropped unfired when it reaches the head, never counted in
``events_processed``.  Both kinds draw ``seq`` from one counter, so the
``(time, seq)`` total order — hence every execution — does not depend on
which form an event took.

One kernel ships: ``Cluster`` constructs :class:`Scheduler` and nothing
selects another at run time.  :class:`HeapScheduler` is the executable
reference the tests compare it against — the same heap, every loop one
:meth:`~Scheduler.step` per event — and is never constructed by library
code.  What differs between the two is the network's send path: only on
:class:`Scheduler` does it fuse sends into per-link closures that push
onto the heap themselves.  ``tests/test_sim_scheduler.py`` drives both
kernels with identical event soups and ``tests/test_cross_kernel.py``
pins one cell per scenario family to an identical ``summarize()`` (hence
``history_digest``) under both.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from .errors import SchedulerError, SimulationLimitReached


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("time", "callback", "args", "cancelled", "fired", "label",
                 "_scheduler")

    def __init__(self, time: float, callback: Callable[..., Any],
                 args: tuple, label: str = ""):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self.label = label
        self._scheduler: Optional["Scheduler"] = None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.fired or self.cancelled:
            return
        self.cancelled = True
        if self._scheduler is not None:
            self._scheduler._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"EventHandle(t={self.time}, {self.label!r}, {state})"


class Scheduler:
    """A deterministic virtual-time event loop.

    Typical use::

        sched = Scheduler()
        sched.schedule(1.5, callback, arg1, arg2)
        sched.run()          # until the queue drains
        sched.now            # -> 1.5
    """

    def __init__(self):
        self.now: float = 0.0
        self._seq = itertools.count()
        self.events_processed: int = 0
        #: not-yet-fired, not-cancelled entries (kept O(1)-queryable).
        self._live = 0
        #: every pending entry, a binary heap in ``(time, seq)`` order;
        #: the network's fused sends push onto this very list.
        self._queue: List[Tuple] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, label: str = "") -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SchedulerError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args, label=label)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any, label: str = "") -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise SchedulerError(
                f"cannot schedule at {time}, current time is {self.now}")
        handle = EventHandle(time, callback, args, label=label)
        handle._scheduler = self
        heappush(self._queue, (time, next(self._seq), handle))
        self._live += 1
        return handle

    def schedule_call(self, time: float, fn: Callable[[Any, Any], Any],
                      a: Any, b: Any) -> None:
        """Schedule the non-cancellable call ``fn(a, b)`` at ``time``.

        The queue entry is the event: no :class:`EventHandle` is
        allocated and nothing can cancel it, so use it only for events
        that always fire (message, packet and ack arrivals).  The
        past-check is an assertion of substrate correctness, as in
        :meth:`schedule_at`.
        """
        if time < self.now:
            raise SchedulerError(
                f"cannot schedule at {time}, current time is {self.now}")
        heappush(self._queue, (time, next(self._seq), fn, a, b))
        self._live += 1

    def _peek_entry(self) -> Optional[Tuple]:
        """The next live entry (cancelled entries are dropped), or None.

        Leaves the entry at the head of the heap.
        """
        queue = self._queue
        while queue and len(queue[0]) == 3 and queue[0][2].cancelled:
            heappop(queue)
        return queue[0] if queue else None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue (O(1))."""
        return self._live

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or ``None`` if drained."""
        entry = self._peek_entry()
        return None if entry is None else entry[0]

    def clear(self) -> None:
        """Drop every pending event unfired, and each timer's callback: an
        object holding its own timer is a cycle (a dropped cluster's end).

        A dropped timer's handle reads as cancelled, so cancelling it
        later is the no-op it is for any cancelled timer.
        """
        for entry in self._queue:
            if len(entry) == 3:
                handle = entry[2]
                handle.cancelled = True
                handle.callback = handle.args = None
        self._queue.clear()
        self._live = 0

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _fire(self, entry: Tuple) -> None:
        """Run one already-popped entry at its instant: what :meth:`step`
        and :meth:`run` do per event, and what :meth:`run_until` inlines."""
        self.now = entry[0]
        self.events_processed += 1
        self._live -= 1
        if len(entry) == 5:
            entry[2](entry[3], entry[4])
        else:
            handle = entry[2]
            handle.fired = True
            handle.callback(*handle.args)

    def step(self) -> bool:
        """Run the next event.  Returns False if the queue is empty."""
        if self._peek_entry() is None:
            return False
        self._fire(heappop(self._queue))
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is passed, or the
        event budget is exhausted.

        ``max_events`` exhaustion raises :class:`SimulationLimitReached`;
        reaching ``until`` or draining the queue returns normally.
        """
        queue = self._queue
        while True:
            entry = self._peek_entry()
            if entry is None:
                return
            if until is not None and entry[0] > until:
                self.now = until
                return
            if max_events is not None:
                if max_events <= 0:
                    raise SimulationLimitReached(
                        f"event budget exhausted at t={self.now}",
                        self.events_processed, self.now)
                max_events -= 1
            self._fire(heappop(queue))

    def run_until(self, predicate: Callable[[], bool],
                  max_events: int = 1_000_000) -> None:
        """Run until ``predicate()`` is true (checked after every event).

        Raises :class:`SimulationLimitReached` if the queue drains or the
        budget runs out while the predicate is still false.
        """
        if predicate():
            return
        budget = max_events
        queue = self._queue
        while budget > 0:
            # the per-event hot loop of every scenario run, so the pop
            # and the fire are inline rather than calls to step/_fire
            if not queue:
                raise SimulationLimitReached(
                    f"event queue drained at t={self.now} with predicate unmet",
                    self.events_processed, self.now)
            entry = heappop(queue)
            if len(entry) == 3 and entry[2].cancelled:
                continue
            self.now = entry[0]
            self.events_processed += 1
            self._live -= 1
            if len(entry) == 5:
                entry[2](entry[3], entry[4])
            else:
                handle = entry[2]
                handle.fired = True
                handle.callback(*handle.args)
            budget -= 1
            if predicate():
                return
        raise SimulationLimitReached(
            f"event budget exhausted at t={self.now} with predicate unmet",
            self.events_processed, self.now)


class HeapScheduler(Scheduler):
    """The step-per-event reference model of :class:`Scheduler`.

    A test oracle, not a runtime option: the same heap, and both loops
    fire one event per turn through :meth:`step`, so there is nothing
    here to get wrong but the ``(time, seq)`` order itself.  Order,
    ``until``, budget and error semantics are :class:`Scheduler`'s.  The
    network never fuses sends into this kernel, so a run on it also
    exercises the network's general send path.
    """

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        while True:
            tick = self.peek_time()
            if tick is None:
                return
            if until is not None and tick > until:
                self.now = until
                return
            if max_events is not None:
                if max_events <= 0:
                    raise SimulationLimitReached(
                        f"event budget exhausted at t={self.now}",
                        self.events_processed, self.now)
                max_events -= 1
            self.step()

    def run_until(self, predicate: Callable[[], bool],
                  max_events: int = 1_000_000) -> None:
        if predicate():
            return
        for _ in range(max_events):
            if not self.step():
                raise SimulationLimitReached(
                    f"event queue drained at t={self.now} with predicate unmet",
                    self.events_processed, self.now)
            if predicate():
                return
        raise SimulationLimitReached(
            f"event budget exhausted at t={self.now} with predicate unmet",
            self.events_processed, self.now)
