"""Virtual-time discrete-event scheduler — the calendar-queue kernel.

The scheduler is the heart of the deterministic substrate: every message
delivery, timer expiry and fault injection is an event ordered by
``(time, sequence-number)``.  The secondary key makes the execution order
total and deterministic even for simultaneous events — events scheduled
earlier run earlier.

The paper's model assumes processing takes zero time and only message
transfers take time; we mirror that by running each event callback
atomically at its scheduled instant.

Two kinds of queue entry share the structure (plain tuples, so ordering
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
dropped unfired, never counted in ``events_processed``.  Both kinds draw
``seq`` from one counter, so the ``(time, seq)`` total order — hence every
execution — does not depend on which form an event took.

Calendar queue
--------------
Event times cluster: delay models draw from narrow ranges around ``now``,
so most pending events live within a few time units of the clock.  The
kernel exploits that with a *calendar queue* (a bucketed ladder): the
near future is an array of buckets of fixed ``bucket_width``; an event is
filed by quantized time with a plain ``list.append`` (no heap discipline
until its bucket becomes *active*).  Only the active bucket — the one the
clock is currently draining — is kept as a binary heap, so push/pop costs
scale with the handful of imminent events, not the whole pending set.
Events beyond the calendar horizon (far-future timers, fault timelines)
fall back to an overflow heap and are redistributed when the calendar
rolls forward.  Bucket routing is monotone in event time (IEEE multiply
and ``int`` truncation both preserve order), so the pop order is exactly
the global ``(time, seq)`` order — property-tested against the reference
single-heap kernel in ``tests/test_sim_scheduler.py``.

One kernel ships: ``Cluster`` constructs :class:`Scheduler` and nothing
selects another at run time.  :class:`HeapScheduler` is the executable
reference the tests compare it against — one global heap, one event per
turn, no batching — and is never constructed by library code:
``tests/test_sim_scheduler.py`` drives both with identical event soups and
``tests/test_cross_kernel.py`` pins one cell per scenario family to an
identical ``summarize()`` (hence ``history_digest``) under both.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
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
    """A deterministic virtual-time event loop (calendar-queue kernel).

    Typical use::

        sched = Scheduler()
        sched.schedule(1.5, callback, arg1, arg2)
        sched.run()          # until the queue drains
        sched.now            # -> 1.5

    ``bucket_width`` / ``bucket_count`` size the calendar (defaults cover
    128 time units at 0.5 per bucket); they affect only constant factors,
    never execution order.
    """

    def __init__(self, bucket_width: float = 0.5, bucket_count: int = 256):
        if bucket_width <= 0 or bucket_count < 2:
            raise SchedulerError(
                f"invalid calendar shape (width={bucket_width}, "
                f"count={bucket_count})")
        self.now: float = 0.0
        self._seq = itertools.count()
        self.events_processed: int = 0
        #: not-yet-fired, not-cancelled entries (kept O(1)-queryable).
        self._live = 0
        # calendar state: buckets[_cur] is the active bucket and is always
        # in heap order; buckets past _cur are plain appended lists;
        # entries at or beyond the horizon wait in the _far overflow heap.
        self._width = bucket_width
        self._inv_width = 1.0 / bucket_width
        self._nb = bucket_count
        self._buckets: List[List[Tuple]] = [[] for _ in range(bucket_count)]
        self._base = 0.0
        self._cur = 0
        self._far: List[Tuple] = []

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
        self._insert(time, (time, next(self._seq), handle))
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
        self._insert(time, (time, next(self._seq), fn, a, b))

    def _insert(self, time: float, entry: Tuple) -> None:
        """File one entry by quantized time.

        Entries whose natural bucket is at or before the active one join
        the active heap (callbacks scheduling at the current tick land
        here); later in-calendar entries are plain appends; beyond-horizon
        entries go to the overflow heap.  The routing is monotone in
        ``time``, which is what keeps pops globally ordered.
        """
        idx = int((time - self._base) * self._inv_width)
        if idx <= self._cur:
            heappush(self._buckets[self._cur], entry)
        elif idx < self._nb:
            self._buckets[idx].append(entry)
        else:
            heappush(self._far, entry)
        self._live += 1

    # ------------------------------------------------------------------
    # calendar maintenance
    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        """Move the active cursor to the next non-empty bucket.

        Heapifies the bucket it lands on.  Rolls the calendar forward from
        the overflow heap when the bucket array is exhausted; returns
        False only when no live entries remain anywhere (and realigns the
        empty calendar at ``now`` so later inserts start dense again).
        """
        buckets, nb = self._buckets, self._nb
        cur = self._cur + 1
        while True:
            while cur < nb:
                bucket = buckets[cur]
                if bucket:
                    heapify(bucket)
                    self._cur = cur
                    return True
                cur += 1
            if self._far:
                self._rebuild()
                return True
            self._base = self.now
            self._cur = 0
            return False

    def _rebuild(self) -> None:
        """Roll the calendar: re-anchor at the earliest overflow entry and
        redistribute everything now inside the horizon."""
        far = self._far
        base = far[0][0]
        self._base = base
        inv_width, nb = self._inv_width, self._nb
        buckets = self._buckets
        keep: List[Tuple] = []
        for entry in far:
            idx = int((entry[0] - base) * inv_width)
            if idx < nb:
                buckets[idx].append(entry)
            else:
                keep.append(entry)
        heapify(keep)
        self._far = keep
        self._cur = 0
        heapify(buckets[0])
        if not buckets[0]:  # pragma: no cover - base is far[0]'s bucket
            self._advance()

    def _peek_entry(self) -> Optional[Tuple]:
        """The next live entry (cancelled entries are dropped), or None.

        Leaves the entry at the head of the active bucket.
        """
        buckets = self._buckets
        while True:
            bucket = buckets[self._cur]
            while bucket:
                entry = bucket[0]
                if len(entry) == 3 and entry[2].cancelled:
                    heappop(bucket)
                    continue
                return entry
            if not self._advance():
                return None

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
        object holding its own timer is a cycle (a dropped cluster's end)."""
        for queue in self._queues():
            for entry in queue:
                if len(entry) == 3:
                    entry[2].callback = entry[2].args = None
            queue.clear()
        self._live = 0

    def _queues(self) -> Tuple[List[Tuple], ...]:
        return (*self._buckets, self._far)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _fire(self, entry: Tuple) -> None:
        """Run one already-popped entry at its instant: what :meth:`step`
        and the :class:`HeapScheduler` oracle do per event, and what the
        two measured hot loops below inline."""
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
        self._fire(heappop(self._buckets[self._cur]))
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is passed, or the
        event budget is exhausted.

        ``max_events`` exhaustion raises :class:`SimulationLimitReached`;
        reaching ``until`` or draining the queue returns normally.

        Same-tick runs are drained in one batched pass over the active
        bucket without re-entering the peek loop (the hot-loop
        optimisation for message storms, where many deliveries share a
        timestamp); execution order, ``until`` semantics and the per-event
        budget are byte-identical to the one-``step``-per-event loop
        (property-tested in ``tests/test_sim_scheduler.py``).
        """
        budget = max_events
        buckets = self._buckets
        while True:
            entry = self._peek_entry()
            if entry is None:
                return
            tick = entry[0]
            if until is not None and tick > until:
                self.now = until
                return
            # Batched same-tick drain: every event at exactly `tick` lives
            # in the active bucket (same-tick children join it on insert),
            # so the whole run pops here without re-peeking the calendar.
            bucket = buckets[self._cur]
            while True:
                if budget is not None:
                    if budget <= 0:
                        raise SimulationLimitReached(
                            f"event budget exhausted at t={self.now}",
                            self.events_processed, self.now)
                    budget -= 1
                heappop(bucket)
                self.now = tick
                self.events_processed += 1
                self._live -= 1
                if len(entry) == 5:
                    entry[2](entry[3], entry[4])
                else:
                    handle = entry[2]
                    handle.fired = True
                    handle.callback(*handle.args)
                entry = None
                while bucket:
                    head = bucket[0]
                    if len(head) == 3 and head[2].cancelled:
                        heappop(bucket)
                        continue
                    if head[0] == tick:
                        entry = head
                    break
                if entry is None:
                    break

    def run_until(self, predicate: Callable[[], bool],
                  max_events: int = 1_000_000) -> None:
        """Run until ``predicate()`` is true (checked after every event).

        Raises :class:`SimulationLimitReached` if the queue drains or the
        budget runs out while the predicate is still false.
        """
        if predicate():
            return
        budget = max_events
        buckets = self._buckets
        while budget > 0:
            # inline pop of the next live entry (the per-event hot loop of
            # every scenario run — one function call saved per event pays
            # for itself at hundreds of thousands of events/sec)
            bucket = buckets[self._cur]
            while True:
                if bucket:
                    entry = bucket[0]
                    if len(entry) == 3 and entry[2].cancelled:
                        heappop(bucket)
                        continue
                    break
                if not self._advance():
                    raise SimulationLimitReached(
                        f"event queue drained at t={self.now} with predicate unmet",
                        self.events_processed, self.now)
                bucket = buckets[self._cur]
            heappop(bucket)
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
    """The seed single-heap kernel, kept as the executable reference model.

    A test oracle, not a runtime option: one global binary heap, and every
    loop fires one event per turn through :meth:`step`, so there is
    nothing here to get wrong but the ``(time, seq)`` order itself.
    Order, ``until``, budget and error semantics are :class:`Scheduler`'s.
    The network never fuses sends into this kernel, so a run on it also
    exercises the network's general send path.  ``run`` and
    ``run_until`` cannot be inherited: the calendar loops read buckets.
    """

    def __init__(self):
        super().__init__()
        self._queue: List[Tuple] = []

    def _insert(self, time: float, entry: Tuple) -> None:
        heappush(self._queue, entry)
        self._live += 1

    def _queues(self) -> Tuple[List[Tuple], ...]:
        return (self._queue,)

    def _peek_entry(self) -> Optional[Tuple]:
        queue = self._queue
        while queue and len(queue[0]) == 3 and queue[0][2].cancelled:
            heappop(queue)
        return queue[0] if queue else None

    def step(self) -> bool:
        if self._peek_entry() is None:
            return False
        self._fire(heappop(self._queue))
        return True

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
