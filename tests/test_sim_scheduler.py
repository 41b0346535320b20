"""Unit tests for the virtual-time event scheduler."""

import pytest

from repro.sim.errors import SchedulerError, SimulationLimitReached
from repro.sim.scheduler import Scheduler


def test_starts_at_time_zero():
    assert Scheduler().now == 0.0


def test_schedule_and_run_single_event():
    sched = Scheduler()
    fired = []
    sched.schedule(2.5, fired.append, "a")
    sched.run()
    assert fired == ["a"]
    assert sched.now == 2.5


def test_events_run_in_time_order():
    sched = Scheduler()
    fired = []
    sched.schedule(3.0, fired.append, "late")
    sched.schedule(1.0, fired.append, "early")
    sched.schedule(2.0, fired.append, "middle")
    sched.run()
    assert fired == ["early", "middle", "late"]


def test_simultaneous_events_run_in_schedule_order():
    sched = Scheduler()
    fired = []
    for label in ("first", "second", "third"):
        sched.schedule(1.0, fired.append, label)
    sched.run()
    assert fired == ["first", "second", "third"]


def test_schedule_at_absolute_time():
    sched = Scheduler()
    fired = []
    sched.schedule_at(4.0, fired.append, "x")
    sched.run()
    assert sched.now == 4.0
    assert fired == ["x"]


def test_negative_delay_rejected():
    with pytest.raises(SchedulerError):
        Scheduler().schedule(-1.0, lambda: None)


def test_scheduling_in_the_past_rejected():
    sched = Scheduler()
    sched.schedule(5.0, lambda: None)
    sched.run()
    with pytest.raises(SchedulerError):
        sched.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sched = Scheduler()
    fired = []
    handle = sched.schedule(1.0, fired.append, "nope")
    handle.cancel()
    sched.run()
    assert fired == []


def test_cancel_is_idempotent_and_safe_after_fire():
    sched = Scheduler()
    handle = sched.schedule(1.0, lambda: None)
    sched.run()
    handle.cancel()  # no error
    assert handle.fired


def test_events_can_schedule_more_events():
    sched = Scheduler()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            sched.schedule(1.0, chain, depth + 1)

    sched.schedule(1.0, chain, 0)
    sched.run()
    assert fired == [0, 1, 2, 3]
    assert sched.now == 4.0


def test_run_until_time_stops_early():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, fired.append, "a")
    sched.schedule(10.0, fired.append, "b")
    sched.run(until=5.0)
    assert fired == ["a"]
    assert sched.now == 5.0
    sched.run()
    assert fired == ["a", "b"]


def test_run_event_budget_raises():
    sched = Scheduler()
    for _ in range(10):
        sched.schedule(1.0, lambda: None)
    with pytest.raises(SimulationLimitReached):
        sched.run(max_events=5)


def test_run_until_predicate():
    sched = Scheduler()
    counter = []
    for _ in range(10):
        sched.schedule(1.0, counter.append, 1)
    sched.run_until(lambda: len(counter) >= 4)
    assert len(counter) == 4


def test_run_until_predicate_already_true_is_noop():
    sched = Scheduler()
    sched.schedule(1.0, lambda: None)
    sched.run_until(lambda: True)
    assert sched.events_processed == 0


def test_run_until_raises_when_queue_drains():
    sched = Scheduler()
    sched.schedule(1.0, lambda: None)
    with pytest.raises(SimulationLimitReached):
        sched.run_until(lambda: False)


def test_run_until_raises_on_budget():
    sched = Scheduler()

    def reschedule():
        sched.schedule(1.0, reschedule)

    sched.schedule(1.0, reschedule)
    with pytest.raises(SimulationLimitReached):
        sched.run_until(lambda: False, max_events=50)


def test_peek_time_skips_cancelled():
    sched = Scheduler()
    handle = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    handle.cancel()
    assert sched.peek_time() == 2.0


def test_pending_count_excludes_cancelled():
    sched = Scheduler()
    keep = sched.schedule(1.0, lambda: None)
    drop = sched.schedule(2.0, lambda: None)
    drop.cancel()
    assert sched.pending_count() == 1
    assert keep.time == 1.0


def test_events_processed_counter():
    sched = Scheduler()
    for _ in range(7):
        sched.schedule(1.0, lambda: None)
    sched.run()
    assert sched.events_processed == 7


def test_empty_run_returns_immediately():
    sched = Scheduler()
    sched.run()
    assert sched.now == 0.0


# ----------------------------------------------------------------------
# non-cancellable call events and O(1) pending bookkeeping
# ----------------------------------------------------------------------
def test_schedule_call_needs_no_bound_callback():
    """Every call entry carries its own ``fn(a, b)``: two receivers share
    one queue, nothing is registered first, and no handle comes back."""
    sched = Scheduler()
    fired = []
    assert sched.schedule_call(
        1.0, lambda a, b: fired.append(("one", a, b)), "x", 1) is None
    sched.schedule_call(1.0, lambda a, b: fired.append(("two", a, b)),
                        "y", 2)
    sched.run()
    assert fired == [("one", "x", 1), ("two", "y", 2)]
    assert sched.events_processed == 2


def test_fused_and_generic_events_share_total_order():
    sched = Scheduler()
    fired = []

    def deliver(src, msg):
        fired.append(("dlv", src, msg))

    # same virtual time: insertion order (seq) must decide
    sched.schedule_at(1.0, lambda: fired.append(("cb", 1)))
    sched.schedule_call(1.0, deliver, "a", "m1")
    sched.schedule_at(1.0, lambda: fired.append(("cb", 2)))
    sched.schedule_call(0.5, deliver, "a", "m0")
    sched.run()
    assert fired == [("dlv", "a", "m0"), ("cb", 1),
                     ("dlv", "a", "m1"), ("cb", 2)]
    assert sched.events_processed == 4


def test_fused_deliveries_count_as_pending():
    sched = Scheduler()
    sched.schedule_call(1.0, lambda src, msg: None, "a", "m")
    sched.schedule(2.0, lambda: None)
    assert sched.pending_count() == 2
    sched.run()
    assert sched.pending_count() == 0


def test_pending_count_is_live_through_cancel_and_fire():
    sched = Scheduler()
    handles = [sched.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sched.pending_count() == 5
    handles[2].cancel()
    handles[2].cancel()  # double-cancel must not double-decrement
    assert sched.pending_count() == 4
    sched.run(until=2.5)
    assert sched.pending_count() == 2


def test_cancel_after_fire_is_a_noop():
    sched = Scheduler()
    handle = sched.schedule(1.0, lambda: None)
    sched.run()
    handle.cancel()
    assert sched.pending_count() == 0


def test_cancel_after_clear_is_a_noop():
    """A timer ``clear()`` dropped reads as cancelled: cancelling it later
    must not take a live event off the pending count."""
    sched = Scheduler()
    handle = sched.schedule(1.0, lambda: None)
    sched.clear()
    assert handle.cancelled and not handle.fired
    handle.cancel()
    assert sched.pending_count() == 0
    sched.schedule(2.0, lambda: None)
    assert sched.pending_count() == 1


def test_schedule_call_rejects_past():
    sched = Scheduler()
    sched.schedule(1.0, lambda: None)
    sched.run()
    with pytest.raises(SchedulerError):
        sched.schedule_call(0.5, lambda src, msg: None, "a", "m")


# ----------------------------------------------------------------------
# run() must stay byte-identical to one step() per event
# ----------------------------------------------------------------------
def _build_soup(sched, log, rng_seed):
    """Load a randomized event soup onto ``sched``, logging every firing.

    The soup exercises everything an event loop could get wrong:
    long runs of equal timestamps, call entries interleaved with
    cancellable handles, callbacks that schedule more events *at the current
    tick* (they must join the run in seq order), callbacks that cancel
    not-yet-fired handles, and pre-cancelled entries sitting at the heap
    head.  Identical seeds build identical soups, so two schedulers can
    be driven by different loops and compared event-for-event.
    """
    import random
    rng = random.Random(rng_seed)

    def deliver(src, msg):
        log.append(("dlv", sched.now, src, msg))

    # a handful of coarse ticks so same-time runs are long
    ticks = sorted(rng.choice([1.0, 1.0, 2.0, 3.0]) for _ in range(40))
    cancellable = []

    def spawn(tag, depth):
        log.append(("cb", sched.now, tag, depth))
        roll = rng.random()  # same rng stream on both schedulers
        if depth < 2 and roll < 0.45:
            # same-tick child: must execute inside the current run
            sched.schedule(0.0, spawn, f"{tag}.s", depth + 1)
        elif depth < 2 and roll < 0.7:
            sched.schedule(1.0, spawn, f"{tag}.f", depth + 1)
        if roll > 0.8 and cancellable:
            cancellable.pop().cancel()

    for index, tick in enumerate(ticks):
        kind = rng.random()
        if kind < 0.4:
            sched.schedule_call(tick, deliver, "a", f"m{index}")
        elif kind < 0.8:
            sched.schedule_at(tick, spawn, f"e{index}", 0)
        else:
            cancellable.append(
                sched.schedule_at(tick, log.append, ("plain", tick, index)))
    # a pre-cancelled entry at the very head of the heap
    sched.schedule_at(0.5, log.append, ("never", 0.5)).cancel()


def _reference_run(sched, until=None, max_events=None):
    """The one-``step``-per-event loop ``run()`` must equal."""
    budget = max_events
    while True:
        next_time = sched.peek_time()
        if next_time is None:
            return
        if until is not None and next_time > until:
            sched.now = until
            return
        if budget is not None:
            if budget <= 0:
                raise SimulationLimitReached(
                    f"event budget exhausted at t={sched.now}",
                    sched.events_processed, sched.now)
            budget -= 1
        sched.step()


@pytest.mark.parametrize("seed", range(8))
def test_run_matches_step_loop(seed):
    batched_log, reference_log = [], []
    batched, reference = Scheduler(), Scheduler()
    _build_soup(batched, batched_log, seed)
    _build_soup(reference, reference_log, seed)
    batched.run()
    _reference_run(reference)
    assert batched_log == reference_log
    assert batched.now == reference.now
    assert batched.events_processed == reference.events_processed
    assert batched.pending_count() == reference.pending_count() == 0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("until,max_events", [(2.0, None), (None, 13),
                                              (2.0, 13), (None, 1)])
def test_run_matches_step_loop_under_limits(seed, until, max_events):
    batched_log, reference_log = [], []
    batched, reference = Scheduler(), Scheduler()
    _build_soup(batched, batched_log, seed)
    _build_soup(reference, reference_log, seed)
    outcomes = []
    for sched, log, runner in ((batched, batched_log, None),
                               (reference, reference_log, _reference_run)):
        try:
            if runner is None:
                sched.run(until=until, max_events=max_events)
            else:
                runner(sched, until=until, max_events=max_events)
            outcomes.append(("ok",))
        except SimulationLimitReached as exc:
            outcomes.append(("limit", exc.events_processed, exc.now))
    assert outcomes[0] == outcomes[1]
    assert batched_log == reference_log
    assert batched.now == reference.now
    assert batched.events_processed == reference.events_processed
    assert batched.pending_count() == reference.pending_count()


# ----------------------------------------------------------------------
# shipped kernel vs the step-per-event reference kernel
# ----------------------------------------------------------------------
def _build_far_soup(sched, log, rng_seed):
    """Randomized schedule/cancel/drain soup over widely spread times.

    Unlike ``_build_soup`` (clustered near-future ticks), this soup
    scatters events from a quarter unit to thousands of units out, with
    ties at equal times.  Callbacks keep scheduling both near (same-tick)
    and far children, and cancel random pending handles, so cancelled
    entries reach the heap head among late same-tick joins.
    """
    import random
    rng = random.Random(rng_seed)

    def deliver(src, msg):
        log.append(("dlv", sched.now, src, msg))

    cancellable = []

    def spawn(tag, depth):
        log.append(("cb", sched.now, tag, depth))
        roll = rng.random()
        if depth < 2:
            if roll < 0.3:
                sched.schedule(0.0, spawn, f"{tag}.s", depth + 1)
            elif roll < 0.5:
                # far child, behind most of what is pending
                sched.schedule(150.0 + 75.0 * depth, spawn, f"{tag}.F",
                               depth + 1)
            elif roll < 0.7:
                sched.schedule(1.5, spawn, f"{tag}.n", depth + 1)
        if roll > 0.85 and cancellable:
            cancellable.pop().cancel()

    for index in range(60):
        time = rng.choice([0.25, 1.0, 5.0, 127.9, 128.0, 130.0, 250.0,
                           400.0, 1000.0, 5000.0])
        kind = rng.random()
        if kind < 0.4:
            sched.schedule_call(time, deliver, "a", f"m{index}")
        elif kind < 0.8:
            sched.schedule_at(time, spawn, f"e{index}", 0)
        else:
            cancellable.append(
                sched.schedule_at(time, log.append,
                                  ("plain", time, index)))
    # pre-cancelled entries both near the head and far behind it
    sched.schedule_at(0.1, log.append, ("never-near", 0.1)).cancel()
    sched.schedule_at(999.0, log.append, ("never-far", 999.0)).cancel()


@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_reference(seed):
    from repro.sim.scheduler import HeapScheduler
    shipped_log, heap_log = [], []
    shipped, heap = Scheduler(), HeapScheduler()
    _build_far_soup(shipped, shipped_log, seed)
    _build_far_soup(heap, heap_log, seed)
    shipped.run()
    heap.run()
    assert shipped_log == heap_log
    assert shipped.now == heap.now
    assert shipped.events_processed == heap.events_processed
    assert shipped.pending_count() == heap.pending_count() == 0


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_reference_under_interleaved_drains(seed):
    """Partial drains interleaved with more scheduling, across kernels.

    Budget-cut runs, then scheduling from wherever the clock stopped
    (draining completely, too), against the step-per-event reference.
    """
    from repro.sim.scheduler import HeapScheduler
    import random
    shipped_log, heap_log = [], []
    schedulers = [(Scheduler(), shipped_log), (HeapScheduler(), heap_log)]
    for sched, log in schedulers:
        _build_far_soup(sched, log, seed)
        rng = random.Random(1000 + seed)
        for round_index in range(6):
            try:
                sched.run(max_events=rng.randrange(5, 40))
            except SimulationLimitReached:
                pass
            # keep scheduling from wherever the clock stopped
            base = sched.now
            for extra in range(4):
                offset = rng.choice([0.0, 0.3, 2.0, 140.0, 600.0])
                sched.schedule_at(base + offset, log.append,
                                  ("late", round_index, extra))
        sched.run()
    assert shipped_log == heap_log
    assert schedulers[0][0].now == schedulers[1][0].now
    assert schedulers[0][0].events_processed == \
        schedulers[1][0].events_processed


def test_far_future_events_fire_in_order():
    sched = Scheduler()
    fired = []
    sched.schedule_at(5000.0, fired.append, "way-out")
    sched.schedule_at(129.0, fired.append, "just-out")
    sched.schedule_at(1.0, fired.append, "near")
    sched.run()
    assert fired == ["near", "just-out", "way-out"]
    assert sched.now == 5000.0


def test_run_until_matches_across_kernels():
    from repro.sim.scheduler import HeapScheduler
    results = []
    for factory in (Scheduler, HeapScheduler):
        sched = factory()
        log = []
        _build_far_soup(sched, log, 3)
        sched.run_until(lambda: sched.events_processed >= 25,
                        max_events=1000)
        results.append((sched.now, sched.events_processed, log))
    assert results[0] == results[1]

